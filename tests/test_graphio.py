import json

import pytest

from kgraphck.degree import Degree
from kgraphck.errors import (
    DuplicateId,
    InvalidSpec,
    NotComposable,
    ParseError,
    UnknownColor,
)
from kgraphck.graphio import (
    parse_families,
    parse_graph,
    parse_path,
    spec_from_dict,
    spec_to_dict,
)
from kgraphck.kgraph import validate


def emit_graph(spec):
    """Canonical graph file text: sorted keys, two-space indent."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


G1_DOC = {
    "rank": 2,
    "vertices": ["v"],
    "edges": [["b", 1, "v", "v"], ["r", 2, "v", "v"]],
    "squares": [["b", "r", "r", "b"]],
}


def test_parse_g1(tmp_path):
    f = tmp_path / "g1.json"
    f.write_text(json.dumps(G1_DOC))
    spec = parse_graph(str(f))
    g = validate(spec)
    assert g.rank == 2 and not g.is_acyclic


def test_roundtrip_canonical(omega11):
    doc = spec_to_dict(omega11.spec)
    again = spec_to_dict(spec_from_dict(json.loads(emit_graph(omega11.spec))))
    assert doc == again
    assert emit_graph(omega11.spec) == emit_graph(spec_from_dict(doc))


def test_parse_errors():
    with pytest.raises(ParseError):
        spec_from_dict({"rank": 2})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "squares": [["b", "r", "r"]]})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "vertices": ["v", "w.x"]})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "edges": 5})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "squares": {"b": "r"}})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "edges": [["b", "1", "v", "v"], ["r", 2, "v", "v"]]})
    with pytest.raises(ParseError):
        spec_from_dict({**G1_DOC, "edges": [["b", 1, ["v"], "v"], ["r", 2, "v", "v"]]})


def test_structural_errors_from_validate():
    """Ids and colors are checked once, by validate, and stay ParseErrors."""
    cases = [
        (DuplicateId, {**G1_DOC, "vertices": ["v", "v"]}),
        (DuplicateId, {**G1_DOC, "edges": [["b", 1, "v", "v"], ["b", 2, "v", "v"]]}),
        (DuplicateId, {**G1_DOC, "vertices": ["v", "b"]}),
        (UnknownColor, {**G1_DOC, "edges": [["b", 3, "v", "v"], ["r", 2, "v", "v"]]}),
    ]
    for cls, doc in cases:
        spec = spec_from_dict(doc)
        with pytest.raises(cls) as exc:
            validate(spec)
        assert isinstance(exc.value, ParseError)
        assert isinstance(exc.value, InvalidSpec)
    with pytest.raises(InvalidSpec):
        validate(spec_from_dict({**G1_DOC, "edges": [["b", 1, "v", "w"], ["r", 2, "v", "v"]]}))


def test_parse_path_tokens(omega11):
    assert parse_path(omega11, "0,0").is_vertex()
    c = parse_path(omega11, "c1:0,0.c2:1,0")
    assert c.degree == Degree(1, 1)
    # non-normal order normalizes
    c2 = parse_path(omega11, "c2:0,0.c1:0,1")
    assert c2 == c
    with pytest.raises(ParseError):
        parse_path(omega11, "nope")
    with pytest.raises(NotComposable):
        parse_path(omega11, "c1:0,0.c1:0,1")


def test_parse_families(omega11):
    doc = {"families": [["c1:0,0"], ["c1:0,0", "c2:0,0"]]}
    fams = parse_families(omega11, doc)
    assert len(fams) == 2
    assert fams[1].vertex == "0,0"
    for row in ([], [5], ["c1:0,0", None], [["c1:0,0"]]):
        with pytest.raises(ParseError, match="nonempty list of path tokens"):
            parse_families(omega11, {"families": [row]})

"""Graph and generator file formats.

A graph file is JSON with fields rank, vertices, edges, squares; edges are
[id, color, range, source] rows and squares are [e, f, f2, e2] rows.  Ids
are strings and may not contain '.', which the path-token syntax reserves
as the edge separator.  Path tokens are either a vertex id (the degree-0
path) or edge ids joined by '.'.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError
from .kgraph import Edge, KGraph, Path, SkeletonSpec, compose_all


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def spec_from_dict(doc: Any) -> SkeletonSpec:
    """The skeleton a graph document describes, checked for shape only.

    Ids, colors and endpoints are checked by :func:`kgraph.validate`.
    """
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    for key in ("rank", "vertices", "edges", "squares"):
        _require(key in doc, f"missing field {key!r}")
    rank = doc["rank"]
    _require(type(rank) is int and rank >= 1, "rank must be an integer >= 1")

    vertices = doc["vertices"]
    _require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        "vertices must be a list of strings",
    )
    for v in vertices:
        _require("." not in v, f"vertex id {v!r} contains '.'")

    _require(isinstance(doc["edges"], list), "edges must be a list")
    edges = []
    for row in doc["edges"]:
        _require(
            isinstance(row, list) and len(row) == 4,
            f"edge row {row!r} must be [id, color, range, source]",
        )
        eid, color, rng, src = row
        _require(isinstance(eid, str) and "." not in eid, f"bad edge id {eid!r}")
        _require(type(color) is int, f"edge {eid!r} has non-integer color {color!r}")
        _require(
            isinstance(rng, str) and isinstance(src, str),
            f"edge {eid!r} endpoints must be vertex ids",
        )
        edges.append(Edge(eid, color, rng, src))

    _require(isinstance(doc["squares"], list), "squares must be a list")
    squares = []
    for row in doc["squares"]:
        _require(
            isinstance(row, list) and len(row) == 4 and all(isinstance(x, str) for x in row),
            f"square row {row!r} must be [e, f, f2, e2]",
        )
        squares.append(tuple(row))

    return SkeletonSpec(rank, tuple(vertices), tuple(edges), tuple(squares))


def read_json(path: str) -> Any:
    """The JSON document in a file; an unreadable or malformed file, or an
    object naming one key twice (where ``json`` would keep the last value),
    is a ParseError."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        out = {}
        for key, value in pairs:
            _require(key not in out, f"{path} repeats the key {key!r} in one object")
            out[key] = value
        return out

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_graph(path: str) -> SkeletonSpec:
    return spec_from_dict(read_json(path))


def spec_to_dict(spec: SkeletonSpec) -> dict:
    """Canonical document form: sorted ids, squares oriented low-color first."""
    edges = {e.id: e for e in spec.edges}

    def orient(square: tuple[str, str, str, str]) -> tuple[str, str, str, str]:
        e, f, f2, e2 = square
        if edges[e].color > edges[f].color:
            return (f2, e2, e, f)
        return square

    return {
        "rank": spec.rank,
        "vertices": sorted(spec.vertices),
        "edges": [
            [e.id, e.color, e.range, e.source]
            for e in sorted(spec.edges, key=lambda e: e.id)
        ],
        "squares": sorted(list(orient(s)) for s in spec.squares),
    }


# -- path tokens -----------------------------------------------------------------


def parse_path(graph: KGraph, token: str) -> Path:
    """A vertex id, or '.'-joined edge ids read range-to-source."""
    if token in graph.vertices:
        return graph.vertex_path(token)
    word = token.split(".")
    try:
        pieces = [graph.edge_path(eid) for eid in word]
    except KeyError as exc:
        raise ParseError(f"unknown edge {exc.args[0]!r} in path {token!r}") from exc
    return compose_all(pieces)


def parse_families(graph: KGraph, doc: Any):
    """Generator documents: {"families": [[token, ...], ...]}."""
    from .alignment import PathFamily

    families = doc.get("families") if isinstance(doc, dict) else None
    _require(isinstance(families, list), "expected {'families': [...]}")
    out = []
    for row in families:
        _require(
            isinstance(row, list) and row and all(isinstance(t, str) for t in row),
            f"family {row!r} must be a nonempty list of path tokens",
        )
        members = [parse_path(graph, tok) for tok in row]
        out.append(PathFamily(graph, members[0].range, members))
    return out

"""Route (a) read off the matrix-unit lemma, against the enumerating route.

When TCK1-TCK3 hold exactly on rational entries and the universe is exact,
``faithful_on_core_check`` decides route (a) without enumerating a grid:
it passes when no vertex operator is zero and no gap product outside the
collection vanishes.  That is the one place where route (a) is not computed
independently of route (b), so these tests keep the independence: on every
case they compare the verdict with ``_route_a``'s walk over the grid {v} of
each vertex and the grids of the families outside the collection, and with
``oracles.per_window_faithful_on_core_check`` where the universe is small.
The corpus has passing and failing cases under the lemma's hypothesis, and
tampered bundles outside it.
"""

import json
import os
import random

import pytest

from kgraphck import repn
from kgraphck.boundary import omega
from kgraphck.cli import _bundle_load, _bundle_of
from kgraphck.degree import Degree
from kgraphck.graphio import parse_graph, spec_from_dict
from kgraphck.kgraph import validate
from kgraphck.matrices import PartialInjection
from kgraphck.repn import CKFamily, boundary_rep, faithful_on_core_check
from kgraphck.satiation import FamilyCollection, full_fe_collection, satiate

import oracles
from test_injections import TAMPERS, tamper
from test_repn import zero_family

GRAPH_DIR = os.path.join(os.path.dirname(__file__), "..", "graphs")


def _graph_file(name):
    return validate(parse_graph(os.path.join(GRAPH_DIR, name)))


CORPUS = {
    "omega21": lambda: omega(2, Degree(2, 1)),
    "omega22": lambda: omega(2, Degree(2, 2)),
    "omega32": lambda: omega(2, Degree(3, 2)),
    "omega111": lambda: omega(3, Degree(1, 1, 1)),
    **{f"b7.{i}": lambda i=i: oracles.random_graphs(7, 6)[i] for i in (0, 1, 3)},
    **{
        name: lambda name=name: _graph_file(name)
        for name in sorted(os.listdir(GRAPH_DIR))
        if _graph_file(name).is_acyclic
    },
}
# satiating a drawn family on omega(2,(3,2)) lists more families than the
# budget allows, and its universe is too large for the per-window oracle
NO_DRAWS = {"omega32"}
ORACLE_UNIVERSE = 200


def _collections(g, name):
    """The satiated chain: nothing, drawn generators, the whole universe."""
    base = FamilyCollection(g)
    chain = [satiate(base)]
    if name not in NO_DRAWS:
        universe = base.universe_all()
        draws = [random.Random(seed).choice(universe) for seed in (name, f"{name}:lemma")]
        chain += [satiate(base.with_members([F])) for F in draws]
    chain.append(full_fe_collection(g))
    unique = {S.members: S for S in chain}
    return list(unique.values())


def _compare(T, S, oracle):
    """Assert the verdict equals the enumerating route's; return the lemma's
    verdict on route (a), no zero vertex operator and no vanished gap
    product outside S, or None outside the hypothesis."""
    verdict = faithful_on_core_check(T, S)
    walk = repn._route_a(T, S)
    assert verdict.route_a_violations == walk
    assert verdict.route_a_ok == (not walk)
    if oracle:
        want = oracles.per_window_faithful_on_core_check(T, S)
        assert (verdict.route_a_ok, verdict.route_b_violations) == (
            want.route_a_ok,
            want.route_b_violations,
        )
    if not (S.exact and T.exact_relations()):
        return None
    return not T.zero_vertices() and not T.kept(S, repn.gap_vanishing).vanished_outside


@pytest.mark.parametrize("name", list(CORPUS))
def test_lemma_matches_enumerating_route(name):
    # each chain member's boundary representation against every collection
    # of the chain (a larger collection's representation against a smaller
    # one fails), the zero family, and tampered bundles, which lie outside
    # the hypothesis
    g = CORPUS[name]()
    chain = _collections(g, name)
    oracle = len(FamilyCollection(g).universe_all()) <= ORACLE_UNIVERSE
    reps = [boundary_rep(g, S) for S in chain]
    pairs = [(T, S) for T in reps for S in chain] + [(zero_family(g), S) for S in chain]
    doc = _bundle_of(reps[0])
    pairs += [(_bundle_load(g, tamper(doc, g, kind)), chain[0]) for kind in TAMPERS]
    seen = {True: 0, False: 0, None: 0}
    for T, S in pairs:
        predicted = _compare(T, S, oracle)
        if predicted is not None:
            assert predicted == faithful_on_core_check(T, S).route_a_ok
        seen[predicted] += 1
    assert seen[True] and seen[False] and seen[None] >= len(TAMPERS), seen


def _single_edge_graph():
    """u <- v by one edge e: nothing has range v but v itself, so the
    universe at v is empty."""
    return validate(
        spec_from_dict({"rank": 1, "vertices": ["u", "v"], "edges": [["e", 1, "u", "v"]], "squares": []})
    )


def _with_isolated_vertex():
    doc = json.loads(json.dumps(json.load(open(os.path.join(GRAPH_DIR, "omega_2_11.json")))))
    doc["vertices"].append("z")
    return validate(spec_from_dict(doc))


def _zeroed(T, paths):
    """T with the operators of the given paths replaced by zero."""
    ops = dict(T.ops)
    for lam in paths:
        ops[lam] = PartialInjection.zero(T.dim)
    return CKFamily(T.graph, T.dim, ops, basis=T.basis)


def test_zero_vertex_takes_the_enumerating_route():
    # a zero vertex operator with TCK1-TCK3 exact fails route (a) as the
    # lemma predicts, also at a vertex with no family outside S: the grid
    # {v} holds the unit theta(v,v) = t_v
    g = _single_edge_graph()
    S = satiate(FamilyCollection(g))
    assert S.outside("v") == () and S.outside("u")
    T = _zeroed(boundary_rep(g, S), [g.vertex_path("v"), g.edge_path("e")])
    assert T.exact_relations() and T.zero_vertices() == ("v",)
    assert _compare(T, S, oracle=True) is False

    g = _with_isolated_vertex()
    S = satiate(FamilyCollection(g))
    assert S.outside("z") == ()
    T = _zeroed(boundary_rep(g, S), [g.vertex_path("z")])
    assert T.exact_relations() and T.zero_vertices() == ("z",)
    assert _compare(T, S, oracle=True) is False
    verdict = faithful_on_core_check(T, S)
    assert verdict.route_a_violations == ["theta(z,z) vanished in grid of size 1"]
    assert verdict.route_b_violations == ["vertex operator z is zero"]


def test_empty_universe_vertex_with_nonzero_operators():
    # the same graphs with every operator intact: the lemma passes and agrees
    for g in (_single_edge_graph(), _with_isolated_vertex()):
        for S in (satiate(FamilyCollection(g)), full_fe_collection(g)):
            assert _compare(boundary_rep(g, S), S, oracle=True) is True

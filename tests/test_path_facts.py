"""The path facts that S2, S3 and condition (C) read, against ``segment``.

``FamilyCollection.facts`` keeps each path's initial segments and each
Ext(mu; {nu}), built on first use and shared by every collection derived
from one.  S2's and S3's images from the table must be the images that
``has_prefix_in``, ``ext_family`` and ``oracles.segment_truncations`` give,
in the same order, on exact, windowed and size-capped universes; so must
``satiate``'s fixpoint, and ``is_satiated`` must give the four-loop oracle's
verdict with violations the oracle lists.
"""

import os
import random

import pytest

from kgraphck.boundary import condition_c
from kgraphck.degree import Degree
from kgraphck.graphio import parse_graph
from kgraphck.kgraph import validate
from kgraphck.satiation import (
    FamilyCollection,
    _extension_images,
    _truncation_images,
    satiate,
)

import oracles
from test_satiation import _outcome, assert_reports_missing_images

GRAPH_DIR = os.path.join(os.path.dirname(__file__), "..", "graphs")


def _graph_file(name):
    return validate(parse_graph(os.path.join(GRAPH_DIR, name)))


def _bases():
    """(label, collection with no members) over exact, windowed and capped universes."""
    batch = oracles.random_graphs(7, 6)
    for name in sorted(os.listdir(GRAPH_DIR)):
        g = _graph_file(name)
        if g.is_acyclic:
            yield f"exact {name}", FamilyCollection(g)
    for i in (0, 1, 3):
        yield f"exact b7.{i}", FamilyCollection(batch[i])
    # cyclic single-vertex graphs in a depth window
    yield "windowed g1.json", FamilyCollection(_graph_file("g1.json"), depth=Degree(1, 1))
    sv2 = [validate(oracles.random_single_vertex_spec(random.Random(s), 2)) for s in (2, 4)]
    yield "windowed sv2-s2", FamilyCollection(sv2[0], depth=Degree(1, 1))
    # wider windows, with a size cap to keep the universe small
    yield "windowed capped b7.4", FamilyCollection(batch[4], depth=Degree(2, 1), max_family_size=2)
    yield "windowed capped sv2-s4", FamilyCollection(sv2[1], depth=Degree(2, 1), max_family_size=2)
    sv3 = validate(oracles.random_single_vertex_spec(random.Random(0), 3))
    yield "windowed capped sv3-s0", FamilyCollection(sv3, depth=Degree(1, 1, 1), max_family_size=2)
    yield "capped omega_2_21.json", FamilyCollection(_graph_file("omega_2_21.json"), max_family_size=2)
    yield "capped b7.0", FamilyCollection(batch[0], max_family_size=2)
    yield "capped b7.3", FamilyCollection(batch[3], max_family_size=3)


BASES = dict(_bases())


@pytest.mark.parametrize("label", list(BASES))
def test_images_match_segment_images(label):
    base = BASES[label]
    for fam in base.universe_all():
        assert list(_extension_images(base, fam)) == list(
            oracles.segment_extension_images(base, fam)
        )
        assert list(_truncation_images(base, fam)) == list(
            oracles.segment_truncation_images(base, fam)
        )


@pytest.mark.parametrize("label", list(BASES))
def test_satiation_matches_segment_oracles(label):
    base = BASES[label]
    universe = base.universe_all()
    rng = random.Random(label)
    for _ in range(3):
        C = base.with_members(rng.sample(universe, min(len(universe), rng.randint(1, 2))))
        assert assert_reports_missing_images(C)
        got = _outcome(satiate, C)
        want = _outcome(oracles.naive_satiate, C)
        if isinstance(got, str):
            assert got == want
            continue
        assert got.members == want.members
        assert assert_reports_missing_images(got)


def test_construction_computes_no_fact_and_derived_collections_share_them():
    g = _graph_file("omega_2_21.json")
    C = FamilyCollection(g, FamilyCollection(g).universe("0,0")[:2])
    C.universe_all()
    assert (C.facts._segments, C.facts._exts) == ({}, {})
    S = satiate(C)
    assert S.facts is C.facts and C.with_members(()).facts is C.facts
    assert C.facts._segments and C.facts._exts
    # condition (C) reads the same table, and its prefix sets are the
    # initial segments by segment
    report = condition_c(S)
    assert report == oracles.per_family_condition_c(S)
    assert FamilyCollection(g).facts is not C.facts

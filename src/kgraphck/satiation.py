"""Satiated collections of finite exhaustive families and their closure.

A collection is satiated when it is closed under supersets (S1), extension
transport (S2), truncation (S3), and grafting (S4).  The satiation of a
collection is computed as the least fixed point of the composite map
sigma4 . sigma3 . sigma2 . sigma1 over a finite universe of candidate
families; results are exact when the universe is the full finite-exhaustive
universe of an acyclic graph, and windowed (three-valued membership)
otherwise.  A collection derives, once each, the views later checks read:
its (minimal) members at a vertex and the (maximal) families outside it.

One generator per axiom yields a family's images, and the closure maps add
them.  ``is_satiated`` reads only the minimal members at each vertex: the
universe families containing them (S1) and their single-step images (S2, a
truncation or grafting of one member for S3 and S4), with no budget.  The
closure maps and ``satiate`` still map members by the full images; the
fixpoint is evaluated semi-naively: sigma1-sigma3 map each family on its
own, so each round applies them only to the families that are new since the
previous round, while sigma4, whose pools come from the whole collection,
makes a full pass.  Truncations are built once per member prefix and yielded once per
distinct family.  S2, S3 and condition (C) read initial segments and
single-member extension sets from one :class:`PathFacts`, filled on first use
and shared by every collection derived from the one that made it.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .degree import Degree
from .errors import (
    BudgetExceeded,
    ClosureInvariantViolated,
    FixpointBudgetExceeded,
    InexactUniverse,
    UniverseTooLarge,
)
from .kgraph import KGraph, Path, compose, segment
from .alignment import PathFamily, ext
from .exhaustive import _candidates, _hit_masks, fe_enumerate, is_exhaustive


class Membership(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class PathFacts:
    """Facts about paths, each computed on first use and then kept: a path's
    initial segments p(0, n), n <= d(p), and Ext(mu; {nu}) for a pair."""

    def __init__(self):
        self._segments: dict[Path, tuple[tuple[Path, ...], frozenset]] = {}
        self._exts: dict[tuple[Path, Path], tuple[Path, ...]] = {}

    def _cut(self, p: Path) -> tuple[tuple[Path, ...], frozenset]:
        hit = self._segments.get(p)
        if hit is None:
            zero = Degree.zero(p.graph.rank)
            cuts = tuple(segment(p, zero, n) for n in p.degree.below())  # p(0, 0) first
            hit = self._segments[p] = (cuts[1:], frozenset(cuts))
        return hit

    def truncations(self, p: Path) -> tuple[Path, ...]:
        """p(0, n) for 0 < n <= d(p), in ``Degree.below()`` order."""
        return self._cut(p)[0]

    def prefixes(self, p: Path) -> frozenset:
        """The set of p(0, n) for n <= d(p), the vertex r(p) included."""
        return self._cut(p)[1]

    def ext(self, mu: Path, nu: Path) -> tuple[Path, ...]:
        """Ext(mu; {nu})."""
        hit = self._exts.get((mu, nu))
        if hit is None:
            hit = self._exts[(mu, nu)] = ext(mu, (nu,))
        return hit


class FamilyCollection:
    """A set of verified finite exhaustive families over a finite universe.

    The universe is the per-vertex window vLambda^{<=depth} minus the vertex,
    optionally capped in family size.  ``exact`` means the universe equals
    the full finite-exhaustive universe: acyclic graph, depth at least the
    maximum path degree, no size cap.  ``facts`` is shared with every
    collection derived by :meth:`with_members`.
    """

    def __init__(
        self,
        graph: KGraph,
        members: Iterable[PathFamily] = (),
        depth: Degree | None = None,
        max_family_size: int | None = None,
        budget: int = 200_000,
    ):
        if depth is None:
            depth = graph.max_degree  # raises on cyclic graphs
        self.graph = graph
        self.depth = depth
        self.max_family_size = max_family_size
        self.budget = budget
        self.exact = (
            graph.is_acyclic
            and graph.max_degree <= depth
            and max_family_size is None
        )
        self._universe: dict[str, tuple[PathFamily, ...]] = {}
        self._universe_sets: dict[str, frozenset] = {}
        self._views: dict = {}  # derived from the members, built on first use
        self.facts = PathFacts()
        members = tuple(members)
        for fam in members:  # in the order given, so an error names the same family every run
            self._validate_member(fam)
        self.members = frozenset(members)

    def _validate_member(self, fam: PathFamily) -> None:
        if fam.graph is not self.graph:
            raise ValueError("family belongs to a different graph")
        if not fam.members:
            raise ValueError("empty families are never exhaustive")
        if not fam.is_vertex_free():
            raise ValueError(f"{fam!r} contains a vertex path")
        if fam not in self.universe_set(fam.vertex):
            raise ValueError(f"{fam!r} is not in the family universe")

    # -- universe --

    def universe(self, v: str) -> tuple[PathFamily, ...]:
        """All candidate exhaustive families at v within the window."""
        if v not in self._universe:
            cap = self.max_family_size
            if cap is None:
                cap = len(self.graph.paths_up_to(v, self.depth))
            try:
                self._universe[v] = fe_enumerate(
                    self.graph, v, self.depth, cap, budget=self.budget
                )
            except BudgetExceeded as exc:
                raise UniverseTooLarge(str(exc)) from exc
            self._universe_sets[v] = frozenset(self._universe[v])
        return self._universe[v]

    def universe_set(self, v: str) -> frozenset:
        self.universe(v)
        return self._universe_sets[v]

    def in_window(self, fam: PathFamily) -> bool:
        if self.max_family_size is not None and len(fam.members) > self.max_family_size:
            return False
        return all(p.degree <= self.depth for p in fam.members)

    def universe_all(self) -> tuple[PathFamily, ...]:
        out = []
        for v in self.graph.vertices:
            out.extend(self.universe(v))
        return tuple(out)

    # -- collection protocol --

    def __contains__(self, fam: PathFamily) -> bool:
        return fam in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FamilyCollection)
            and self.graph is other.graph
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash(self.members)

    # -- derived views, each built once per collection --

    def view(self, key, build):
        """build(), kept with the members; views never hold the collection."""
        if key not in self._views:
            self._views[key] = build()
        return self._views[key]

    def sorted_members(self) -> tuple[PathFamily, ...]:
        return self.view("sorted", lambda: tuple(sorted(self.members, key=lambda f: f.sort_key())))

    def at(self, v: str) -> tuple[PathFamily, ...]:
        """The members at v, in family order."""
        return self.view("at", self._by_vertex).get(v, ())

    def _by_vertex(self) -> dict[str, tuple[PathFamily, ...]]:
        # family order sorts by vertex first
        groups = itertools.groupby(self.sorted_members(), key=lambda f: f.vertex)
        return {u: tuple(fs) for u, fs in groups}

    def minimal_at(self, v: str) -> tuple[PathFamily, ...]:
        """The inclusion-minimal members at v, in family order."""
        return self.view(("minimal", v), lambda: _minimal(self.at(v)))

    def outside(self, v: str) -> tuple[PathFamily, ...]:
        """The universe families at v that are not members, in universe order."""
        return self.view(
            ("outside", v), lambda: tuple(F for F in self.universe(v) if F not in self.members)
        )

    def maximal_outside(self, v: str) -> tuple[PathFamily, ...]:
        """The F in ``outside(v)`` with F u {p} a member for every non-vertex
        window path p not in F: on an exact universe, for a collection closed
        under supersets (S1), the maximal families outside it.  With no
        member at v that is the family of every candidate, if it is in the
        universe, read off the masks that a universe family's mask meets
        (:func:`~kgraphck.exhaustive._hit_masks`) without listing the universe."""

        def build():
            if not self.at(v):
                candidates = _candidates(self.graph, v, self.depth)
                masks = _hit_masks(self.graph, v, self.depth, candidates)
                cap = self.max_family_size
                fits = candidates and (cap is None or len(candidates) <= cap)
                if fits and masks is not None and 0 not in masks:
                    return (PathFamily(self.graph, v, candidates),)
                return ()
            inside = {E.members for E in self.at(v)}
            candidates = [p for p in self.window_paths(v) if not p.is_vertex()]
            return tuple(
                F
                for F in self.outside(v)
                if all(F.members | {p} in inside for p in candidates if p not in F.members)
            )

        return self.view(("maximal_outside", v), build)

    def require_exact(self, what: str) -> None:
        """Raise ``InexactUniverse`` unless the universe is exact."""
        if not self.exact:
            raise InexactUniverse(f"{what} needs an exact universe (acyclic, full window)")

    def with_members(self, members: Iterable[PathFamily]) -> "FamilyCollection":
        """These members over the same universe; new families are validated in the order given."""
        members = tuple(members)
        for fam in members:
            if fam not in self.members:
                self._validate_member(fam)
        out = copy.copy(self)
        out.members = frozenset(members)
        out._views = {}
        return out

    def window_paths(self, v: str) -> tuple[Path, ...]:
        return self.graph.paths_up_to(v, self.depth)


def _minimal(fams: tuple[PathFamily, ...]) -> tuple[PathFamily, ...]:
    return tuple(f for f in fams if not any(g.members < f.members for g in fams))


def full_fe_collection(graph: KGraph, budget: int = 200_000) -> FamilyCollection:
    """The full finite-exhaustive universe of an acyclic graph, as members."""
    empty = FamilyCollection(graph, (), budget=budget)
    return empty.with_members(empty.universe_all())


# -- membership ---------------------------------------------------------------


def member(fam: PathFamily, collection: FamilyCollection) -> Membership:
    """Three-valued membership of ``fam`` in the collection.

    Exact universes give definite answers; windowed universes answer YES for
    present members and UNKNOWN otherwise (the windowed satiation only
    under-approximates the true one).
    """
    if fam in collection.members:
        return Membership.YES
    if collection.exact:
        return Membership.NO
    return Membership.UNKNOWN


# -- the four closure maps -----------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    detail: str


def _check_family(collection: FamilyCollection, fam: PathFamily) -> PathFamily | None:
    """Re-verify that a closure map produced an exhaustive universe family.

    The universe holds every candidate subset that passes the hitting test
    of ``fe_enumerate``, so membership is the verification; a miss inside the
    window, or any miss on an exact universe, means the map produced a
    non-exhaustive family, contradicting the supporting closure lemmas.  On
    windowed universes the maps may escape the window (graftings add
    degrees); those families are dropped, keeping the windowed satiation an
    under-approximation.
    """
    if fam in collection.universe_set(fam.vertex):
        return fam
    if collection.in_window(fam):
        verdict = is_exhaustive(fam)
        raise ClosureInvariantViolated(
            f"closure map produced {fam!r} inside the window but outside the "
            f"universe (exhaustive={verdict.status.value})"
        )
    if collection.exact:
        raise ClosureInvariantViolated(
            f"closure map produced {fam!r} outside the exact universe"
        )
    return None


def _require_truncation_budget(fam: PathFamily, budget: int) -> None:
    """Raise when the choice vectors 0 < n_lam <= d(lam) outnumber the budget."""
    count = 1
    for p in fam.members:
        count *= math.prod(c + 1 for c in p.degree.coords) - 1
    if count > budget:
        raise UniverseTooLarge(
            f"{count} truncation vectors for {fam!r} exceed the budget {budget}"
        )


def _truncations(fam: PathFamily, budget: int | None = None, facts: PathFacts | None = None):
    """The distinct families {lam(0, n_lam)} over choices 0 < n_lam <= d(lam).

    Each prefix lam(0, n) is read from ``facts`` (a fresh table if none) and
    numbered; the product runs over the numbers, and each distinct family is
    yielded once, in the order of its first choice vector.  The budget
    counts choice vectors and is checked before any prefix is read.
    """
    if budget is not None:
        _require_truncation_budget(fam, budget)
    if facts is None:
        facts = PathFacts()
    index: dict[Path, int] = {}
    options = [
        [index.setdefault(q, len(index)) for q in facts.truncations(p)]
        for p in fam.sorted_members()
    ]
    prefixes = list(index)
    seen: set[frozenset] = set()
    for choice in itertools.product(*options):
        cut = frozenset(choice)
        if cut not in seen:
            seen.add(cut)
            yield PathFamily(fam.graph, fam.vertex, [prefixes[i] for i in cut])


def _graftings(collection: FamilyCollection, fam: PathFamily, budget: int | None = None):
    """All (E \\ F) u U_{lam in F} lam.F_lam with F_lam drawn from members.

    A member with some lam.q past the window grafts only families the closure
    maps drop and ``is_satiated`` skips, so it leaves lam's pool before any
    grafting is counted (on an exact universe none does)."""
    pools = {p: collection.at(p.source) for p in fam.sorted_members()}
    if not collection.exact:
        depth = collection.depth
        pools = {
            p: tuple(F for F in pool if all(p.degree + q.degree <= depth for q in F.members))
            for p, pool in pools.items()
        }
    graftable = [p for p, pool in pools.items() if pool]
    produced = 0
    for r in range(len(graftable) + 1):
        for subset in itertools.combinations(graftable, r):
            subset_pools = [pools[p] for p in subset]
            count = 1
            for pool in subset_pools:
                count *= len(pool)
            produced += count
            if budget is not None and produced > budget:
                raise UniverseTooLarge(
                    f"grafting enumeration for {fam!r} exceeds the budget {budget}"
                )
            kept = fam.members.difference(subset)
            for assignment in itertools.product(*subset_pools):
                grafted = set(kept)
                for lam, sub in zip(subset, assignment):
                    grafted.update(compose(lam, q) for q in sub.members)
                yield PathFamily(fam.graph, fam.vertex, grafted)


# -- axiom images: (witness, image) pairs; the witness is S2's mu, else None --


def _superset_images(collection: FamilyCollection, fam: PathFamily):
    """S1: the universe families containing fam."""
    return ((None, F) for F in collection.universe(fam.vertex) if fam.members <= F.members)


def _extension_images(collection: FamilyCollection, fam: PathFamily):
    """S2: Ext(mu; fam) for each mu in r(fam).Lambda \\ fam.Lambda in the window,
    as the union of the Ext(mu; {nu}) over the members nu."""
    facts = collection.facts
    for mu in collection.window_paths(fam.vertex):
        if fam.members.isdisjoint(facts.prefixes(mu)):  # no member is a prefix of mu
            tails = (alpha for nu in fam.members for alpha in facts.ext(mu, nu))
            yield mu, PathFamily(fam.graph, mu.source, tails)


def _truncation_images(collection: FamilyCollection, fam: PathFamily):
    """S3: the truncations of fam, within the collection's budget."""
    return ((None, F) for F in _truncations(fam, collection.budget, collection.facts))


def _grafting_images(collection: FamilyCollection, fam: PathFamily):
    """S4: the graftings of members onto fam, within the collection's budget."""
    return ((None, F) for F in _graftings(collection, fam, budget=collection.budget))


def _truncation_steps(collection: FamilyCollection, fam: PathFamily):
    """S3 in single steps: (fam \\ {lam}) u {t}, t a proper truncation of a
    member lam, over the members in path order."""
    for lam in fam.sorted_members():
        rest = fam.members - {lam}
        for t in collection.facts.truncations(lam)[:-1]:  # the last is lam itself
            yield None, PathFamily(fam.graph, fam.vertex, rest | {t})


def _grafting_steps(collection: FamilyCollection, fam: PathFamily):
    """S4 in single steps: (fam \\ {lam}) u lam.F, F a minimal member at
    s(lam), over the members in path order."""
    for lam in fam.sorted_members():
        rest = fam.members - {lam}
        for F in collection.minimal_at(lam.source):
            yield None, PathFamily(fam.graph, fam.vertex, rest.union(compose(lam, q) for q in F.members))


# the images is_satiated checks for each minimal member, and the violation
# text for an image the collection lacks
_STEPS = (
    ("S1", _superset_images, lambda E, _, F: f"{E!r} subset of {F!r} not in collection"),
    ("S2", _extension_images,
     lambda E, mu, F: f"Ext({mu.token()}; {E!r}) = {F!r} not in collection"),
    ("S3", _truncation_steps, lambda E, _, F: f"truncation {F!r} of {E!r} missing"),
    ("S4", _grafting_steps, lambda E, _, F: f"grafting {F!r} of {E!r} missing"),
)


def _with_images(collection: FamilyCollection, fams: Iterable[PathFamily], images):
    """The collection plus the checked images of fams, mapped in the order given."""
    out = set(collection.members)
    for fam in fams:
        for _, image in images(collection, fam):
            checked = _check_family(collection, image)
            if checked is not None:
                out.add(checked)
    return collection.with_members(out)


def sigma1(
    collection: FamilyCollection, only: Iterable[PathFamily] | None = None
) -> FamilyCollection:
    """All universe families containing some member (finite supersets).

    ``only`` restricts the members mapped; the result still keeps every
    member of the collection.
    """
    return _with_images(collection, collection.members if only is None else only, _superset_images)


def sigma2(
    collection: FamilyCollection, only: Iterable[PathFamily] | None = None
) -> FamilyCollection:
    """Extension transport: Ext(mu; E) for mu at r(E) with no prefix in E.

    ``only`` restricts the members mapped, as in ``sigma1``.
    """
    return _with_images(collection, collection.members if only is None else only, _extension_images)


def sigma3(
    collection: FamilyCollection, only: Iterable[PathFamily] | None = None
) -> FamilyCollection:
    """Truncations of each member family along positive degree choices.

    ``only`` restricts the members mapped, as in ``sigma1``.  Every mapped
    family's vector count is checked against the budget, in family order,
    before any truncation is built, so the family a budget error names does
    not depend on set iteration order.
    """
    fams = sorted(collection.members if only is None else only, key=lambda f: f.sort_key())
    for fam in fams:
        _require_truncation_budget(fam, collection.budget)
    return _with_images(collection, fams, _truncation_images)


def sigma4(collection: FamilyCollection) -> FamilyCollection:
    """Graftings of member families onto subsets of members, mapped in
    family order so that a budget error names the same family every run."""
    return _with_images(collection, collection.sorted_members(), _grafting_images)


# -- satiation ------------------------------------------------------------------


def is_satiated(collection: FamilyCollection) -> tuple[bool, list[Violation]]:
    """Check axioms S1-S4 within the universe; report every violation.

    Only the minimal members and their single-step images are read.  S1
    holds when every universe family containing a minimal member is a
    member.  Given S1, the axioms are monotone: if E is a subset of E', each
    S2, S3 or S4 image of E' contains an image of E, in the window when that
    of E' is, so a missing image of a member leaves one of a minimal member
    missing.  S3 and S4 factor into single members: truncating the members
    of E one at a time, or grafting onto them one at a time, passes through
    truncations or graftings of E and ends at a subset of the full image,
    which S1 then admits.  So the images checked are, for each minimal E:
    the universe families containing E (S1), Ext(mu; E) (S2),
    (E \\ {lam}) u {t} for each proper truncation t of each lam in E (S3),
    and (E \\ {lam}) u lam.F for each minimal member F at s(lam) (S4).  The
    work is polynomial in what is already listed, so no budget applies.  On
    a size-capped universe a grafting step part way can exceed the cap where
    the full grafting does not; no collection on which that changes the
    verdict of the four-loop oracle in ``tests/oracles.py`` is known.

    Violations come axiom by axiom, over the minimal members in family order,
    then the paths of each in path order; each is listed once.  On windowed
    universes, images escaping the window are skipped, mirroring the
    under-approximation semantics of the closure maps.
    """
    vertices = dict.fromkeys(E.vertex for E in collection.sorted_members())
    minimal = [E for v in vertices for E in collection.minimal_at(v)]
    violations: dict[Violation, None] = {}
    for axiom, images, text in _STEPS:
        for fam in minimal:
            for witness, image in images(collection, fam):
                if image not in collection.members and collection.in_window(image):
                    violations[Violation(axiom, text(fam, witness, image))] = None
    return (not violations, list(violations))


# rounds after which satiate gives up: the universe is finite, so the fixed
# point comes well before this unless a closure map is broken
_SATIATE_ROUNDS = 1_000


def satiate(collection: FamilyCollection) -> FamilyCollection:
    """Least satiated collection containing the input, over its universe.

    Iterates the composite map sigma4 . sigma3 . sigma2 . sigma1 to its
    fixed point; the universe is finite so this terminates, with the round
    budget guarding against bugs.

    Rounds are semi-naive.  A round starting from C_k already holds the
    sigma1-sigma3 images of every member of C_{k-1}, so sigma1, sigma2 and
    sigma3 map only the delta: the members of C_k not in C_{k-1}, plus the
    families the same round has added so far.  sigma4 maps every member.
    Each round therefore yields the same collection as the naive composite.
    """
    current = collection
    previous: frozenset = frozenset()
    for _ in range(_SATIATE_ROUNDS):
        delta = current.members - previous
        stepped = sigma1(current, only=delta)
        stepped = sigma2(stepped, only=delta | (stepped.members - current.members))
        stepped = sigma3(stepped, only=delta | (stepped.members - current.members))
        stepped = sigma4(stepped)
        if stepped.members == current.members:
            return current
        previous = current.members
        current = stepped
    raise FixpointBudgetExceeded(f"satiation did not stabilize in {_SATIATE_ROUNDS} rounds")

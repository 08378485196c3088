"""Exception hierarchy shared across the package.

Errors split into three CLI-visible classes: invalid input / precondition
failures (exit 2), exhausted search or closure budgets (exit 3), and check
failures, which are reported in results rather than raised (exit 1).
A broken internal invariant that a result depends on raises
``InvariantViolated`` rather than failing an ``assert``, so it also fires
under ``python -O``; the CLI reports it with exit 2.  Examples are an empty
boundary at some vertex, a boundary construction that does not terminate or
finds no admissible extension, a boundary representation that fails its own
relation check, and a closure map leaving its exact universe
(``ClosureInvariantViolated``).

``DuplicateId`` and ``UnknownColor`` are both ``ParseError``s and
``InvalidSpec``s: :func:`kgraph.validate` raises them, so a graph file
reports them as parse errors and a hand-built skeleton as an invalid one.
"""


class KGraphError(Exception):
    """Base class for all library errors."""


class InvariantViolated(KGraphError):
    """An internal invariant that a result depends on does not hold."""


# -- skeleton validation ----------------------------------------------------

class InvalidSpec(KGraphError):
    """Structurally malformed skeleton (unknown ids, bad colors, ...)."""


class MissingSquare(InvalidSpec):
    """A composable bicolored edge pair has no factorization square."""


class NonBijectiveSquare(InvalidSpec):
    """Square table is not a bijection for some color pair."""


class IncompatibleEndpoints(InvalidSpec):
    """A square relates edges whose ranges/sources do not match up."""


class HexagonViolation(InvalidSpec):
    """The two swap orders on a tricolored triple disagree (rank >= 3)."""


# -- path arithmetic --------------------------------------------------------

class NotComposable(KGraphError):
    """compose(p, q) with s(p) != r(q)."""


class DegreeOutOfRange(KGraphError):
    """Requested segment degrees violate 0 <= m <= n <= d(p)."""


class CyclicGraphUnsupported(KGraphError):
    """Operation requires a finite path category (acyclic skeleton)."""


# -- alignment / families ---------------------------------------------------

class RangeMismatch(KGraphError):
    """Paths or family members do not share the required range vertex."""


class ClosureBudgetExceeded(KGraphError):
    """pi_closure ran past its step budget without stabilizing."""


class BudgetExceeded(KGraphError):
    """Subset enumeration would exceed the configured budget."""


class UniverseTooLarge(KGraphError):
    """Family-collection universe would exceed the configured budget."""


class FixpointBudgetExceeded(KGraphError):
    """Satiation fixpoint iteration exceeded its budget."""


class ClosureInvariantViolated(InvariantViolated):
    """A closure map produced a family outside the universe it must stay in."""


class InexactUniverse(KGraphError):
    """Operation needs an exact family universe (acyclic, full window)."""


# -- boundary paths ---------------------------------------------------------

class PreconditionFailed(KGraphError):
    """A documented operation precondition does not hold."""


class NoSeparation(KGraphError):
    """No separation degree exists up to d(x) for the given pair."""


class DomainError(KGraphError):
    """Argument outside the domain of the diagonal position function."""


# -- representations --------------------------------------------------------

class PairNotInGrid(KGraphError):
    """(lambda, mu) is not a degree/source-matched pair of the given grid."""


class IncompleteFamily(KGraphError):
    """A Cuntz-Krieger family is missing an operator needed by a check."""


class HypothesisNotMet(KGraphError):
    """Uniqueness-theorem hypotheses were not verified for the family."""


# -- file formats -----------------------------------------------------------

class ParseError(KGraphError):
    """Malformed graph or generator file."""


class DuplicateId(ParseError, InvalidSpec):
    """Repeated vertex or edge identifier."""


class UnknownColor(ParseError, InvalidSpec):
    """Edge color outside 1..rank."""


#: Errors signalling exhausted budgets (CLI exit code 3).
BUDGET_ERRORS = (
    ClosureBudgetExceeded,
    BudgetExceeded,
    UniverseTooLarge,
    FixpointBudgetExceeded,
)

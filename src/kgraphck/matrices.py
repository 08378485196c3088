"""Operators as dictionary-of-keys sparse matrices or as partial injections.

``SparseMatrix`` entries are Fractions (default) or complex numbers; both
support the operations used here, including ``conjugate``.  Relation checks
on exact matrices compare entries literally; norms go through dense numpy
arrays, and numpy is imported only when one is taken.

A ``PartialInjection`` is a matrix whose every entry is exactly
``Fraction(1)``, at most one per row and per column, kept as the map from
each column holding an entry to its row (the boundary-path representation
is made of them).  Its products, adjoints, sums with disjoint supports and
differences of a sub-injection are partial injections again, computed on
the maps; every other result, and every operation with a ``SparseMatrix``
operand, is the ``SparseMatrix`` with the same entries.  Either type can
stand for the other in any operation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class SparseMatrix:
    """Immutable-by-convention sparse matrix; zero entries are pruned."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.data = {k: v for k, v in (data or {}).items() if v != 0}

    @classmethod
    def zero(cls, n: int) -> "SparseMatrix":
        return cls(n, n)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def _check_shape(self, other: "SparseMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_shape(other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) + v
        return SparseMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_shape(other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) - v
        return SparseMatrix(self.rows, self.cols, data)

    def __mul__(self, scalar) -> "SparseMatrix":
        return SparseMatrix(
            self.rows, self.cols, {k: scalar * v for k, v in self.data.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (i, j), v in other.data.items():
            by_row.setdefault(i, []).append((j, v))
        data: dict[tuple[int, int], object] = {}
        for (i, j), v in self.data.items():
            for l, w in by_row.get(j, ()):
                key = (i, l)
                data[key] = data.get(key, 0) + v * w
        return SparseMatrix(self.rows, other.cols, data)

    def adjoint(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols,
            self.rows,
            {(j, i): v.conjugate() for (i, j), v in self.data.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented  # a PartialInjection compares itself
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        raise TypeError("unhashable")

    def is_zero(self) -> bool:
        return not self.data

    def nnz(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.data)})"

    def to_dense(self) -> np.ndarray:
        import numpy as np

        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.data.items():
            out[i, j] = complex(v)
        return out

    def norm2(self) -> float:
        """Operator norm (largest singular value)."""
        if not self.data:
            return 0.0
        import numpy as np

        return float(np.linalg.norm(self.to_dense(), 2))

    def max_abs(self) -> float:
        return max((abs(complex(v)) for v in self.data.values()), default=0.0)


_ONE = Fraction(1)


class PartialInjection:
    """A 0/1 partial injection: ``map`` sends each column holding an entry to
    the row of that entry, and every entry is exactly ``Fraction(1)``.
    Immutable by convention (see the module docstring for its results)."""

    __slots__ = ("rows", "cols", "map", "_inverse", "_adjoint")

    def __init__(self, rows: int, cols: int, mapping: dict[int, int]):
        self.rows = rows
        self.cols = cols
        self.map = mapping
        self._inverse: dict[int, int] | None = None
        self._adjoint: PartialInjection | None = None

    @classmethod
    def zero(cls, n: int) -> "PartialInjection":
        return cls(n, n, {})

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        return cls(n, n, {i: i for i in range(n)})

    @property
    def data(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): _ONE for j, i in self.map.items()}

    def _sparse(self) -> SparseMatrix:
        return SparseMatrix(self.rows, self.cols, self.data)

    def _also_partial(self, other) -> bool:
        """Whether other is a PartialInjection too; raises on a shape mismatch."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return isinstance(other, PartialInjection)

    def __add__(self, other):
        if self._also_partial(other):
            f, g = self.map, other.map
            if not g:
                return self
            if not f:
                return other
            if f.keys().isdisjoint(g) and self.inverse().keys().isdisjoint(g.values()):
                return PartialInjection(self.rows, self.cols, {**f, **g})
        return self._sparse() + other

    def __sub__(self, other):
        if self._also_partial(other) and other.map.items() <= self.map.items():
            if not other.map:
                return self
            out = dict(self.map)
            for j in other.map:
                del out[j]
            return PartialInjection(self.rows, self.cols, out)
        return self._sparse() - other

    def __mul__(self, scalar):
        if type(scalar) in (int, Fraction) and scalar == 1:
            return self
        return self._sparse() * scalar

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if not isinstance(other, PartialInjection):
            return self._sparse() @ other
        f, g = self.map, other.map
        if other._inverse is not None and len(f) < len(g):
            # walk the smaller map, through the kept inverse of the larger
            g_inverse = other._inverse
            out = {g_inverse[x]: i for x, i in f.items() if x in g_inverse}
        else:
            out = {j: f[x] for j, x in g.items() if x in f}
        return PartialInjection(self.rows, other.cols, out)

    def inverse(self) -> dict[int, int]:
        """The row -> column map, computed once and kept."""
        if self._inverse is None:
            self._inverse = {i: j for j, i in self.map.items()}
        return self._inverse

    def adjoint(self) -> "PartialInjection":
        """Computed once and kept; it holds this operator's map, not the
        operator, so the two form no reference cycle."""
        if self._adjoint is None:
            self._adjoint = PartialInjection(self.cols, self.rows, self.inverse())
            self._adjoint._inverse = self.map
        return self._adjoint

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PartialInjection, SparseMatrix)):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if isinstance(other, PartialInjection):
            return self.map == other.map
        return self.data == other.data

    def is_zero(self) -> bool:
        return not self.map

    def nnz(self) -> int:
        return len(self.map)

    def __repr__(self) -> str:
        return f"PartialInjection({self.rows}x{self.cols}, nnz={len(self.map)})"

    def to_dense(self) -> np.ndarray:
        import numpy as np

        out = np.zeros((self.rows, self.cols), dtype=complex)
        out[list(self.map.values()), list(self.map)] = 1
        return out

    def max_abs(self) -> float:
        return 1.0 if self.map else 0.0


def narrow(mat: SparseMatrix | PartialInjection) -> SparseMatrix | PartialInjection:
    """mat as a PartialInjection when every entry is exactly ``Fraction(1)``
    with at most one per row and per column; mat itself otherwise."""
    if isinstance(mat, PartialInjection):
        return mat
    m: dict[int, int] = {}
    for (i, j), x in mat.data.items():
        if type(x) is not Fraction or x != 1 or j in m:
            return mat
        m[j] = i
    if len(set(m.values())) != len(m):
        return mat
    return PartialInjection(mat.rows, mat.cols, m)

"""Dictionary-of-keys sparse matrices over exact rationals or complex floats.

Entries are Fractions (default) or complex numbers; both support the
operations used here, including ``conjugate``.  Relation checks on exact
matrices compare entries literally; norms go through dense numpy arrays, and
numpy is imported only when one is taken.
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
    def zero(cls, rows: int, cols: int | None = None) -> "SparseMatrix":
        return cls(rows, cols if cols is not None else rows)

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "SparseMatrix":
        return cls(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int, value=Fraction(1)) -> "SparseMatrix":
        return cls(rows, cols, {(i, j): value})

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
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

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

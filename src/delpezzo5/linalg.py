"""Exact linear algebra over the rationals.

Dense routines for small matrices (row reduction, rank, row-space
comparison) and an incremental sparse echelon form used by the graded
Hom solver and the Hilbert-function rank oracle.  All entries are
Fractions; there is no floating point and no pivoting heuristics that
could change results between runs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat if any(row)], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    reduced, _ = rref(rows)
    return len(reduced)


def row_space_equal(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Whether two row sets span the same subspace (canonical rref)."""
    ra, _ = rref(a)
    rb, _ = rref(b)
    return ra == rb


class SparseEchelon:
    """Incremental echelon form on sparse rows {column: coefficient}.

    Rows are reduced against stored pivots as they arrive; the running
    rank is the number of stored pivot rows.  Column keys only need to
    be hashable and totally ordered.
    """

    def __init__(self):
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: dict) -> bool:
        """Insert a row; True when it enlarged the row space."""
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            col = min(work)
            pivot = self._pivots.get(col)
            if pivot is None:
                inv = 1 / work[col]
                self._pivots[col] = {c: v * inv for c, v in work.items()}
                return True
            factor = work[col]
            for c, v in pivot.items():
                acc = work.get(c, Fraction(0)) - factor * v
                if acc:
                    work[c] = acc
                else:
                    work.pop(c, None)
        return False

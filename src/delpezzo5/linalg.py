"""Exact linear algebra over the rationals.

One incremental sparse echelon form, used by the graded Hom solver and
the Hilbert-function rank oracle, with reduced row echelon form, rank
and row-space comparison of small dense matrices built on it.  All
entries are Fractions; there is no floating point and no pivoting
heuristics that could change results between runs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and pivot columns: the rows go through
    one SparseEchelon, whose pivot rows are then back-substituted, last
    pivot first."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(dict(enumerate(row)))
    pivots = sorted(ech._pivots)
    reduced: dict[int, Row] = {}
    for col in reversed(pivots):
        row = [Fraction(0)] * ncols
        for c, v in ech._pivots[col].items():
            row[c] = v
        for done_col, done in reduced.items():
            f = row[done_col]
            if f:
                row = [x - f * y for x, y in zip(row, done)]
        reduced[col] = row
    return [reduced[c] for c in pivots], pivots


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
        """Insert a row; True when it enlarged the row space.  A value
        whose class is exactly Fraction is kept as it is; any other is
        converted, so that no pivot is inverted as a float."""
        work = {c: v if type(v) is Fraction else Fraction(v) for c, v in row.items() if v}
        while work:
            col = min(work)
            pivot = self._pivots.get(col)
            if pivot is None:
                inv = 1 / work[col]
                self._pivots[col] = {c: v * inv for c, v in work.items()}
                return True
            factor = work[col]
            for c, v in pivot.items():
                acc = work.get(c, 0) - factor * v
                if acc:
                    work[c] = acc
                else:
                    work.pop(c, None)
        return False

"""Exact linear algebra over the rationals.

One incremental sparse echelon form, used by the graded Hom solver and
the Hilbert-function rank oracle, with reduced row echelon form, rank
and row-space comparison of small dense matrices built on it.  The
echelon holds each pivot row as an exact integer multiple of itself
(fraction-free elimination, cf. Bareiss 1968), so its rank is exact over
the rationals with Python ints alone; `rref` returns Fractions.  There
is no floating point, no modulus and no pivoting heuristic that could
change results between runs.  `integer_terms` (clear denominators) and
`primitive` (divide out the content) turn rationals into ints where
they enter the echelon, the division kernel or the Hilbert oracle.

A row enters the echelon one of two ways, and both end in one
reduction loop: `SparseEchelon.add_row` copies any int row, and
`SparseEchelon.add_primitive_row` takes over a row its caller knows to
be primitive with a positive entry at its least column, storing it with
no copy and no gcd when that column has no pivot yet.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = list[Fraction]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and pivot columns: the rows go through
    one SparseEchelon, whose pivot rows, divided by their leads, are
    then back-substituted, last pivot first."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(integer_terms(dict(enumerate(row)))[0])
    pivots = sorted(ech._pivots)
    reduced: dict[int, Row] = {}
    for col in reversed(pivots):
        pivot = ech._pivots[col]
        lead = pivot[col]
        row = [Fraction(0)] * ncols
        for c, v in pivot.items():
            row[c] = Fraction(v, lead)
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


def integer_terms(values: dict) -> tuple[dict, int]:
    """``(ints, den)``: the nonzero entries of ``values`` as ints over the
    lcm ``den`` of their denominators, so ``values[k] == ints[k] / den``.
    An int is kept; any other value is read as a Fraction first, so that
    a float is never used inexactly."""
    ints, fracs = {}, {}
    for k, v in values.items():
        if type(v) is not int:
            v = v if type(v) is Fraction else Fraction(v)
            if v.denominator != 1:
                fracs[k] = v
                continue
            v = v.numerator
        if v:
            ints[k] = v
    if not fracs:
        return ints, 1
    den = lcm(*(v.denominator for v in fracs.values()))
    ints = {k: v * den for k, v in ints.items()}
    for k, v in fracs.items():
        ints[k] = v.numerator * (den // v.denominator)
    return ints, den


def primitive(ints: dict, lead) -> dict:
    """The nonzero ``ints`` divided by their content, signed so that the
    entry at ``lead`` is positive."""
    g = gcd(*ints.values())
    if ints[lead] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints


class SparseEchelon:
    """Incremental echelon form on sparse rows {column: int coefficient}.

    Rows are reduced against stored pivots as they arrive; the running
    rank is the number of stored pivot rows.  Column keys only need to
    be hashable and totally ordered.  Values are nonzero ints: a caller
    with rational rows clears them first with `integer_terms`, which
    keeps the row space, and a `Fraction` entry fails in `math.gcd`.
    Each stored pivot row is primitive (its entries are ints with gcd 1)
    with a positive lead, so no entry is ever a Fraction.

    `add_row` reduces a copy of its row, so the caller keeps the row it
    passed.  `add_primitive_row` takes a primitive row with its least
    column and owns it from then on: stored as it is when that column has
    no pivot, which is what `add_row` would store there, and otherwise
    reduced in place by the same loop.

    An echelon may start from the `pivots` another one kept: the rows
    are shared, not copied, which is safe because the echelon never
    writes to a stored pivot row; it only adds new ones.
    """

    def __init__(self, pivots: Sequence[tuple] = ()):
        self._pivots: dict = dict(pivots)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> tuple:
        """The stored pivot rows as a tuple of (lead column, row), in the
        order they were stored: what a later echelon can start from."""
        return tuple(self._pivots.items())

    def add_row(self, row: dict) -> bool:
        """Insert a row of nonzero ints, which is not changed; True when
        it enlarged the row space.  Against a pivot with lead a, a row
        whose entry in that column is b becomes (a/g)*row - (b/g)*pivot
        with g = gcd(a, b), which changes the row only by a nonzero
        factor."""
        return bool(row) and self._reduce(dict(row), min(row))

    def add_primitive_row(self, row: dict, lead) -> bool:
        """Insert a primitive row of nonzero ints (gcd 1) whose least
        column is ``lead``, with a positive entry there; True when it
        enlarged the row space.  The echelon takes the row over: when no
        pivot has column ``lead`` it is stored as it is, since
        `add_row` would store an equal dict at the same column, and
        otherwise it is reduced in place, as `add_row` reduces its copy.
        The caller must not use the row afterwards."""
        if lead in self._pivots:
            return self._reduce(row, lead)
        self._pivots[lead] = row
        return True

    def _reduce(self, work: dict, col) -> bool:
        """Reduce ``work``, whose least column is ``col``, against the
        stored pivots, writing to it, and store what is left primitive;
        True when something was left."""
        while True:
            pivot = self._pivots.get(col)
            if pivot is None:
                self._pivots[col] = primitive(work, col)
                return True
            a, b = pivot[col], work[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                work = {c: v * a for c, v in work.items()}
            for c, v in pivot.items():
                acc = work.get(c, 0) - b * v
                if acc:
                    work[c] = acc
                else:
                    work.pop(c, None)
            if not work:
                return False
            col = min(work)

"""Reduced row echelon form, rank and row-space comparison, checked
against a dense Gauss-Jordan reference kept here for that purpose."""
import math
import random
from fractions import Fraction

import pytest

from delpezzo5.linalg import (SparseEchelon, integer_terms, primitive, rank, row_space_equal,
                              rref)


def dense_rref(rows):
    """Plain Gauss-Jordan elimination, column by column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
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


def random_matrix(rng):
    """Small rational matrix, often with zero, repeated and dependent rows."""
    ncols = rng.randint(0, 6)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.4:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.5:
            rows.append([0] * ncols)
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                         if rng.random() < 0.6 else 0 for _ in range(ncols)])
    return rows


# empty input, an empty row, all-zero and repeated rows, dependent rows
EDGE_CASES = [[], [[]], [[0, 0], [0, 0]], [[1, 2], [2, 4]],
              [[0, 3, 1], [2, 0, 0], [2, 3, 1]]]
MATRICES = EDGE_CASES + [random_matrix(random.Random(seed)) for seed in range(400)]


def test_rref_matches_reference():
    for rows in MATRICES:
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == dense_rref(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)


def test_rank_matches_reference():
    for rows in MATRICES:
        assert rank(rows) == len(dense_rref(rows)[0])


def test_row_space_equal_matches_reference():
    rng = random.Random(7)
    for rows in MATRICES:
        width = len(rows[0]) if rows else None
        same_width = [m for m in MATRICES if m and len(m[0]) == width]
        others = [rng.choice(same_width)] if same_width else []
        if len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            spanned = rows + [[x - 2 * y for x, y in zip(a, b)]]
            assert row_space_equal(rows, spanned)
            others.append(spanned)
        for other in others + [rows[::-1], []]:
            expected = dense_rref(rows)[0] == dense_rref(other)[0]
            assert row_space_equal(rows, other) == expected


def test_integer_rows_give_exact_pivots():
    # an int lead inverted as 1 / 3 would be a float
    reduced, pivots = rref([[3, 1], [6, 2]])
    assert (reduced, pivots) == ([[1, Fraction(1, 3)]], [0])
    assert all(type(x) is Fraction for x in reduced[0])


def integer_matrix(rng):
    """Rows of each kind `integer_terms` scales to ints for the echelon: non-unit
    denominators, ints mixed with Fractions, negative leads, entries
    near 10**30 and exactly representable floats."""
    ncols = rng.randint(1, 6)
    big = 10 ** 30

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return 0
        if kind < 0.4:
            return rng.randint(-9, 9)
        if kind < 0.6:
            return Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7, 12, 35)))
        if kind < 0.75:
            return rng.randint(-big, big)
        if kind < 0.85:
            return Fraction(rng.randint(-big, big), rng.randint(1, big))
        return rng.choice((0.5, -0.25, 1.5, 3.0, -0.125))

    # entries of both signs, so leads of both signs
    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
    if len(rows) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(rows, 2)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        rows.append([Fraction(x) * s - Fraction(y) for x, y in zip(a, b)])
    return rows


INTEGER_MATRICES = [integer_matrix(random.Random(seed)) for seed in range(300)]


def test_integer_representation_matches_reference():
    for rows in INTEGER_MATRICES:
        expected, pivots = dense_rref(rows)
        assert rref(rows) == (expected, pivots)
        assert rank(rows) == len(expected)
        scaled = [[Fraction(x) * 10 ** 30 for x in row] for row in rows[::-1]]
        assert row_space_equal(rows, scaled)
        for other in (scaled, rows[1:]):
            assert row_space_equal(rows, other) == (dense_rref(other)[0] == expected)


def test_pivot_rows_are_primitive_integer_rows():
    for rows in MATRICES + INTEGER_MATRICES:
        ech = SparseEchelon()
        for row in rows:
            ech.add_row(integer_terms(dict(enumerate(row)))[0])
        assert ech.rank == len(dense_rref(rows)[0])
        for col, pivot in ech._pivots.items():
            assert min(pivot) == col
            assert all(type(v) is int for v in pivot.values())
            assert math.gcd(*pivot.values()) == 1
            assert pivot[col] > 0


def test_rows_are_ints_and_left_unchanged():
    # a Fraction row fails at its first step, whether it starts a pivot
    # or meets one, and the caller's int row is never written to
    ech = SparseEchelon()
    with pytest.raises(TypeError):
        ech.add_row({0: Fraction(1, 2), 1: Fraction(1)})
    first, second = {0: 2, 1: 4}, {0: 1, 2: 3}
    assert ech.add_row(first)
    with pytest.raises(TypeError):
        ech.add_row({0: Fraction(3), 2: Fraction(1, 3)})
    assert ech.add_row(second)
    assert first == {0: 2, 1: 4} and second == {0: 1, 2: 3}
    assert ech._pivots == {0: {0: 1, 1: 2}, 1: {1: 2, 2: -3}}


def test_integer_terms_clear_denominators():
    for rows in MATRICES + INTEGER_MATRICES:
        for row in rows:
            ints, den = integer_terms(dict(enumerate(row)))
            nonzero = {c: Fraction(v) for c, v in enumerate(row) if v}
            assert ints.keys() == nonzero.keys()
            assert all(type(v) is int for v in ints.values())
            assert all(ints[c] == v * den for c, v in nonzero.items())
            assert den == math.lcm(*(v.denominator for v in nonzero.values()))
            if all(type(v) is int for v in row):
                assert den == 1


def test_primitive_divides_out_the_content():
    for rows in MATRICES + INTEGER_MATRICES:
        for row in rows:
            ints, _ = integer_terms(dict(enumerate(row)))
            # every nonzero entry as the lead, so leads of both signs
            for lead in ints:
                reduced = primitive(ints, lead)
                assert all(type(v) is int for v in reduced.values())
                assert math.gcd(*reduced.values()) == 1
                assert reduced[lead] > 0
                assert reduced.keys() == ints.keys()
                # a rational multiple of ints: reduced == ints * reduced[lead] / ints[lead]
                assert all(reduced[c] * ints[lead] == ints[c] * reduced[lead] for c in ints)


def test_echelon_started_from_kept_pivots():
    # an echelon fed the first rows keeps its pivots; a second one started
    # from them and fed the rest must leave them as they were, and reach
    # the rank of one echelon fed every row
    for rows in INTEGER_MATRICES:
        ints = [integer_terms(dict(enumerate(row)))[0] for row in rows]
        ints = [row for row in ints if row]
        cut = len(ints) // 2
        first = SparseEchelon()
        for row in ints[:cut]:
            first.add_row(row)
        kept = first.pivots
        assert type(kept) is tuple
        snapshot = tuple((col, dict(row)) for col, row in kept)
        started, whole = SparseEchelon(kept), SparseEchelon()
        for row in ints[cut:]:
            started.add_row(row)
        for row in ints:
            whole.add_row(row)
        assert kept == snapshot and first.pivots == snapshot
        assert started.rank == whole.rank == len(dense_rref(rows)[0])
        assert started.pivots[:len(kept)] == kept


def test_primitive_rows_stored_as_add_row_stores_them():
    # a primitive row with a positive lead is kept as the very dict passed
    # when its lead column is free and reduced otherwise; either way the
    # pivots, their order and the rank are those of add_row
    for rows in MATRICES + INTEGER_MATRICES:
        ints = [integer_terms(dict(enumerate(row)))[0] for row in rows]
        ints = [primitive(row, min(row)) for row in ints if row]
        taken, plain = SparseEchelon(), SparseEchelon()
        for row in ints:
            free = min(row) not in dict(taken.pivots)
            given = dict(row)
            assert taken.add_primitive_row(given, min(row)) == plain.add_row(row)
            if free:
                assert dict(taken.pivots)[min(row)] is given
        assert taken.pivots == plain.pivots
        assert taken.rank == len(dense_rref(rows)[0])

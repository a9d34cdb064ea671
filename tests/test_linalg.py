"""Reduced row echelon form, rank and row-space comparison, checked
against a dense Gauss-Jordan reference kept here for that purpose."""
import random
from fractions import Fraction

from delpezzo5.linalg import SparseEchelon, rank, row_space_equal, rref


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
    # an int pivot inverted as 1 / 3 would be a float
    ech = SparseEchelon()
    assert ech.add_row({0: 3, 1: 1})
    assert not ech.add_row({0: Fraction(6), 1: 2})
    assert ech._pivots == {0: {0: 1, 1: Fraction(1, 3)}}
    assert all(type(v) is Fraction for v in ech._pivots[0].values())

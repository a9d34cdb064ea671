"""Hilbert functions, series numerators, and Hilbert polynomials."""
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from delpezzo5 import hilbert
from delpezzo5.hilbert import (HilbertPolynomial, certify_cohen_macaulay,
                               degree_monomials, hilbert_function,
                               hilbert_function_direct, hilbert_polynomial,
                               hilbert_series_numerator, standard_monomials)
from delpezzo5.ideals import Ideal
from delpezzo5.linalg import SparseEchelon
from delpezzo5.polyring import (LEX, Packing, Polynomial, RingContext, mono_divides,
                                parse_polynomial)

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
XYZW = RingContext(("x", "y", "z", "w"))
ORBIT = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                    (6, 4, 2, 0, -2, -4, -6))


def ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts])


def x5():
    return ideal(ORBIT,
                 "a6*am2 - 4*a4*a0 + 3*a2^2",
                 "a6*am4 - 3*a4*am2 + 2*a2*a0",
                 "a6*am6 - 9*a2*am2 + 8*a0^2",
                 "a4*am6 - 3*a2*am4 + 2*a0*am2",
                 "a2*am6 - 4*a0*am4 + 3*am2^2")


def random_homogeneous_ideal(rng, ctx):
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 3)
        pool = list(degree_monomials(ctx.nvars, d))
        picks = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        terms = {m: Fraction(rng.choice((-2, -1, 1, 2))) for m in picks}
        gens.append(Polynomial(ctx, terms))
    return Ideal(ctx, gens)


def every_multiple_rank(ideal, d):
    """Rank of all degree-d multiples of the generators, none skipped,
    by Gaussian elimination over Fractions on rows keyed by exponent
    tuples."""
    pivots = {}
    for g in ideal.gens:
        gd = g.total_degree()
        if g.is_zero() or gd > d:
            continue
        for shift in degree_monomials(ideal.context.nvars, d - gd):
            row = {tuple(a + b for a, b in zip(shift, m)): Fraction(c)
                   for m, c in g.terms.items()}
            while row:
                col = max(row)
                pivot = pivots.get(col)
                if pivot is None:
                    pivots[col] = {k: v / row[col] for k, v in row.items()}
                    break
                f = row[col]
                for k, v in pivot.items():
                    w = row.get(k, 0) - f * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
    return len(pivots)


class TestHilbertFunction:
    def test_polynomial_ring(self):
        Z = Ideal(XYZ, [])
        for d in range(6):
            assert hilbert_function(Z, d) == comb(d + 2, 2)

    def test_principal_square(self):
        assert hilbert_function(ideal(XYZ, "x^2"), 2) == 5

    def test_threefold_low_degrees(self):
        I = x5()
        assert hilbert_function(I, 1) == 7
        assert hilbert_function(I, 2) == 23

    def test_two_methods_agree_randomized(self):
        rng = random.Random(89)
        for _ in range(15):
            I = random_homogeneous_ideal(rng, XYZ)
            for d in range(7):
                assert hilbert_function(I, d) == hilbert_function_direct(I, d)

    @pytest.mark.parametrize("variables", [("x", "y", "z"), ("x", "y", "z", "w")])
    def test_direct_clears_denominators(self, variables):
        # rational coefficients and a zero generator, which the direct
        # oracle scales to integer rows or skips; the last two generators
        # depend rationally on the quadrics, so a wrongly scaled
        # coefficient would raise the rank
        ctx = RingContext(variables)
        rng = random.Random(len(variables))
        coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 6), 3)
        for _ in range(6):
            gens = [ctx.zero()]
            for d in (1, 2, 2, 3):
                picks = rng.sample(list(degree_monomials(ctx.nvars, d)), k=3)
                gens.append(Polynomial(ctx, {m: rng.choice(coeffs) for m in picks}))
            a, b = gens[2], gens[3]
            gens += [a * Fraction(-2, 3), a * Fraction(5, 7) - b * Fraction(1, 2)]
            rng.shuffle(gens)
            I = Ideal(ctx, gens)
            for d in range(7):
                assert hilbert_function_direct(I, d) == hilbert_function(I, d)

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_direct_against_every_multiple(self, nvars):
        # the oracle skips rows; the reference reduces all of them, so a
        # skipped row outside the span of the kept ones shows as a lower
        # rank.  The derived generators follow their sources, where the
        # skip fires on them: a repeat, a scalar multiple, a multiple by
        # a form, and a constant that makes every later row redundant
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        rng = random.Random(2002 + nvars)
        coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 1, -3)

        def form(d):
            pool = list(degree_monomials(nvars, d))
            picks = rng.sample(pool, k=min(len(pool), 3))
            return Polynomial(ctx, {m: rng.choice(coeffs) for m in picks})

        for case in range(3):
            gens = [form(rng.randint(1, 3)) for _ in range(3)]
            a, b, c = gens
            gens += [ctx.zero(), a, b * Fraction(-5, 3), form(1) * c, form(7)]
            if case == 0:
                gens.insert(rng.randint(1, len(gens) - 1), ctx.one() * Fraction(2, 3))
            I = Ideal(ctx, gens)
            for d in range(7):
                assert hilbert_function_direct(I, d) \
                    == comb(d + nvars - 1, nvars - 1) - every_multiple_rank(I, d)

    def test_direct_row_counts_on_the_threefold(self, monkeypatch):
        # all degree-d multiples of the five quadrics, d <= 8, are 8580
        # rows; the F5 skips leave 6084, 1344 of which reduce to zero,
        # starting with the five linear syzygies in degree 3.  2688 rows
        # meet a pivot at their lead column and are reduced; the rest
        # are stored as they come
        counts = Counter()

        class Counting(SparseEchelon):
            def add_primitive_row(self, row, lead):
                counts["contested"] += lead in self._pivots
                grew = super().add_primitive_row(row, lead)
                counts["rows"] += 1
                counts["zero"] += not grew
                return grew

            def add_row(self, row):
                counts["add_row"] += 1
                return super().add_row(row)

        monkeypatch.setattr(hilbert, "SparseEchelon", Counting)
        I = x5()
        assert [hilbert_function_direct(I, d) for d in range(9)] \
            == [1, 7, 23, 54, 105, 181, 287, 428, 609]
        assert counts == {"rows": 6084, "zero": 1344, "contested": 2688}

    def test_direct_echelon_matches_add_row(self, monkeypatch):
        # the oracle stores a row whose lead column is free as it comes;
        # a plain echelon fed copies of the same rows, in the same order,
        # through add_row must hold the same pivot rows at the same
        # columns in the same order, and every row offered must be
        # primitive with a positive entry at the column it is offered at
        echelons = []

        class Recording(SparseEchelon):
            def __init__(self, pivots=()):
                super().__init__(pivots)
                self.offered = []
                echelons.append(self)

            def add_primitive_row(self, row, lead):
                assert lead == min(row) and row[lead] > 0
                assert gcd(*row.values()) == 1
                self.offered.append(dict(row))
                return super().add_primitive_row(row, lead)

        monkeypatch.setattr(hilbert, "SparseEchelon", Recording)

        def check(I, degrees):
            n = I.context.nvars
            for d in degrees:
                echelons.clear()
                value = hilbert_function_direct(I, d)
                (ech,) = echelons
                plain = SparseEchelon()
                for row in ech.offered:
                    plain.add_row(row)
                assert ech.pivots == plain.pivots
                assert value == comb(d + n - 1, n - 1) - plain.rank == hilbert_function(I, d)

        check(x5(), range(9))
        coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 1, -3)
        for nvars in (2, 3, 4):
            ctx = RingContext(("x", "y", "z", "w")[:nvars])
            rng = random.Random(32 + nvars)

            def form(d):
                pool = list(degree_monomials(nvars, d))
                picks = rng.sample(pool, k=min(len(pool), 3))
                return Polynomial(ctx, {m: rng.choice(coeffs) for m in picks})

            for case in range(3):
                gens = [form(rng.randint(1, 3)) for _ in range(3)]
                gens += [ctx.zero(), gens[0], gens[1] * Fraction(-5, 3), form(2)]
                rng.shuffle(gens)
                if case < 2:
                    # a constant last offers every shift no earlier lead
                    # divides; first, it skips every later generator's rows
                    gens.insert(len(gens) if case == 0 else 0, ctx.one() * Fraction(2, 3))
                check(Ideal(ctx, gens), range(7))

    def test_generating_set_independence(self):
        rng = random.Random(97)
        for _ in range(8):
            I = random_homogeneous_ideal(rng, XYZ)
            gens = list(I.gens)
            rng.shuffle(gens)
            gens.append(gens[0] * XYZ.variable("x"))
            J = Ideal(XYZ, gens)
            for d in range(6):
                assert hilbert_function(I, d) == hilbert_function(J, d)

    def test_standard_monomials_count_matches(self):
        I = ideal(XYZ, "x^2", "x*y")
        for d in range(6):
            assert len(standard_monomials(I, d)) == hilbert_function(I, d)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            hilbert_function(ideal(XY, "x^2 - 1"), 2)


class TestSeriesNumerator:
    def test_principal_monomial(self):
        N = hilbert_series_numerator(ideal(XY, "x"))
        assert N == [1, -1]

    def test_unit_ideal(self):
        N = hilbert_series_numerator(Ideal(XY, [XY.one()]))
        assert not any(N)

    def test_brute_force_counts(self):
        # N(t)/(1-t)^n expanded must reproduce monomial counts
        I = ideal(XY, "x^2", "x*y")
        N = hilbert_series_numerator(I)
        for d in range(7):
            total = sum(c * comb(d - k + 1, 1)
                        for k, c in enumerate(N) if d - k >= 0)
            assert total == hilbert_function_direct(I, d)

    def test_seeded_monomial_ideals_against_a_count(self):
        # exponents up to 12, so pivots x^k with k > 1 run
        rng = random.Random(1997)
        for _ in range(12):
            n = rng.randint(2, 4)
            ctx = RingContext(("x", "y", "z", "w")[:n])
            gens = [tuple(rng.randint(0, 12) for _ in range(n)) for _ in range(rng.randint(2, 5))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            N = hilbert_series_numerator(Ideal(ctx, [ctx.monomial(g) for g in gens]))
            for d in range(max(map(sum, gens)) + 3):
                from_series = sum(c * comb(d - k + n - 1, n - 1)
                                  for k, c in enumerate(N) if d - k >= 0)
                count = sum(not any(mono_divides(g, m) for g in gens)
                            for m in degree_monomials(n, d))
                assert from_series == count, (gens, d)


class TestHilbertPolynomial:
    def test_threefold(self):
        hp = hilbert_polynomial(x5())
        assert hp == HilbertPolynomial(
            [1, Fraction(8, 3), Fraction(5, 2), Fraction(5, 6)])
        assert hp(1) == 7
        assert hp.variety_degree() == 5
        assert str(hp) == "5/6*m^3 + 5/2*m^2 + 8/3*m + 1"

    @pytest.mark.parametrize("coeffs, printed", [
        ([], "0"), ([0], "0"), ([1], "1"), ([0, 5], "5*m"), ([-2, 3], "3*m - 2"),
        ([1, -1], "-m + 1"), ([0, 0, -1], "-m^2"),
        ([3, 0, -1, Fraction(-1, 2)], "-1/2*m^3 - m^2 + 3"),
    ])
    def test_printed_form(self, coeffs, printed):
        assert str(HilbertPolynomial(coeffs)) == printed

    def test_repr(self):
        assert repr(HilbertPolynomial([1, 4])) == "HilbertPolynomial(4*m + 1)"

    def test_printed_cubic_row(self):
        row = ideal(ORBIT, "am6", "am4", "am2", "a0^2", "a2*a0",
                    "3*a2^2 - 4*a4*a0")
        assert hilbert_polynomial(row) == HilbertPolynomial([1, 3])

    def test_fixed_conic(self):
        conic = ideal(ORBIT, "a6", "a4", "a2", "a0", "am2^2")
        assert hilbert_polynomial(conic) == HilbertPolynomial([1, 2])

    def test_curve_invariants(self):
        assert HilbertPolynomial([1, 4]).curve_invariants() == (4, 0)
        assert HilbertPolynomial([0, 5]).curve_invariants() == (5, 1)
        with pytest.raises(ValueError):
            HilbertPolynomial([1]).curve_invariants()

    def test_integer_values_on_actual_ideals(self):
        for I in (x5(), ideal(ORBIT, "a6", "a2", "a0", "am2", "am6")):
            hp = hilbert_polynomial(I)
            for m in range(6):
                assert hp(m).denominator == 1

    def test_stability_window(self):
        # HP(d) = HF(d) on the top four degrees of the tested window
        for I in (x5(),
                  ideal(ORBIT, "a6", "a2", "a0", "am2", "am6"),
                  ideal(ORBIT, "a6", "a4", "a2", "a0", "am2^2")):
            hp = hilbert_polynomial(I)
            for d in range(5, 9):
                assert hp(d) == hilbert_function(I, d)

    def test_lead_normalization(self):
        # plane conic in P^2: HP = 2m + 1, degree 2
        conic = ideal(XYZ, "x*y - z^2")
        hp = hilbert_polynomial(conic)
        assert hp == HilbertPolynomial([1, 2])
        assert hp.variety_degree() == 2

    def test_series_polynomial_function_three_way(self):
        rng = random.Random(103)
        for _ in range(10):
            I = random_homogeneous_ideal(rng, XYZ)
            hp = hilbert_polynomial(I)
            for d in range(6, 9):
                assert hp(d) == hilbert_function(I, d)


def numerator_formula(ideal, m):
    """HP(m) = sum_k N_k * binom(m - k + n - 1, n - 1) with N the series
    numerator over (1-t)^n, for m >= deg N so that no binomial has a
    negative top."""
    n = ideal.context.nvars
    return sum(nk * comb(m - k + n - 1, n - 1)
               for k, nk in enumerate(hilbert_series_numerator(ideal)))


class TestHPolynomial:
    """HS(S/I) = Q(t)/(1-t)^r with Q(1) != 0, and the Hilbert polynomial
    read from it."""

    @pytest.mark.parametrize("texts, expected", [
        (("x*z - y^2", "y*w - z^2", "x*w - y*z"), ([1, 2], 2)),
        (("x*z", "x*w", "y*z", "y*w"), ([1, 2, -1], 2)),
        (("x^2", "y^2", "z^2", "w^2"), ([1, 4, 6, 4, 1], 0)),
        (("x", "2*y"), ([1], 2)),
        (("x", "y", "z", "w"), ([1], 0)),
        (("0",), ([1], 4)),
        (("1",), ([0], 0)),
    ])
    def test_small_ideals(self, texts, expected):
        assert hilbert._h_polynomial(ideal(XYZW, *texts)) == expected

    def test_against_the_numerator_formula(self):
        rng = random.Random(109)
        cases = [Ideal(XY, [XY.one()]), Ideal(XYZ, []),
                 ideal(XYZ, "x^2", "y^3", "x*z", "z^2 - y*x")]
        for names in ("xy", "xyz", "xyzw", "xyzwv"):
            ctx = RingContext(tuple(names))
            cases += [random_homogeneous_ideal(rng, ctx) for _ in range(5)]
        for I in cases:
            hp = hilbert_polynomial(I)
            start = len(hilbert_series_numerator(I))
            for m in range(start, start + I.context.nvars + 1):
                assert hp(m) == numerator_formula(I, m), (I.gens, m)


class TestSplitHilbertPolynomial:
    """HP(S/I) read in the ring without the variables that generate part
    of I, against the Groebner-free rank oracle in S."""

    def test_matches_the_direct_function_beyond_the_regularity(self):
        rng = random.Random(107)
        moved = 0
        for ctx in (XYZ, RingContext(("x", "y", "z", "w")),
                    RingContext(("x", "y", "z", "w", "v"))):
            for _ in range(4):
                I = random_homogeneous_ideal(rng, ctx)
                bare = [ctx.constant(rng.choice((3, -1))) * ctx.variable(v)
                        for v in rng.sample(ctx.variables, rng.randint(1, 2))]
                I = Ideal(ctx, I.gens + tuple(bare))
                if I.split_variables() is None:
                    continue
                moved += 1
                hp = hilbert_polynomial(I)
                # HF(d) = HP(d) from d = deg N - n + 1 on, N the numerator in S
                start = max(0, len(hilbert_series_numerator(I)) - ctx.nvars)
                for d in (start, start + 1):
                    assert hilbert_function_direct(I, d) == hp(d)
                # Macaulay: the lex lead ideal leaves as many standard
                # monomials in each degree as the grevlex one
                lex_leads = I.groebner(LEX).lead_monomials()
                for d in range(start + 2):
                    outside = sum(not any(mono_divides(g, m) for g in lex_leads)
                                  for m in degree_monomials(ctx.nvars, d))
                    assert outside == hilbert_function(I, d)
        assert moved >= 8

    def test_two_coordinates_in_the_plane_leave_a_point(self):
        assert hilbert_polynomial(ideal(XYZ, "x", "-2*y")) == HilbertPolynomial([1])

    def test_every_generator_bare_is_the_empty_scheme(self):
        assert hilbert_polynomial(ideal(XYZ, "x", "y", "3*z")) == HilbertPolynomial([])

    def test_split_section_of_the_threefold(self):
        section = x5() + ideal(ORBIT, "a6", "-am6")
        assert section.split_variables() is not None
        hp = hilbert_polynomial(section)
        assert hp == HilbertPolynomial([0, 5])
        for d in range(2, 5):
            assert hilbert_function_direct(section, d) == hp(d)


class TestDegreeMonomials:
    def test_counts(self):
        for n in range(1, 5):
            for d in range(5):
                assert len(list(degree_monomials(n, d))) \
                    == comb(d + n - 1, n - 1)

    def test_exponent_sums(self):
        assert all(sum(m) == 3 for m in degree_monomials(4, 3))

    def test_sequence_is_decreasing_lexicographic(self):
        # standard monomials, direct Hilbert-function columns and the
        # seeded pools of the property suites all depend on this order
        for n in range(1, 6):
            for d in range(7):
                every = [m for m in product(range(d + 1), repeat=n) if sum(m) == d]
                assert list(degree_monomials(n, d)) == sorted(every, reverse=True)


class TestDegreeTable:
    """The process-wide table of packed degree-d monomials: the lists of
    `degree_monomials` packed, kept per (variables, width, degree) while
    all that is kept fits its limit."""

    @pytest.mark.parametrize("top", [0, 200], ids=["8-bit", "16-bit"])
    def test_equals_the_packed_exponent_lists(self, top, monkeypatch):
        monkeypatch.setattr(hilbert, "_DEGREE_TABLES", {})
        for n in range(1, 6):
            packing = Packing.holding(n, top)
            assert packing.bits == (16 if top else 8)
            for d in (*range(8), 40, 127) if n <= 2 else range(8):
                table = hilbert.packed_degree_monomials(packing, d)
                assert type(table) is tuple
                assert table == tuple(map(packing.pack, degree_monomials(n, d))), (n, d)
                assert hilbert.packed_degree_monomials(packing, d) == table
        assert hilbert.packed_degree_monomials(Packing.holding(3, top), -1) == ()

    def test_longer_than_the_limit_returned_not_kept(self, monkeypatch):
        # 21 monomials of degree 5 in three variables, over a limit of 20;
        # its 21 monomials of one variable fewer do not all fit either
        monkeypatch.setattr(hilbert, "_DEGREE_TABLES", {})
        monkeypatch.setattr(hilbert, "_TABLE_LIMIT", 20)
        packing = Packing.holding(3, 5)
        table = hilbert.packed_degree_monomials(packing, 5)
        assert table == tuple(map(packing.pack, degree_monomials(3, 5)))
        assert (3, 8, 5) not in hilbert._DEGREE_TABLES
        assert sum(map(len, hilbert._DEGREE_TABLES.values())) <= 20
        small = hilbert.packed_degree_monomials(packing, 4)
        assert hilbert._DEGREE_TABLES[3, 8, 4] is small

    def test_kept_entries_never_exceed_the_limit(self, monkeypatch):
        limit = 60
        monkeypatch.setattr(hilbert, "_DEGREE_TABLES", {})
        monkeypatch.setattr(hilbert, "_TABLE_LIMIT", limit)
        rng = random.Random(30)
        for _ in range(200):
            n, d, top = rng.randint(1, 4), rng.randint(0, 9), rng.choice((0, 200))
            packing = Packing.holding(n, top)
            table = hilbert.packed_degree_monomials(packing, d)
            assert table == tuple(map(packing.pack, degree_monomials(n, d)))
            kept = hilbert._DEGREE_TABLES
            assert sum(map(len, kept.values())) <= limit
            # the latest list is kept exactly when it fits
            assert ((n, packing.bits, d) in kept) == (len(table) <= limit)
            for (m, bits, e), values in kept.items():
                other = Packing.holding(m, (1 << (bits - 1)) - 1)
                assert values == tuple(map(other.pack, degree_monomials(m, e)))

    def test_two_methods_agree_across_the_width_change(self, monkeypatch):
        # at degree 128 the direct variant packs at 16 bits and reads the
        # shifts of degree 126, which the standard-monomial count of
        # degree 126 read at 8 bits: a table keyed without the width
        # would hand it 8-bit shifts
        monkeypatch.setattr(hilbert, "_DEGREE_TABLES", {})
        for texts in (("x^2 + 3*x*y",), ("x^2 - y^2", "x*y"), ("x*y", "y^2")):
            I = ideal(XY, *texts)
            for d in range(126, 131):
                assert hilbert_function(I, d) == hilbert_function_direct(I, d), (texts, d)


SKEW_LINES = ideal(XYZW, "x*z", "x*w", "y*z", "y*w")    # (x, y) cap (z, w)
TWISTED_CUBIC = ideal(XYZW, "x*z - y^2", "y*w - z^2", "x*w - y*z")


def forms(*texts):
    return [parse_polynomial(t, XYZW) for t in texts]


class TestCohenMacaulayCertificate:
    def test_rejects_skew_lines(self):
        cert = certify_cohen_macaulay(SKEW_LINES)
        assert cert.hilbert == HilbertPolynomial([2, 2])
        assert not cert.proven
        # the Vandermonde forms are a system of parameters here, so the
        # rejection is the length test: 3 against degree 2
        cut = SKEW_LINES + Ideal(XYZW, forms("x + y + z + w",
                                             "x + 2*y + 3*z + 4*w"))
        assert hilbert_polynomial(cut) == HilbertPolynomial([])
        assert [hilbert_function(cut, d) for d in range(4)] == [1, 2, 0, 0]

    def test_accepts_a_complete_intersection(self):
        ci = ideal(XYZW, "x*y - z^2", "x*w + y*z - w^2")
        cert = certify_cohen_macaulay(ci)
        assert cert.hilbert == HilbertPolynomial([0, 4])
        assert cert.proven

    def test_accepts_the_twisted_cubic(self):
        assert certify_cohen_macaulay(TWISTED_CUBIC).proven

    def test_accepts_the_threefold(self):
        cert = certify_cohen_macaulay(x5())
        assert cert.proven
        assert cert.hilbert.degree == 3 and cert.hilbert.variety_degree() == 5

    def test_forms_that_are_no_parameters_prove_nothing(self):
        # a line through (1:-2:1:0), where both Vandermonde forms vanish:
        # the cut is not Artinian, so it has no length
        line = ideal(XYZW, "2*x + y", "x - z")
        assert hilbert._parameter_length(line, 2) is None
        assert not certify_cohen_macaulay(line).proven

    def test_reads_no_hilbert_function(self, monkeypatch):
        # the length of the Artinian cut is Q_cut(1), read off its series
        def refuse(*args):
            raise AssertionError("the certificate counted standard monomials")

        monkeypatch.setattr(hilbert, "hilbert_function", refuse)
        monkeypatch.setattr(hilbert, "standard_monomials", refuse)
        assert certify_cohen_macaulay(TWISTED_CUBIC).proven
        assert certify_cohen_macaulay(x5()).proven
        assert not certify_cohen_macaulay(SKEW_LINES).proven

    @pytest.mark.parametrize("texts, k", [
        (("x^2", "y^2", "z^2", "w^2"), 0),
        (("x*y", "x^3", "y^4", "z^2 - x*w", "w^3"), 0),
        (("x*z", "x*w", "y*z", "y*w"), 2),
        (("x*z - y^2", "y*w - z^2", "x*w - y*z"), 2),
        (("x*y - z^2", "x*w + y*z - w^2"), 2),
        (("1",), 1),
    ])
    def test_parameter_length_sums_the_hilbert_function(self, texts, k):
        thetas = forms("x + y + z + w", "x + 2*y + 3*z + 4*w")[:k]
        cut = ideal(XYZW, *texts) + Ideal(XYZW, thetas)
        values = [hilbert_function(cut, d) for d in range(12)]
        assert values[-1] == 0
        assert hilbert._parameter_length(ideal(XYZW, *texts), k) == sum(values)

    def test_empty_scheme_proves_nothing(self):
        assert not certify_cohen_macaulay(ideal(XYZW, "x", "y", "z", "w")).proven

    def test_regular_section_is_used_as_it_is(self, monkeypatch):
        cert = certify_cohen_macaulay(TWISTED_CUBIC)
        calls = []
        monkeypatch.setattr(Ideal, "saturate_irrelevant",
                            lambda self: calls.append(self) or self)
        section, hp, certified = cert.section(forms("x"))
        assert certified and not calls
        assert hp == HilbertPolynomial([3])
        assert section.gens == TWISTED_CUBIC.gens + tuple(forms("x"))

    @pytest.mark.parametrize("texts", [("x", "x"), ("x*z - y^2",), ("x", "w")])
    def test_sections_that_keep_the_dimension_are_saturated(self, texts):
        # a repeated form and a form in I leave the dimension too high;
        # two forms that cut the curve to nothing leave depth 0
        section, hp, certified = certify_cohen_macaulay(TWISTED_CUBIC).section(forms(*texts))
        cut = TWISTED_CUBIC + Ideal(XYZW, forms(*texts))
        assert not certified
        assert hp == hilbert_polynomial(cut)
        assert section == cut.saturate_irrelevant()

    def test_unproven_certificate_saturates(self):
        # a hyperplane section of the skew lines is not saturated
        section, hp, certified = certify_cohen_macaulay(SKEW_LINES).section(
            forms("x + y + z + w"))
        cut = SKEW_LINES + Ideal(XYZW, forms("x + y + z + w"))
        assert not certified
        assert hp == HilbertPolynomial([2])
        assert section == cut.saturate_irrelevant()
        assert section != cut

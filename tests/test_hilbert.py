"""Hilbert functions, series numerators, and Hilbert polynomials."""
import random
from fractions import Fraction
from math import comb

import pytest

from delpezzo5.hilbert import (HilbertPolynomial, degree_monomials,
                               hilbert_function, hilbert_function_direct,
                               hilbert_polynomial, hilbert_series_numerator,
                               standard_monomials)
from delpezzo5.ideals import Ideal
from delpezzo5.polyring import Polynomial, RingContext, parse_polynomial

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
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


class TestHilbertPolynomial:
    def test_threefold(self):
        hp = hilbert_polynomial(x5())
        assert hp == HilbertPolynomial(
            [1, Fraction(8, 3), Fraction(5, 2), Fraction(5, 6)])
        assert hp(1) == 7
        assert hp.variety_degree() == 5
        assert str(hp) == "5/6*m^3 + 5/2*m^2 + 8/3*m + 1"

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


class TestDegreeMonomials:
    def test_counts(self):
        for n in range(1, 5):
            for d in range(5):
                assert len(list(degree_monomials(n, d))) \
                    == comb(d + n - 1, n - 1)

    def test_exponent_sums(self):
        assert all(sum(m) == 3 for m in degree_monomials(4, 3))

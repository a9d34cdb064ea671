"""Ideal calculus: sum, product, intersection, quotient, saturation,
elimination, comparison, and torus-fixedness."""
import random
from fractions import Fraction

import pytest

from delpezzo5.ideals import Ideal, _meet_all
from delpezzo5.polyring import (GREVLEX, LEX, Polynomial, RingContext,
                                parse_polynomial)

X = RingContext(("x",))
XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
ORBIT = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                    (6, 4, 2, 0, -2, -4, -6))

X5_GENS = ("a6*am2 - 4*a4*a0 + 3*a2^2",
           "a6*am4 - 3*a4*am2 + 2*a2*a0",
           "a6*am6 - 9*a2*am2 + 8*a0^2",
           "a4*am6 - 3*a2*am4 + 2*a0*am2",
           "a2*am6 - 4*a0*am4 + 3*am2^2")


def ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts])


def x5():
    return ideal(ORBIT, *X5_GENS)


def random_poly(rng, ctx, homogeneous=False, max_deg=3):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * ctx.nvars
            degree = rng.randint(1, max_deg) if homogeneous \
                else rng.randint(0, max_deg)
            for _ in range(degree):
                exps[rng.randrange(ctx.nvars)] += 1
            c = rng.randint(-3, 3)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, Fraction(0)) + c
        terms = {m: c for m, c in terms.items() if c}
        if homogeneous and terms:
            d = max(sum(m) for m in terms)
            terms = {m: c for m, c in terms.items() if sum(m) == d}
        if terms:
            return Polynomial(ctx, terms)


def random_ideal(rng, ctx, homogeneous=False):
    return Ideal(ctx, [random_poly(rng, ctx, homogeneous)
                       for _ in range(rng.randint(1, 3))])


class TestCombine:
    def test_coprime_principal_intersection(self):
        assert ideal(XY, "x").intersect(ideal(XY, "y")) == ideal(XY, "x*y")

    def test_sum_with_zero_ideal(self):
        I = ideal(XYZ, "x^2 - y*z")
        assert I + Ideal(XYZ, []) == I

    def test_principal_product(self):
        assert ideal(XY, "x") * ideal(XY, "x") == ideal(XY, "x^2")

    def test_intersection_between_product_and_factors(self):
        rng = random.Random(53)
        for _ in range(10):
            I, J = random_ideal(rng, XY), random_ideal(rng, XY)
            M = I.intersect(J)
            assert I.contains_ideal(M) and J.contains_ideal(M)
            assert M.contains_ideal(I * J)

    def test_principal_intersection_is_scaled_quotient(self):
        rng = random.Random(59)
        for _ in range(8):
            I = random_ideal(rng, XY)
            f = random_poly(rng, XY)
            left = I.intersect(Ideal(XY, [f]))
            right = Ideal(XY, [f * g for g in I.quotient(f).gens])
            assert left == right


class TestQuotient:
    def test_monomial_quotient(self):
        assert ideal(XYZ, "x*y", "x*z").quotient(ideal(XYZ, "x")) \
            == ideal(XYZ, "y", "z")

    def test_self_quotient_is_unit(self):
        I = ideal(XYZ, "x^2 - y*z", "y^3")
        assert I.quotient(I).is_unit()

    def test_quotient_by_zero_ideal_warns(self):
        I = ideal(XY, "x")
        with pytest.warns(UserWarning):
            Q = I.quotient(Ideal(XY, [XY.zero()]))
        assert Q.is_unit()

    def test_containments_randomized(self):
        rng = random.Random(61)
        for _ in range(12):
            I, J = random_ideal(rng, XY), random_ideal(rng, XY)
            Q = I.quotient(J)
            assert Q.contains_ideal(I)
            for q in Q.gens:
                for j in J.gens:
                    assert q * j in I

    def test_variable_fast_path_matches_general(self):
        rng = random.Random(67)
        for _ in range(12):
            I = random_ideal(rng, XYZ, homogeneous=True)
            for name in XYZ.variables:
                assert I.quotient_variable(name) == \
                    I._quotient_poly(XYZ.variable(name))

    def test_variable_fast_path_needs_homogeneous(self):
        with pytest.raises(ValueError):
            ideal(XY, "x^2 - 1").quotient_variable("x")

    def test_one_variable_ring(self):
        I = ideal(X, "x^2")
        assert I.quotient(ideal(X, "x")) == ideal(X, "x") \
            == I._quotient_poly(X.variable("x"))

    def test_divisor_from_another_ring_rejected(self):
        # x of another ring: the variable fast path must not look the
        # name up in the ideal's own ring
        other = RingContext(("x", "y", "w"))
        with pytest.raises(ValueError):
            ideal(XY, "x*y").quotient(other.variable("x"))


class TestSaturation:
    def test_power_of_element(self):
        assert ideal(XY, "x^2").saturate(ideal(XY, "x")).is_unit()

    def test_by_unit_ideal_is_identity(self):
        I = ideal(XYZ, "x^2 - y*z")
        assert I.saturate(Ideal(XYZ, [XYZ.one()])) == I

    def test_by_zero_ideal_warns(self):
        with pytest.warns(UserWarning):
            S = ideal(XY, "x").saturate(Ideal(XY, []))
        assert S.is_unit()

    def test_idempotent_randomized(self):
        rng = random.Random(71)
        for _ in range(10):
            I = random_ideal(rng, XY)
            f = random_poly(rng, XY)
            S = I.saturate(f)
            assert S.contains_ideal(I)
            assert S.saturate(f) == S

    def test_variable_fast_path_matches_general(self):
        rng = random.Random(73)
        for _ in range(10):
            I = random_ideal(rng, XYZ, homogeneous=True)
            name = XYZ.variables[rng.randrange(3)]
            assert I.saturate_variable(name) == \
                I._saturate_poly(XYZ.variable(name))

    def test_inhomogeneous_input_falls_back(self):
        I = ideal(XYZ, "x*y^2 + y", "x^2 - z")
        assert I.saturate_variable("x") == \
            I._saturate_poly(XYZ.variable("x"))

    def test_irrelevant_saturation_two_variables(self):
        # <x^2, x*y> = x * <x, y>: the embedded origin is irrelevant in
        # the plane, so saturation strips it
        assert ideal(XY, "x^2", "x*y").saturate_irrelevant() == ideal(XY, "x")

    def test_irrelevant_saturation_three_variables(self):
        # with a third variable the locus x = y = 0 is a genuine
        # projective point, so the same ideal is already saturated
        I = ideal(XYZ, "x^2", "x*y")
        assert I.saturate_irrelevant() == I

    def test_one_variable_ring(self):
        I = ideal(X, "x^2")
        assert I.saturate_irrelevant() == ideal(X, "1") \
            == I._saturate_poly(X.variable("x"))

    def test_quotient_of_saturated_ideal_is_saturated(self):
        # (I : J) : m^inf = (I : m^inf) : J, so a quotient keeps saturation
        rng = random.Random(89)
        for ctx in (XY, XYZ):
            for _ in range(6):
                I = random_ideal(rng, ctx, homogeneous=True).saturate_irrelevant()
                Q = I.quotient(random_ideal(rng, ctx, homogeneous=True))
                assert Q.saturate_irrelevant() == Q

    def test_variables_in_the_ideal_are_skipped(self, monkeypatch):
        # a section X + (s1, s2) holds s1 and s2, whose saturations are (1)
        section = x5() + ideal(ORBIT, "a6", "am6")
        every = _meet_all(map(section.saturate_variable, ORBIT.variables))
        seen = []
        plain = Ideal.saturate_variable

        def counted(self, name):
            seen.append(name)
            return plain(self, name)

        monkeypatch.setattr(Ideal, "saturate_variable", counted)
        skipped = section.saturate_irrelevant()
        assert skipped.groebner().elements == every.groebner().elements
        assert seen == [v for v in ORBIT.variables if v not in ("a6", "am6")]

    def test_ideal_holding_every_variable_saturates_to_unit(self):
        I = ideal(XYZ, "x", "y + x^2", "z - y")
        assert I.saturate_irrelevant().groebner().elements == (XYZ.one(),)

    def test_conic_saturation_from_threefold(self):
        cut = x5() + ideal(ORBIT, "a6", "a4", "a2", "a0")
        expected = ideal(ORBIT, "a6", "a4", "a2", "a0", "am2^2")
        assert cut.saturate_irrelevant() == expected


class TestEliminate:
    def test_chained_equality(self):
        ctx = RingContext(("x", "y", "t"))
        I = ideal(ctx, "y - t", "t - x")
        out = I.eliminate(["t"])
        assert out.context.variables == ("x", "y")
        assert out == ideal(out.context, "y - x")

    def test_substitution(self):
        I = ideal(XY, "y - x^2", "y^2 - 1")
        out = I.eliminate(["y"])
        assert out == ideal(out.context, "x^4 - 1")

    def test_rabinowitsch_unit(self):
        ctx = RingContext(("x", "t"))
        I = ideal(ctx, "1 - t*x", "x^2")
        assert I.eliminate(["t"]).is_unit()

    def test_cannot_drop_everything(self):
        with pytest.raises(ValueError):
            ideal(XY, "x").eliminate(["x", "y"])


class TestCompare:
    def test_reflexive(self):
        I = ideal(XYZ, "x^2 - y*z")
        assert I.compare(I) == "equal"

    def test_incomparable_principal(self):
        assert ideal(XY, "x").compare(ideal(XY, "y")) == "incomparable"

    def test_threefold_inside_conic(self):
        conic = ideal(ORBIT, "a6", "a4", "a2", "a0", "am2^2")
        assert x5().compare(conic) == "subset"
        assert conic.compare(x5()) == "superset"

    def test_equal_verdict_is_presentation_and_order_independent(self):
        rng = random.Random(79)
        for _ in range(8):
            I = random_ideal(rng, XY)
            gens = list(I.gens)
            rng.shuffle(gens)
            gens.append(gens[0] * random_poly(rng, XY))
            J = Ideal(XY, gens)
            assert I.compare(J) == "equal"
            assert I.groebner(LEX).elements == J.groebner(LEX).elements
            assert I.groebner(GREVLEX).elements == J.groebner(GREVLEX).elements


class TestFixedness:
    def test_threefold_fixed(self):
        assert x5().is_torus_fixed()

    def test_printed_cubic_row_fixed(self):
        row = ideal(ORBIT, "am6", "am4", "am2", "a0^2", "a2*a0",
                    "3*a2^2 - 4*a4*a0")
        assert row.is_torus_fixed()

    def test_mixed_weight_generator_not_fixed(self):
        assert not ideal(ORBIT, "a6 + a4").is_torus_fixed()

    def test_fixedness_survives_regeneration(self):
        rng = random.Random(83)
        I = x5()
        gens = list(I.gens)
        # random weight-homogeneous combinations of the quadrics
        for _ in range(3):
            a, b = rng.sample(range(len(I.gens)), 2)
            if (ORBIT.monomial_weight(I.gens[a].lead_monomial())
                    == ORBIT.monomial_weight(I.gens[b].lead_monomial())):
                gens.append(I.gens[a] + 2 * I.gens[b])
        J = Ideal(ORBIT, gens)
        assert J.is_torus_fixed()
        assert J == I


class TestCanonicalKey:
    def test_equality_invariant(self):
        I = ideal(XY, "x^2 - y^2", "x*y")
        J = ideal(XY, "x*y", "x^2 - y^2", "x^3 - y^2*x")
        assert I.canonical_key() == J.canonical_key()

    def test_distinct_ideals_distinct_keys(self):
        assert ideal(XY, "x").canonical_key() != ideal(XY, "y").canonical_key()

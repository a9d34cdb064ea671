"""Polynomial arithmetic, orders, substitution, and the text format."""
import random
from fractions import Fraction

import pytest

from delpezzo5.polyring import (GREVLEX, LEX, BlockOrder, Polynomial,
                                RingContext, WeightedOrder, block_split,
                                elimination_order, format_ideal_text,
                                format_polynomial, parse_ideal_text,
                                parse_polynomial, substitute_linear,
                                variable_last_order)

XYZ = RingContext(("x", "y", "z"))
ORBIT = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                    (6, 4, 2, 0, -2, -4, -6))


def p(text, ctx=XYZ):
    return parse_polynomial(text, ctx)


def random_poly(rng, ctx, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(-4, 4)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ctx, {m: c for m, c in terms.items() if c})


class TestConstruction:
    def test_int_coefficients_become_fractions(self):
        q = Polynomial(XYZ, {(1, 0, 0): 2, (0, 0, 0): -1, (0, 1, 0): 0})
        assert q.terms == {(1, 0, 0): Fraction(2), (0, 0, 0): Fraction(-1)}
        assert all(type(c) is Fraction for c in q.terms.values())

    def test_fraction_keeps_its_value(self):
        q = Polynomial(XYZ, {(0, 2, 1): Fraction(-3, 7)})
        assert q.terms == {(0, 2, 1): Fraction(-3, 7)}
        assert type(q.terms[(0, 2, 1)]) is Fraction

    @pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0), (0, -1, 2)])
    def test_bad_exponent_vector_rejected(self, exps):
        with pytest.raises(ValueError):
            Polynomial(XYZ, {exps: Fraction(1)})


class TestArithmetic:
    def test_additive_inverse(self):
        assert (p("x") + p("-x")).is_zero()

    def test_difference_of_squares(self):
        assert p("x + y") * p("x - y") == p("x^2 - y^2")

    def test_scalar_multiple(self):
        q = parse_polynomial("a2^2", ORBIT)
        assert 3 * q == parse_polynomial("3*a2^2", ORBIT)

    def test_no_stored_zero_coefficients(self):
        q = p("x + y") - p("y")
        assert set(q.terms.values()) == {Fraction(1)}

    def test_context_mismatch_rejected(self):
        with pytest.raises(ValueError):
            p("x") + parse_polynomial("a6", ORBIT)

    def test_power(self):
        assert p("x + 1") ** 3 == p("x^3 + 3*x^2 + 3*x + 1")

    def test_exact_division_by_scalar(self):
        assert p("x") / 3 == p("1/3*x")

    def test_ring_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(60):
            a, b, c = (random_poly(rng, XYZ) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


class TestSubstitution:
    def test_plucker_to_orbit_example(self):
        plucker = RingContext(("p42",), (6,))
        image = {"p42": ORBIT.variable("a6")}
        q = parse_polynomial("p42", plucker)
        assert substitute_linear(q, image, ORBIT) == ORBIT.variable("a6")

    def test_identity(self):
        images = {v: XYZ.variable(v) for v in XYZ.variables}
        rng = random.Random(7)
        for _ in range(20):
            q = random_poly(rng, XYZ)
            assert substitute_linear(q, images, XYZ) == q

    def test_swap(self):
        images = {"x": XYZ.variable("y"), "y": XYZ.variable("x"),
                  "z": XYZ.variable("z")}
        assert substitute_linear(p("x^2*y"), images, XYZ) == p("y^2*x")

    def test_homomorphism_randomized(self):
        rng = random.Random(11)
        images = {"x": p("x + 2*y"), "y": p("y - z"), "z": p("3*z")}
        for _ in range(30):
            a, b = random_poly(rng, XYZ), random_poly(rng, XYZ)
            sa = substitute_linear(a, images, XYZ)
            sb = substitute_linear(b, images, XYZ)
            assert substitute_linear(a * b, images, XYZ) == sa * sb
            assert substitute_linear(a + b, images, XYZ) == sa + sb

    def test_unmapped_variable_rejected(self):
        with pytest.raises(ValueError):
            substitute_linear(p("x*y"), {"x": p("x")}, XYZ)


class TestWeights:
    def test_orbit_quadric_is_weight_homogeneous(self):
        q = parse_polynomial("a6*am2 - 4*a4*a0 + 3*a2^2", ORBIT)
        assert q.weight_components() == {4: q}
        assert q.is_weight_homogeneous()

    def test_mixed_weights_split(self):
        q = parse_polynomial("a6 + am6", ORBIT)
        parts = q.weight_components()
        assert set(parts) == {6, -6}
        assert parts[6] == parse_polynomial("a6", ORBIT)
        assert not q.is_weight_homogeneous()

    def test_constant_is_weight_zero(self):
        assert set(ORBIT.constant(1).weight_components()) == {0}

    def test_components_sum_to_whole(self):
        rng = random.Random(13)
        for _ in range(25):
            q = random_poly(rng, ORBIT)
            total = ORBIT.zero()
            for part in q.weight_components().values():
                total = total + part
            assert total == q

    def test_weightless_context_rejected(self):
        with pytest.raises(ValueError):
            p("x").weight_components()


class TestOrders:
    ORDERS = (LEX, GREVLEX,
              WeightedOrder((2, 1, 1), GREVLEX),
              block_split(3, 1),
              elimination_order(3, (1,)),
              variable_last_order(3, 0))

    def random_exps(self, rng):
        return tuple(rng.randint(0, 4) for _ in range(3))

    def test_multiplicative_and_well_ordered(self):
        rng = random.Random(17)
        one = (0, 0, 0)
        for order in self.ORDERS:
            for _ in range(80):
                u, v, w = (self.random_exps(rng) for _ in range(3))
                if order.greater(u, v):
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert order.greater(uw, vw)
                if u != one:
                    assert order.greater(u, one)

    def test_lex_vs_grevlex_disagree_somewhere(self):
        # x^3 vs x*y*z: lex prefers x^3, grevlex compares total degree
        # first and then reversed exponents
        a, b = (3, 0, 0), (1, 1, 1)
        assert LEX.greater(a, b) and GREVLEX.greater(a, b)
        c, d = (2, 0, 0), (1, 1, 1)
        assert LEX.greater(c, d) and not GREVLEX.greater(c, d)

    def test_structural_equality(self):
        assert variable_last_order(3, 0) == variable_last_order(3, 0)
        assert variable_last_order(3, 0) != variable_last_order(3, 1)
        assert WeightedOrder((1, 2, 3), LEX) == WeightedOrder((1, 2, 3), LEX)


class TestTextFormat:
    def test_polynomial_round_trip(self):
        rng = random.Random(19)
        for _ in range(40):
            q = random_poly(rng, ORBIT)
            assert parse_polynomial(format_polynomial(q), ORBIT) == q

    def test_rational_coefficients(self):
        q = parse_polynomial("27/16*a4 - 9/8*a2", ORBIT)
        assert q.coefficient((0, 1, 0, 0, 0, 0, 0)) == Fraction(27, 16)
        assert q.coefficient((0, 0, 1, 0, 0, 0, 0)) == Fraction(-9, 8)

    def test_ideal_file_round_trip(self):
        text = format_ideal_text(ORBIT, [
            parse_polynomial("a6*am2 - 4*a4*a0 + 3*a2^2", ORBIT),
            parse_polynomial("a2", ORBIT),
        ])
        ctx, gens = parse_ideal_text(text)
        assert ctx == ORBIT
        assert len(gens) == 2
        assert gens[1] == ORBIT.variable("a2")

    def test_comments_and_blank_lines_ignored(self):
        text = ("# header\n"
                "ring: x, y\n"
                "\n"
                "gens:\n"
                "# a generator\n"
                "x^2 - y\n")
        ctx, gens = parse_ideal_text(text)
        assert ctx.weights is None
        assert gens == [parse_polynomial("x^2 - y", ctx)]

    def test_missing_ring_line_rejected(self):
        with pytest.raises(ValueError):
            parse_ideal_text("gens:\nx\n")

    def test_stray_line_rejected(self):
        with pytest.raises(ValueError):
            parse_ideal_text("ring: x\nx^2\ngens:\n")

    # juxtaposed factors (a missing '*'), a zero denominator, an unknown variable
    @pytest.mark.parametrize("text", ["x y", "2x", "x^2 y", "x*y z", "1/0*x", "x*w"])
    def test_malformed_polynomial_rejected(self, text):
        with pytest.raises(ValueError):
            parse_polynomial(text, XYZ)

    @pytest.mark.parametrize("text", [
        "ring: x\nring: x, y\ngens:\nx\n",
        "ring: x, y\nweights: 1, 2\nweights: 2, 1\ngens:\nx\n",
    ], ids=["ring", "weights"])
    def test_repeated_header_line_rejected(self, text):
        with pytest.raises(ValueError):
            parse_ideal_text(text)

    def test_formatting_deterministic(self):
        q = parse_polynomial("a6*am2 - 4*a4*a0 + 3*a2^2", ORBIT)
        # grevlex-descending term listing, independent of input spelling
        assert format_polynomial(q) == "3*a2^2 - 4*a4*a0 + a6*am2"

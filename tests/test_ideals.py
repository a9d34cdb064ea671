"""Ideal calculus: sum, product, intersection, quotient, saturation,
elimination, comparison, and torus-fixedness."""
import random
import warnings
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from delpezzo5 import dp5, groebner, ideals
from delpezzo5.groebner import reduced_groebner_basis
from delpezzo5.ideals import Ideal, _meet, _tag_ring, _tagged
from delpezzo5.polyring import (GREVLEX, LEX, Polynomial, RingContext,
                                parse_polynomial, variable_last_order)

X = RingContext(("x",))
XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
XYZW = RingContext(("x", "y", "z", "w"))
XYZWV = RingContext(("x", "y", "z", "w", "v"))
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


class TestTaggedGenerators:
    """The eliminations' generators t*g, (1-t)*g and 1-t*g, built from
    packed shifts, against `Polynomial` arithmetic."""

    XTZ = RingContext(("x", "t", "z"), (1, 0, -1))

    @staticmethod
    def polynomials(ctx, seed, top):
        """A constant and seeded polynomials with rational coefficients
        and exponents up to ``top``: 16-bit packed when top is 200."""
        rng = random.Random(seed)
        polys = [ctx.constant(Fraction(-3, 7))]
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.choice((0, 0, 1, 2, top)) for _ in range(ctx.nvars))
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            polys.append(Polynomial(ctx, terms))
        return polys

    @pytest.mark.parametrize("top", [3, 200], ids=["8-bit", "16-bit"])
    @pytest.mark.parametrize("ctx", [XYZW, XTZ], ids=["tag t", "tag t0"])
    def test_shapes_match_polynomial_arithmetic(self, ctx, top):
        ext = _tag_ring(ctx)
        tag = ext.variables[-1]
        assert tag == ("t0" if "t" in ctx.variables else "t")
        assert ext.variables[:-1] == ctx.variables
        t, one = ext.variable(tag), ext.one()
        for g in self.polynomials(ctx, 23 + top, top):
            h = g.moved(ext, range(ctx.nvars))
            for shape, expected in (("t*g", t * h), ("(1-t)*g", (one - t) * h),
                                    ("1-t*g", one - t * h)):
                built = _tagged(ext, g, shape)
                assert built.context == ext and built.packing is expected.packing
                assert built.packing.bits == g.packing.bits
                assert list(built.packed.items()) == list(expected.packed.items())

    def test_cold_eliminations_make_no_polynomial_products(self, monkeypatch):
        counts = Counter()
        plain_mul, plain_run = Polynomial.__mul__, groebner._buchberger

        def mul(self, other):
            counts["products"] += 1
            return plain_mul(self, other)

        def run(*args, **kwargs):
            counts["buchberger"] += 1
            return plain_run(*args, **kwargs)

        monkeypatch.setattr(Polynomial, "__mul__", mul)
        monkeypatch.setattr(groebner, "_buchberger", run)
        ctx = self.XTZ
        for operation in (lambda I, J, f: I.intersect(J), lambda I, J, f: I._saturate_poly(f),
                          lambda I, J, f: I._quotient_poly(f)):
            I = ideal(ctx, "x^2*t - z^3", "x*t*z - 1/2*t^2")
            J = ideal(ctx, "x*z - t^2", "x^3 - 3/4*t*z^2")
            f = parse_polynomial("x*z + 2/3*t^2 - z^2", ctx)
            counts.clear()
            operation(I, J, f)
            # one elimination each, as with the products in Polynomial arithmetic
            assert counts == {"buchberger": 1}


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

    def test_exact_division_by_a_wide_non_monic_divisor(self, monkeypatch):
        # f's lead coefficient is 3/4 and its exponent 130 needs 16-bit
        # fields: each of the meet's three elements is divided by f
        # exactly, at that width, by the one divisor triple built for f
        f = parse_polynomial("3/4*x^130 - y*z + 2", XYZ)
        I = Ideal(XYZ, [f * parse_polynomial("x*y - 3", XYZ),
                        parse_polynomial("y^2*z - x", XYZ)])
        calls, builds = Counter(), ideals.divisor_triples
        plain = Ideal._quotient_poly

        def divided(self, g):
            calls["quotients"] += 1
            return plain(self, g)

        def built(*args):
            calls["triples"] += 1
            return builds(*args)

        monkeypatch.setattr(Ideal, "_quotient_poly", divided)
        monkeypatch.setattr(ideals, "divisor_triples", built)
        Q = I.quotient(f)
        assert calls == {"quotients": 1, "triples": 1}
        assert Q.gens == tuple(parse_polynomial(t, XYZ) for t in (
            "4/3*y^2*z - 4/3*x", "4/3*x^2 - 4*y*z", "4/3*x*y - 4"))
        assert all(g.packing.bits == 16 for g in Q.gens)
        assert Q.groebner(GREVLEX).elements == tuple(parse_polynomial(t, XYZ) for t in (
            "y^2*z - x", "x^2 - 3*y*z", "x*y - 3"))
        assert Ideal(XYZ, [f * q for q in Q.gens]) == I.intersect(Ideal(XYZ, [f]))

    def test_variable_fast_path_needs_homogeneous(self):
        with pytest.raises(ValueError):
            ideal(XY, "x^2 - 1").quotient_variable("x")

    def test_one_variable_ring(self):
        I = ideal(X, "x^2")
        assert I.quotient(ideal(X, "x")) == ideal(X, "x") \
            == I._quotient_poly(X.variable("x"))

    def test_divisors_in_the_ideal_are_skipped(self, monkeypatch):
        # (I : x) = (1) for x in I, which the meet ignores
        I = ideal(XYZ, "x", "y*z")
        seen = []
        plain = Ideal.quotient_variable

        def counted(self, name):
            seen.append(name)
            return plain(self, name)

        monkeypatch.setattr(Ideal, "quotient_variable", counted)
        assert I.quotient(ideal(XYZ, "x", "y")) == ideal(XYZ, "x", "z")
        assert seen == ["y"]

    def test_every_divisor_in_the_ideal_gives_unit_without_warning(self, monkeypatch):
        I = ideal(XYZ, "x^2 - y*z", "y^3")

        def refuse(self, f):
            raise AssertionError("a divisor in the ideal was divided out")

        for route in ("quotient_variable", "_quotient_poly", "saturate_variable",
                      "_saturate_poly"):
            monkeypatch.setattr(Ideal, route, refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = I.quotient(ideal(XYZ, "y^3", "x^2*y - y^2*z"))
            S = I.saturate(parse_polynomial("y^4", XYZ))
        assert Q.gens == S.gens == (XYZ.one(),)

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

    def counted_routes(self, monkeypatch) -> list:
        """The routes the single saturations take, in call order."""
        seen = []
        plain_variable, plain_poly = Ideal.saturate_variable, Ideal._saturate_poly

        def variable(self, name):
            seen.append("variable")
            return plain_variable(self, name)

        def poly(self, f):
            seen.append("poly")
            return plain_poly(self, f)

        monkeypatch.setattr(Ideal, "saturate_variable", variable)
        monkeypatch.setattr(Ideal, "_saturate_poly", poly)
        return seen

    def test_bare_variable_divisors_take_the_variable_route(self, monkeypatch):
        # a bare-variable generator of J goes to saturate_variable when I
        # is homogeneous, any other generator to Rabinowitsch's trick; the
        # meet equals Rabinowitsch's trick on every generator.  The fold
        # stops at the first divisor whose saturation is I itself
        rng = random.Random(79)
        cases = [(ideal(XYZ, "x^2*y - y*z^2", "x*z^3"), ideal(XYZ, "x", "2*z")),
                 (ideal(XYZ, "x^2*y - y*z^2", "x*z^3"), ideal(XYZ, "-3*z", "x + y"))]
        for _ in range(6):
            I = random_ideal(rng, XYZW, homogeneous=True)
            cases.append((I, Ideal(XYZW, [XYZW.variable(v) for v in rng.sample("xyzw", 2)])))
        stopped = 0
        for I, J in cases:
            general = reduce(_meet, (I._saturate_poly(g) for g in J.gens))
            outside = [g for g in J.gens if g not in I]
            routes = []
            for g in outside:
                name = g.variable_name()
                routes.append("variable" if name else "poly")
                if name and I.saturate_variable(name) is I:
                    break
            stopped += len(routes) < len(outside)
            seen = self.counted_routes(monkeypatch)
            assert I.saturate(J) == general
            assert seen == routes
            monkeypatch.undo()
        assert stopped >= 1

    def test_inhomogeneous_ideal_takes_the_general_route(self, monkeypatch):
        I = ideal(XYZ, "x*y^2 + y", "x^2 - z")
        J = ideal(XYZ, "x", "2*z")
        general = reduce(_meet, (I._saturate_poly(g) for g in J.gens))
        seen = self.counted_routes(monkeypatch)
        assert I.saturate(J) == general
        assert seen == ["poly", "poly"]

    def test_irrelevant_saturation_is_saturation_by_the_variables(self):
        # seeded ideals, and the same with bare-variable generators added
        rng = random.Random(83)
        for ctx in (XY, XYZ, XYZW):
            m = Ideal(ctx, ctx.gens())
            for _ in range(4):
                I = random_ideal(rng, ctx, homogeneous=True)
                bare = Ideal(ctx, I.gens + (ctx.constant(-2) * ctx.variable(ctx.variables[0]),))
                for J in (I, bare):
                    assert J.saturate_irrelevant().gens == J.saturate(m).gens

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
        # a section X + (s1, s2) holds s1 and s2, whose saturations are (1);
        # the fold over the others stops at the first one whose saturation
        # of the cut is the cut itself
        section = x5() + ideal(ORBIT, "a6", "am6")
        every = reduce(_meet, map(section.saturate_variable, ORBIT.variables))
        cut, _ = section.split_variables()
        visited = []
        for name in ORBIT.variables:
            if name not in ("a6", "am6"):
                visited.append(name)
                if cut.saturate_variable(name) is cut:
                    break
        seen = []
        plain = Ideal.saturate_variable

        def counted(self, name):
            seen.append(name)
            return plain(self, name)

        monkeypatch.setattr(Ideal, "saturate_variable", counted)
        skipped = section.saturate_irrelevant()
        assert skipped.groebner().elements == every.groebner().elements
        assert seen == visited

    def test_fold_stops_where_its_meet_is_the_ideal(self):
        # once a factor is I itself, the meet is I and every later _meet
        # returns that same object: the early exit keeps the generator
        # list of the meet over every factor
        rng = random.Random(97)
        cases = [(x5() + ideal(ORBIT, "a6", "am6")).split_variables()[0],
                 ideal(XYZ, "x^2*y - y*z^2", "x*z^3")]
        cases += [random_ideal(rng, ctx, homogeneous=True)
                  for ctx in (XY, XYZ, XYZW) for _ in range(4)]
        stopped = 0
        for I in cases:
            if I.split_variables() is not None:
                continue  # the fold would run on the cut
            for saturate in (True, False):
                fold = I.saturate_irrelevant() if saturate \
                    else I.quotient(Ideal(I.context, I.context.gens()))
                route = Ideal.saturate_variable if saturate else Ideal.quotient_variable
                factors = [route(I, v) for v in I.context.variables
                           if I.context.variable(v) not in I]
                assert fold.gens == reduce(_meet, factors).gens
                stopped += any(f is I for f in factors[:-1])
        assert stopped >= 3

    def test_quotient_skips_factors_that_contain_the_meet(self, monkeypatch):
        # (I : g) contains the meet M exactly when M * g lies in I, and
        # then _meet returns M: skipping g before computing its factor
        # keeps the generator list of the meet over every factor
        rng = random.Random(131)
        computed, factors_total = 0, 0
        for ctx in (XY, XYZ, XYZW):
            for size in (2, 3):
                for _ in range(4):
                    I = random_ideal(rng, ctx, homogeneous=rng.random() < 0.75)
                    if I.split_variables() is not None:
                        continue  # the fold would run on the cut
                    pool = [*ctx.gens(), *(random_poly(rng, ctx, True, 2) for _ in range(2))]
                    J = Ideal(ctx, rng.sample(pool, size))

                    def single(I, g):
                        name = g.variable_name()
                        if name is not None and I.is_homogeneous():
                            return I.quotient_variable(name)
                        return I._quotient_poly(g)

                    factors = [single(I, g) for g in J.gens if g not in I]
                    if not factors:
                        continue
                    seen = []
                    variable, poly = Ideal.quotient_variable, Ideal._quotient_poly
                    monkeypatch.setattr(Ideal, "quotient_variable",
                                        lambda self, name: seen.append(name) or variable(self, name))
                    monkeypatch.setattr(Ideal, "_quotient_poly",
                                        lambda self, g: seen.append(g) or poly(self, g))
                    fold = Ideal(ctx, I.gens).quotient(J)
                    monkeypatch.undo()
                    assert fold.gens == reduce(_meet, factors).gens, (I, J)
                    computed += len(seen)
                    factors_total += len(factors)
        assert computed < factors_total

    def test_basis_computations_are_pinned(self, monkeypatch):
        # A * (l, x^2, y^2, z^2, w^2) saturates to (A): Buchberger runs
        # for I's grevlex basis and its four variable-last bases, and for
        # nothing else, since every factor and meet is tested for
        # containment with the basis it was built with
        rng = random.Random(0)
        A = random_poly(rng, XYZW, True, 2)
        I = Ideal(XYZW, [A * b for b in [random_poly(rng, XYZW, True, 1)]
                         + [v ** 2 for v in XYZW.gens()]])
        kinds = Counter()
        plain = ideals.reduced_groebner_basis

        def counted(gens, order, *args, **kwargs):
            kinds[type(order).__name__] += 1
            return plain(gens, order, *args, **kwargs)

        monkeypatch.setattr(ideals, "reduced_groebner_basis", counted)
        S = I.saturate_irrelevant()
        assert kinds == {"GrevlexOrder": 1, "BlockOrder": 4}
        monkeypatch.undo()
        assert S == Ideal(XYZW, [A])

    def test_ideal_holding_every_variable_saturates_to_unit(self):
        I = ideal(XYZ, "x", "y + x^2", "z - y")
        assert I.saturate_irrelevant().groebner().elements == (XYZ.one(),)

    def test_conic_saturation_from_threefold(self):
        cut = x5() + ideal(ORBIT, "a6", "a4", "a2", "a0")
        expected = ideal(ORBIT, "a6", "a4", "a2", "a0", "am2^2")
        assert cut.saturate_irrelevant() == expected


class TestVariableLastDivision:
    """(I : x) and (I : x^inf) of a homogeneous I from one reduced basis
    under `variable_last_order` (Bayer & Stillman 1987)."""

    @staticmethod
    def cases():
        """(ideal, variable): the census section X + (a0, a4) of the line
        l2 by each variable, and seeded homogeneous ideals with
        generators divisible by a power of the variable."""
        section = x5() + ideal(ORBIT, "a0", "a4")
        cases = [(section, name) for name in ORBIT.variables]
        rng = random.Random(101)
        for ctx in (XY, XYZ, XYZW):
            for _ in range(4):
                name = ctx.variables[rng.randrange(ctx.nvars)]
                x = ctx.variable(name)
                gens = [x ** rng.randint(1, 2) * random_poly(rng, ctx, homogeneous=True)
                        for _ in range(2)]
                cases.append((Ideal(ctx, gens + [random_poly(rng, ctx, homogeneous=True)]), name))
        return cases

    @pytest.mark.parametrize("saturate", [False, True], ids=["quotient", "saturation"])
    def test_one_basis_per_call(self, monkeypatch, saturate):
        computed = []
        plain = Ideal.groebner

        def groebner(self, order=GREVLEX):
            if order not in self._gb_cache:
                computed.append(order)
            return plain(self, order)

        monkeypatch.setattr(Ideal, "groebner", groebner)
        cases, divided = self.cases(), 0
        for I, name in cases:
            idx = I.context.index(name)
            order = variable_last_order(I.context.nvars, idx)
            computed.clear()
            J = I.saturate_variable(name) if saturate else I.quotient_variable(name)
            assert computed.count(order) == 1
            if J is I:
                continue
            divided += 1
            # the divided elements are a Groebner basis under the order
            leads = [g.lead_monomial(order) for g in J.gens]
            for g in J.groebner(order):
                lead = g.lead_monomial(order)
                assert any(all(a <= b for a, b in zip(m, lead)) for m in leads)
            if saturate:
                # and no lead of the saturation involves x: one pass suffices
                assert all(m[idx] == 0 for m in leads)
        # the saturation is I itself by am6 on the section and for one
        # seeded ideal; the quotient always returns the divided basis
        assert divided == len(cases) - (2 if saturate else 0)


def split_cases(seed):
    """(ideal, divisor ideal) pairs in 3-5 variables whose ideal has one
    or two generators c*x, c a nonzero scalar.  The other generators are
    the products A*B of a seeded ideal A and B = (l, squares of the
    variables) for a linear form l, which adds an irrelevant component,
    or, in the inhomogeneous cases (3-4 variables), B = (l + c, v^2).
    The divisors are l (or l + c) and a variable, so quotients and
    saturations do not just give the ideal back."""
    rng = random.Random(seed)
    cases = []
    for ctx, homogeneous in ((XYZ, True), (XYZW, True), (XYZWV, True),
                             (XYZ, False), (XYZW, False)):
        for _ in range(3):
            A = [random_poly(rng, ctx, True, 2) for _ in range(rng.randint(1, 2))]
            if homogeneous:
                B = [random_poly(rng, ctx, True, 1)] + [v ** 2 for v in ctx.gens()]
            else:
                B = [random_poly(rng, ctx, True, 1) + ctx.constant(rng.choice((1, -2))),
                     ctx.variable(rng.choice(ctx.variables)) ** 2]
            gens = [a * b for a in A for b in B]
            for name in rng.sample(ctx.variables, rng.randint(1, 2)):
                gens.append(ctx.constant(rng.choice((-2, 1, 3))) * ctx.variable(name))
            rng.shuffle(gens)
            divisors = Ideal(ctx, [B[0], ctx.variable(rng.choice(ctx.variables))])
            cases.append((Ideal(ctx, gens), divisors))
    return cases


def uncut_fold(I, divisors, saturate=False):
    """The meet of the single quotients or saturations, each computed on
    I itself in its own ring: the fold without the split."""
    def single(g):
        name = g.variable_name()
        if saturate:
            return I.saturate_variable(name) if name else I._saturate_poly(g)
        if name is not None and I.is_homogeneous():
            return I.quotient_variable(name)
        return I._quotient_poly(g)

    return reduce(_meet, (single(g) for g in divisors if not g.is_zero()))


class TestSplitVariables:
    def test_split_sets_the_bare_variables_to_zero(self):
        I = ideal(XYZW, "x^2 + y*z - w^2", "-2*y", "x*w + y^3")
        cut, dropped = I.split_variables()
        assert dropped == (1,)
        assert cut.context.variables == ("x", "z", "w")
        assert cut.gens == (parse_polynomial("x^2 - w^2", cut.context),
                            parse_polynomial("x*w", cut.context))

    def test_quotient_matches_the_uncut_fold(self):
        moved = 0
        for I, J in split_cases(211):
            assert I.split_variables() is not None
            f = J.gens[0]
            assert I.quotient(f) == uncut_fold(I, [f])
            Q = I.quotient(J)
            assert Q == uncut_fold(I, J.gens)
            moved += Q != I
        assert moved >= 3

    def test_saturation_matches_the_uncut_fold(self):
        moved = 0
        for I, J in split_cases(223):
            f = J.gens[0]
            assert I.saturate(f) == uncut_fold(I, [f], saturate=True)
            S = I.saturate(J)
            assert S == uncut_fold(I, J.gens, saturate=True)
            moved += S != I
        assert moved >= 3

    def test_irrelevant_saturation_matches_the_uncut_fold(self):
        moved = 0
        for I, _ in split_cases(227):
            S = I.saturate_irrelevant()
            assert S == uncut_fold(I, I.context.gens(), saturate=True)
            moved += S != I
        assert moved >= 3

    def test_fold_computes_no_basis_in_the_full_ring(self, monkeypatch):
        # membership of each divisor is decided by Ibar, the meet in R
        line = ideal(ORBIT, "a6", "a4", "a2", "a0", "am6")
        reference = x5() + ideal(ORBIT, "a6", "am6")
        expected = uncut_fold(reference, line.gens)
        expected_saturation = uncut_fold(reference, ORBIT.gens(), saturate=True)
        section = x5() + ideal(ORBIT, "a6", "am6")
        rings = []
        plain = ideals.reduced_groebner_basis

        def counted(gens, order, *args, **kwargs):
            rings.append(gens[0].context.variables)
            return plain(gens, order, *args, **kwargs)

        monkeypatch.setattr(ideals, "reduced_groebner_basis", counted)
        curve = section.quotient(line)
        saturated = section.saturate_irrelevant()
        assert rings and ORBIT.variables not in rings
        monkeypatch.undo()
        assert curve == expected
        assert saturated == expected_saturation

    def test_no_split_without_a_bare_generator_or_with_only_bare_ones(self):
        assert ideal(XYZ, "x^2", "y*z", "x + y").split_variables() is None
        every = ideal(XYZ, "x", "2*y", "-z", "x*y - z^2")
        assert every.split_variables() is None
        assert every.saturate_irrelevant().is_unit()

    def test_two_variables_in_three_leave_the_zero_ideal(self):
        I = ideal(XYZ, "x", "y")
        cut, dropped = I.split_variables()
        assert dropped == (0, 1)
        assert cut.context.variables == ("z",) and cut.gens == ()
        assert cut.is_zero()
        assert I.quotient(XYZ.variable("z")) == I
        assert I.saturate_irrelevant() == I

    def test_scalar_multiple_counts_as_bare_and_weights_survive(self):
        section = x5() + ideal(ORBIT, "2*a4", "-3*am2")
        cut, dropped = section.split_variables()
        assert dropped == (1, 4)
        assert cut.context.weights == (6, 2, 0, -4, -6)
        # a6*am2 - 4*a4*a0 + 3*a2^2 with a4 = am2 = 0
        assert cut.gens[0] == parse_polynomial("3*a2^2", cut.context)
        residual = section.quotient(ideal(ORBIT, "a6", "a4", "a2", "a0", "am2"))
        assert residual.is_torus_fixed()
        assert residual.contains_ideal(section)

    def test_divisor_in_the_dropped_variables_gives_unit_without_warning(self):
        I = ideal(XYZ, "2*x", "y^2 - y*z")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert I.quotient(ideal(XYZ, "x", "x*y + 3*x*z")).is_unit()
            assert I.quotient(parse_polynomial("x*z", XYZ)).is_unit()
            assert I.saturate(XYZ.variable("x")).is_unit()

    def test_zero_divisor_still_warns(self):
        I = ideal(XYZ, "2*x", "y^2 - y*z")
        with pytest.warns(UserWarning):
            assert I.quotient(Ideal(XYZ, [XYZ.zero()])).is_unit()
        with pytest.warns(UserWarning):
            assert I.saturate(Ideal(XYZ, [])).is_unit()

    def test_foreign_divisor_still_rejected(self):
        I = ideal(XYZ, "x", "y*z")
        other = RingContext(("x", "y", "w"))
        with pytest.raises(ValueError):
            I.quotient(other.variable("y"))
        with pytest.raises(ValueError):
            I.saturate(Ideal(other, [other.variable("w")]))


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


class TestSeededBases:
    """Every reduced basis an operation gives the ideal it returns, by
    construction and without Buchberger, is the one Buchberger computes
    from the returned generators."""

    @staticmethod
    def assert_buchberger(J):
        for order, gb in J._gb_cache.items():
            expected = reduced_groebner_basis(J.gens, order).elements if J.gens else ()
            assert gb.elements == expected, (J, order)

    @staticmethod
    def operations(I, J, f):
        """(name, result) of each operation on I, J and the polynomial f,
        read before anything asks the result for a basis."""
        ctx = I.context
        x = ctx.variables[-1]
        return [("intersect", lambda: I.intersect(J)),
                ("quotient by f", lambda: I.quotient(f)),
                ("quotient by J", lambda: I.quotient(J)),
                ("quotient by x", lambda: I.quotient(ctx.variable(x))),
                ("saturate by x", lambda: I.saturate(ctx.variable(x))),
                ("saturate by f", lambda: I.saturate(f)),
                ("saturate_irrelevant", I.saturate_irrelevant),
                ("eliminate", lambda: I.eliminate(ctx.variables[:1]))]

    def test_operations_on_seeded_ideals(self):
        rng = random.Random(131)
        seeded = set()
        cases = [(random_ideal(rng, ctx, homogeneous=True),
                  random_ideal(rng, ctx, homogeneous=True),
                  random_poly(rng, ctx, homogeneous=True))
                 for ctx in (XY, XYZ, XYZW) for _ in range(4)]
        cases += [(I, J, J.gens[0]) for I, J in split_cases(137)]
        for I, J, f in cases:
            for name, op in self.operations(I, J, f):
                result = op()
                if result is not I and result._gb_cache:
                    seeded.add(name)
                self.assert_buchberger(result)
        assert seeded == {name for name, _ in self.operations(*cases[0])}

    def test_split_and_lift(self):
        # each way round: Ibar's basis from I's, and I's from Ibar's
        for I, J in split_cases(139):
            fresh = Ideal(I.context, I.gens)
            fresh.groebner()
            for whole in (I, fresh):
                cut, _ = whole.split_variables()
                assert cut._gb_cache and whole._gb_cache
                self.assert_buchberger(cut)
                self.assert_buchberger(whole)

    def test_census_curves(self):
        census = dp5.enumerate_fixed_quartics.__wrapped__(dp5.build_model())
        for rec in census.records:
            assert GREVLEX in rec.curve._gb_cache
            for J in (rec.curve, rec.quintic):
                self.assert_buchberger(J)

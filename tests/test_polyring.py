"""Polynomial arithmetic, orders, substitution, and the text format."""
import pickle
import random
from fractions import Fraction

import pytest

from delpezzo5.polyring import (GREVLEX, LEX, BlockOrder, Polynomial,
                                RingContext, elimination_order, format_ideal_text,
                                format_polynomial, mono_divides, mono_lcm,
                                parse_ideal_text, parse_polynomial,
                                substitute_linear, variable_last_order)

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


class TestVariableName:
    @pytest.mark.parametrize("text, name", [
        ("x", "x"), ("3*x", "x"), ("-1/2*z", "z"), ("x^2", None), ("x + y", None),
        ("0", None), ("1", None), ("y*z", None)])
    def test_only_a_scalar_multiple_of_one_variable_has_a_name(self, text, name):
        assert parse_polynomial(text, XYZ).variable_name() == name

    def test_wide_packing(self):
        # the degree is read from the packed monomial at any field width
        p = parse_polynomial("y", XYZ)
        assert p.repacked(XYZ.packing(300)).variable_name() == "y"
        assert parse_polynomial("y^256", XYZ).variable_name() is None


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
              BlockOrder(((0, 1), (2,)), (LEX, GREVLEX)),
              elimination_order(3, (0,)),
              elimination_order(3, (1,)),
              variable_last_order(3, 0))

    def random_exps(self, rng):
        return tuple(rng.randint(0, 4) for _ in range(3))

    def test_multiplicative_and_well_ordered(self):
        rng = random.Random(17)
        one = (0, 0, 0)
        for order in self.ORDERS:
            key = order.key
            for _ in range(80):
                u, v, w = (self.random_exps(rng) for _ in range(3))
                if key(u) > key(v):
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert key(uw) > key(vw)
                if u != one:
                    assert key(u) > key(one)

    def test_lex_vs_grevlex_disagree_somewhere(self):
        # x^3 vs x*y*z: lex prefers x^3, grevlex compares total degree
        # first and then reversed exponents
        a, b = (3, 0, 0), (1, 1, 1)
        assert LEX.key(a) > LEX.key(b) and GREVLEX.key(a) > GREVLEX.key(b)
        c, d = (2, 0, 0), (1, 1, 1)
        assert LEX.key(c) > LEX.key(d) and not GREVLEX.key(c) > GREVLEX.key(d)

    def test_structural_equality(self):
        assert variable_last_order(3, 0) == variable_last_order(3, 0)
        assert variable_last_order(3, 0) != variable_last_order(3, 1)
        assert elimination_order(3, (0,)) == BlockOrder(((0,), (1, 2)), (GREVLEX, GREVLEX))


class TestSharedOrders:
    """`elimination_order` and `variable_last_order` return one object
    per argument tuple, equal to the `BlockOrder` it stands for."""

    def test_equal_arguments_give_the_same_object(self):
        order = elimination_order(4, (1, 3))
        for eliminate in ([1, 3], (3, 1), (3, 1, 3), {1, 3}, range(1, 4, 2)):
            assert elimination_order(4, eliminate) is order
        assert elimination_order(5, (1, 3)) is not order
        assert elimination_order(4, (1,)) is not order
        assert variable_last_order(3, 1) is variable_last_order(3, 1)
        assert variable_last_order(3, 1) is not variable_last_order(3, 2)

    @pytest.mark.parametrize("nvars, eliminate",
                             [(3, ()), (3, (0, 1, 2)), (3, (3,)), (3, (-1,)), (1, (0,))],
                             ids=["none", "all", "outside", "negative", "only"])
    def test_bad_elimination_rejected(self, nvars, eliminate):
        with pytest.raises(ValueError):
            elimination_order(nvars, eliminate)

    @pytest.mark.parametrize("nvars, last", [(3, 3), (3, -1), (0, 0)],
                             ids=["outside", "negative", "no variables"])
    def test_bad_last_variable_rejected(self, nvars, last):
        with pytest.raises(ValueError):
            variable_last_order(nvars, last)

    @pytest.mark.parametrize("shared, fresh", [
        (elimination_order(4, [3, 1]), BlockOrder(((1, 3), (0, 2)), (GREVLEX, GREVLEX))),
        (variable_last_order(3, 0), BlockOrder(((1, 2), (0,)), (GREVLEX, LEX))),
        (variable_last_order(1, 0), BlockOrder(((0,),), (LEX,))),
    ], ids=["elimination", "variable-last", "one-variable"])
    def test_equal_to_a_fresh_order_and_pickled(self, shared, fresh):
        assert shared == fresh and hash(shared) == hash(fresh)
        assert shared.linear_form(4, 256) == fresh.linear_form(4, 256)
        again = pickle.loads(pickle.dumps(shared))
        assert again == shared and hash(again) == hash(shared)
        assert {fresh: "basis"}[again] == "basis"


def mono_mul(a, b):
    """Product of exponent tuples, the reference for the packed sum."""
    return tuple(x + y for x, y in zip(a, b))


def every_order_class(nvars):
    """Orders of each kind the kernel uses on nvars variables: lex,
    grevlex, block, variable-last and elimination orders, and block
    orders with lex and block inner orders."""
    orders = [LEX, GREVLEX,
              variable_last_order(nvars, 0),
              BlockOrder((tuple(range(nvars)),), (LEX,))]
    if nvars > 1:
        k = nvars // 2
        orders += [elimination_order(nvars, (0,)),
                   BlockOrder((tuple(range(nvars - 1)), (nvars - 1,)), (LEX, GREVLEX)),
                   elimination_order(nvars, (nvars - 1,)),
                   variable_last_order(nvars, nvars - 1),
                   BlockOrder((tuple(range(k, nvars)), tuple(range(k))), (GREVLEX, LEX))]
    if nvars > 2:
        inner = BlockOrder(((0,), tuple(range(1, nvars - 1))), (LEX, GREVLEX))
        orders.append(BlockOrder(((nvars - 1,), tuple(range(nvars - 1))), (LEX, inner)))
    return orders


class TestPackedMonomials:
    """Packed exponent vectors against the tuple operations they replace."""

    @pytest.mark.parametrize("top", [0, 200], ids=["8-bit", "16-bit"])
    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_agrees_with_tuples(self, nvars, top):
        ctx = RingContext(("a", "b", "c", "d", "e", "f", "g")[:nvars])
        packing = ctx.packing(top)
        assert packing.bits == (8 if top < 128 else 16)
        orders = every_order_class(nvars)
        rng = random.Random(1009 * nvars + top)

        def vector(high):
            return tuple(rng.randint(0, high) for _ in range(nvars))

        for _ in range(120):
            high = rng.choice((1, 3, packing.limit // 2))
            a = vector(high)
            b = mono_mul(a, vector(1)) if rng.random() < 0.3 else vector(high)
            pa, pb = packing.pack(a), packing.pack(b)
            assert packing.unpack(pa) == a and packing.degree(pa) == sum(a)
            assert packing.unpack(pa + pb) == mono_mul(a, b)
            assert (not (pb - pa) & packing.guard) == mono_divides(a, b)
            assert packing.unpack(packing.lcm(pa, pb)) == mono_lcm(a, b)
            for order in orders:
                key = packing.key(order)
                form = order.linear_form(nvars, 1 << packing.bits)
                assert key(pa) == sum(c * e for c, e in zip(form, a)), order
                assert (key(pa) > key(pb)) == (order.key(a) > order.key(b)), (order, a, b)
                assert (key(pa) == key(pb)) == (order.key(a) == order.key(b)), order
                assert key(pa + pb) == key(pa) + key(pb), order

    @pytest.mark.parametrize("nvars", [1, 3, 7])
    def test_guard_bit_flags_exactly_the_overflowing_sums(self, nvars):
        ctx = RingContext(("a", "b", "c", "d", "e", "f", "g")[:nvars])
        packing = ctx.packing()
        rng = random.Random(31 + nvars)
        for _ in range(200):
            a, b = (tuple(rng.randint(0, packing.limit) for _ in range(nvars))
                    for _ in range(2))
            overflow = any(x + y > packing.limit for x, y in zip(a, b))
            assert bool((packing.pack(a) + packing.pack(b)) & packing.guard) == overflow

    def test_products_widen_instead_of_wrapping(self):
        x = p("x^100*y")
        assert x.packing.bits == 8
        square = x * x
        assert square.terms == {(200, 2, 0): Fraction(1)}
        assert square.packing.bits == 16
        assert square == parse_polynomial("x^200*y^2", XYZ)
        assert (square * x).terms == {(300, 3, 0): Fraction(1)}

    def test_pickle_round_trip(self):
        for q in (p("x^2*y - 3/4*z"), p("x^300 - y")):
            back = pickle.loads(pickle.dumps(q))
            assert back == q and back.packing.bits == q.packing.bits
            assert back * back == q * q

    def test_parsed_exponents_choose_the_width(self):
        q = p("x^300 - y^40000 + z")
        assert q.packing.bits == 32
        assert q.terms == {(300, 0, 0): 1, (0, 40000, 0): -1, (0, 0, 1): 1}
        assert q.total_degree() == 40000
        assert format_polynomial(q) == "-y^40000 + x^300 + z"

    @pytest.mark.parametrize("top", [0, 200], ids=["8-bit", "16-bit"])
    def test_key_built_once_per_order(self, top):
        packing = RingContext(("a", "b", "c")).packing(top)
        for order in every_order_class(3):
            assert packing.key(order) is packing.key(order), order
        # an equal order built anew finds the same key
        assert packing.key(elimination_order(3, (1,))) is packing.key(elimination_order(3, (1,)))
        back = pickle.loads(pickle.dumps(packing))
        assert (back.nvars, back.bits) == (packing.nvars, packing.bits)
        m = packing.pack((3, 1, 2))
        for order in every_order_class(3):
            assert back.key(order)(m) == packing.key(order)(m), order

    @pytest.mark.parametrize("top", [0, 200], ids=["8-bit", "16-bit"])
    def test_packings_shared_across_contexts(self, top):
        # a ring, its extension and a restriction of that, all of three
        # variables, share one packing per width and so one key per order;
        # a ring of another size does not
        ring = RingContext(("a", "b", "c"), (1, 0, -1))
        extended = RingContext(("x", "y")).extended("t")
        restricted = ring.extended("t").restricted((0, 1, 3))
        packing = ring.packing(top)
        for other in (extended, restricted):
            assert other.packing(top) is packing
            for order in every_order_class(3):
                assert other.packing(top).key(order) is packing.key(order), order
        assert ring.packing(1 << 20) is not packing
        assert ring.extended("t").packing(top) is not packing
        assert pickle.loads(pickle.dumps(packing)) is packing


def moved_by_tuples(q, target, at):
    """The tuple route that `Polynomial.moved` replaces: decode each term,
    drop it when a variable sent to 0 occurs, remap the rest, pack again."""
    terms = {}
    for exps, c in q.terms.items():
        if any(e for e, j in zip(exps, at) if j is None):
            continue
        image = [0] * target.nvars
        for e, j in zip(exps, at):
            if j is not None:
                image[j] = e
        terms[tuple(image)] = c
    return Polynomial(target, terms)


def seeded_polynomials(ctx, seed, top):
    """Polynomials with up to six terms, zero included, whose exponents
    are small or ``top``: 16-bit packed when top is at least 128."""
    rng = random.Random(seed)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.choice((0, 0, 1, 2, top)) for _ in range(ctx.nvars))
            terms[exps] = rng.randint(-5, 5)
        yield Polynomial(ctx, terms)


class TestMoved:
    """`Polynomial.moved` against the tuple route, at both packing widths."""

    FIVE = RingContext(("a", "b", "c", "d", "e"), (2, 1, 0, -1, -2))

    @staticmethod
    def assert_moved(q, target, at):
        image = q.moved(target, at)
        reference = moved_by_tuples(q, target, at)
        assert list(image.terms.items()) == list(reference.terms.items())
        assert image == reference and image.context == target
        assert image.packing.bits == q.packing.bits
        return image

    @pytest.mark.parametrize("top", [3, 200], ids=["8-bit", "16-bit"])
    def test_dropping_removes_exactly_the_terms_involving_it(self, top):
        target = self.FIVE.restricted((0, 2, 4))
        at = (0, None, 1, None, 2)
        for q in seeded_polynomials(self.FIVE, 7 + top, top):
            image = self.assert_moved(q, target, at)
            # lifted back, the image is q less exactly its terms in b or d
            rest = q - image.moved(self.FIVE, (0, 2, 4))
            assert all(e[1] or e[3] for e in rest.terms)
            assert len(rest.packed) + len(image.packed) == len(q.packed)

    @pytest.mark.parametrize("top", [3, 200], ids=["8-bit", "16-bit"])
    def test_scattering_into_a_larger_ring(self, top):
        big = RingContext(("u", "v", "w", "x", "y", "z"))
        for at in ((4, 0, 2), (0, 1, 2), (3, 4, 5), (5, 3, 1)):
            back = [None] * big.nvars
            for i, j in enumerate(at):
                back[j] = i
            for q in seeded_polynomials(XYZ, 11 + top, top):
                image = self.assert_moved(q, big, at)
                assert image.moved(XYZ, back) == q
                # the image multiplies like the tuple-built polynomial
                other = random_poly(random.Random(top), big)
                assert image * other == moved_by_tuples(q, big, at) * other

    @pytest.mark.parametrize("top", [3, 200], ids=["8-bit", "16-bit"])
    def test_reversing_twice_is_the_identity(self, top):
        at = range(ORBIT.nvars - 1, -1, -1)
        for q in seeded_polynomials(ORBIT, 13 + top, top):
            once = self.assert_moved(q, ORBIT, at)
            twice = once.moved(ORBIT, at)
            assert twice.packed == q.packed and twice.packing is q.packing

    @pytest.mark.parametrize("top", [3, 200], ids=["8-bit", "16-bit"])
    def test_maps_keeping_every_index_copy_the_ints(self, top):
        # the embedding into one more variable, the projection dropping
        # the last variable and an in-place drop keep each kept variable
        # at its index, so each kept packed monomial is copied as it is
        n = self.FIVE.nvars
        tagged = self.FIVE.extended("t")
        maps = [(self.FIVE, tagged, range(n)),
                (tagged, self.FIVE, (*range(n), None)),
                (XYZ, XYZ, (0, None, 2))]
        for source, target, at in maps:
            for q in seeded_polynomials(source, 17 + top, top):
                image = self.assert_moved(q, target, at)
                assert image.packed == {m: c for m, c in q.packed.items()
                                        if m in image.packed}
                if source is self.FIVE:
                    assert image.packed == q.packed
                    assert image.moved(source, (*range(n), None)) == q

    @pytest.mark.parametrize("at", [(0, 1), (0, 1, 1), (0, 1, 3), (0, None, -1)],
                             ids=["short", "repeated", "outside", "negative"])
    def test_bad_images_rejected(self, at):
        with pytest.raises(ValueError):
            p("x*y - z").moved(XYZ, at)


class TestTextFormat:
    def test_polynomial_round_trip(self):
        rng = random.Random(19)
        for _ in range(40):
            q = random_poly(rng, ORBIT)
            assert parse_polynomial(format_polynomial(q), ORBIT) == q

    def test_rational_coefficients(self):
        q = parse_polynomial("27/16*a4 - 9/8*a2", ORBIT)
        assert q.terms == {(0, 1, 0, 0, 0, 0, 0): Fraction(27, 16),
                           (0, 0, 1, 0, 0, 0, 0): Fraction(-9, 8)}

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

    # repeated header lines, then the gens: line's own faults
    @pytest.mark.parametrize("text", [
        "ring: x\nring: x, y\ngens:\nx\n",
        "ring: x, y\nweights: 1, 2\nweights: 2, 1\ngens:\nx\n",
        "ring: x, y\ngens: x*y\n",
        "ring: x, y\ngens:\nx\ngens:\ny\n",
        "ring: x, y\n",
    ], ids=["ring", "weights", "gens-text", "gens-twice", "gens-missing"])
    def test_repeated_header_line_rejected(self, text):
        with pytest.raises(ValueError):
            parse_ideal_text(text)

    @pytest.mark.parametrize("text, message", [
        ("ring: x,,y\ngens:\nx\n", "empty entry in ring: 'x,,y'"),
        ("ring: x, y,\ngens:\nx\n", "empty entry in ring: 'x, y,'"),
        ("ring: ,x\ngens:\nx\n", "empty entry in ring: ',x'"),
        ("ring: x, y\nweights: 1,,2\ngens:\nx\n", "empty entry in weights: '1,,2'"),
        ("ring: x, y\nweights: 1, 2,\ngens:\nx\n", "empty entry in weights: '1, 2,'"),
        ("ring: x, y\nweights: , 1, 2\ngens:\nx\n", "empty entry in weights: ', 1, 2'"),
        ("ring:\ngens:\n", "a ring context needs at least one variable"),
    ], ids=["ring-inner", "ring-trailing", "ring-leading", "weights-inner",
            "weights-trailing", "weights-leading", "ring-bare"])
    def test_empty_header_entry_rejected(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_ideal_text(text)
        assert str(err.value) == message

    def test_formatting_deterministic(self):
        q = parse_polynomial("a6*am2 - 4*a4*a0 + 3*a2^2", ORBIT)
        # grevlex-descending term listing, independent of input spelling
        assert format_polynomial(q) == "3*a2^2 - 4*a4*a0 + a6*am2"

"""Groebner bases: reduction, Buchberger criterion, cofactors of a
reference Buchberger, syzygies."""
import random
from bisect import insort
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from delpezzo5 import groebner
from delpezzo5.groebner import (GroebnerBasis, normal_form, reduced_groebner_basis,
                                syzygy_columns)
from delpezzo5.hilbert import degree_monomials
from delpezzo5.ideals import Ideal
from delpezzo5.linalg import SparseEchelon, integer_terms
from delpezzo5.polyring import (GREVLEX, LEX, PackingOverflow, Polynomial, RingContext,
                                elimination_order, mono_div, mono_divides, mono_lcm,
                                parse_polynomial, variable_last_order)

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
ORBIT = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                    (6, 4, 2, 0, -2, -4, -6))

ORBIT_QUADRICS = [parse_polynomial(s, ORBIT) for s in (
    "a6*am2 - 4*a4*a0 + 3*a2^2",
    "a6*am4 - 3*a4*am2 + 2*a2*a0",
    "a6*am6 - 9*a2*am2 + 8*a0^2",
    "a4*am6 - 3*a2*am4 + 2*a0*am2",
    "a2*am6 - 4*a0*am4 + 3*am2^2",
)]


def mono_mul(a, b):
    """Product of exponent tuples, the reference the package's packed sum replaced."""
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def p2(text):
    return parse_polynomial(text, XY)


def random_poly(rng, ctx, max_terms=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(-3, 3)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ctx, {m: c for m, c in terms.items() if c})


def random_form(rng, ctx, degree, n_terms=3):
    """A form of the given degree with up to n_terms random terms."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ctx.nvars
        for _ in range(degree):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Polynomial(ctx, terms)


def lcm_packing(gb):
    """The basis's packing, or the narrowest wider one that holds the
    degree of every lcm of two of its leads."""
    leads = gb.lead_monomials()
    top = max((sum(mono_lcm(a, b)) for a, b in combinations(leads, 2)), default=0)
    return max(gb.packing, gb.context.packing(top), key=lambda k: k.bits)


def int_polynomials(ctx, packing, int_terms, den=1):
    """Each packed int dict divided by den, as a Polynomial."""
    return [Polynomial(ctx, {packing.unpack(t): Fraction(c, den) for t, c in terms.items()})
            for terms in int_terms]


def seeded_forms(seed, ctx, degrees):
    rng = random.Random(seed)
    return [random_form(rng, ctx, d) for d in degrees]


class TestReducedBasis:
    def test_lex_two_generator_example(self):
        gb = reduced_groebner_basis([p2("x*y - 1"), p2("y^2 - 1")], LEX)
        assert set(gb.elements) == {p2("x - y"), p2("y^2 - 1")}

    def test_degenerate_ideals(self):
        # an empty list carries no ring context at all
        with pytest.raises(ValueError):
            reduced_groebner_basis([], GREVLEX)
        assert reduced_groebner_basis([XY.zero()], GREVLEX).elements == ()
        gb = reduced_groebner_basis([XY.constant(5)], GREVLEX)
        assert gb.elements == (XY.one(),)

    def test_orbit_quadrics_stay_weight_homogeneous(self):
        gb = reduced_groebner_basis(ORBIT_QUADRICS, GREVLEX)
        assert gb.is_weight_homogeneous()

    def test_reducedness_and_monic_leads(self):
        rng = random.Random(23)
        for _ in range(30):
            gens = [random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
            gb = reduced_groebner_basis(gens, GREVLEX)
            leads = [g.lead_monomial(GREVLEX) for g in gb.elements]
            for i, g in enumerate(gb.elements):
                assert g.lead_coefficient(GREVLEX) == 1
                for m in g.terms:
                    assert not any(mono_divides(leads[j], m)
                                   for j in range(len(leads)) if j != i)

    def test_buchberger_criterion(self):
        rng = random.Random(29)
        for _ in range(20):
            gens = [random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
            gb = reduced_groebner_basis(gens, GREVLEX)
            for gi, gj in combinations(gb.elements, 2):
                mi, mj = gi.lead_monomial(GREVLEX), gj.lead_monomial(GREVLEX)
                lcm = mono_lcm(mi, mj)
                s = gi.term_multiple(mono_div(lcm, mi), Fraction(1)) \
                    - gj.term_multiple(mono_div(lcm, mj), Fraction(1))
                assert gb.normal_form(s).is_zero()

    def test_inputs_reduce_to_zero(self):
        rng = random.Random(31)
        for _ in range(20):
            gens = [random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
            gb = reduced_groebner_basis(gens, GREVLEX)
            assert all(gb.contains(g) for g in gens)

    def test_membership_matches_explicit_combinations(self):
        rng = random.Random(37)
        for _ in range(20):
            gens = [random_poly(rng, XYZ) for _ in range(2)]
            gb = reduced_groebner_basis(gens, GREVLEX)
            combo = XYZ.zero()
            for g in gens:
                combo = combo + random_poly(rng, XYZ) * g
            assert gb.contains(combo)

    def test_basis_unique_for_ideal_and_order(self):
        # same ideal presented two ways
        a = reduced_groebner_basis([p2("x*y - 1"), p2("y^2 - 1")], LEX)
        b = reduced_groebner_basis(
            [p2("y^2 - 1"), p2("x - y"), p2("x*y - 1") * p2("y")], LEX)
        assert a.elements == b.elements


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        assert normal_form(p2("x"), [p2("x")], GREVLEX).is_zero()

    def test_hand_division_oracle(self):
        # long division of x^2*y - 1 by {x - y, y^2 - 1} under lex:
        # x^2*y -> x*y^2 -> y^3 -> y, leaving y - 1
        gb = reduced_groebner_basis([p2("x*y - 1"), p2("y^2 - 1")], LEX)
        assert set(gb.elements) == {p2("x - y"), p2("y^2 - 1")}
        assert normal_form(p2("x^2*y - 1"), gb.elements, LEX) == p2("y - 1")

    def test_fully_reduced_is_fixed(self):
        rng = random.Random(41)
        for _ in range(20):
            gens = [random_poly(rng, XYZ) for _ in range(2)]
            gb = reduced_groebner_basis(gens, GREVLEX)
            r = gb.normal_form(random_poly(rng, XYZ))
            assert gb.normal_form(r) == r

    def test_difference_lies_in_ideal(self):
        rng = random.Random(43)
        for _ in range(15):
            gens = [random_poly(rng, XYZ) for _ in range(2)]
            gb = reduced_groebner_basis(gens, GREVLEX)
            q = random_poly(rng, XYZ)
            assert gb.contains(q - gb.normal_form(q))


def combination(coeffs, polys):
    """sum(coeffs[k] * polys[k])."""
    return sum((c * g for c, g in zip(coeffs, polys)), polys[0].context.zero())


class TestCofactors:
    """The cofactor rows of the test-only `reference_basis` write each
    element of the library's basis in the input generators."""

    def check(self, gens, order):
        gb, rows = reference_basis(gens, order)
        assert gb.elements == reduced_groebner_basis(gens, order).elements
        assert len(rows) == len(gb)
        for element, row in zip(gb.elements, rows):
            assert len(row) == len(gens)
            assert combination(row, gens) == element

    def test_identity_on_fixed_ideal(self):
        self.check([p2("x*y - 1"), p2("y^2 - 1")], LEX)

    def test_identity_randomized_with_zero_generators(self):
        rng = random.Random(47)
        for _ in range(15):
            self.check([random_poly(rng, XYZ), XYZ.zero(), random_poly(rng, XYZ)], GREVLEX)


class TestSyzygies:
    def test_koszul_pair(self):
        columns = syzygy_columns([XY.variable("x"), XY.variable("y")])
        for col in columns:
            assert (col[0] * XY.variable("x")
                    + col[1] * XY.variable("y")).is_zero()
        # the Koszul column (y, -x) must be in the span; with one
        # generating column it is a unit multiple
        assert any(col[0] == p2("y") and col[1] == p2("-x")
                   or col[0] == p2("-y") and col[1] == p2("x")
                   for col in columns)

    def test_monomial_pair_contains_koszul(self):
        gens = [parse_polynomial("x*y", XYZ), parse_polynomial("x*z", XYZ)]
        columns = syzygy_columns(gens)
        for col in columns:
            assert (col[0] * gens[0] + col[1] * gens[1]).is_zero()
        target = (parse_polynomial("z", XYZ), parse_polynomial("-y", XYZ))
        assert any(tuple(col) == target or
                   (col[0] == -target[0] and col[1] == -target[1])
                   for col in columns)

    def test_orbit_quadric_syzygies_annihilate(self):
        columns = syzygy_columns(ORBIT_QUADRICS)
        assert columns
        for col in columns:
            assert combination(col, ORBIT_QUADRICS).is_zero()

    def test_zero_generator_gets_trivial_column(self):
        # a zero generator gets the unit column e_i, so that alignment
        # with the input list survives
        gens = [XYZ.variable("x"), XYZ.zero()]
        columns = syzygy_columns(gens)
        assert any(col[0].is_zero() and col[1] == XYZ.one()
                   for col in columns)

    def test_inhomogeneous_with_zero_generators_annihilate(self):
        rng = random.Random(53)
        for _ in range(10):
            gens = [random_poly(rng, XYZ) for _ in range(rng.randint(1, 3))]
            for k in sorted(rng.sample(range(len(gens) + 1), 2)):
                gens.insert(k, XYZ.zero())
            columns = syzygy_columns(gens)
            for col in columns:
                assert len(col) == len(gens)
                assert combination(col, gens).is_zero()
            for k, g in enumerate(gens):
                if g.is_zero():
                    unit = [XYZ.one() if t == k else XYZ.zero() for t in range(len(gens))]
                    assert unit in columns

    @pytest.mark.parametrize("gens", [
        [XYZ.variable(v) for v in ("x", "y", "z")],
        ORBIT_QUADRICS,
        seeded_forms(59, XYZ, (1, 2, 2)),
    ], ids=["variables", "orbit-quadrics", "seeded-forms"])
    def test_completeness_against_brute_force(self, gens):
        # the span of the returned columns in each degree d must be the
        # full kernel of (q_i) -> sum(q_i * g_i), q_i of degree d - deg g_i
        ctx = gens[0].context
        n = ctx.nvars
        degrees = [g.total_degree() for g in gens]
        columns = syzygy_columns(gens)
        shifts = []
        for col in columns:
            assert combination(col, gens).is_zero()
            degs = {c.total_degree() + dg for c, dg in zip(col, degrees) if not c.is_zero()}
            assert len(degs) == 1
            shifts.append(degs.pop())
        for d in range(1, max(shifts) + 2):
            # kernel dimension by rank-nullity on the multiplication map
            domain = 0
            echelon = SparseEchelon()
            for g, dg in zip(gens, degrees):
                for m in degree_monomials(n, d - dg):
                    domain += 1
                    echelon.add_row(integer_terms(g.term_multiple(m, Fraction(1)).terms)[0])
            kernel = domain - echelon.rank
            # span of the returned columns in degree d, flattened over
            # (component, monomial) coordinates
            span = SparseEchelon()
            for col, e in zip(columns, shifts):
                for m in degree_monomials(n, d - e):
                    row = {}
                    for i, c in enumerate(col):
                        for exps, coeff in c.term_multiple(m, Fraction(1)).terms.items():
                            row[(i, exps)] = coeff
                    span.add_row(integer_terms(row)[0])
            assert span.rank == kernel


def reference_normal_form(p, divisors, order=GREVLEX):
    """The remainder and the quotients of p on division by the divisors,
    on exponent tuples, with the agenda kept sorted by ``insort(...,
    key=order.key)``, which recomputes the key of every element the
    bisection touches, and every divisor's lead recomputed."""
    divs = [(d.lead_monomial(order), d.lead_coefficient(order), d.terms) for d in divisors]
    key = order.key
    work = dict(p.terms)
    remainder = {}
    quotients = [{} for _ in divisors]
    agenda = sorted(work, key=key)
    while agenda:
        m = agenda.pop()
        c = work.get(m)
        if not c:
            continue
        hit = next((j for j, (lm, _, _) in enumerate(divs) if mono_divides(lm, m)), -1)
        if hit < 0:
            remainder[m] = c
            del work[m]
            continue
        lm, lc, dterms = divs[hit]
        shift = mono_div(m, lm)
        factor = c / lc
        q = quotients[hit]
        acc = q.get(shift, 0) + factor
        if acc:
            q[shift] = acc
        else:
            q.pop(shift, None)
        for e, ce in dterms.items():
            t = mono_mul(shift, e)
            acc = work.get(t, 0) - factor * ce
            if acc:
                if t not in work:
                    insort(agenda, t, key=key)
                work[t] = acc
            else:
                work.pop(t, None)
    return Polynomial(p.context, remainder), [Polynomial(p.context, q) for q in quotients]


def combine_rows(coeffs, rows, start):
    """start + sum(coeffs[t] * rows[t]), entry by entry."""
    return [a + sum((c * row[k] for c, row in zip(coeffs, rows)), a.context.zero())
            for k, a in enumerate(start)]


def reference_basis(gens, order, division=reference_normal_form):
    """Buchberger with cofactors, selecting at each step the open pair with
    the smallest (lcm degree, lcm order key, i, j) by a linear ``min()``.
    Returns the reduced basis and the cofactor row of each element, with
    ``element == sum(row[k] * gens[k])``.  S-pairs and the interreduction
    go through ``division(p, divisors, order)``, which returns the
    remainder and the quotients; a caller may swap in a division that
    records what it divides."""
    context = gens[0].context
    G, rows = [], []
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        lc = g.lead_coefficient(order)
        G.append(g / lc)
        row = [context.zero()] * len(gens)
        row[k] = context.constant(1 / lc)
        rows.append(row)
    leads = [g.lead_monomial(order) for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(pair):
        lcm = mono_lcm(leads[pair[0]], leads[pair[1]])
        return (mono_degree(lcm), order.key(lcm), *pair)

    def open_pair(a, b):
        return (min(a, b), max(a, b)) in pairs

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            continue
        if any(k not in (i, j) and mono_divides(leads[k], lcm)
               and not open_pair(i, k) and not open_pair(j, k) for k in range(len(G))):
            continue
        xi = context.monomial(mono_div(lcm, leads[i]))
        xj = context.monomial(mono_div(lcm, leads[j]))
        r, q = division(xi * G[i] - xj * G[j], G, order)
        tau = [-qt for qt in q]
        tau[i] += xi
        tau[j] -= xj
        if r.is_zero():
            continue
        lc = r.lead_coefficient(order)
        G.append(r / lc)
        rows.append([a / lc for a in combine_rows(tau, rows, [context.zero()] * len(gens))])
        leads.append(r.lead_monomial(order))
        pairs.update((k, len(G) - 1) for k in range(len(G) - 1))

    kept = []
    for k in sorted(range(len(G)), key=lambda k: order.key(leads[k])):
        if not any(mono_divides(leads[t], leads[k]) for t in kept):
            kept.append(k)
    # ascending: each element by the interreduced ones with smaller leads,
    # the least one by none
    final = [G[k] for k in kept]
    final_rows = [rows[k] for k in kept]
    for idx in range(1, len(final)):
        final[idx], q = division(final[idx], final[:idx], order)
        final_rows[idx] = combine_rows([-qt for qt in q], final_rows[:idx], final_rows[idx])
    desc = sorted(range(len(final)), key=lambda k: order.key(final[k].lead_monomial(order)),
                  reverse=True)
    return (GroebnerBasis(context, order, [final[k] for k in desc]),
            [final_rows[k] for k in desc])


def recorded(division):
    """A `reference_basis` division that calls ``division``, and the list
    of every polynomial handed to it."""
    seen = []

    def recording(p, divisors, order):
        seen.append(p)
        return division(p, divisors, order)

    return recording, seen


def built_quotients(p, divisors, order, packing):
    """The quotients of the exact division of p by ``divisors`` under
    ``order``, from the int rows of `groebner.quotient_rows` at
    ``packing``: row k over den is the quotient by divisor k made monic,
    so those quotients times the monic divisors must sum back to p."""
    rows, den = groebner.quotient_rows(p, groebner.divisor_triples(divisors, order, packing))
    assert all(type(c) is int for row in rows for c in row.values())
    lcs = [d.lead_coefficient(order) for d in divisors]
    monic = int_polynomials(p.context, packing, rows, den)
    assert sum((q * (d / lc) for q, d, lc in zip(monic, divisors, lcs)), p.context.zero()) == p
    return [q / lc for q, lc in zip(monic, lcs)]


def primitive_terms(terms):
    """The terms {exponents: coefficient} scaled to coprime ints, the
    coefficient of the largest exponent tuple positive: the same map for
    every nonzero multiple of the terms."""
    if not terms:
        return {}
    fracs = {e: Fraction(c) for e, c in terms.items()}
    den = lcm(*(c.denominator for c in fracs.values()))
    ints = {e: int(c * den) for e, c in fracs.items()}
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


def divided_ints(monkeypatch, build):
    """The result of ``build()`` and, in `primitive_terms` form, every
    dividend it hands to the integer kernel ``groebner._divide_int``,
    decoded from the kernel's codes."""
    seen = []
    original = groebner._divide_int

    def recording(work, den, triples, quotients):
        unpack, low = triples.packing.unpack, (1 << triples.packing.width) - 1
        seen.append(primitive_terms({unpack(t & low): c for t, c in work.items()}))
        return original(work, den, triples, quotients)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_divide_int", recording)
        return build(), seen


class TestReferenceSelection:
    """The library hands its integer kernel the same S-polynomials, up to
    a nonzero scalar and in the same sequence, as the reference with its
    linear selection hands its tuple division, followed by the same
    elements to interreduce; this pins the order in which pairs are
    selected."""

    @pytest.mark.parametrize("nvars, linear_term", [(3, False), (3, True), (4, False)],
                             ids=["3vars-homogeneous", "3vars-inhomogeneous", "4vars-homogeneous"])
    def test_matches_linear_selection(self, nvars, linear_term, monkeypatch):
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        orders = [GREVLEX, LEX, elimination_order(nvars, (0,)), variable_last_order(nvars, 0)]
        rng = random.Random(97 + nvars)
        for _ in range(8):
            gens = [random_form(rng, ctx, rng.randint(1, 3))
                    + (random_form(rng, ctx, 1, 1) if linear_term else ctx.zero())
                    for _ in range(rng.randint(2, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for order in orders:
                gb, inputs = divided_ints(monkeypatch,
                                          lambda: reduced_groebner_basis(gens, order))
                recording, ref_inputs = recorded(reference_normal_form)
                ref, _ = reference_basis(gens, order, recording)
                assert ref.elements == gb.elements
                assert [primitive_terms(p.terms) for p in ref_inputs] == inputs


class TestWideExponents:
    """Exponents past the 8-bit fields of the first packing: the division
    and the Buchberger run start over at a wider packing and agree with
    the tuple-based references; no field wraps."""

    CASES = [
        # x^100*y^100 is 8-bit, but its reduction by x^2 - y climbs to y^150
        ("x^100*y^100", ["x^2 - y"], "y^150"),
        ("x^100*y^100 + x^3", ["x^2 - y", "y^120 - x"], None),
        # parsed at 16 bits already
        ("x^300 - y^300", ["x^2 - y"], "-y^300 + y^150"),
    ]

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_normal_form_matches_the_tuple_division(self, case, order):
        text, divisor_texts, expected = self.CASES[case]
        p, divisors = p2(text), [p2(t) for t in divisor_texts]
        r = normal_form(p, divisors, order)
        ref, q = reference_normal_form(p, divisors, order)
        assert r == ref
        assert r.packing.bits == 16
        # p - r divides exactly, by the steps that divided p, at r's packing
        assert built_quotients(p - r, divisors, order, r.packing) == q
        if expected is not None:
            assert r == p2(expected)

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    @pytest.mark.parametrize("texts, expected", [
        (["x^2 - y", "x^100*y^100 - 1"], ["y^150 - 1", "x^2 - y"]),
        (["x^300 - y^300", "x^2 - y"], ["y^300 - y^150", "x^2 - y"]),
        (["x^2 - y", "x^100*y^90 - x*y"], None),
        (["x^120 - y^100", "x*y^30 - x"], None),
    ], ids=["widened-midway", "parsed-wide", "mixed", "s-pair-wide"])
    def test_basis_matches_the_tuple_reference(self, texts, expected, order):
        gens = [p2(t) for t in texts]
        gb = reduced_groebner_basis(gens, order)
        assert gb.packing.bits == 16
        assert all(g.packing is gb.packing for g in gb.elements)
        if expected is not None and order == GREVLEX:
            assert gb.elements == tuple(p2(t) for t in expected)
        assert reference_basis(gens, order)[0].elements == gb.elements

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_restart_from_the_s_pair_guard(self, order, monkeypatch):
        # the S-pair y^30*(x^120 - y^100) - x^119*(x*y^30 - x) has the term
        # y^130: building it overflows the 8-bit run before any division does
        runs, raised, s_raised = [], [], []
        buchberger, divide_int = groebner._buchberger, groebner._divide_int
        s_polynomial = groebner._s_polynomial

        def run(gens, order, packing):
            runs.append([packing.bits, False])
            try:
                return buchberger(gens, order, packing)
            except PackingOverflow:
                runs[-1][1] = True
                raise

        def divide(work, den, triples, quotients):
            try:
                return divide_int(work, den, triples, quotients)
            except PackingOverflow:
                raised.append(triples.packing.bits)
                raise

        def s_pair(triples, i, j, base):
            try:
                return s_polynomial(triples, i, j, base)
            except PackingOverflow:
                s_raised.append(triples.packing.bits)
                raise

        monkeypatch.setattr(groebner, "_buchberger", run)
        monkeypatch.setattr(groebner, "_divide_int", divide)
        monkeypatch.setattr(groebner, "_s_polynomial", s_pair)
        gb = reduced_groebner_basis([p2("x^120 - y^100"), p2("x*y^30 - x")], order)
        assert runs == [[8, True], [16, False]]
        assert 8 not in raised
        # the coded S-polynomial reads the guard bits off its codes' low bits
        assert s_raised == [8]
        assert gb.packing.bits == 16


class TestIntegerKernel:
    """The fraction-free division on divisors whose leads are neither 1
    nor integral, dividends with mixed denominators, and a division that
    scales its work at every step."""

    XYZ_DIVISORS = ["3/4*x - 2*y", "5/3*y^2 + 1/2*x*z - 7/6*z^2", "2/5*x*z^2 - 9/4*y^3"]
    # integer content 2: the divisor is twice its primitive form; first in
    # the list, so that it reduces the terms its lead x*y divides
    CONTENT_DIVISOR = "6*x*y - 4*z^2"
    DIVIDENDS = ["1/6*x^3*y - 7/10*y^2*z + 2/9*z^3",
                 "11/12*x^4 - 5/8*x*y*z^2 + 3/7*y^4 - 1/15",
                 "-4/9*x^2*z^3 + 13/6*y^5 + 1/4*x*y*z"]
    ORDERS = [GREVLEX, LEX, elimination_order(3, (0,)), variable_last_order(3, 0)]
    ORDER_IDS = ["grevlex", "lex", "block", "variable-last"]

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_quotients_are_exact_and_match_the_reference(self, order):
        for texts in (self.XYZ_DIVISORS, [self.CONTENT_DIVISOR, *self.XYZ_DIVISORS]):
            divisors = [parse_polynomial(t, XYZ) for t in texts]
            used = [False] * len(divisors)
            for text in self.DIVIDENDS:
                p = parse_polynomial(text, XYZ)
                r = normal_form(p, divisors, order)
                ref, q = reference_normal_form(p, divisors, order)
                assert r == ref
                assert built_quotients(p - r, divisors, order, r.packing) == q
                used = [u or not qi.is_zero() for u, qi in zip(used, q)]
            assert used[0]

    def test_work_scaled_at_every_step(self, monkeypatch):
        # x^6 by 3*x - y: each step down to y^6 meets lead 3 with the
        # coefficient 5, prime to it, so the work is scaled by 3 six times
        dens = []
        divide_int = groebner._divide_int

        def divide(work, den, triples, quotients):
            remainder, den = divide_int(work, den, triples, quotients)
            dens.append(den)
            return remainder, den

        monkeypatch.setattr(groebner, "_divide_int", divide)
        p, d = p2("1/2*x^6 + 1/5*x*y^2"), p2("3*x - y")
        r = normal_form(p, [d], GREVLEX)
        assert dens == [10 * 3 ** 6]
        assert r == p2("1/1458*y^6 + 1/15*y^3")
        ref, q = reference_normal_form(p, [d], GREVLEX)
        assert r == ref
        # q * d = p - r enters the builder over den 7290 = 10 * 3^6, which
        # already holds every factor 3 its steps meet, so it scales nothing
        assert built_quotients(p - r, [d], GREVLEX, r.packing) == q
        assert dens[1:] == [7290]

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_basis_matches_the_reference(self, order):
        gens = [parse_polynomial(t, XYZ) for t in self.XYZ_DIVISORS + self.DIVIDENDS[:1]]
        rng = random.Random(211)
        seeded = [Polynomial(XYZ, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                                   for e in random_form(rng, XYZ, 2, 4).terms})
                  for _ in range(2)]
        cases = [gens[:2], gens[1:], [*gens[:1], *seeded], gens]
        for case in cases:
            gb = reduced_groebner_basis(case, order)
            assert reference_basis(case, order)[0].elements == gb.elements


class TestContextChecks:
    def test_foreign_divisor_rejected(self):
        p = parse_polynomial("x^2*y", XY)
        for divisors in ([parse_polynomial("x", XY), parse_polynomial("y", XYZ)],
                         [parse_polynomial("y", XYZ), parse_polynomial("x", XY)]):
            with pytest.raises(ValueError, match="ring context"):
                normal_form(p, divisors)

    def test_foreign_polynomial_rejected_by_a_basis(self):
        gb = reduced_groebner_basis([parse_polynomial("x", XY), parse_polynomial("y^2", XY)])
        with pytest.raises(ValueError, match="ring context"):
            gb.normal_form(parse_polynomial("x*z", XYZ))

    def test_foreign_polynomial_rejected_by_the_zero_ideal(self):
        zero = Ideal(XY, [XY.zero()])
        x_z = parse_polynomial("x*z", XYZ)
        with pytest.raises(ValueError, match="ring context"):
            zero.contains(x_z)
        with pytest.raises(ValueError, match="ring context"):
            zero.groebner().normal_form(x_z)


class TestBasisSyzygies:
    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_one_syzygy_per_pair(self, order):
        gb = reduced_groebner_basis(ORBIT_QUADRICS, order)
        packing = lcm_packing(gb)
        syzygies = groebner.basis_syzygies(gb, packing)
        n = len(gb)
        assert len(syzygies) == n * (n - 1) // 2
        for tau in syzygies:
            assert len(tau) == n
            assert all(type(c) is int for terms in tau for c in terms.values())
            tau = int_polynomials(ORBIT, packing, tau)
            assert sum((t * g for t, g in zip(tau, gb.elements)), ORBIT.zero()).is_zero()


def interreduction_counts(monkeypatch, build):
    """The result of ``build()`` and, over the interreductions it runs,
    the kernel divisions, how many of them changed their dividend, and
    the `_divisor` calls."""
    counts = Counter()
    inside = []
    interreduced, divide_int, divisor = groebner._interreduced, groebner._divide_int, \
        groebner._divisor

    def finishing(*args):
        inside.append(True)
        try:
            return interreduced(*args)
        finally:
            inside.pop()

    def divide(work, den, triples, quotients):
        r, den = divide_int(work, den, triples, quotients)
        if inside:
            counts["divisions"] += 1
            counts["changed"] += r != work
        return r, den

    def rebuild(*args):
        counts["rebuilds"] += bool(inside)
        return divisor(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_interreduced", finishing)
        patch.setattr(groebner, "_divide_int", divide)
        patch.setattr(groebner, "_divisor", rebuild)
        return build(), counts


def free_of(gb, drop):
    """The elements of a basis in which no variable of ``drop`` occurs."""
    return tuple(g for g in gb.elements if not any(e[i] for e in g.terms for i in drop))


class TestEliminate:
    """``eliminate`` returns the reduced basis of I cap k[other variables],
    interreducing only the elements it keeps."""

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    @pytest.mark.parametrize("linear_term", [False, True], ids=["homogeneous", "inhomogeneous"])
    def test_matches_the_full_basis_filtered(self, nvars, linear_term):
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        drops = [(0,), (nvars - 1,)] + ([(0, 2), (1, nvars - 1)] if nvars > 2 else [])
        rng = random.Random(163 + nvars)
        for _ in range(8):
            gens = [random_form(rng, ctx, rng.randint(1, 3))
                    + (random_form(rng, ctx, 1, 1) + ctx.one() if linear_term else ctx.zero())
                    for _ in range(rng.randint(2, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for drop in drops:
                order = elimination_order(nvars, drop)
                full = reduced_groebner_basis(gens, order)
                gb = reduced_groebner_basis(gens, order, eliminate=drop)
                assert gb.elements == free_of(full, drop)
                assert gb.order == order

    @pytest.mark.parametrize("order", [GREVLEX, variable_last_order(3, 2),
                                       elimination_order(3, (0, 1)), elimination_order(3, (1,))],
                             ids=["grevlex", "variable-last", "larger-block", "other-block"])
    def test_order_must_put_exactly_those_variables_first(self, order):
        with pytest.raises(ValueError, match="first block"):
            reduced_groebner_basis(ORBIT_QUADRICS[:1], order, eliminate=(0,))
        with pytest.raises(ValueError, match="first block"):
            reduced_groebner_basis([XYZ.zero()], order, eliminate=(0,))

    def test_interreduction_counts_without_elimination(self, monkeypatch):
        # the orbit quadrics are already reduced: four divisions by the
        # smaller leads, none of which changes its dividend
        gb, counts = interreduction_counts(
            monkeypatch, lambda: reduced_groebner_basis(ORBIT_QUADRICS, GREVLEX))
        assert len(gb) == 5
        assert counts == {"divisions": 4, "changed": 0, "rebuilds": 0}

    def test_interreduction_counts_of_an_intersection(self, monkeypatch):
        forms = seeded_forms(12, XYZ, (2, 2, 2, 3))
        I, J = Ideal(XYZ, forms[:2]), Ideal(XYZ, forms[2:])
        XYZT = XYZ.extended("t")
        t, one = XYZT.variable("t"), XYZT.one()
        lift = [Polynomial(XYZT, {e + (0,): c for e, c in f.terms.items()}) for f in forms]
        gens = [t * f for f in lift[:2]] + [(one - t) * g for g in lift[2:]]
        order = elimination_order(4, (3,))
        full = reduced_groebner_basis(gens, order)
        gb, counts = interreduction_counts(
            monkeypatch, lambda: reduced_groebner_basis(gens, order, eliminate=(3,)))
        assert gb.elements == free_of(full, (3,))
        assert [Polynomial(XYZ, {e[:3]: c for e, c in g.terms.items()}) for g in gb] \
            == list(I.intersect(J).gens)
        # 10 minimal elements: 5 involve t and are dropped unfinished, the
        # other 5 take 4 divisions, and only the 2 they change are rebuilt
        assert (len(full), len(gb)) == (10, 5)
        assert counts == {"divisions": 4, "changed": 2, "rebuilds": 2}


class TestKernelCodes:
    """Inside the kernel every term is keyed by its code ``(key(m) << width)
    + m``: divisors carry tail steps that are differences of codes, and
    an S-polynomial comes coded, decoding to the terms the exponent-tuple
    arithmetic gives."""

    ORDERS = [GREVLEX, LEX, elimination_order(3, (0,)), variable_last_order(3, 2)]

    @staticmethod
    def coder(packing, order):
        key, width = packing.key(order), packing.width
        return (lambda m: (key(m) << width) + m), (1 << width) - 1

    def cases(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            gens = [g for g in (random_form(rng, XYZ, rng.randint(1, 3))
                                + random_form(rng, XYZ, rng.randint(1, 2), 2)
                                for _ in range(rng.randint(2, 4))) if not g.is_zero()]
            if gens:
                for order in self.ORDERS:
                    for packing in (XYZ.packing(), XYZ.packing(200)):
                        yield gens, order, packing

    def test_tail_steps_are_code_differences(self):
        for gens, order, packing in self.cases(31):
            code, low = self.coder(packing, order)
            # at the boundary, and as Buchberger returns its basis
            for G, triples in (groebner._as_divisors(gens, order, packing),
                               groebner._buchberger(gens, order, packing)):
                assert len(G) == len(triples)
                assert triples.leads == [c & low for c in triples.codes]
                for ints, (lead, lc, (steps, coeffs)) in zip(G, triples):
                    assert all(t == code(t & low) for t in ints)
                    exponents = [packing.unpack(t & low) for t in ints]
                    assert packing.unpack(lead & low) == max(exponents, key=order.key)
                    assert ints[lead] == lc > 0
                    tail = [(t, c) for t, c in ints.items() if t != lead]
                    assert steps == tuple(code(t & low) - code(lead & low) for t, _ in tail)
                    assert coeffs == tuple(c for _, c in tail)

    def test_s_polynomial_decodes_to_the_exponent_arithmetic(self):
        pairs = 0
        for gens, order, packing in self.cases(37):
            code, low = self.coder(packing, order)
            G, triples = groebner._as_divisors(gens, order, packing)
            unpack = packing.unpack
            for i, j in combinations(range(len(G)), 2):
                (lead_i, lc_i, _), (lead_j, lc_j, _) = triples[i], triples[j]
                m = packing.lcm(lead_i & low, lead_j & low)
                s = groebner._s_polynomial(triples, i, j, code(m))
                assert all(t == code(t & low) for t in s)
                # (lc_j / g) x^a P_i - (lc_i / g) x^b P_j, P the primitive forms
                g = gcd(lc_i, lc_j)
                expected = Counter()
                for ints, lead, scale in ((G[i], lead_i, lc_j // g), (G[j], lead_j, -(lc_i // g))):
                    shift = mono_div(unpack(m), unpack(lead & low))
                    for t, c in ints.items():
                        expected[mono_mul(unpack(t & low), shift)] += scale * c
                assert {unpack(t & low): c for t, c in s.items()} \
                    == {e: c for e, c in expected.items() if c}
                pairs += 1
        assert pairs > 100


class TestGroebnerBasisObject:
    @pytest.mark.parametrize("nvars", [3, 4])
    def test_held_triples_match_a_fresh_division(self, nvars):
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        orders = [GREVLEX, LEX, elimination_order(nvars, (0,)), variable_last_order(nvars, 0)]
        rng = random.Random(131 + nvars)
        for _ in range(6):
            gens = [random_form(rng, ctx, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for order in orders:
                gb = reduced_groebner_basis(gens, order)
                assert gb.triples_at(gb.packing) \
                    == tuple(groebner.divisor_triples(gb.elements, order, gb.packing))
                for _ in range(4):
                    p = random_form(rng, ctx, rng.randint(1, 4), 4)
                    r = gb.normal_form(p)
                    ref, q = reference_normal_form(p, gb.elements, order)
                    assert r == ref == normal_form(p, gb.elements, gb.order)
                    held = groebner.quotient_rows(p - r, gb.triples_at(r.packing))
                    assert held == groebner.quotient_rows(
                        p - r, groebner.divisor_triples(gb.elements, order, r.packing))
                    assert built_quotients(p - r, gb.elements, order, r.packing) == q

    def test_triples_held_only_once_divided(self, monkeypatch):
        # the triples live in the basis's one memo, read here through
        # `kept` with a build that fails, so that reading stores nothing
        class Unbuilt(Exception):
            pass

        def unbuilt():
            raise Unbuilt

        gb = reduced_groebner_basis(ORBIT_QUADRICS, GREVLEX)
        widths = (8, 16, 32, 64)
        assert gb.packing.bits in widths
        for bits in widths:
            with pytest.raises(Unbuilt):
                gb.kept(("triples", bits), unbuilt)
        assert gb.contains(ORBIT_QUADRICS[0])
        assert gb.kept(("triples", gb.packing.bits), unbuilt) is gb.triples_at(gb.packing)
        for bits in set(widths) - {gb.packing.bits}:
            with pytest.raises(Unbuilt):
                gb.kept(("triples", bits), unbuilt)
        # a second call at the same width runs no builder: the hit is a read
        # of the memo, not a call of `kept`
        built, stored = [], []
        original, kept = groebner.divisor_triples, GroebnerBasis.kept

        def counted(divisors, order, packing):
            built.append(packing.bits)
            return original(divisors, order, packing)

        def recorded(basis, key, build):
            stored.append(key)
            return kept(basis, key, build)

        monkeypatch.setattr(groebner, "divisor_triples", counted)
        monkeypatch.setattr(GroebnerBasis, "kept", recorded)
        wide = ORBIT.packing(200)
        first = gb.triples_at(wide)
        assert (built, stored) == ([16], [("triples", 16)])
        assert gb.triples_at(wide) is first
        assert gb.triples_at(gb.packing) is gb.kept(("triples", gb.packing.bits), unbuilt)
        assert built == [16]
        assert stored == [("triples", 16), ("triples", gb.packing.bits)]

    def test_wide_dividend_triples_built_once(self, monkeypatch):
        # x^200*y needs 16-bit fields, the basis of (x^2, y) fits 8: both
        # containment tests divide at 16 bits, by triples built once
        built = []
        original = groebner.divisor_triples

        def counted(divisors, order, packing):
            triples = original(divisors, order, packing)
            built.append(triples.packing.bits)
            return triples

        monkeypatch.setattr(groebner, "divisor_triples", counted)
        I = Ideal(XY, [p2("x^2"), p2("y")])
        p = p2("x^200*y + x*y^2")
        assert p.packing.bits == 16 and I.groebner().packing.bits == 8
        assert I.contains(p) and I.contains(p)
        assert built == [16]

    def test_lead_monomials_listed(self):
        gb = reduced_groebner_basis([p2("x*y - 1"), p2("y^2 - 1")], LEX)
        assert sorted(gb.lead_monomials()) == [(0, 2), (1, 0)]

    def test_iteration_yields_elements(self):
        gb = reduced_groebner_basis(ORBIT_QUADRICS, GREVLEX)
        assert list(gb) == list(gb.elements)

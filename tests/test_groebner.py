"""Groebner bases: reduction, Buchberger criterion, cofactors, syzygies."""
import random
from bisect import insort
from fractions import Fraction
from itertools import combinations

import pytest

from delpezzo5 import groebner
from delpezzo5.groebner import (GroebnerBasis, normal_form, reduced_groebner_basis,
                                syzygy_basis, syzygy_columns)
from delpezzo5.hilbert import degree_monomials
from delpezzo5.linalg import SparseEchelon
from delpezzo5.polyring import (GREVLEX, LEX, Polynomial, RingContext,
                                block_split, mono_degree, mono_div,
                                mono_divides, mono_lcm, mono_mul,
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


class TestCofactors:
    def test_identity_on_fixed_ideal(self):
        gens = [p2("x*y - 1"), p2("y^2 - 1")]
        gb = reduced_groebner_basis(gens, LEX, track_cofactors=True)
        for element, row in zip(gb.elements, gb.cofactors):
            total = XY.zero()
            for c, g in zip(row, gens):
                total = total + c * g
            assert total == element

    def test_identity_randomized_with_zero_generators(self):
        rng = random.Random(47)
        for _ in range(15):
            gens = [random_poly(rng, XYZ), XYZ.zero(), random_poly(rng, XYZ)]
            gb = reduced_groebner_basis(gens, GREVLEX, track_cofactors=True)
            for element, row in zip(gb.elements, gb.cofactors):
                assert len(row) == len(gens)
                total = XYZ.zero()
                for c, g in zip(row, gens):
                    total = total + c * g
                assert total == element


class TestSyzygies:
    def test_koszul_pair(self):
        basis = syzygy_basis([XY.variable("x"), XY.variable("y")], GREVLEX)
        for col in basis.columns:
            assert (col[0] * XY.variable("x")
                    + col[1] * XY.variable("y")).is_zero()
        # the Koszul column (y, -x) must be in the span; with one
        # generating column it is a unit multiple
        assert any(col[0] == p2("y") and col[1] == p2("-x")
                   or col[0] == p2("-y") and col[1] == p2("x")
                   for col in basis.columns)

    def test_monomial_pair_contains_koszul(self):
        gens = [parse_polynomial("x*y", XYZ), parse_polynomial("x*z", XYZ)]
        basis = syzygy_basis(gens, GREVLEX)
        for col in basis.columns:
            assert (col[0] * gens[0] + col[1] * gens[1]).is_zero()
        target = (parse_polynomial("z", XYZ), parse_polynomial("-y", XYZ))
        assert any(tuple(col) == target or
                   (col[0] == -target[0] and col[1] == -target[1])
                   for col in basis.columns)

    def test_orbit_quadric_syzygies_annihilate(self):
        basis = syzygy_basis(ORBIT_QUADRICS, GREVLEX)
        assert basis.columns
        for col in basis.columns:
            total = ORBIT.zero()
            for c, g in zip(col, ORBIT_QUADRICS):
                total = total + c * g
            assert total.is_zero()

    def test_zero_generator_gets_trivial_column(self):
        # the public entry point insists on nonzero generators; the
        # column construction itself emits e_i for a zero generator so
        # that alignment with the input list survives
        gens = [XYZ.variable("x"), XYZ.zero()]
        with pytest.raises(ValueError):
            syzygy_basis(gens, GREVLEX)
        gb = reduced_groebner_basis(gens, GREVLEX, track_cofactors=True)
        columns = syzygy_columns(gb)
        assert any(col[0].is_zero() and col[1] == XYZ.one()
                   for col in columns)

    def test_completeness_against_brute_force(self):
        # syzygies of (x, y, z): the returned span per degree must match
        # the full kernel of (q1,q2,q3) -> q1*x + q2*y + q3*z
        gens = [XYZ.variable(v) for v in ("x", "y", "z")]
        basis = syzygy_basis(gens, GREVLEX)
        for col in basis.columns:
            total = XYZ.zero()
            for c, g in zip(col, gens):
                total = total + c * g
            assert total.is_zero()
        for d in range(1, 5):
            # kernel dimension by rank-nullity on the multiplication map
            domain = 0
            echelon = SparseEchelon()
            for i, g in enumerate(gens):
                for m in degree_monomials(3, d - 1):
                    domain += 1
                    prod = g.term_multiple(m, Fraction(1))
                    echelon.add_row({e: c for e, c in prod.terms.items()})
            kernel = domain - echelon.rank
            # span of the returned columns in degree d, flattened over
            # (component, monomial) coordinates
            span = SparseEchelon()
            for col in basis.columns:
                degs = {c.total_degree() for c in col if not c.is_zero()}
                assert len(degs) == 1
                e = degs.pop()
                if e > d - 1:
                    continue
                for m in degree_monomials(3, d - 1 - e):
                    row = {}
                    for i, c in enumerate(col):
                        shifted = c.term_multiple(m, Fraction(1))
                        for exps, coeff in shifted.terms.items():
                            row[(i, exps)] = coeff
                    span.add_row(row)
            assert span.rank == kernel


def reference_normal_form(p, divisors, order=GREVLEX, with_quotients=False, triples=None):
    """Division with the agenda kept sorted by ``insort(..., key=order.key)``,
    which recomputes the key of every element the bisection touches.  Any
    held ``triples`` are ignored: every divisor's lead is recomputed."""
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
    r = Polynomial(p.context, remainder)
    if not with_quotients:
        return r
    return r, [Polynomial(p.context, q) for q in quotients]


def reference_basis(gens, order):
    """Buchberger with cofactors, selecting at each step the open pair with
    the smallest (lcm degree, lcm order key, i, j) by a linear ``min()``.
    S-pairs are reduced by ``groebner.normal_form``, which the caller
    replaces by `reference_normal_form`."""
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
        r, lift = groebner._s_pair(G, groebner.divisor_triples(G, order), i, j, order, True)
        if r.is_zero():
            continue
        lc = r.lead_coefficient(order)
        G.append(r / lc)
        rows.append([a / lc for a in lift(rows)])
        leads.append(r.lead_monomial(order))
        pairs.update((k, len(G) - 1) for k in range(len(G) - 1))

    kept = []
    for k in sorted(range(len(G)), key=lambda k: order.key(leads[k])):
        if not any(mono_divides(leads[t], leads[k]) for t in kept):
            kept.append(k)
    final = [G[k] for k in kept]
    final_rows = [rows[k] for k in kept]
    for idx in range(len(final)):
        final[idx], q = reference_normal_form(final[idx], final[:idx] + final[idx + 1:],
                                              order, with_quotients=True)
        final_rows[idx] = groebner._lift(final_rows[idx], q,
                                         final_rows[:idx] + final_rows[idx + 1:])
    desc = sorted(range(len(final)), key=lambda k: order.key(final[k].lead_monomial(order)),
                  reverse=True)
    return GroebnerBasis(context, order, [final[k] for k in desc], gens,
                         [final_rows[k] for k in desc])


def random_form(rng, ctx, degree, n_terms=3):
    """A form of the given degree with up to n_terms random terms."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * ctx.nvars
        for _ in range(degree):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Polynomial(ctx, terms)


class TestReferenceSelection:
    """Cofactor rows and syzygy columns depend on the reduction path, so
    equal rows pin the order in which pairs are selected and terms reduced."""

    @pytest.mark.parametrize("nvars, linear_term", [(3, False), (3, True), (4, False)],
                             ids=["3vars-homogeneous", "3vars-inhomogeneous", "4vars-homogeneous"])
    def test_matches_linear_selection(self, nvars, linear_term, monkeypatch):
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        orders = [GREVLEX, LEX, block_split(nvars, 1), variable_last_order(nvars, 0)]
        rng = random.Random(97 + nvars)
        cases = []
        for _ in range(8):
            gens = [random_form(rng, ctx, rng.randint(1, 3))
                    + (random_form(rng, ctx, 1, 1) if linear_term else ctx.zero())
                    for _ in range(rng.randint(2, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for order in orders:
                gb = reduced_groebner_basis(gens, order, track_cofactors=True)
                assert reduced_groebner_basis(gens, order).elements == gb.elements
                syz = syzygy_columns(gb) if all(not g.is_zero() for g in gens) else None
                cases.append((gens, order, gb, syz))
        monkeypatch.setattr(groebner, "normal_form", reference_normal_form)
        for gens, order, gb, syz in cases:
            ref = reference_basis(gens, order)
            assert ref.elements == gb.elements
            assert ref.cofactors == gb.cofactors
            if syz is not None:
                assert syzygy_columns(ref) == syz


class TestGroebnerBasisObject:
    @pytest.mark.parametrize("nvars", [3, 4])
    def test_held_triples_match_a_fresh_division(self, nvars):
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        orders = [GREVLEX, LEX, block_split(nvars, 1), variable_last_order(nvars, 0)]
        rng = random.Random(131 + nvars)
        for _ in range(6):
            gens = [random_form(rng, ctx, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for order in orders:
                for track in (False, True):
                    gb = reduced_groebner_basis(gens, order, track_cofactors=track)
                    assert gb.triples == tuple(groebner.divisor_triples(gb.elements, order))
                    for _ in range(4):
                        p = random_form(rng, ctx, rng.randint(1, 4), 4)
                        assert gb.normal_form(p, with_quotients=True) \
                            == normal_form(p, gb.elements, gb.order, True)

    def test_lead_monomials_listed(self):
        gb = reduced_groebner_basis([p2("x*y - 1"), p2("y^2 - 1")], LEX)
        assert sorted(gb.lead_monomials()) == [(0, 2), (1, 0)]

    def test_iteration_yields_elements(self):
        gb = reduced_groebner_basis(ORBIT_QUADRICS, GREVLEX)
        assert list(gb) == list(gb.elements)

"""Graded Hom dimensions and Hilbert-scheme tangent spaces."""
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from delpezzo5 import dp5, groebner, hilbert, homspaces
from delpezzo5.groebner import GroebnerBasis, syzygy_columns
from delpezzo5.hilbert import degree_monomials, hilbert_function, standard_monomials
from delpezzo5.homspaces import graded_hom_dimension, tangent_dimension
from delpezzo5.ideals import Ideal
from delpezzo5.linalg import SparseEchelon, integer_terms
from delpezzo5.polyring import (GREVLEX, LEX, Packing, Polynomial, RingContext,
                                elimination_order, mono_div, mono_lcm, parse_polynomial)

from test_groebner import (int_polynomials, lcm_packing, random_form, reference_basis,
                           reference_normal_form)

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
P3 = RingContext(("x", "y", "z", "w"))
P6 = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                 (6, 4, 2, 0, -2, -4, -6))


def ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts])


def fresh(ideal):
    """An equal Ideal that shares no basis, and so nothing kept on one."""
    return None if ideal is None else Ideal(ideal.context, ideal.gens)


class TestGradedHom:
    def test_principal_to_its_quotient(self):
        I = ideal(XY, "x")
        assert graded_hom_dimension(I, I) == 1

    def test_line_in_projective_six_space(self):
        # normal bundle O(1)^5 on P^1: 2 sections each
        L = ideal(P6, "a6", "a2", "a0", "am2", "am6")
        assert graded_hom_dimension(L, L) == 10

    def test_line_in_projective_three_space(self):
        L = ideal(P3, "x", "y")
        assert graded_hom_dimension(L, L) == 4

    def test_twists_shift_section_counts(self):
        # O(1)^2 on P^1 twisted by -1 and +1
        L = ideal(P3, "x", "y")
        assert graded_hom_dimension(L, L, twist=-1) == 2
        assert graded_hom_dimension(L, L, twist=1) == 6

    def test_unit_target_kills_everything(self):
        I = ideal(P3, "x", "y")
        J = Ideal(P3, [P3.one()])
        assert graded_hom_dimension(I, J) == 0

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            graded_hom_dimension(ideal(XY, "x^2 - 1"), ideal(XY, "x"))
        with pytest.raises(ValueError, match="^graded Hom needs a homogeneous source ideal"):
            tangent_dimension(ideal(XYZ, "x", "y^2 - z"))

    def test_source_is_checked_as_an_ideal(self):
        # (x, x^2*y - z^2) = (x, z^2) is homogeneous though one generator
        # is not: the answer does not depend on the presentation
        for source in (ideal(XYZ, "x", "x^2*y - z^2"), ideal(XYZ, "x", "z^2")):
            assert tangent_dimension(source) == 4
            assert graded_hom_dimension(source, ideal(XYZ, "x", "z^2")) == 4
            assert graded_hom_dimension(ideal(XYZ, "x", "z^2"), source) == 4

    @pytest.mark.parametrize("e, twist", [(128, -1), (128, -100), (300, -200), (300, -250)])
    def test_principal_source_wider_than_the_solve(self, e, twist):
        # a principal ideal has no relations, so Hom((f), S/J)_t is
        # (S/J)_(deg f + t); the packing must hold x^e, whose degree the
        # negative twist keeps above every degree the solve meets
        J = ideal(XYZ, "y^2")
        hom = graded_hom_dimension(ideal(XYZ, f"x^{e}"), J, twist)
        assert hom == hilbert_function(J, e + twist)


class TestTangent:
    def test_twisted_cubic(self):
        C = ideal(P3, "x*z - y^2", "x*w - y*z", "y*w - z^2")
        assert tangent_dimension(C) == 12

    def test_plane_quartic(self):
        ctx = RingContext(("x", "y", "z"))
        C = ideal(ctx, "x^4 + y^4 - z^4")
        assert tangent_dimension(C) == 14

    def test_line_on_smooth_quadric(self):
        L = ideal(P3, "x", "y")
        Q = ideal(P3, "x*w - y*z")
        assert tangent_dimension(L, within=Q) == 1

    def test_relative_needs_containment(self):
        L = ideal(P3, "x", "y")
        with pytest.raises(ValueError):
            tangent_dimension(L, within=ideal(P3, "z"))

    def test_containment_checked_before_the_early_returns(self):
        # the ambient ideal is checked before a unit target or a zero
        # source ends the solve
        L, outside = ideal(P3, "x", "y"), ideal(P3, "x*y", "z")
        unit, zero = Ideal(P3, [P3.one()]), Ideal(P3, [])
        for source, target in ((L, L), (L, unit), (zero, L), (zero, unit)):
            with pytest.raises(ValueError, match="^ambient ideal is not contained"):
                graded_hom_dimension(source, target, within=outside)
        assert graded_hom_dimension(L, unit, within=ideal(P3, "x*y")) == 0
        assert graded_hom_dimension(zero, L, within=Ideal(P3, [P3.zero()])) == 0

    def test_homogeneity_of_within_is_checked_before_containment(self):
        # z^2 - z lies outside the curve (x, y) and is not homogeneous:
        # the homogeneity message comes first, inside or outside the curve
        L = ideal(P3, "x", "y")
        for text in ("z^2 - z", "x^2 - x"):
            with pytest.raises(ValueError, match="^graded Hom needs homogeneous ambient"):
                tangent_dimension(L, within=ideal(P3, text))
        with pytest.raises(ValueError, match="^ambient ideal is not contained"):
            tangent_dimension(L, within=ideal(P3, "z^2"))

    def test_relative_at_most_ambient(self):
        cases = [
            (ideal(P3, "x", "y"), ideal(P3, "x*w - y*z")),
            (ideal(P6, "a6", "a2", "a0", "am2", "am6"),
             ideal(P6,
                   "a6*am2 - 4*a4*a0 + 3*a2^2",
                   "a6*am4 - 3*a4*am2 + 2*a2*a0",
                   "a6*am6 - 9*a2*am2 + 8*a0^2",
                   "a4*am6 - 3*a2*am4 + 2*a0*am2",
                   "a2*am6 - 4*a0*am4 + 3*am2^2")),
        ]
        for curve, ambient in cases:
            assert tangent_dimension(curve, within=ambient) \
                <= tangent_dimension(curve)


class TestPresentationIndependence:
    def test_randomized_regeneration(self):
        rng = random.Random(107)
        for _ in range(8):
            source = self.random_ideal(rng)
            target = self.random_ideal(rng)
            gens = list(source.gens)
            rng.shuffle(gens)
            extra = gens[0] * self.random_form(rng, 1)
            alt = Ideal(P3, gens + [extra])
            for twist in (-1, 0, 1):
                assert graded_hom_dimension(source, target, twist) \
                    == graded_hom_dimension(alt, target, twist)

    def test_tangent_on_regenerated_table_entry(self):
        C = ideal(P3, "x*z - y^2", "x*w - y*z", "y*w - z^2")
        gens = list(C.gens)
        gens.append(gens[0] * P3.variable("w") - gens[1] * P3.variable("z"))
        gens.reverse()
        assert tangent_dimension(Ideal(P3, gens)) == 12

    def random_form(self, rng, d):
        pool = list(degree_monomials(4, d))
        picks = rng.sample(pool, k=rng.randint(1, 3))
        return Polynomial(P3, {m: Fraction(rng.choice((-2, -1, 1, 2)))
                               for m in picks})

    def random_ideal(self, rng):
        return Ideal(P3, [self.random_form(rng, rng.randint(1, 2))
                          for _ in range(rng.randint(1, 2))])


def presentation_unknowns(gens, target, twist):
    """Standard-monomial lists per generator (None for a zero one) and the
    index of each unknown (generator, standard monomial)."""
    unknown_index, bases = {}, []
    for i, g in enumerate(gens):
        if g.is_zero():
            bases.append(None)
            continue
        d = g.total_degree() + twist
        bases.append(standard_monomials(target, d) if d >= 0 else [])
        for m in bases[-1]:
            unknown_index[(i, m)] = len(unknown_index)
    return unknown_index, bases


def product_rows(blocks, unknown_index, bases, tgb):
    """The equation rows of each block sum_i c_i * phi(g_i) = 0, every
    product c_i * x^m reduced on its own by the target's basis."""
    all_rows = []
    for coeffs in blocks:
        rows = {}
        for i, c in enumerate(coeffs):
            if c.is_zero() or bases[i] is None:
                continue
            for m in bases[i]:
                reduced = tgb.normal_form(c.term_multiple(m, Fraction(1)))
                u = unknown_index[(i, m)]
                for mono, value in reduced.terms.items():
                    row = rows.setdefault(mono, {})
                    row[u] = row.get(u, Fraction(0)) + value
        all_rows += rows.values()
    return all_rows


def coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def s_pair_syzygies(gb, skip_coprime=False):
    """tau = x^mi e_i - x^mj e_j - q for each pair i < j of basis elements,
    formed here from a division of the S-pair by the basis under its
    order; with ``skip_coprime``, only the pairs whose leads share a
    variable."""
    G, ctx, leads = gb.elements, gb.context, gb.lead_monomials()
    blocks = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if skip_coprime and coprime(leads[i], leads[j]):
                continue
            lcm = mono_lcm(leads[i], leads[j])
            xi, xj = ctx.monomial(mono_div(lcm, leads[i])), ctx.monomial(mono_div(lcm, leads[j]))
            r, q = reference_normal_form(xi * G[i] - xj * G[j], G, gb.order)
            assert r.is_zero()
            tau = [-qt for qt in q]
            tau[i] += xi
            tau[j] -= xj
            blocks.append(tau)
    return blocks


def pair_taus(gb, packing, taus, skip_coprime=False):
    """The taus that `groebner.basis_syzygies` returned as den * tau at
    ``packing``, each divided by its entry den at lcm / lead_i, as
    Polynomials, and the dens; every value must be an int."""
    monomials = gb.lead_monomials()
    leads = [packing.pack(m) for m in monomials]
    pairs = [(i, j) for i in range(len(leads)) for j in range(i + 1, len(leads))
             if not (skip_coprime and coprime(monomials[i], monomials[j]))]
    assert len(pairs) == len(taus)
    polys, dens = [], []
    for (i, j), tau in zip(pairs, taus):
        assert all(type(c) is int for terms in tau for c in terms.values())
        den = tau[i][packing.lcm(leads[i], leads[j]) - leads[i]]
        polys.append(int_polynomials(gb.context, packing, tau, den))
        dens.append(den)
    return polys, dens


class TestSharedSPolynomial:
    """`groebner.basis_syzygies` builds each S-polynomial in ints, as
    Buchberger does, and divides it in the integer kernel; its taus,
    each divided by its den, must be those of the S-pair formed and
    divided here, one by one."""

    XYZ = RingContext(("x", "y", "z"))
    RATIONAL = ["3/4*x*y - 2*z^2", "5/3*y^2 + 1/2*x*z - 7/6*z^2",
                "2/5*x*z - 9/4*y^2 + 1/3*y*z"]

    def check(self, gb, packing):
        for skip in (False, True):
            taus = groebner.basis_syzygies(gb, packing, skip_coprime=skip)
            assert pair_taus(gb, packing, taus, skip)[0] == s_pair_syzygies(gb, skip_coprime=skip)

    @pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order(3, (0,))],
                             ids=["grevlex", "lex", "elimination"])
    def test_rational_generators(self, order):
        # the monic basis's primitive forms have leads such as 3 and 215
        gb = ideal(self.XYZ, *self.RATIONAL).groebner(order)
        assert any(t[1] != 1 for t in gb.triples_at(gb.packing))
        self.check(gb, lcm_packing(gb))

    @pytest.mark.parametrize("ctx, texts", [
        (XY, ("x^100", "y^100")),
        (XYZ, ("x^60*y^20 - z^80", "x^20*y^60 + x^40*z^40")),
    ], ids=["coprime-powers", "shared-leads"])
    def test_lcm_degree_past_the_basis_packing(self, ctx, texts):
        # the basis fits 8-bit fields, its largest lcm degree does not
        gb = ideal(ctx, *texts).groebner(GREVLEX)
        assert gb.packing.bits == 8
        packing = lcm_packing(gb)
        assert packing.bits == 16
        self.check(gb, packing)

    def test_inhomogeneous_basis_rejected(self):
        gb = ideal(XY, "x^2 - y", "x*y - 1").groebner(GREVLEX)
        with pytest.raises(ValueError, match="homogeneous"):
            groebner.basis_syzygies(gb, gb.packing)


def reference_hom_rows(source, target, twist=0, within=None, skip_coprime=False):
    """The unknowns, the syzygies' equation rows and the ambient
    generators' equation rows of the graded Hom solve on the source's
    reduced basis, each product c * x^m reduced on its own by the
    target's basis, as before the solve reduced each monomial once; None
    when the solve stops before any row.  The relations are the S-pair
    syzygies of all pairs, or with ``skip_coprime`` of the pairs whose
    leads are not coprime."""
    if target.is_unit():
        return None
    gb = source.groebner(GREVLEX)
    if len(gb) == 0:
        return None
    unknown_index, bases = presentation_unknowns(gb.elements, target, twist)
    if not unknown_index:
        return None
    ambient = [] if within is None else \
        [reference_normal_form(w, gb.elements, gb.order)[1] for w in within.gens]
    tgb = target.groebner(GREVLEX)
    return (len(unknown_index),
            product_rows(s_pair_syzygies(gb, skip_coprime), unknown_index, bases, tgb),
            product_rows(ambient, unknown_index, bases, tgb))


def input_generator_hom_dimension(source, target, twist=0, within=None):
    """The Hom dimension on the input generators of the source instead of
    its reduced basis: their relations from the elimination in
    `syzygy_columns`, and each ambient generator written in them through
    the cofactor rows of the test-only reference Buchberger."""
    if target.is_unit():
        return 0
    gens = source.gens
    gb, rows = reference_basis(gens, GREVLEX)
    if len(gb) == 0:
        return 0
    unknown_index, bases = presentation_unknowns(gens, target, twist)

    def express(p):
        r, q = reference_normal_form(p, gb.elements, gb.order)
        assert r.is_zero()
        return [sum((qt * row[k] for qt, row in zip(q, rows)), source.context.zero())
                for k in range(len(gens))]

    blocks = syzygy_columns(gens)
    if within is not None:
        blocks += [express(w) for w in within.gens]
    ech = SparseEchelon()
    for row in product_rows(blocks, unknown_index, bases, target.groebner(GREVLEX)):
        ech.add_row(integer_terms(row)[0])
    return len(unknown_index) - ech.rank


def primitive_row(row):
    """The row as coprime ints, the entry at its smallest column with a
    nonzero entry positive: the same for every nonzero multiple of it."""
    den = lcm(*(Fraction(v).denominator for v in row.values()))
    ints = {c: (Fraction(v) * den).numerator for c, v in row.items()}
    g = gcd(*ints.values())
    if ints[min(c for c, v in ints.items() if v)] < 0:
        g = -g
    return frozenset((c, v // g) for c, v in ints.items())


def row_multiset(rows):
    """The rows, each up to a nonzero factor, with their multiplicities."""
    return Counter(map(primitive_row, rows))


MONOMIAL_REMAINDER = GroebnerBasis.monomial_remainder
QUOTIENT_ROWS = groebner.quotient_rows
BASIS_SYZYGIES = groebner.basis_syzygies
PACKED_STANDARD_MONOMIALS = hilbert.packed_standard_monomials
KEPT = GroebnerBasis.kept
RANK = homspaces._rank


def rank(rows):
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(integer_terms(row)[0])
    return ech.rank


def all_pairs_dimension(source, target, twist=0, within=None):
    """The Hom dimension from the reference rows of every S-pair syzygy."""
    ref = reference_hom_rows(source, target, twist, within)
    return 0 if ref is None else ref[0] - rank(ref[1] + ref[2])


class TestReferenceSolve:
    """The per-solve monomial memo must feed the echelon, in ints, the
    rows that reducing every product c * x^m on its own gives, each up to
    the nonzero factor that clears the block's denominators, over the
    pairs the solve keeps (all of them unless the target contains the
    source), and the solve on the reduced basis must give the dimension
    of the solve on all pairs and of the solve on the input generators.

    `check` returns how many monomial remainders had a denominator other
    than 1 and how many syzygies came as den * tau with den other than 1,
    the two things the solve's block scaling and int blocks absorb.

    A solve into its own source feeds the syzygies' rows only when no
    earlier solve of the basis kept their echelon at its twist; the
    ambient generators' rows it always feeds, also on top of a kept
    echelon."""

    def check(self, monkeypatch, source, target, twist=0, within=None):
        fed = []
        scaled = Counter()
        built = []

        class Recording(SparseEchelon):
            def add_row(self, row):
                fed.append(dict(row))
                return super().add_row(row)

        def remainder(tgb, m, packing):
            r, den = MONOMIAL_REMAINDER(tgb, m, packing)
            scaled["den"] += den != 1
            return r, den

        def syzygies(gb, packing, skip_coprime=False):
            taus = BASIS_SYZYGIES(gb, packing, skip_coprime)
            scaled["tau"] += sum(den != 1 for den in pair_taus(gb, packing, taus, skip_coprime)[1])
            return taus

        def int_blocks_rank(tgb, bases, blocks, packing, *rest):
            assert all(type(c) is int for coeffs in blocks for terms in coeffs
                       for c in terms.values())
            return RANK(tgb, bases, blocks, packing, *rest)

        def kept(gb, key, build):
            def recorded():
                built.append(key[0])
                return build()
            return KEPT(gb, key, recorded)

        monkeypatch.setattr(homspaces, "SparseEchelon", Recording)
        monkeypatch.setattr(GroebnerBasis, "monomial_remainder", remainder)
        monkeypatch.setattr(homspaces, "basis_syzygies", syzygies)
        monkeypatch.setattr(homspaces, "_rank", int_blocks_rank)
        monkeypatch.setattr(GroebnerBasis, "kept", kept)
        dim = graded_hom_dimension(source, target, twist, within)
        assert all(type(v) is int for row in fed for v in row.values())
        assert dim == input_generator_hom_dimension(source, target, twist, within)
        ref = reference_hom_rows(source, target, twist, within)
        if ref is None:
            assert dim == 0 and fed == []
            return scaled
        unknowns, syzygy_rows, ambient_rows = ref
        assert dim == unknowns - rank(syzygy_rows + ambient_rows)
        if target.contains_ideal(source):
            _, syzygy_rows, _ = reference_hom_rows(source, target, twist, within,
                                                   skip_coprime=True)
        to_source = target.groebner(GREVLEX) is source.groebner(GREVLEX)
        if to_source and "syzygy echelon" not in built:
            syzygy_rows = []
        assert row_multiset(fed) == row_multiset(syzygy_rows + ambient_rows)
        return scaled

    def test_seeded_ideals(self, monkeypatch):
        rng = random.Random(211)
        helper = TestPresentationIndependence()
        scaled = Counter()
        for _ in range(6):
            source = helper.random_ideal(rng)
            target = helper.random_ideal(rng)
            within = Ideal(P3, [g * helper.random_form(rng, 1) for g in source.gens])
            for twist in (-1, 0, 1):
                scaled += self.check(monkeypatch, source, target, twist)
                scaled += self.check(monkeypatch, source, target, twist, within)
        # the coefficients +-1, +-2 keep the blocks integral; remainders are not
        assert scaled["den"] > 0

    def test_products_past_the_first_packing(self, monkeypatch):
        # the Koszul syzygy's y^100 times the standard monomial x*y^99 of
        # J = (x^101, y^101) is x*y^199, past the 8-bit fields: the solve,
        # sized from that degree before it starts, runs once at 16 bits.
        # J does not contain I, so the pair is kept; its one equation
        # matches the x^100 y^100 coefficients
        I, J = ideal(XY, "x^100", "y^100"), ideal(XY, "x^101", "y^101")
        steps = []
        solve = homspaces._rank

        def recording(tgb, bases, blocks, packing, *rest):
            steps.append((packing.bits, len(blocks)))
            return solve(tgb, bases, blocks, packing, *rest)

        monkeypatch.setattr(homspaces, "_rank", recording)
        assert graded_hom_dimension(I, J) == 2 * 101 - 1
        # Hom(I, S/I)_0 = (S/I)_100 twice, for the complete intersection I;
        # I contains itself, so the coprime pair is skipped, but the width
        # is sized from every pair's lcm degree, 200, before the skip is
        # known: the solve runs at 16 bits too.  Each solve ranks twice,
        # the syzygies and then the ambient generators (none here)
        assert graded_hom_dimension(I, I) == 2 * 99
        assert steps == [(16, 1), (16, 0), (16, 0), (16, 0)]
        self.check(monkeypatch, I, J)
        self.check(monkeypatch, I, I)

    def test_mixed_sign_shifted_degrees(self, monkeypatch):
        # (x, y^3) into (x^2, y^2, z*w): at twists -3 .. -1 the element x
        # has a negative shifted degree, and so no unknown, beside y^3,
        # whose shifted degree is not negative
        source, target = ideal(P3, "x", "y^3"), ideal(P3, "x^2", "y^2", "z*w")
        dimensions = []
        for twist in (-3, -2, -1):
            self.check(monkeypatch, source, target, twist)
            dimensions.append(graded_hom_dimension(source, target, twist))
        assert dimensions == [0, 1, 4]

    def test_triples_built_once_per_width(self, monkeypatch):
        # each basis's triples are built once per width: I's at 8 bits for
        # its leads and at 16 for its syzygy, J's at 8 for the containment
        # test and at 16 for the 201 memo misses of the solve
        built = []
        original = groebner.divisor_triples

        def counted(divisors, order, packing):
            triples = original(divisors, order, packing)
            built.append(triples.packing.bits)
            return triples

        monkeypatch.setattr(groebner, "divisor_triples", counted)
        I, J = ideal(XY, "x^100", "y^100"), ideal(XY, "x^101", "y^101")
        assert graded_hom_dimension(I, J) == 2 * 101 - 1
        assert sorted(built) == [8, 8, 16, 16]

    def test_catalogued_curves(self, monkeypatch):
        model = dp5.build_model()
        curves = [
            model.lines[sorted(model.lines)[0]],
            next(iter(dp5.expected_conic_ideals(model).values())),
            dp5.expected_cubic_rows(model)[0][1],
            dp5.expected_quartic_rows(model)[0][0],
        ]
        scaled = Counter()
        # fresh copies: the model is shared, and a basis that an earlier
        # test solved would hand its kept syzygies past the wrapper
        for curve in map(fresh, curves):
            scaled += self.check(monkeypatch, curve, curve)
            scaled += self.check(monkeypatch, curve, curve, within=model.threefold)
        # the threefold's basis has primitive leads 3, 2 and 8
        assert scaled["den"] > 0 and scaled["tau"] > 0


class TestOnePath:
    """Every solve ranks the S-pair syzygies' rows first, from the echelon
    its source's basis keeps when the target's basis is the source's and
    afresh otherwise, then the ambient generators' rows on top: a cold
    solve into the source and one into an equal copy of it feed the
    echelon the same rows in the same order.  The standard monomials come
    packed at the solve's width, listed once per target basis and width."""

    @staticmethod
    def fed_rows(monkeypatch, source, target, twist, within):
        fed = []
        add_row = SparseEchelon.add_row

        def recording(ech, row):
            fed.append(dict(row))
            return add_row(ech, row)

        with monkeypatch.context() as patch:
            patch.setattr(SparseEchelon, "add_row", recording)
            return graded_hom_dimension(source, target, twist, within), fed

    def same_rows(self, monkeypatch, source, twist=0, within=None):
        cold = fresh(source)
        into_source = self.fed_rows(monkeypatch, cold, cold, twist, within)
        into_copy = self.fed_rows(monkeypatch, fresh(source), fresh(source), twist, within)
        assert into_source == into_copy, (source, twist, within)
        return into_source[1]

    def test_census_quartic(self, monkeypatch):
        model = dp5.build_model()
        curve = dp5.expected_quartic_rows(model)[0][0]
        relative = self.same_rows(monkeypatch, curve, within=model.threefold)
        ambient = self.same_rows(monkeypatch, curve)
        # the syzygies' rows first, the threefold's generators' after them
        assert ambient and relative[:len(ambient)] == ambient and len(relative) > len(ambient)

    def test_seeded_ideals(self, monkeypatch):
        rng = random.Random(223)
        helper = TestPresentationIndependence()
        fed = 0
        for _ in range(6):
            source = helper.random_ideal(rng)
            within = Ideal(P3, [g * helper.random_form(rng, 1) for g in source.gens])
            for twist in (-1, 0, 1):
                for w in (within, None):
                    fed += len(self.same_rows(monkeypatch, source, twist, w))
        assert fed > 0

    def test_standard_monomials_packed_once(self, monkeypatch):
        # a second solve that reads the same target basis at the same width,
        # from the same source or an equal copy, lists no standard monomial
        listed, monomials = [], []

        def listing(ideal, d, packing):
            listed.append(d)
            return PACKED_STANDARD_MONOMIALS(ideal, d, packing)

        def ranking(tgb, bases, *rest):
            monomials.extend(m for basis in bases for m in basis)
            return RANK(tgb, bases, *rest)

        monkeypatch.setattr(homspaces, "packed_standard_monomials", listing)
        monkeypatch.setattr(homspaces, "_rank", ranking)
        model = dp5.build_model()
        curve = fresh(dp5.expected_quartic_rows(model)[0][0])
        I, J = ideal(P3, "x^2", "x*y", "y^3*z"), ideal(P3, "x", "y^2")
        for source, target in ((curve, curve), (I, J)):
            first = graded_hom_dimension(source, target)
            assert listed
            listed.clear()
            assert graded_hom_dimension(source, target) == first
            assert graded_hom_dimension(fresh(source), target) == first
            assert listed == []
        assert monomials and all(type(m) is int for m in monomials)


    def test_one_target_basis_at_two_widths(self, monkeypatch):
        # J's degree-1 standard monomials x, y are read at 8 bits by the
        # solve from (x, y) and at 16 by the one from (x^150, y), whose
        # lcm degree 151 widens it: each reads them packed at its width,
        # and the products x^150 * x and x^150 * y stay outside J
        J = ideal(XY, "y^2")
        for source in (ideal(XY, "x", "y"), ideal(XY, "x^150", "y")):
            TestReferenceSolve().check(monkeypatch, source, J)
        assert J.groebner(GREVLEX).packing.bits == 8

class TestNormalFormCount:
    """A Hom solve reduces each monomial once, in the integer kernel,
    through `GroebnerBasis.monomial_remainder`, and calls
    `groebner.normal_form`, which the benchmark's tracer counts, not at
    all: each ambient generator is divided once, by
    `groebner.quotient_rows`, whose int rows both prove it lies in the
    source and are its equation block, and a tangent solve's target is
    its source, so it tests no containment.  The divisions of the S-pair
    syzygies (`groebner.basis_syzygies`) and of Buchberger run in the
    integer kernel too.  The counts are pinned for fresh ideals, so that
    the ambient division and the solve are both counted."""

    # (relative, ambient) normal forms of one catalogued conic and quartic
    PINNED = {"conic": (0, 0), "quartic": (0, 0)}
    # (relative, ambient) divisions by the solve's `quotient_rows`
    AMBIENT = {"conic": (5, 0), "quartic": (5, 0)}
    # (relative, ambient) monomial remainders of the same solves
    MONOMIALS = {"conic": (15, 0), "quartic": (48, 28)}

    def counted_solves(self, monkeypatch, curve, ambient):
        original = groebner.normal_form
        calls = Counter()
        reduced = []

        def counted(*args, **kwargs):
            calls["normal form"] += 1
            return original(*args, **kwargs)

        def divided(*args):
            calls["ambient"] += 1
            return QUOTIENT_ROWS(*args)

        def remainder(tgb, m, packing):
            reduced.append(m)
            return MONOMIAL_REMAINDER(tgb, m, packing)

        # rebind it in every module that holds it, as perfbench/spans.py does
        for name, module in list(sys.modules.items()):
            if name == "delpezzo5" or name.startswith("delpezzo5."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        # the solve's own binding only: the syzygies divide by it too
        monkeypatch.setattr(homspaces, "quotient_rows", divided)
        monkeypatch.setattr(GroebnerBasis, "monomial_remainder", remainder)
        counts, divisions, monomials = [], [], []
        for within in (ambient, None):
            calls.clear()
            reduced.clear()
            fresh = Ideal(curve.context, curve.gens)
            fresh_within = None if within is None else Ideal(within.context, within.gens)
            tangent_dimension(fresh, within=fresh_within)
            counts.append(calls["normal form"])
            divisions.append(calls["ambient"])
            # the memo reduces each monomial once per solve
            assert len(set(reduced)) == len(reduced)
            monomials.append(len(reduced))
        return tuple(counts), tuple(divisions), tuple(monomials)

    def test_pinned_counts(self, monkeypatch):
        model = dp5.build_model()
        conics = dp5.expected_conic_ideals(model)
        curves = {"conic": conics[sorted(conics)[0]],
                  "quartic": dp5.expected_quartic_rows(model)[0][0]}
        for name, curve in curves.items():
            assert self.counted_solves(monkeypatch, curve, model.threefold) \
                == (self.PINNED[name], self.AMBIENT[name], self.MONOMIALS[name]), name

    def test_warm_relative_solve_makes_no_fraction(self, monkeypatch):
        # `groebner._fractions` is the one place the kernel makes Fractions:
        # with the bases built, a relative solve stays in ints throughout
        model = dp5.build_model()
        curve = dp5.expected_quartic_rows(model)[0][0]
        expected = tangent_dimension(curve, within=model.threefold)
        made = []
        original = groebner._fractions

        def counted(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(groebner, "_fractions", counted)
        assert tangent_dimension(curve, within=model.threefold) == expected == 8
        assert made == []


def catalogued_curves():
    """The 48 catalogued torus-fixed curves, named: lines, conics, cubics,
    both quartics of each row (one for the self-mirror row) and the
    rational normal curve."""
    model = dp5.build_model()
    quartics = [(f"row {row}", ideal) for row, (ideal, _)
                in enumerate(dp5.expected_quartic_rows(model), start=1)]
    mirrors = [(f"{name} mirror", mirror) for name, ideal in quartics
               if (mirror := dp5.mirror_ideal(model, ideal)) != ideal]
    return [*sorted(model.lines.items()),
            *((f"conic {w}", ideal)
              for w, ideal in dp5.expected_conic_ideals(model).items()),
            *((f"cubic {pair}", ideal)
              for pair, ideal, _ in dp5.expected_cubic_rows(model)),
            *quartics, *mirrors,
            ("rnc", dp5.rnc_ideal(model))]


class TestKoszulPairs:
    """A solve whose target contains its source skips the S-pair
    syzygies of basis pairs with coprime leads; its dimension must be
    that of the solve on all pairs."""

    def test_catalogued_curves_match_all_pairs(self):
        model, curves = dp5.build_model(), catalogued_curves()
        assert len(curves) == 48
        skipped = 0
        for _, curve in curves:
            gb = curve.groebner(GREVLEX)
            packing = lcm_packing(gb)
            skipped += len(groebner.basis_syzygies(gb, packing)) \
                - len(groebner.basis_syzygies(gb, packing, skip_coprime=True))
            for within in (model.threefold, None):
                assert tangent_dimension(curve, within=within) \
                    == all_pairs_dimension(curve, curve, within=within)
        assert skipped > 0

    def test_seeded_targets_containing_the_source(self, monkeypatch):
        rng = random.Random(307)
        helper = TestPresentationIndependence()
        skipped = 0
        for _ in range(6):
            source = helper.random_ideal(rng)
            extra = [helper.random_form(rng, rng.randint(1, 2))
                     for _ in range(rng.randint(1, 2))]
            target = Ideal(P3, source.gens + tuple(extra))
            assert target.contains_ideal(source) and not source.contains_ideal(target)
            leads = source.groebner(GREVLEX).lead_monomials()
            skipped += sum(coprime(a, b) for k, a in enumerate(leads) for b in leads[k + 1:])
            for twist in (-1, 0, 1):
                TestReferenceSolve().check(monkeypatch, source, target, twist)
        assert skipped > 0

    def test_containment_tested_only_with_coprime_leads(self, monkeypatch):
        # (x^2, x*y, x*z) has no coprime pair of leads, (x, y^2) has one;
        # the target is an equal but distinct Ideal, so only the leads
        # decide; the dimensions are those of the solve on all pairs
        tests = []
        contains_ideal = Ideal.contains_ideal

        def counted(self, other):
            tests.append(other)
            return contains_ideal(self, other)

        monkeypatch.setattr(Ideal, "contains_ideal", counted)
        for texts, tested in ((("x^2", "x*y", "x*z"), 0), (("x", "y^2"), 1)):
            source = ideal(P3, *texts)
            target = Ideal(P3, source.gens)
            tests.clear()
            dimension = graded_hom_dimension(source, target)
            assert len(tests) == tested
            assert dimension == all_pairs_dimension(source, target) > 0

    def test_no_containment_test_when_the_target_is_the_source(self, monkeypatch):
        # containment holds by identity: the coprime pair of (x, y^2) is
        # skipped untested, in the tangent space and in a twisted solve
        tests = []
        contains_ideal = Ideal.contains_ideal

        def counted(self, other):
            tests.append(other)
            return contains_ideal(self, other)

        monkeypatch.setattr(Ideal, "contains_ideal", counted)
        source = ideal(P3, "x", "y^2")
        dimensions = [tangent_dimension(source)] \
            + [graded_hom_dimension(source, source, twist) for twist in (-1, 1)]
        assert tests == []
        assert dimensions == [all_pairs_dimension(source, source, twist)
                              for twist in (0, -1, 1)]

    def test_ambient_dimension_through_the_smaller_ring(self):
        # I = Ibar S + (x_1..x_c) gives I/I^2 = Ibar/Ibar^2 + (R/Ibar)(-1)^c,
        # so dim Hom_S(I, S/I)_0 = dim Hom_R(Ibar, R/Ibar)_0 + c dim (R/Ibar)_1;
        # every catalogued curve lies in a coordinate subspace, so each splits
        for _, curve in catalogued_curves():
            cut, dropped = curve.split_variables()
            assert tangent_dimension(curve) == tangent_dimension(cut) \
                + len(dropped) * len(standard_monomials(cut, 1))


class TestKeptFacts:
    """The source's basis keeps its S-pair syzygies per (width, skip) and
    the target's basis its standard monomials per (degree, width); every solve
    must give what the same solve on fresh copies gives, in any order,
    and must not alter what it shares."""

    def test_catalogued_curves_in_either_order(self):
        model = dp5.build_model()
        for name, curve in catalogued_curves():
            relative_first, ambient_first = fresh(curve), fresh(curve)
            pair = (tangent_dimension(relative_first, within=model.threefold),
                    tangent_dimension(relative_first))
            ambient = tangent_dimension(ambient_first)
            assert (tangent_dimension(ambient_first, within=model.threefold), ambient) \
                == pair, name

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_seeded_pairs_against_fresh_copies(self, nvars):
        # one pair of objects through every (target, twist, within) solve
        # in a seeded order, and another through the reverse order: J need
        # not contain I and I contains itself, so both skips meet at one
        # width in either order; each ambient solve runs before and after
        # the plain one of its twist
        ctx = RingContext(("x", "y", "z", "w")[:nvars])
        rng = random.Random(401 + nvars)
        skipped = 0
        for _ in range(5):
            I, J = (Ideal(ctx, [f for f in (random_form(rng, ctx, rng.randint(1, 2))
                                            for _ in range(rng.randint(2, 3)))
                                if not f.is_zero()]) for _ in range(2))
            within = Ideal(ctx, [g * random_form(rng, ctx, 1, 2) for g in I.gens])
            leads = I.groebner(GREVLEX).lead_monomials()
            if not J.contains_ideal(I):
                skipped += any(coprime(a, b) for k, a in enumerate(leads) for b in leads[k + 1:])
            solves = [(to_source, twist, ambient) for to_source in (True, False)
                      for twist in (-1, 0, 1) for ambient in (True, False, True)]
            rng.shuffle(solves)
            for schedule in (solves, solves[::-1]):
                source, target = fresh(I), fresh(J)
                for to_source, twist, ambient in schedule:
                    w = within if ambient else None
                    shared = graded_hom_dimension(source, source if to_source else target,
                                                  twist, w)
                    alone = fresh(I)
                    assert shared == graded_hom_dimension(
                        alone, alone if to_source else fresh(J), twist, fresh(w)), \
                        (I, J, to_source, twist, ambient)
        # a pair that only the solve into I itself may skip
        assert skipped > 0

    def test_each_fact_derived_once(self, monkeypatch):
        # one relative and one ambient solve of a quartic, then both again:
        # one syzygy build and one syzygy echelon in all, one
        # standard-monomial list per degree
        built, listed, kept = [], [], []

        def syzygies(gb, packing, skip_coprime=False):
            built.append((id(gb), packing.bits, skip_coprime))
            return BASIS_SYZYGIES(gb, packing, skip_coprime)

        def monomials(ideal, d, packing):
            listed.append((id(ideal.groebner(GREVLEX)), d))
            return PACKED_STANDARD_MONOMIALS(ideal, d, packing)

        def recorded(gb, key, build):
            value = KEPT(gb, key, build)
            kept.append((key, value))
            return value

        monkeypatch.setattr(homspaces, "basis_syzygies", syzygies)
        monkeypatch.setattr(homspaces, "packed_standard_monomials", monomials)
        monkeypatch.setattr(GroebnerBasis, "kept", recorded)
        model = dp5.build_model()
        curve = fresh(dp5.expected_quartic_rows(model)[0][0])
        degrees = {g.total_degree() for g in curve.groebner(GREVLEX)}
        first = [tangent_dimension(curve, within=model.threefold), tangent_dimension(curve)]
        assert len(built) == len(set(built)) == 1
        assert sorted(d for _, d in listed) == sorted(degrees)
        assert len(set(listed)) == len(listed)
        assert [tangent_dimension(curve), tangent_dimension(curve, within=model.threefold)] \
            == first[::-1]
        assert len(built) == 1 and len(listed) == len(degrees)
        assert {key for key, _ in kept if key[0] == "syzygy echelon"} \
            == {("syzygy echelon", 0)}
        # what the bases keep is shared, so it is kept immutable: tuples,
        # the divisor triples a tuple subclass, and a basis's homogeneity
        # a bool
        facts = [(key, value) for key, value in kept if key[0] != "homogeneous"]
        assert facts and all(isinstance(value, tuple) for _, value in facts)
        assert {type(value) for key, value in kept if key[0] == "homogeneous"} == {bool}
        assert {type(value) for key, value in kept if key[0] == "triples"} \
            == {groebner.DivisorTriples}
        assert all(type(value) is tuple for key, value in facts if key[0] != "triples")
        taus = [value for key, value in kept if key[0] == "syzygies"]
        assert taus and all(type(tau) is tuple for value in taus for tau in value)

    @staticmethod
    def quartic():
        model = dp5.build_model()
        return fresh(dp5.expected_quartic_rows(model)[0][0]), model.threefold

    def test_one_syzygy_echelon_in_either_order(self, monkeypatch):
        # a quartic's relative and ambient solves, in either order, build
        # one syzygy echelon; an ambient solve after it adds no row, and a
        # relative one only the rows of the threefold's generators
        curve, threefold = self.quartic()
        alone, rows, echelons = {}, [0], []
        add_row = SparseEchelon.add_row

        def counted(ech, row):
            rows[0] += 1
            return add_row(ech, row)

        def kept(gb, key, build):
            def recorded():
                echelons.append(key)
                return build()
            return KEPT(gb, key, recorded if key[0] == "syzygy echelon" else build)

        monkeypatch.setattr(SparseEchelon, "add_row", counted)
        monkeypatch.setattr(GroebnerBasis, "kept", kept)
        solves = {"relative": threefold, "ambient": None}
        for name, within in solves.items():
            rows[0] = 0
            alone[name] = (tangent_dimension(fresh(curve), within=within), rows[0])
        assert alone["relative"][1] > alone["ambient"][1] > 0
        for first, second in (("relative", "ambient"), ("ambient", "relative")):
            source = fresh(curve)
            echelons.clear()
            seen = []
            for name in (first, second):
                rows[0] = 0
                seen.append((tangent_dimension(source, within=solves[name]), rows[0]))
            assert echelons == [("syzygy echelon", 0)]
            # the relative solve alone feeds the syzygies' rows, then the
            # threefold's: after the ambient solve, only the latter
            added = alone["relative"][1] - alone["ambient"][1] if second == "relative" else 0
            assert seen == [alone[first], (alone[second][0], added)]

    def test_kept_echelon_is_a_tuple_left_unchanged(self):
        curve, threefold = self.quartic()
        gb = curve.groebner(GREVLEX)

        def unbuilt():
            raise AssertionError("the echelon must already be kept")

        dimension = tangent_dimension(curve, within=threefold)
        pivots = gb.kept(("syzygy echelon", 0), unbuilt)
        assert type(pivots) is tuple and pivots
        snapshot = tuple((col, dict(row)) for col, row in pivots)
        again = [tangent_dimension(curve), tangent_dimension(curve, within=threefold),
                 graded_hom_dimension(curve, curve, 1, threefold)]
        assert again[1] == dimension
        assert gb.kept(("syzygy echelon", 0), unbuilt) is pivots
        assert pivots == snapshot

    def test_no_echelon_kept_for_another_target(self, monkeypatch):
        # a solve into a distinct target, even an equal one, keeps syzygies
        # but no echelon, on either basis
        keys = []

        def kept(gb, key, build):
            keys.append(key[0])
            return KEPT(gb, key, build)

        monkeypatch.setattr(GroebnerBasis, "kept", kept)
        curve, threefold = self.quartic()
        for target in (fresh(curve), ideal(P6, "a6", "a4", "a2", "a0")):
            for twist in (-1, 0, 1):
                for within in (threefold, None):
                    graded_hom_dimension(curve, target, twist, within)
        assert "syzygies" in keys and "syzygy echelon" not in keys

    def test_lead_pairs_formed_once_per_basis(self, monkeypatch):
        # the second solve of a basis forms no lcm of its leads: the coprime
        # skip and the packing's width come from what the first one kept
        formed = []
        lcm_of = Packing.lcm

        def counted(packing, a, b):
            formed.append((a, b))
            return lcm_of(packing, a, b)

        curve, threefold = self.quartic()
        I, J = ideal(P3, "x^2", "x*y", "y^3*z"), ideal(P3, "x", "y^2")
        for source, target in ((curve, curve), (I, J), (I, I)):
            first = graded_hom_dimension(source, target, 0, None)
            monkeypatch.setattr(Packing, "lcm", counted)
            formed.clear()
            assert graded_hom_dimension(source, target, 0, None) == first
            assert formed == []
            monkeypatch.undo()
        monkeypatch.setattr(Packing, "lcm", counted)
        source = fresh(curve)
        tangent_dimension(source)
        assert formed

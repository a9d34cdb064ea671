"""Graded Hom dimensions and Hilbert-scheme tangent spaces."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from delpezzo5 import dp5, homspaces
from delpezzo5.groebner import normal_form, reduced_groebner_basis, syzygy_columns
from delpezzo5.hilbert import degree_monomials, standard_monomials
from delpezzo5.homspaces import graded_hom_dimension, tangent_dimension
from delpezzo5.ideals import Ideal
from delpezzo5.linalg import SparseEchelon
from delpezzo5.polyring import (GREVLEX, Polynomial, RingContext, mono_div, mono_lcm,
                                parse_polynomial)

XY = RingContext(("x", "y"))
P3 = RingContext(("x", "y", "z", "w"))
P6 = RingContext(("a6", "a4", "a2", "a0", "am2", "am4", "am6"),
                 (6, 4, 2, 0, -2, -4, -6))


def ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts])


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


def s_pair_syzygies(gb):
    """tau = x^mi e_i - x^mj e_j - q for each pair i < j of basis elements,
    formed here from a division of the S-pair by the basis."""
    G, ctx, leads = gb.elements, gb.context, gb.lead_monomials()
    blocks = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            lcm = mono_lcm(leads[i], leads[j])
            xi, xj = ctx.monomial(mono_div(lcm, leads[i])), ctx.monomial(mono_div(lcm, leads[j]))
            r, q = normal_form(xi * G[i] - xj * G[j], G, GREVLEX, with_quotients=True)
            assert r.is_zero()
            tau = [-qt for qt in q]
            tau[i] += xi
            tau[j] -= xj
            blocks.append(tau)
    return blocks


def reference_hom_rows(source, target, twist=0, within=None):
    """The unknowns and equation rows of the graded Hom solve on the
    source's reduced basis, each product c * x^m reduced on its own by the
    target's basis, as before the solve reduced each monomial once; None
    when the solve stops before any row."""
    if target.is_unit():
        return None
    gb = source.groebner(GREVLEX)
    if len(gb) == 0:
        return None
    unknown_index, bases = presentation_unknowns(gb.elements, target, twist)
    if not unknown_index:
        return None
    blocks = s_pair_syzygies(gb)
    if within is not None:
        blocks += [gb.normal_form(w, with_quotients=True)[1] for w in within.gens]
    return len(unknown_index), product_rows(blocks, unknown_index, bases,
                                            target.groebner(GREVLEX))


def input_generator_hom_dimension(source, target, twist=0, within=None):
    """The Hom dimension on the input generators of the source instead of
    its reduced basis: their Schreyer syzygies, and each ambient generator
    written in them through the cofactors of a tracked basis."""
    if target.is_unit():
        return 0
    gb = reduced_groebner_basis(source.gens, GREVLEX, track_cofactors=True)
    if len(gb) == 0:
        return 0
    unknown_index, bases = presentation_unknowns(gb.input_gens, target, twist)

    def express(p):
        r, q = gb.normal_form(p, with_quotients=True)
        assert r.is_zero()
        return [sum((qt * row[k] for qt, row in zip(q, gb.cofactors)), source.context.zero())
                for k in range(len(gb.input_gens))]

    blocks = [list(column) for column in syzygy_columns(gb)]
    if within is not None:
        blocks += [express(w) for w in within.gens]
    ech = SparseEchelon()
    for row in product_rows(blocks, unknown_index, bases, target.groebner(GREVLEX)):
        ech.add_row(row)
    return len(unknown_index) - ech.rank


def row_multiset(rows):
    return Counter(frozenset(row.items()) for row in rows)


class TestReferenceSolve:
    """The per-solve monomial memo must feed the echelon exactly the rows
    that reducing every product c * x^m on its own gives, and the solve on
    the reduced basis must give the dimension of the solve on the input
    generators."""

    def check(self, monkeypatch, source, target, twist=0, within=None):
        fed = []

        class Recording(SparseEchelon):
            def add_row(self, row):
                fed.append(dict(row))
                return super().add_row(row)

        monkeypatch.setattr(homspaces, "SparseEchelon", Recording)
        dim = graded_hom_dimension(source, target, twist, within)
        assert dim == input_generator_hom_dimension(source, target, twist, within)
        ref = reference_hom_rows(source, target, twist, within)
        if ref is None:
            assert dim == 0 and fed == []
            return
        unknowns, rows = ref
        ech = SparseEchelon()
        for row in rows:
            ech.add_row(row)
        assert dim == unknowns - ech.rank
        assert row_multiset(fed) == row_multiset(rows)

    def test_seeded_ideals(self, monkeypatch):
        rng = random.Random(211)
        helper = TestPresentationIndependence()
        for _ in range(6):
            source = helper.random_ideal(rng)
            target = helper.random_ideal(rng)
            within = Ideal(P3, [g * helper.random_form(rng, 1) for g in source.gens])
            for twist in (-1, 0, 1):
                self.check(monkeypatch, source, target, twist)
                self.check(monkeypatch, source, target, twist, within)

    def test_catalogued_curves(self, monkeypatch):
        model = dp5.build_model()
        curves = [
            model.lines[sorted(model.lines)[0]],
            next(iter(dp5.expected_conic_ideals(model).values())),
            dp5.expected_cubic_rows(model)[0][1],
            dp5.expected_quartic_rows(model)[0][0],
        ]
        for curve in curves:
            self.check(monkeypatch, curve, curve)
            self.check(monkeypatch, curve, curve, within=model.threefold)

"""Graded Hom spaces and Hilbert-scheme tangent spaces.

A degree-t homomorphism phi: I -> S/J is pinned down by the images
phi(g_i) in (S/J)_{deg g_i + t}, one unknown coefficient per standard
monomial; the relations are exactly that every syzygy of the g_i must
map to zero.  Restricting to homomorphisms that kill a smaller ideal
I_X (for curves inside a fixed ambient variety X) adds one equation
block per generator of I_X, written in terms of the g_i by the source's
Groebner basis.

The dimension of the degree-0 part of Hom(I_C, S/I_C) is the tangent
space to the Hilbert scheme of the ambient projective space at [C];
with ``within`` it is the tangent space of the Hilbert scheme of X.
"""
from __future__ import annotations

from fractions import Fraction

from .groebner import syzygy_columns
from .hilbert import standard_monomials
from .ideals import Ideal
from .linalg import SparseEchelon
from .polyring import GREVLEX, Exponents, Polynomial, mono_mul


def graded_hom_dimension(source: Ideal, target: Ideal, twist: int = 0,
                         within: Ideal | None = None) -> int:
    """dim_k Hom_S(source, S/target)_twist, or with ``within`` the
    homomorphisms vanishing on it (Hom over the coordinate ring of X).

    Everything must be homogeneous; ``within`` must sit inside
    ``source``.
    """
    if source.context != target.context:
        raise ValueError("source and target live in different ring contexts")
    for g in source.gens:
        if not g.is_homogeneous():
            raise ValueError("graded Hom needs homogeneous source generators")
    if not target.is_homogeneous():
        raise ValueError("graded Hom needs a homogeneous target ideal")
    if within is not None:
        if within.context != source.context:
            raise ValueError("ambient ideal lives in a different ring context")
        if not source.contains_ideal(within):
            raise ValueError("ambient ideal is not contained in the source ideal")
        for g in within.gens:
            if not g.is_homogeneous():
                raise ValueError("graded Hom needs homogeneous ambient generators")
    if target.is_unit():
        return 0

    gb = source.groebner(GREVLEX, track_cofactors=True)
    if len(gb) == 0:
        return 0
    tgb = target.groebner(GREVLEX)
    gens = gb.input_gens

    # one unknown per (generator, standard monomial of matching degree);
    # the standard monomials of each degree are listed once
    unknown_index: dict[tuple[int, Exponents], int] = {}
    bases: list[list[Exponents] | None] = []
    by_degree: dict[int, list[Exponents]] = {}
    for i, g in enumerate(gens):
        if g.is_zero():
            bases.append(None)
            continue
        d = g.total_degree() + twist
        if d not in by_degree:
            by_degree[d] = standard_monomials(target, d) if d >= 0 else []
        basis = by_degree[d]
        bases.append(basis)
        for m in basis:
            unknown_index[(i, m)] = len(unknown_index)
    if not unknown_index:
        return 0

    ech = SparseEchelon()
    # Normal form is linear: NF(c * x^m) is the sum of c_e * NF(x^(e+m))
    # over the terms c_e * x^e of c.  So each monomial is reduced once per
    # solve, and the memo dies with it.
    reduced: dict[Exponents, dict[Exponents, Fraction]] = {}

    def reduce_monomial(t: Exponents) -> dict[Exponents, Fraction]:
        nf = reduced.get(t)
        if nf is None:
            nf = reduced[t] = tgb.normal_form(target.context.monomial(t)).terms
        return nf

    def impose(coeffs: list[Polynomial]) -> None:
        """One equation block: sum_i coeffs[i] * phi(g_i) = 0 in S/target."""
        rows: dict[Exponents, dict[int, Fraction]] = {}
        for i, c in enumerate(coeffs):
            if c.is_zero() or bases[i] is None:
                continue
            for m in bases[i]:
                u = unknown_index[(i, m)]
                for e, ce in c.terms.items():
                    for mono, value in reduce_monomial(mono_mul(e, m)).items():
                        row = rows.setdefault(mono, {})
                        row[u] = row.get(u, 0) + ce * value
        # entries that cancelled are dropped, and a row left empty is skipped
        for row in rows.values():
            row = {u: v for u, v in row.items() if v}
            if row:
                ech.add_row(row)

    for column in syzygy_columns(gb):
        impose(list(column))

    if within is not None:
        for w in within.gens:
            if not w.is_zero():
                impose(gb.express(w))

    return len(unknown_index) - ech.rank


def tangent_dimension(curve: Ideal, within: Ideal | None = None) -> int:
    """Tangent space dimension of the Hilbert scheme at [V(curve)]:
    in the ambient projective space by default, in V(within) when given."""
    return graded_hom_dimension(curve, curve, 0, within)

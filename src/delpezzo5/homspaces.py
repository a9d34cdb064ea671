"""Graded Hom spaces and Hilbert-scheme tangent spaces.

A degree-t homomorphism phi: I -> S/J is pinned down by the images
phi(g_i) in (S/J)_{deg g_i + t} of the elements g_i of I's reduced
grevlex basis (Hom does not depend on the generators), one unknown per
standard monomial; the relations are that the basis's S-pair syzygies,
which generate all syzygies of the g_i (Schreyer), map to zero.  When
the target contains the source (always for a tangent space), a pair
whose leads are coprime builds no equation block: its syzygy lies in
the span of the others and the Koszul relation g_j e_i - g_i e_j, which
maps to zero because g_i and g_j vanish in S/J (`basis_syzygies`).
Restricting to homomorphisms that kill a smaller ideal I_X (for curves
inside a fixed ambient variety X) adds one equation block per
generator of I_X: the quotients of its division by the basis.  Every
solve takes one path: the echelon of the syzygies' rows, then the
ambient generators' rows on top; the dimension is the unknowns minus
the rank.  All inputs are homogeneous, so the degree of every monomial
the solve can meet is known before it starts, from the source's lead
pairs whether skipped or not, and it runs once at a packing that holds
them, in ints from the division kernel to the echelon (both
fraction-free, cf. Bareiss 1968): the equation blocks come as ints, each
monomial's remainder as ints over one denominator, and each block is
scaled by the lcm of its remainders' denominators only (see `_rank`).

A solve derives each fact of its bases once, however many solves read
the same bases (both tangent numbers of one curve, for instance), and
keeps it as a tuple in the basis's one memo (`GroebnerBasis.kept`):
the source's basis its lead pairs' facts (whether some pair is
coprime, and the widest lcm degree) and its S-pair syzygies per (field
width, coprime skip), the target's its standard monomials per degree,
packed at the solve's width.  A tangent space's target is its source,
so the containment that allows the coprime skip holds by identity and
is not tested, and the echelon of the syzygies' rows depends on the
basis and the twist alone: the basis keeps its pivots per twist, and
later solves start from them; into another target the echelon is
ranked afresh.  The monomial remainders stay per solve: keeping them
on the target's basis would hold every product any solve met for as
long as the basis lives, also where each basis is solved against once.

The dimension of the degree-0 part of Hom(I_C, S/I_C) is the tangent
space to the Hilbert scheme of the ambient projective space at [C];
with ``within`` it is the tangent space of the Hilbert scheme of X.
"""
from __future__ import annotations

from itertools import accumulate
from math import lcm
from typing import Sequence

from .groebner import basis_syzygies, quotient_rows
from .hilbert import packed_standard_monomials
from .ideals import Ideal
from .linalg import SparseEchelon
from .polyring import GREVLEX, Packing


def graded_hom_dimension(source: Ideal, target: Ideal, twist: int = 0,
                         within: Ideal | None = None) -> int:
    """dim_k Hom_S(source, S/target)_twist, or with ``within`` the
    homomorphisms vanishing on it (Hom over the coordinate ring of X).

    Everything must be homogeneous; ``within`` must sit inside
    ``source``.  When ``target`` contains ``source``, the S-pair
    syzygies of basis pairs with coprime leads are skipped: they add
    nothing beyond the Koszul relations, which are zero in S/target.
    Containment is tested only when some pair of leads is coprime, some
    unknown exists and the target's basis is not the source's.  The
    solve ranks the syzygies' rows, from the echelon the source's basis
    keeps at ``twist`` when it is the target's and afresh otherwise,
    then the ambient generators' rows on top.  It runs once on packed
    monomials: everything being homogeneous, each product c * x^m of a
    block and each term of its normal form has degree deg c + deg g_k +
    twist, a pair's lcm degree (where its syzygy is divided) or an
    ambient generator's degree plus the twist.  The packing holds the
    widest of those over all pairs, skipped or not, and the standard
    monomials' degrees, which a negative twist can leave above it; it is
    at least as wide as either basis's, and is sized before any ambient
    generator is divided or standard monomial listed.
    """
    if source.context != target.context:
        raise ValueError("source and target live in different ring contexts")
    if not source.is_homogeneous():
        raise ValueError("graded Hom needs a homogeneous source ideal")
    if not target.is_homogeneous():
        raise ValueError("graded Hom needs a homogeneous target ideal")
    gb, tgb = source.groebner(GREVLEX), target.groebner(GREVLEX)
    gens = () if within is None else within.gens
    if within is not None and within.context != source.context:
        raise ValueError("ambient ideal lives in a different ring context")
    coprime, widest = gb.kept(("lead pairs",), lambda: _lead_pairs(gb))
    shifted = [g.total_degree() + twist for g in gb]
    top = max([*shifted, max([widest, *(w.total_degree() for w in gens)]) + max(twist, 0)])
    packing = max(gb.packing, tgb.packing, target.context.packing(top), key=lambda k: k.bits)
    # per ambient generator, its quotients by the basis as int rows: the
    # proof that it lies in source, and its equation block in the solve
    ambient = []
    for w in gens:
        if not w.is_homogeneous():
            raise ValueError("graded Hom needs homogeneous ambient generators")
        found = quotient_rows(w, gb.triples_at(packing))
        if found is None:
            raise ValueError("ambient ideal is not contained in the source ideal")
        ambient.append(found[0])
    if target.is_unit() or len(gb) == 0:
        return 0

    # one unknown per (basis element, standard monomial of matching degree)
    bases = [_standard_monomials(target, tgb, d, packing) for d in shifted]
    unknowns = sum(map(len, bases))
    if not unknowns:
        return 0
    # the containment test can only change the blocks when some leads are coprime
    skip = coprime and (tgb is gb or target.contains_ideal(source))
    reduced: dict[int, tuple[dict[int, int], int]] = {}

    def syzygy_echelon() -> SparseEchelon:
        # one int block per S-pair syzygy, kept for every solve
        taus = gb.kept(("syzygies", packing.bits, skip),
                       lambda: tuple(map(tuple, basis_syzygies(gb, packing, skip))))
        return _rank(tgb, bases, taus, packing, reduced, SparseEchelon())

    # into its own source, the syzygies' echelon depends on the basis and twist alone
    if tgb is gb:
        ech = SparseEchelon(gb.kept(("syzygy echelon", twist), lambda: syzygy_echelon().pivots))
    else:
        ech = syzygy_echelon()
    return unknowns - _rank(tgb, bases, ambient, packing, reduced, ech).rank


def _lead_pairs(gb) -> tuple[bool, int]:
    """Whether some pair of ``gb``'s leads is coprime, and the widest lcm
    degree of all pairs (0 when there are none)."""
    leads, packing = gb.triples_at(gb.packing).leads, gb.packing
    pairs = [(packing.lcm(a, b), a + b) for k, a in enumerate(leads) for b in leads[k + 1:]]
    return (any(m == product for m, product in pairs),
            max((packing.degree(m) for m, _ in pairs), default=0))


def _standard_monomials(target: Ideal, tgb, d: int, packing: Packing) -> tuple[int, ...]:
    """The degree-d standard monomials of ``target``, whose reduced grevlex
    basis is ``tgb``, packed by ``packing``: listed on the first solve
    that reads them at its width, from the packed candidates of the
    Hilbert layer's table, and kept on ``tgb``; none below degree 0."""
    if d < 0:
        return ()
    return tgb.kept(("standard monomials", d, packing.bits),
                    lambda: tuple(packed_standard_monomials(target, d, packing)))


def _rank(tgb, bases: list[Sequence[int]], blocks: Sequence[Sequence[dict[int, int]]],
          packing: Packing, reduced: dict[int, tuple[dict[int, int], int]],
          ech: SparseEchelon) -> SparseEchelon:
    """``ech`` extended by the equations sum_i coeffs[i] * phi(g_i) = 0 in
    S/target, one block of int coefficients at a time, every monomial
    packed by ``packing``, whose fields hold every product's degree; the
    unknowns of g_i are its packed standard monomials ``bases[i]``, in
    order after those of g_0 .. g_(i-1).  A block's entries are sums of
    c_e * r / den, c_e an int of the block and r / den a monomial's
    remainder; scaling the block by the lcm of the remainders' den makes
    them ints and keeps its row space.

    Normal form is linear: NF(c * x^m) is the sum of c_e * NF(x^(e+m))
    over the terms c_e * x^e of c.  So each monomial is reduced once per
    solve, into the solve's memo ``reduced``, which dies with it."""
    starts = list(accumulate(map(len, bases), initial=0))  # each element's first unknown
    for coeffs in blocks:
        products = []  # (unknown, c_e, (r, den)) of each product c_e * x^e * x^m
        for start, basis, c in zip(starts, bases, coeffs):
            if not basis or not c:
                continue
            for u, m in enumerate(basis, start):
                for e, ce in c.items():
                    t = e + m
                    nf = reduced.get(t)
                    if nf is None:
                        nf = reduced[t] = tgb.monomial_remainder(t, packing)
                    if nf[0]:
                        products.append((u, ce, nf))
        scale = lcm(*(den for _, _, (_, den) in products))
        rows: dict[int, dict[int, int]] = {}
        for u, ce, (r, den) in products:
            factor = ce * (scale // den)
            for mono, value in r.items():
                row = rows.setdefault(mono, {})
                row[u] = row.get(u, 0) + factor * value
        # entries that cancelled are dropped, and a row left empty is skipped
        for row in rows.values():
            row = {u: v for u, v in row.items() if v}
            if row:
                ech.add_row(row)
    return ech


def tangent_dimension(curve: Ideal, within: Ideal | None = None) -> int:
    """Tangent space dimension of the Hilbert scheme at [V(curve)]:
    in the ambient projective space by default, in V(within) when given."""
    return graded_hom_dimension(curve, curve, 0, within)

"""Ideal arithmetic: sums, products, intersections, quotients, saturations,
elimination, and semantic comparison.

An Ideal remembers its generators and caches one reduced Groebner basis
per monomial order, some given by the operation that built the ideal:
an elimination, a quotient by a polynomial, a division by a variable,
a split and the lift of a fold each return the reduced basis that
their construction proves, so it is never computed again.  Equality
and containment are semantic (via reduced bases), so two Ideals with
wildly different generators compare equal when they generate the same
ideal.

Intersections and general saturations eliminate a tag variable t
appended to the ring (Cox, Little & O'Shea, Ch. 4, Sec. 3).  Their
generators t*g, (1-t)*g and 1-t*f are built by `_tagged` as packed ints,
t's packed unit added to g's packed monomials, and the eliminated basis
is projected back by `Polynomial.moved`, which copies those ints as
they are; no `Polynomial` product is formed on the way in or out.
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Sequence

from .groebner import (GroebnerBasis, divisor_triples, interreduced_basis, quotient_rows,
                       reduced_groebner_basis)
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    RingContext,
    elimination_order,
    format_polynomial,
    variable_last_order,
)


class Ideal:
    """Finitely generated ideal in a fixed ring context."""

    __slots__ = ("context", "gens", "_gb_cache")

    def __init__(self, context: RingContext, gens: Iterable[Polynomial] = ()):
        gens = tuple(gens)
        for g in gens:
            if g.context != context:
                raise ValueError("generator from a different ring context")
        self.context = context
        self.gens = gens
        self._gb_cache: dict[MonomialOrder, GroebnerBasis] = {}

    # ------------------------------------------------------------------
    # Groebner bases and membership

    def groebner(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = reduced_groebner_basis(self.gens, order) if self.gens \
                else GroebnerBasis(self.context, order, ())
            self._gb_cache[order] = gb
        return gb

    def _any_basis(self) -> GroebnerBasis:
        """The cached grevlex basis, else the first basis cached under any
        order, else a new grevlex one."""
        cache = self._gb_cache
        gb = cache.get(GREVLEX)
        if gb is None:
            gb = next(iter(cache.values())) if cache else self.groebner()
        return gb

    def contains(self, p: Polynomial) -> bool:
        """Membership by the remainder on division by a cached basis under
        any order (`_any_basis`): every Groebner basis decides it."""
        return self._any_basis().contains(p)

    def __contains__(self, p: Polynomial) -> bool:
        return self.contains(p)

    def contains_ideal(self, other: "Ideal") -> bool:
        gb = self._any_basis()
        return all(gb.contains(g) for g in other.gens)

    def compare(self, other: "Ideal") -> str:
        """One of 'equal', 'subset', 'superset', 'incomparable'."""
        below = other.contains_ideal(self)
        above = self.contains_ideal(other)
        if below and above:
            return "equal"
        if below:
            return "subset"
        if above:
            return "superset"
        return "incomparable"

    def is_zero(self) -> bool:
        return len(self._any_basis()) == 0

    def is_unit(self) -> bool:
        gb = self._any_basis()
        return len(gb) == 1 and gb.elements[0].is_constant()

    def is_homogeneous(self) -> bool:
        return self.groebner().is_homogeneous()

    def is_torus_fixed(self) -> bool:
        """True when the ideal is stable under the torus action, i.e. its
        reduced basis consists of weight-homogeneous polynomials."""
        if self.context.weights is None:
            raise ValueError("ring context has no torus weights")
        return self.groebner().is_weight_homogeneous()

    def canonical_key(self) -> tuple[str, ...]:
        """Hashable fingerprint: the reduced grevlex basis, formatted."""
        return tuple(format_polynomial(g) for g in self.groebner())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.context != other.context:
            return False
        return self.groebner().elements == other.groebner().elements

    __hash__ = None  # semantic equality; use canonical_key() for set logic

    def __repr__(self) -> str:
        inner = ", ".join(format_polynomial(g) for g in self.gens)
        return f"Ideal({inner})"

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check_same_context(other)
        return Ideal(self.context, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check_same_context(other)
        prods = [f * g for f in self.gens for g in other.gens]
        return Ideal(self.context, [p for p in prods if not p.is_zero()])

    def intersect(self, other: "Ideal") -> "Ideal":
        """Intersection via a single auxiliary variable t:
        I cap J = (t*I + (1-t)*J) cap k[x], the t*f and (1-t)*g built
        by `_tagged` from packed shifts."""
        self._check_same_context(other)
        ext = _tag_ring(self.context)
        gens = ([_tagged(ext, f, "t*g") for f in self.gens]
                + [_tagged(ext, g, "(1-t)*g") for g in other.gens])
        return _eliminate_to(ext, gens, drop=(ext.nvars - 1,), target=self.context)

    def quotient(self, other) -> "Ideal":
        """Ideal quotient (I : f) or (I : J)."""
        return self._fold(other, saturate=False)

    def quotient_variable(self, name: str) -> "Ideal":
        """Quotient (I : x) of a homogeneous ideal by a variable."""
        if not self.is_homogeneous():
            raise ValueError("variable quotient needs a homogeneous ideal")
        return self._divide_variable_last(name, saturate=False)

    def _quotient_poly(self, f: Polynomial) -> "Ideal":
        """(I : f) = (I cap (f)) / f.  Each element g = q * f of the meet's
        reduced grevlex basis is divided exactly by f's one divisor triple,
        in the widest packing of the meet and f (q's Newton polytope is a
        Minkowski summand of g's), and q becomes Fractions once, at the
        end; lead(q) = lead(g) / lead(f), so the q are a grevlex Groebner
        basis of (I : f)."""
        meet = self.intersect(Ideal(self.context, [f]))
        packing = max((f, *meet.gens), key=lambda p: p.packing.bits).packing
        triples, lc = divisor_triples([f], GREVLEX, packing), f.lead_coefficient(GREVLEX)
        quots = []
        for g in meet.gens:
            found = quotient_rows(g, triples)
            if found is None:
                raise AssertionError("intersection element not divisible by the divisor")
            (row,), den = found
            scale = 1 / (den * lc)
            quots.append(Polynomial.from_packed(self.context, packing,
                                                {m: c * scale for m, c in row.items()}))
        return _with_basis(Ideal(self.context, quots), quots, GREVLEX)

    def saturate(self, other) -> "Ideal":
        """Saturation (I : f^inf) or (I : J^inf); see `_fold` for the route."""
        return self._fold(other, saturate=True)

    def _saturate_poly(self, f: Polynomial) -> "Ideal":
        """(I : f^inf) = (I + (1 - t*f)) cap k[x] (Rabinowitsch), the
        1 - t*f built by `_tagged` from packed shifts."""
        ext = _tag_ring(self.context)
        gens = [g.moved(ext, range(self.context.nvars)) for g in self.gens] \
            + [_tagged(ext, f, "1-t*g")]
        return _eliminate_to(ext, gens, drop=(ext.nvars - 1,), target=self.context)

    def saturate_variable(self, name: str) -> "Ideal":
        """Saturation by a single variable; inhomogeneous ideals fall back
        to Rabinowitsch's trick."""
        if not self.is_homogeneous():
            return self._saturate_poly(self.context.variable(name))
        return self._divide_variable_last(name, saturate=True)

    def _divide_variable_last(self, name: str, saturate: bool) -> "Ideal":
        """(I : x^inf) when ``saturate``, else (I : x), for homogeneous I,
        from one basis (Bayer & Stillman 1987; Eisenbud, Prop. 15.12).
        Under the order that makes x revlex-cheapest, the lead of a
        homogeneous g carries the least power x^k of x among g's terms,
        so x^k divides g.  Dividing each element of the reduced basis by
        x^k gives a Groebner basis of (I : x^inf), by x^min(1, k) one of
        (I : x); no lead of the divided saturation basis involves x, so
        a second pass would divide nothing.  The saturation is I itself
        when no element is divisible by x.  The result keeps the divided
        basis, interreduced, as its reduced basis under the order."""
        idx = self.context.index(name)
        order = variable_last_order(self.context.nvars, idx)
        gb = self.groebner(order)
        powers = [_variable_power(g, idx) for g in gb]
        if saturate and not any(powers):
            return self
        divided = [_divide_variable(g, idx, k if saturate else min(1, k))
                   for g, k in zip(gb, powers)]
        return _with_basis(Ideal(self.context, divided), divided, order)

    def saturate_irrelevant(self) -> "Ideal":
        """Saturation by the irrelevant maximal ideal (all variables).

        Equals the intersection of the single-variable saturations; a
        pigeonhole argument on monomials in m^k shows the intersection
        is no larger than (I : m^inf).  The fold leaves out the
        variables that lie in I, and when some generators of I are bare
        variables it runs in the ring without them (see `_fold`), where
        it is the saturation by that ring's irrelevant ideal."""
        return self.saturate(Ideal(self.context, self.context.gens()))

    def eliminate(self, names: Sequence[str]) -> "Ideal":
        """Contract to the subring without the named variables."""
        drop = sorted(self.context.index(n) for n in set(names))
        if not drop:
            return self
        keep = _kept(self.context.nvars, drop)
        if not keep:
            raise ValueError("cannot eliminate every variable")
        target = self.context.restricted(keep)
        return _eliminate_to(self.context, list(self.gens), drop=tuple(drop), target=target)

    def split_variables(self) -> "tuple[Ideal, tuple[int, ...]] | None":
        """(Ibar, dropped) when some generators of I are bare variables
        (nonzero scalar multiples of one variable) and some variable is
        not: ``dropped`` are the indices of those variables, and Ibar,
        in ``context.restricted`` of the other indices, is generated by
        I's generators with the dropped variables set to 0.  None when
        no generator is a bare variable or every variable is one.

        S/I and R/Ibar are isomorphic as graded rings, R the ring
        without the dropped variables: S/I = R[x]/(Ibar + (x)) = R/Ibar
        for each dropped x, because x lies in I.

        Both get their reduced grevlex bases, computed at most once and
        in R: Ibar's is I's without the dropped variables when I's is
        cached (every dropped x is an element, and no other element
        involves one, since x is a minimal lead and the other leads and
        all tails are reduced by it), and otherwise I's becomes Ibar's
        lifted plus the dropped variables (`_lifted_basis`)."""
        context = self.context
        names = (g.variable_name() for g in self.gens)
        dropped = sorted({context.index(name) for name in names if name is not None})
        if not dropped or len(dropped) == context.nvars:
            return None
        keep = _kept(context.nvars, dropped)
        target = context.restricted(keep)
        at = _onto(keep, context.nvars)
        cut = Ideal(target, _nonzero(g.moved(target, at) for g in self.gens))
        gb = self._gb_cache.get(GREVLEX)
        if gb is not None:
            cut._gb_cache[GREVLEX] = GroebnerBasis(target, GREVLEX,
                                                   _nonzero(g.moved(target, at) for g in gb))
        else:
            self._gb_cache[GREVLEX] = _lifted_basis(context, cut.groebner(), dropped)
        return cut, tuple(dropped)

    def _fold(self, other, saturate: bool) -> "Ideal":
        """Meet of (I : g), or with ``saturate`` (I : g^inf), over the
        nonzero divisors g of the polynomial or ideal ``other`` that I does
        not contain: for g in I, (I : g) = (I : g^inf) = (1), which the
        meet ignores.  The unit ideal when no divisor is left, with a
        warning when ``other`` has no nonzero divisor at all.  The one
        route chooser: a bare variable g of a homogeneous I goes to
        `quotient_variable` or `saturate_variable`, every other g to
        `_quotient_poly` or `_saturate_poly`.

        When some generators of I are bare variables x, the fold runs on
        Ibar from `split_variables`, and each divisor g on gbar, g with
        the x set to 0.  Since S/I = R/Ibar, g lies in I exactly when
        gbar lies in Ibar, and (I : g) = (Ibar : gbar) + (x) and
        (I : g^inf) = (Ibar : gbar^inf) + (x), so the meet in R, lifted
        to S, plus the x is the answer, and its reduced grevlex basis is
        the meet's, computed in R, lifted plus the x (`_lifted_basis`).

        The fold stops at the first factor that is I itself: the meet is
        then I, every later factor contains it, and `_meet` would return
        that same object for each.

        A quotient skips each divisor g whose factor would contain the
        meet M so far, before computing (I : g): q lies in (I : g)
        exactly when q * g lies in I, so M is in (I : g) exactly when
        q * g is in I for every generator q of M, and then `_meet` would
        return M itself.  Every generator list stays as it is.  A
        saturation computes every factor: M lies in (I : g^inf) when
        M * g^e lies in I for some e, and no one e settles it."""
        what = "saturation" if saturate else "quotient"
        if isinstance(other, Polynomial):
            if other.context != self.context:
                raise ValueError(f"{what} divisor from a different ring context")
            divisors = [other]
        else:
            self._check_same_context(other)
            divisors = other.gens
        nonzero = [g for g in divisors if not g.is_zero()]
        if not nonzero:
            warnings.warn(f"{what} by the zero ideal is the unit ideal")
        split = self.split_variables()
        base, dropped = split if split is not None else (self, ())
        keep = _kept(self.context.nvars, dropped)
        if dropped:
            at = _onto(keep, self.context.nvars)
            nonzero = [g.moved(base.context, at) for g in nonzero]
        outside = [g for g in nonzero if not base.contains(g)]
        if not outside:
            return Ideal(self.context, [self.context.one()])

        def single(g: Polynomial) -> Ideal:
            name = g.variable_name()
            if name is not None and base.is_homogeneous():
                return base.saturate_variable(name) if saturate else base.quotient_variable(name)
            return base._saturate_poly(g) if saturate else base._quotient_poly(g)

        meet = None
        for g in outside:
            if meet is not None and not saturate \
                    and all(base.contains(q * g) for q in meet.gens):
                continue
            factor = single(g)
            meet = factor if meet is None else _meet(meet, factor)
            if factor is base:
                break
        if not dropped:
            return meet
        context = self.context
        lifted = Ideal(context, [g.moved(context, keep) for g in meet.gens]
                       + _variables(context, dropped))
        lifted._gb_cache[GREVLEX] = _lifted_basis(context, meet.groebner(), dropped)
        return lifted

    def _check_same_context(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal):
            raise TypeError(f"expected an Ideal, got {type(other).__name__}")
        if other.context != self.context:
            raise ValueError("ideals live in different ring contexts")


# ---------------------------------------------------------------------------
# helpers

def _lifted_basis(context: RingContext, gb: GroebnerBasis,
                  dropped: Sequence[int]) -> GroebnerBasis:
    """The reduced grevlex basis of J + (x) in ``context``, the x the
    variables at the ``dropped`` indices, from ``gb``, J's reduced grevlex
    basis in the ring of the other variables: gb lifted by
    `Polynomial.moved`, plus the x unless J is the unit ideal, sorted by
    decreasing lead.  For h in J + (x), a lead free of the x is the lead
    of h's terms free of them, which lie in J; grevlex compares monomials
    free of the x as the smaller ring's grevlex does."""
    keep = _kept(context.nvars, dropped)
    elements = [g.moved(context, keep) for g in gb]
    if not (len(gb) == 1 and gb.elements[0].is_constant()):
        elements += _variables(context, dropped)
        packing = max((g.packing for g in elements), key=lambda k: k.bits)
        key = packing.key(GREVLEX)
        elements.sort(key=lambda g: max(map(key, g.repacked(packing).packed)), reverse=True)
    return GroebnerBasis(context, GREVLEX, elements)


def _tag_ring(context: RingContext) -> RingContext:
    """``context`` with a fresh tag variable t appended; its torus weight
    0 keeps any grading intact."""
    return context.extended(context.fresh_name("t"))


def _tagged(ext: RingContext, g: Polynomial, shape: str) -> Polynomial:
    """t*g, (1-t)*g or 1-t*g in ``ext``, g's ring with the tag t appended
    last, as ``shape`` names it.  g's packed monomials, copied into ext as
    they are (`Polynomial.moved`), become t*g by adding t's packed unit at
    g's own width; the terms are those, and in that order, of the product
    in `Polynomial` arithmetic, which none of this calls."""
    g = g.moved(ext, range(ext.nvars - 1))
    unit = 1 << ((ext.nvars - 1) * g.packing.bits)
    if shape == "t*g":
        terms = {m + unit: c for m, c in g.packed.items()}
    else:
        terms = dict(g.packed) if shape == "(1-t)*g" else {0: Fraction(1)}
        terms.update((m + unit, -c) for m, c in g.packed.items())
    return Polynomial.from_packed(ext, g.packing, terms)


def _with_basis(ideal: Ideal, basis: Sequence[Polynomial], order: MonomialOrder) -> Ideal:
    """The ideal, with the reduced basis of ``basis``, a Groebner basis of
    it under ``order``, cached; none for the zero ideal."""
    if basis:
        ideal._gb_cache[order] = interreduced_basis(basis, order)
    return ideal


def _meet(a: Ideal, b: Ideal) -> Ideal:
    """Intersection, skipping the elimination when one side contains
    the other (the common case in saturation and quotient folds); each
    containment test reads whatever basis the side already holds."""
    if b.contains_ideal(a):
        return a
    if a.contains_ideal(b):
        return b
    return a.intersect(b)


def _variable_power(g: Polynomial, idx: int) -> int:
    """Largest k with x_idx^k dividing the nonzero polynomial g."""
    shift, mask = idx * g.packing.bits, g.packing.limit
    return min((m >> shift) & mask for m in g.packed)


def _divide_variable(g: Polynomial, idx: int, k: int) -> Polynomial:
    """g / x_idx^k, for g divisible by x_idx^k."""
    if not k:
        return g
    step = k << (idx * g.packing.bits)
    return Polynomial.from_packed(g.context, g.packing,
                                  {m - step: c for m, c in g.packed.items()})


def _variables(context: RingContext, indices: Sequence[int]) -> list[Polynomial]:
    return [context.variable(context.variables[i]) for i in indices]


def _kept(nvars: int, dropped: Sequence[int]) -> list[int]:
    return [i for i in range(nvars) if i not in dropped]


def _onto(keep: Sequence[int], nvars: int) -> list[int | None]:
    """`Polynomial.moved` onto the ring of the ``keep`` variables."""
    return [keep.index(i) if i in keep else None for i in range(nvars)]


def _nonzero(polys: Iterable[Polynomial]) -> list[Polynomial]:
    return [p for p in polys if not p.is_zero()]


def _eliminate_to(ctx: RingContext, gens: Sequence[Polynomial], drop: tuple[int, ...],
                  target: RingContext) -> Ideal:
    """Groebner elimination: the reduced basis of I cap k[kept variables]
    under a block order with the dropped variables up front, which
    `reduced_groebner_basis` computes without ever finishing the elements
    that involve them, projected onto the target context.  It is also
    the target's reduced grevlex basis, cached as such: the order's
    second block is grevlex on the kept variables in ascending order,
    the elements are monic and sorted by decreasing lead."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return Ideal(target, [])
    gb = reduced_groebner_basis(gens, elimination_order(ctx.nvars, drop), eliminate=drop)
    at = _onto(_kept(ctx.nvars, drop), ctx.nvars)
    elements = [g.moved(target, at) for g in gb]
    ideal = Ideal(target, elements)
    ideal._gb_cache[GREVLEX] = GroebnerBasis(target, GREVLEX, elements)
    return ideal

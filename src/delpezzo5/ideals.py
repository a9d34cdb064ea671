"""Ideal arithmetic: sums, products, intersections, quotients, saturations,
elimination, and semantic comparison.

An Ideal remembers its generators and caches one reduced Groebner basis
per monomial order.  Equality and containment are semantic (via reduced
bases), so two Ideals with wildly different generators compare equal
when they generate the same ideal.
"""
from __future__ import annotations

import warnings
from functools import reduce
from typing import Iterable, Sequence

from .groebner import GroebnerBasis, normal_form, reduced_groebner_basis
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

    def groebner(self, order: MonomialOrder = GREVLEX, track_cofactors: bool = False) -> GroebnerBasis:
        cached = self._gb_cache.get(order)
        if cached is not None and (not track_cofactors or cached.cofactors is not None):
            return cached
        if self.gens:
            gb = reduced_groebner_basis(self.gens, order, track_cofactors)
        else:
            gb = GroebnerBasis(self.context, order, (), (),
                               () if track_cofactors else None)
        self._gb_cache[order] = gb
        return gb

    def normal_form(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        return self.groebner(order).normal_form(p)

    def contains(self, p: Polynomial) -> bool:
        return self.groebner().contains(p)

    def __contains__(self, p: Polynomial) -> bool:
        return self.contains(p)

    def contains_ideal(self, other: "Ideal") -> bool:
        gb = self.groebner()
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
        return len(self.groebner()) == 0

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb.elements[0].is_constant()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.groebner())

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
        I cap J = (t*I + (1-t)*J) cap k[x]."""
        self._check_same_context(other)
        ctx = self.context
        tname = ctx.fresh_name("t")
        ext = ctx.extended(tname)  # weight 0 keeps any torus grading intact
        t = ext.variable(tname)
        lift = _lift_all(ext, self.gens + other.gens)
        mine = lift[: len(self.gens)]
        theirs = lift[len(self.gens):]
        one = ext.one()
        gens = [t * f for f in mine] + [(one - t) * g for g in theirs]
        return _eliminate_to(ext, gens, drop=(ext.nvars - 1,), target=ctx)

    def quotient(self, other) -> "Ideal":
        """Ideal quotient (I : f) or (I : J)."""
        return self._fold(other, "quotient", self._quotient_single)

    def _quotient_single(self, f: Polynomial) -> "Ideal":
        name = _as_variable(f)
        if name is not None and self.is_homogeneous():
            return self.quotient_variable(name)
        return self._quotient_poly(f)

    def quotient_variable(self, name: str) -> "Ideal":
        """Quotient (I : x) of a homogeneous ideal by a variable.

        Under an order sorting x last, every reduced-basis element whose
        lead involves x is divisible by x outright (any x-free term would
        outrank the lead), and dividing exactly those elements by x
        generates the quotient."""
        if not self.is_homogeneous():
            raise ValueError("variable quotient needs a homogeneous ideal")
        idx = self.context.index(name)
        gb = self.groebner(variable_last_order(self.context.nvars, idx))
        return Ideal(self.context, [_divide_variable(g, idx, min(1, _variable_power(g, idx)))
                                    for g in gb])

    def _quotient_poly(self, f: Polynomial) -> "Ideal":
        meet = self.intersect(Ideal(self.context, [f]))
        # every element of I cap (f) is a polynomial multiple of f
        quots = []
        for g in meet.gens:
            r, q = normal_form(g, [f], GREVLEX, with_quotients=True)
            if not r.is_zero():
                raise AssertionError("intersection element not divisible by the divisor")
            quots.append(q[0])
        return Ideal(self.context, quots)

    def saturate(self, other) -> "Ideal":
        """Saturation (I : f^inf) or (I : J^inf), by Rabinowitsch's trick."""
        return self._fold(other, "saturation", self._saturate_poly)

    def _saturate_poly(self, f: Polynomial) -> "Ideal":
        ctx = self.context
        tname = ctx.fresh_name("t")
        ext = ctx.extended(tname)
        t = ext.variable(tname)
        gens = _lift_all(ext, self.gens)
        gens.append(ext.one() - t * _lift(ext, f))
        return _eliminate_to(ext, gens, drop=(ext.nvars - 1,), target=ctx)

    def saturate_variable(self, name: str) -> "Ideal":
        """Saturation by a single variable.

        For homogeneous ideals: repeatedly divide the reduced basis
        (under an order sorting the variable last) by its content in
        the variable.  The chain increases inside (I : x^inf), and at
        the fixed point no lead monomial involves x (an x-free term
        would outrank an x-divisible lead), so the ideal is saturated.
        Inhomogeneous ideals fall back to the general construction.
        """
        if not self.is_homogeneous():
            return self._saturate_poly(self.context.variable(name))
        idx = self.context.index(name)
        order = variable_last_order(self.context.nvars, idx)
        current = self
        while True:
            gb = current.groebner(order)
            powers = [_variable_power(g, idx) for g in gb]
            if not any(powers):
                return current
            current = Ideal(self.context, [_divide_variable(g, idx, k)
                                           for g, k in zip(gb, powers)])

    def saturate_irrelevant(self) -> "Ideal":
        """Saturation by the irrelevant maximal ideal (all variables).

        Equals the intersection of the single-variable saturations; a
        pigeonhole argument on monomials in m^k shows the intersection
        is no larger than (I : m^inf).  A variable x in I gives
        (I : x^inf) = (1), which the intersection ignores, so it is left
        out.  A proper ideal holds x exactly when its reduced grevlex
        basis holds x itself; the unit ideal, whose basis is (1), goes
        through the fold and comes out as (1)."""
        basis = self.groebner().elements
        outside = [name for name, x in zip(self.context.variables, self.context.gens())
                   if x not in basis]
        if not outside:
            return Ideal(self.context, [self.context.one()])
        return _meet_all(map(self.saturate_variable, outside))

    def eliminate(self, names: Sequence[str]) -> "Ideal":
        """Contract to the subring without the named variables."""
        drop = sorted(self.context.index(n) for n in set(names))
        if not drop:
            return self
        keep = [i for i in range(self.context.nvars) if i not in set(drop)]
        if not keep:
            raise ValueError("cannot eliminate every variable")
        target = self.context.restricted(keep)
        return _eliminate_to(self.context, list(self.gens), drop=tuple(drop), target=target)

    def _fold(self, other, what: str, single) -> "Ideal":
        """Meet of ``single(g)`` over the nonzero divisors g of the
        polynomial or ideal ``other``; the unit ideal, with a warning,
        when there are none."""
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
            return Ideal(self.context, [self.context.one()])
        return _meet_all(map(single, nonzero))

    def _check_same_context(self, other: "Ideal") -> None:
        if not isinstance(other, Ideal):
            raise TypeError(f"expected an Ideal, got {type(other).__name__}")
        if other.context != self.context:
            raise ValueError("ideals live in different ring contexts")


# ---------------------------------------------------------------------------
# helpers

def _as_variable(f: Polynomial) -> str | None:
    """The variable name when f is a scalar multiple of one, else None."""
    if len(f.terms) != 1:
        return None
    (exps,) = f.terms
    if sum(exps) != 1:
        return None
    return f.context.variables[exps.index(1)]


def _meet(a: Ideal, b: Ideal) -> Ideal:
    """Intersection, skipping the elimination when one side contains
    the other (the common case in saturation and quotient folds)."""
    if b.contains_ideal(a):
        return a
    if a.contains_ideal(b):
        return b
    return a.intersect(b)


def _meet_all(ideals: Iterable[Ideal]) -> Ideal:
    """Left fold of `_meet`, taking each ideal from the iterable only as
    the fold reaches it."""
    return reduce(_meet, ideals)


def _variable_power(g: Polynomial, idx: int) -> int:
    """Largest k with x_idx^k dividing the nonzero polynomial g."""
    return min(e[idx] for e in g.terms)


def _divide_variable(g: Polynomial, idx: int, k: int) -> Polynomial:
    """g / x_idx^k, for g divisible by x_idx^k."""
    if not k:
        return g
    return Polynomial(g.context, {e[:idx] + (e[idx] - k,) + e[idx + 1:]: c
                                  for e, c in g.terms.items()})


def _lift(ext: RingContext, p: Polynomial) -> Polynomial:
    """Reinterpret p in a context extended by appended variables."""
    if p.is_zero():
        return ext.zero()
    extra = (0,) * (ext.nvars - p.context.nvars)
    return Polynomial(ext, {m + extra: c for m, c in p.terms.items()})


def _lift_all(ext: RingContext, polys: Sequence[Polynomial]) -> list[Polynomial]:
    return [_lift(ext, p) for p in polys]


def _eliminate_to(ctx: RingContext, gens: Sequence[Polynomial], drop: tuple[int, ...],
                  target: RingContext) -> Ideal:
    """Groebner elimination: compute a basis under a block order with the
    dropped variables up front, keep the elements free of them, and
    project onto the target context."""
    order = elimination_order(ctx.nvars, drop)
    gb = reduced_groebner_basis([g for g in gens if not g.is_zero()], order) \
        if any(not g.is_zero() for g in gens) else None
    keep = [i for i in range(ctx.nvars) if i not in set(drop)]
    kept_polys = []
    if gb is not None:
        for g in gb:
            if all(all(m[i] == 0 for i in drop) for m in g.terms):
                kept_polys.append(Polynomial(target,
                                             {tuple(m[i] for i in keep): c
                                              for m, c in g.terms.items()}))
    return Ideal(target, kept_polys)

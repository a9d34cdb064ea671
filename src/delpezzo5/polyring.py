"""Exact sparse multivariate polynomials over the rationals.

A monomial is a vector of non-negative exponents indexed by the variable
list of a RingContext.  Polynomials are immutable sparse maps from
monomials to nonzero Fractions.  No floats anywhere: every coefficient is
an exact rational.

Inside a polynomial each monomial is packed into one int (a `Packing`):
exponent i fills field i, of ``bits`` bits, whose top bit is a guard
that no stored monomial sets.  A product of monomials is then the sum of
their ints, a divides b exactly when ``(b - a) & guard == 0``, and every
monomial order is a linear form in the exponents, so its key is one int
and the key of a product is the sum of the keys (Bachmann & Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998).
Fields start at 8 bits (exponents up to 127) and double when a larger
exponent is built or parsed: a sum that reaches a guard bit is redone at
the wider packing, never wrapped.  The tuple-keyed ``terms`` of a
polynomial is the public view, decoded from the packed terms.

The module also hosts the plain-text ideal format used by the CLI::

    # optional comments
    ring: x, y, z
    weights: 2, 0, -2
    gens:
    x*z - y^2
    3/4*x - y

Rationals are written p/q, powers with ^, and * is mandatory between
factors.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Mapping, Sequence

Exponents = tuple[int, ...]


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed monomials

class PackingOverflow(Exception):
    """A packed product set a guard bit: the work is redone at a wider packing."""


# A packing, and every order key it builds, depends on (nvars, bits)
# alone, so one table serves every ring context, however many a census
# derives by extending and restricting its rings (`Packing.holding`).
_PACKINGS: dict[tuple[int, int], "Packing"] = {}


class Packing:
    """Exponent vectors of ``nvars`` variables packed into ints.

    Exponent i is the field ``(m >> (i * bits)) & (2**(bits - 1) - 1)``;
    the field's top bit is its guard, clear in every packed monomial, so
    no exponent exceeds ``limit``.  Sums of two packed monomials never
    carry from one field into the next: a field that overflows sets its
    guard, which ``m & guard`` detects.  ``bits`` is a power of two, at
    least 8.
    """

    __slots__ = ("nvars", "bits", "width", "limit", "guard", "pack", "fields", "unpack",
                 "degree", "_keys")

    def __init__(self, nvars: int, bits: int):
        self.nvars = nvars
        self.bits = bits
        self.width = nvars * bits  # every packed monomial lies below 2**width
        self.limit = (1 << (bits - 1)) - 1
        self.guard = sum(1 << (i * bits + bits - 1) for i in range(nvars))
        if bits == 8:
            # one byte per field: bytes() and int.from_bytes do the work
            def pack(exps: Exponents) -> int:
                return int.from_bytes(bytes(exps), "little")

            def fields(m: int):
                return m.to_bytes(nvars, "little")
        else:
            shifts = tuple(range(0, nvars * bits, bits))
            mask = self.limit

            def pack(exps: Exponents) -> int:
                return sum(e << s for e, s in zip(exps, shifts))

            def fields(m: int):
                return [(m >> s) & mask for s in shifts]

        self.pack = pack          # exponent tuple -> packed int, entries <= limit
        self.fields = fields      # packed int -> its exponents, an iterable of ints
        self.unpack = lambda m: tuple(fields(m))
        self.degree = lambda m: sum(fields(m))
        self._keys: dict[MonomialOrder, Callable[[int], int]] = {}  # order -> `key`

    def __reduce__(self):
        # the closures above and the keys do not pickle; the shared packing has them
        return Packing.holding, (self.nvars, self.limit)

    @staticmethod
    def bits_holding(top: int) -> int:
        """The narrowest field width whose fields hold exponents up to ``top``."""
        bits = 8
        while top >= 1 << (bits - 1):
            bits *= 2
        return bits

    @staticmethod
    def holding(nvars: int, top: int = 0) -> "Packing":
        """The narrowest packing of ``nvars`` variables whose fields hold
        exponents up to ``top``: one object per (nvars, bits) in the
        process, shared by every ring context of ``nvars`` variables."""
        bits = Packing.bits_holding(top)
        packing = _PACKINGS.get((nvars, bits))
        if packing is None:
            packing = _PACKINGS[nvars, bits] = Packing(nvars, bits)
        return packing

    def lcm(self, a: int, b: int) -> int:
        """Least common multiple of two packed monomials, field by field."""
        guard = self.guard
        ge = ((a | guard) - b) & guard      # guard bit set where a_i >= b_i
        take = ge - (ge >> (self.bits - 1))  # those fields' value bits
        return (a & take) | (b & ~take)

    def key(self, order: "MonomialOrder") -> Callable[[int], int]:
        """The int order key of a packed monomial under ``order``: the
        order's `MonomialOrder.linear_form` in base ``2**bits``, so the
        key of a product is the sum of the keys.  Built once per order."""
        key = self._keys.get(order)
        if key is not None:
            return key
        n, top = self.nvars, self.width
        if type(order) is GrevlexOrder:
            # sum e_i * (B^n - B^i) = degree * B^n - m
            degree = self.degree
            key = lambda m: (degree(m) << top) - m
        elif type(order) is LexOrder and self.bits == 8:
            # sum e_i * B^(n-1-i): the fields in reverse
            key = lambda m: int.from_bytes(m.to_bytes(n, "little"), "big")
        else:
            form, fields = order.linear_form(n, 1 << self.bits), self.fields
            key = lambda m: sum(map(mul, form, fields(m)))
        self._keys[order] = key
        return key


class RingContext:
    """Variable names, in order, with optional integer torus weights."""

    __slots__ = ("variables", "weights", "_index")

    def __init__(self, variables: Sequence[str], weights: Sequence[int] | None = None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring context needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for name in variables:
            if not name or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != len(variables):
                raise ValueError("weights must match the variable count")
        self.variables = variables
        self.weights = weights
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def packing(self, top: int = 0) -> Packing:
        """The narrowest packing of this ring whose fields hold exponents
        up to ``top``; one object per width, shared with every ring of as
        many variables (`Packing.holding`)."""
        return Packing.holding(self.nvars, top)

    def zero_exponents(self) -> Exponents:
        return (0,) * self.nvars

    def monomial_weight(self, exps: Exponents) -> int:
        if self.weights is None:
            raise ValueError("ring context has no weights")
        return sum(w * e for w, e in zip(self.weights, exps))

    # constructors ---------------------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.zero_exponents(): Fraction(1)})

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {self.zero_exponents(): Fraction(c)})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(v) for v in self.variables)

    def monomial(self, exps: Exponents, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): Fraction(coeff)})

    def extended(self, name: str) -> "RingContext":
        """New context with one extra variable appended, of torus weight 0."""
        weights = None if self.weights is None else self.weights + (0,)
        return RingContext(self.variables + (name,), weights)

    def restricted(self, keep: Sequence[int]) -> "RingContext":
        names = tuple(self.variables[i] for i in keep)
        weights = None if self.weights is None else tuple(self.weights[i] for i in keep)
        return RingContext(names, weights)

    def fresh_name(self, stem: str = "t") -> str:
        if stem not in self._index:
            return stem
        k = 0
        while f"{stem}{k}" in self._index:
            k += 1
        return f"{stem}{k}"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.weights))

    def __repr__(self) -> str:
        if self.weights is None:
            return f"RingContext({', '.join(self.variables)})"
        ws = ", ".join(f"{v}:{w}" for v, w in zip(self.variables, self.weights))
        return f"RingContext({ws})"


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total multiplicative well-ordering given by a sort key on exponents.

    Larger key means larger monomial.
    """

    def key(self, exps: Exponents):
        raise NotImplementedError

    def linear_form(self, nvars: int, base: int) -> tuple[int, ...]:
        """Integer weights c with key(a) < key(b) exactly when
        sum(c_i * a_i) < sum(c_i * b_i), for exponent vectors whose
        entries are all below ``base``."""
        raise NotImplementedError


class LexOrder(MonomialOrder):
    def key(self, exps: Exponents):
        return exps

    def linear_form(self, nvars: int, base: int) -> tuple[int, ...]:
        return tuple(base ** (nvars - 1 - i) for i in range(nvars))

    def __repr__(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, LexOrder)

    def __hash__(self):
        return hash("lex")


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order."""

    def key(self, exps: Exponents):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def linear_form(self, nvars: int, base: int) -> tuple[int, ...]:
        # the degree, then the reversed exponents negated, as base-B digits
        top = base ** nvars
        return tuple(top - base ** i for i in range(nvars))

    def __repr__(self):
        return "grevlex"

    def __eq__(self, other):
        return isinstance(other, GrevlexOrder)

    def __hash__(self):
        return hash("grevlex")


class BlockOrder(MonomialOrder):
    """Compare variable groups in sequence, each with its own inner order.

    The first group dominates, so a block order with group ``(i,)`` in
    front eliminates variable i.
    """

    def __init__(self, groups: Sequence[Sequence[int]], inners: Sequence[MonomialOrder]):
        groups = tuple(tuple(g) for g in groups)
        if len(groups) != len(inners):
            raise ValueError("one inner order per group")
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be nonempty")
        seen: set[int] = set()
        for g in groups:
            if seen & set(g):
                raise ValueError("groups must be disjoint")
            seen |= set(g)
        self.groups = groups
        self.inners = tuple(inners)

    def key(self, exps: Exponents):
        return tuple(
            inner.key(tuple(exps[i] for i in group))
            for group, inner in zip(self.groups, self.inners)
        )

    def linear_form(self, nvars: int, base: int) -> tuple[int, ...]:
        # mixed radix: each group's key outweighs every later group's range
        form = [0] * nvars
        scale = 1
        for group, inner in reversed(tuple(zip(self.groups, self.inners))):
            sub = inner.linear_form(len(group), base)
            for i, c in zip(group, sub):
                form[i] = c * scale
            scale *= _span(sub, base)
        return tuple(form)

    def __repr__(self):
        return f"block({self.groups}, {self.inners!r})"

    def __eq__(self, other):
        return (
            isinstance(other, BlockOrder)
            and self.groups == other.groups
            and self.inners == other.inners
        )

    def __hash__(self):
        return hash(("block", self.groups, self.inners))


def _span(form: Sequence[int], base: int) -> int:
    """One more than the largest difference of the linear form between two
    exponent vectors with entries below ``base``."""
    return sum(abs(c) for c in form) * (base - 1) + 1


LEX = LexOrder()
GREVLEX = GrevlexOrder()


def elimination_order(nvars: int, eliminate: Sequence[int]) -> BlockOrder:
    """Order whose dominant block is the variables to eliminate, grevlex
    in each block.  One shared object per (nvars, set of indices), from
    a bounded cache, so every basis cache and packing keyed by it hits
    by identity."""
    return _elimination_order(nvars, tuple(sorted(set(eliminate))))


@lru_cache(maxsize=256)
def _elimination_order(nvars: int, elim: tuple[int, ...]) -> BlockOrder:
    keep = tuple(i for i in range(nvars) if i not in elim)
    if not elim or not keep or elim[0] < 0 or elim[-1] >= nvars:
        raise ValueError("elimination needs a proper nonempty variable subset")
    return BlockOrder((elim, keep), (GREVLEX, GREVLEX))


def variable_last_order(nvars: int, last: int) -> BlockOrder:
    """Graded order in which the given variable is revlex-cheapest; one
    shared object per (nvars, last), from a bounded cache.

    Used by the saturation fast path: for a standard-homogeneous
    polynomial the lead term is divisible by the last variable only if
    the whole polynomial is.  With no other variable it is the one
    order of a one-variable ring.
    """
    return _variable_last_order(nvars, last)


@lru_cache(maxsize=256)
def _variable_last_order(nvars: int, last: int) -> BlockOrder:
    if not 0 <= last < nvars:
        raise ValueError(f"no variable {last} among {nvars}")
    rest = tuple(i for i in range(nvars) if i != last)
    if not rest:
        return BlockOrder(((last,),), (LEX,))
    return BlockOrder((rest, (last,)), (GREVLEX, LEX))


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    ``packed`` maps each monomial, packed by ``packing``, to its nonzero
    coefficient; ``terms`` is the same map keyed by exponent tuples.
    """

    __slots__ = ("context", "packing", "packed", "_hash")

    def __init__(self, context: RingContext, terms: Mapping[Exponents, Fraction]):
        clean: dict[Exponents, Fraction] = {}
        n = context.nvars
        top = 0
        for exps, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != n or min(exps) < 0:
                raise ValueError(f"bad exponent vector {exps!r}")
            top = max(top, *exps)
            clean[exps] = coeff
        packing = context.packing(top)
        pack = packing.pack
        self.context = context
        self.packing = packing
        self.packed = {pack(e): c for e, c in clean.items()}
        self._hash = None

    @classmethod
    def from_packed(cls, context: RingContext, packing: Packing,
                    packed: dict[int, Fraction]) -> "Polynomial":
        """The polynomial with these packed terms, taken as they are: the
        caller guarantees nonzero Fractions and monomials of ``packing``."""
        p = object.__new__(cls)
        p.context = context
        p.packing = packing
        p.packed = packed
        p._hash = None
        return p

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The terms keyed by exponent tuples, in the order of ``packed``;
        decoded on each access."""
        unpack = self.packing.unpack
        return {unpack(m): c for m, c in self.packed.items()}

    def repacked(self, packing: Packing) -> "Polynomial":
        """The same polynomial under another packing whose fields hold its
        exponents."""
        if packing.bits == self.packing.bits:
            return self
        pack, unpack = packing.pack, self.packing.unpack
        return Polynomial.from_packed(self.context, packing,
                                      {pack(unpack(m)): c for m, c in self.packed.items()})

    def moved(self, target: RingContext, at: Sequence[int | None]) -> "Polynomial":
        """The image under the ring map sending variable i to variable
        ``at[i]`` of ``target``, distinct indices, or to 0 (its terms
        dropped) when ``at[i]`` is None.  Each packed monomial's fields
        are copied straight into ``target``'s packing of the same width;
        when every kept variable keeps its index (an embedding into more
        variables, a projection dropping some), each kept int is copied
        as it is."""
        packing, limit = self.packing, self.packing.limit
        shifts, drop = _move_plan(tuple(at), packing.nvars, packing.bits, target.nvars)
        if shifts is None:
            packed = {m: c for m, c in self.packed.items() if not m & drop}
        else:
            packed = {sum(((m >> s) & limit) << t for s, t in shifts): c
                      for m, c in self.packed.items() if not m & drop}
        return Polynomial.from_packed(target, target.packing(limit), packed)

    def _aligned(self, other: "Polynomial") -> tuple[Packing, dict, dict]:
        """The wider packing of the two and both packed maps under it."""
        if self.packing.bits == other.packing.bits:
            return self.packing, self.packed, other.packed
        wide = max(self.packing, other.packing, key=lambda k: k.bits)
        return wide, self.repacked(wide).packed, other.repacked(wide).packed

    # basic queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not any(self.packed)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return max(map(self.packing.degree, self.packed))

    def is_homogeneous(self) -> bool:
        """Homogeneous for the standard grading (zero counts as yes)."""
        return len(set(map(self.packing.degree, self.packed))) <= 1

    def variable_name(self) -> str | None:
        """The variable's name when p is a nonzero scalar multiple of one
        variable, else None; read off the one packed monomial."""
        if len(self.packed) != 1:
            return None
        (m,) = self.packed
        if self.packing.degree(m) != 1:
            return None
        return self.context.variables[self.packing.unpack(m).index(1)]

    def variables_occurring(self) -> set[str]:
        names = self.context.variables
        out: set[str] = set()
        for exps in self.terms:
            out.update(names[i] for i, e in enumerate(exps) if e)
        return out

    # ordered views ---------------------------------------------------------
    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponents, Fraction]]:
        packed, unpack = self.packed, self.packing.unpack
        return [(unpack(m), packed[m])
                for m in sorted(packed, key=self.packing.key(order), reverse=True)]

    def lead_term(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self.packed:
            raise ValueError("zero polynomial has no lead term")
        m = max(self.packed, key=self.packing.key(order))
        return self.packing.unpack(m), self.packed[m]

    def lead_monomial(self, order: MonomialOrder = GREVLEX) -> Exponents:
        return self.lead_term(order)[0]

    def lead_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self.lead_term(order)[1]

    # arithmetic ------------------------------------------------------------
    def _check_context(self, other: "Polynomial") -> None:
        if self.context != other.context:
            raise ValueError("ring context mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        packing, mine, theirs = self._aligned(other)
        terms = dict(mine)
        for e, c in theirs.items():
            acc = terms.get(e, 0) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return Polynomial.from_packed(self.context, packing, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_packed(self.context, self.packing,
                                      {e: -c for e, c in self.packed.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.context.zero()
            return Polynomial.from_packed(self.context, self.packing,
                                          {e: k * c for e, k in self.packed.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        packing, mine, theirs = self._aligned(other)
        while True:
            terms: dict[int, Fraction] = {}
            seen = 0  # every product ORed together: a set guard bit means overflow
            if len(theirs) == 1:
                # a term multiple: the products are distinct monomials
                ((e2, c2),) = theirs.items()
                for e1, c1 in mine.items():
                    e = e1 + e2
                    seen |= e
                    terms[e] = c1 if c2 == 1 else c1 * c2
            else:
                for e1, c1 in mine.items():
                    for e2, c2 in theirs.items():
                        e = e1 + e2
                        seen |= e
                        acc = terms.get(e, 0) + c1 * c2
                        if acc:
                            terms[e] = acc
                        else:
                            terms.pop(e, None)
            if not seen & packing.guard:
                return Polynomial.from_packed(self.context, packing, terms)
            packing = self.context.packing(packing.limit + 1)
            mine = self.repacked(packing).packed
            theirs = other.repacked(packing).packed

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = Fraction(other)
        return self * (1 / c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.context.one()
        for _ in range(n):
            out = out * self
        return out

    def term_multiple(self, exps: Exponents, coeff: Fraction) -> "Polynomial":
        """self times the single term coeff * x^exps."""
        return self * self.context.monomial(exps, coeff)

    # equality / hashing ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial) or self.context != other.context:
            return False
        if self.packing.bits == other.packing.bits:
            return self.packed == other.packed
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return format_polynomial(self)

    # torus weights ---------------------------------------------------------
    def weight_components(self) -> dict[int, "Polynomial"]:
        """Split into weight-homogeneous pieces, keyed by torus weight."""
        ctx = self.context
        if ctx.weights is None:
            raise ValueError("ring context has no weights")
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(ctx.monomial_weight(e), {})[e] = c
        return {w: Polynomial(ctx, t) for w, t in sorted(buckets.items())}

    def is_weight_homogeneous(self) -> bool:
        return len(self.weight_components()) <= 1


@lru_cache(maxsize=256)
def _move_plan(at: tuple, nvars: int, bits: int, target_nvars: int) -> tuple[tuple | None, int]:
    """How `Polynomial.moved` copies fields of width ``bits``: the source
    and target shift of each variable ``at`` keeps, None when each keeps
    its index, and the mask of the fields of the variables it sends to 0."""
    images = [j for j in at if j is not None]
    if len(at) != nvars or len(set(images)) != len(images) \
            or images and not 0 <= min(images) <= max(images) < target_nvars:
        raise ValueError(f"bad map {at} of {nvars} variables into {target_nvars}")
    limit = (1 << (bits - 1)) - 1
    drop = sum(limit << (i * bits) for i, j in enumerate(at) if j is None)
    if all(j is None or j == i for i, j in enumerate(at)):
        return None, drop
    return tuple((i * bits, j * bits) for i, j in enumerate(at) if j is not None), drop


def substitute_linear(p: Polynomial, images: Mapping[str, Polynomial],
                      target: RingContext) -> Polynomial:
    """Apply the ring map sending each variable to a linear form.

    Every variable occurring in p must be mapped; images must live in
    the target context and have total degree at most one.
    """
    for name, img in images.items():
        if img.context != target:
            raise ValueError(f"image of {name!r} lives in a different context")
        if img.total_degree() > 1:
            raise ValueError(f"image of {name!r} is not a linear form")
    missing = p.variables_occurring() - set(images)
    if missing:
        raise ValueError(f"unmapped variables: {sorted(missing)}")

    src_vars = p.context.variables
    power_cache: dict[tuple[str, int], Polynomial] = {}

    def image_power(name: str, n: int) -> Polynomial:
        key = (name, n)
        if key not in power_cache:
            power_cache[key] = images[name] ** n
        return power_cache[key]

    out = target.zero()
    for exps, coeff in p.terms.items():
        term = target.constant(coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * image_power(src_vars[i], e)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# text format

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<number>\d+(?:/\d+)?) |
        (?P<name>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<caret>\^) |
        (?P<star>\*) |
        (?P<plus>\+) |
        (?P<minus>-)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        if kind is not None:
            tokens.append((kind, m.group(kind)))
    return tokens


def parse_polynomial(text: str, context: RingContext) -> Polynomial:
    """Parse a single polynomial in the plain-text format."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial")
    out = context.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign")
        coeff = sign
        exps = [0] * context.nvars
        expect_factor = True
        while True:
            if not expect_factor:
                if i < n and tokens[i][0] == "star":
                    i += 1
                    expect_factor = True
                    continue
                break
            kind, value = tokens[i] if i < n else (None, None)
            if kind == "number":
                try:
                    coeff *= Fraction(value)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {value!r}") from None
                i += 1
            elif kind == "name":
                if value not in context.variables:
                    raise ValueError(f"unknown variable {value!r}")
                idx = context.index(value)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "caret":
                    i += 1
                    if i >= n or tokens[i][0] != "number" or "/" in tokens[i][1]:
                        raise ValueError("exponent must be an integer")
                    power = int(tokens[i][1])
                    i += 1
                exps[idx] += power
            else:
                raise ValueError("expected a factor")
            expect_factor = False
        if i < n and tokens[i][0] not in ("plus", "minus"):
            raise ValueError(f"missing '*' before {tokens[i][1]!r}")
        out = out + context.monomial(tuple(exps), coeff)
    return out


def _format_monomial(exps: Exponents, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for k, (exps, coeff) in enumerate(p.sorted_terms(order)):
        mono = _format_monomial(exps, p.context.variables)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if k == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


def format_ideal_text(context: RingContext, polys: Sequence[Polynomial],
                      order: MonomialOrder = GREVLEX) -> str:
    lines = [f"ring: {', '.join(context.variables)}"]
    if context.weights is not None:
        lines.append(f"weights: {', '.join(str(w) for w in context.weights)}")
    lines.append("gens:")
    for p in polys:
        lines.append(format_polynomial(p, order))
    return "\n".join(lines) + "\n"


def _header_entries(field: str, line: str) -> list[str]:
    """The comma-separated entries of a header line, none when it is bare;
    an empty entry is refused."""
    entries = [e.strip() for e in line.split(",")] if line else []
    if "" in entries:
        raise ValueError(f"empty entry in {field} {line!r}")
    return entries


def parse_ideal_text(text: str) -> tuple[RingContext, list[Polynomial]]:
    """Parse the ring/weights/gens file format; ``gens:`` stands alone on
    one line, and the generators follow it, one per line."""
    ring_line: str | None = None
    weights_line: str | None = None
    gen_lines: list[str] = []
    seen_gens = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ring:"):
            if ring_line is not None:
                raise ValueError("repeated ring: line")
            ring_line = line[len("ring:"):].strip()
        elif line.startswith("weights:"):
            if weights_line is not None:
                raise ValueError("repeated weights: line")
            weights_line = line[len("weights:"):].strip()
        elif line.startswith("gens:"):
            if seen_gens:
                raise ValueError("repeated gens: line")
            if line != "gens:":
                raise ValueError(f"generators must follow the gens: line, one per line: {raw!r}")
            seen_gens = True
        elif seen_gens:
            gen_lines.append(line)
        else:
            raise ValueError(f"unexpected line before gens: {raw!r}")
    if ring_line is None:
        raise ValueError("missing ring: line")
    if not seen_gens:
        raise ValueError("missing gens: line")
    variables = _header_entries("ring:", ring_line)
    weights = None
    if weights_line is not None:
        weights = [int(w) for w in _header_entries("weights:", weights_line)]
    context = RingContext(variables, weights)
    return context, [parse_polynomial(line, context) for line in gen_lines]

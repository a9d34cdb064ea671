"""Buchberger engine, S-pair syzygies, and syzygies of generators.

Everything here is deterministic: pairs come from a heap ordered by
(lcm degree, lcm code, index pair), the code ordering as the lcm's order
key, each entry built once when its pair is formed, the reducer is
always the first basis element in list order whose lead divides the
target term, and the final basis is the unique reduced Groebner basis
sorted by decreasing lead monomial.

Division, pair selection and interreduction run on packed monomials
(`polyring.Packing`): a product is an integer sum, divisibility one mask
test, and an order key one int, the key of a product being the sum of
the keys.  Inside the kernel every term is keyed by its code
``(key(m) << width) + m``, which sorts like the order and holds m in its
low bits: a term gets its code where it enters (`_coded`, for divisors
and dividends alike, and `GroebnerBasis.monomial_remainder`), every
term the kernel makes keeps one (a tail step is a difference of codes,
so a product's code is a sum), and the monomial is read back only where
a result leaves.  So an order key is evaluated only on entry and for
pair lcms.  A product that outgrows its packing restarts the division,
or the Buchberger run, at a wider one, so no field ever wraps; the
S-pair syzygies of a homogeneous basis run at a packing their caller
sizes from its largest lcm degree, and never restart.

Division is fraction-free (primitive pseudo-division, cf. Bareiss 1968,
as in `linalg`, whose `integer_terms` and `primitive` make every
conversion to ints): each divisor is held as a primitive integer
polynomial, the dividend and the quotients as ints over one running
denominator, and a reduction scales them by an integer instead of
dividing by the lead coefficient.  One builder, `_divisor`, turns coded
integer terms into a divisor (lead, primitive form and tail steps), for
`divisor_triples` and for every element Buchberger adds or interreduces;
Buchberger reads its leads from those triples.  It holds every element as
a primitive integer polynomial from its first generator to its last
interreduction; only the final reduced basis is made monic, in
Fractions.  Only the returned elements are finished: interreduction
divides each element by the smaller leads alone, in ascending order, and
an elimination (``eliminate``) drops the elements that involve the
eliminated variables before interreducing.  `interreduced_basis`
finishes a list already known to be a Groebner basis the same way,
with no S-pair.  One builder, `_s_polynomial`, forms every S-polynomial
in ints, for Buchberger and for `basis_syzygies` alike.  Fractions leave
the kernel through `_fractions` alone, for `normal_form`'s remainder and
the finished basis; quotients leave as int rows only, from `quotient_rows`,
for the S-pair syzygies, a Hom solve's ambient blocks and (I : f).  A
`GroebnerBasis` keeps its divisor triples per field width, its lead
exponents and homogeneity, and what else a caller derives from it alone,
in one memo (`kept`); `monomial_remainder` gives a monomial's remainder
as the kernel's ints over one denominator.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Callable, Sequence, TypeVar

from .linalg import integer_terms, primitive
from .polyring import (
    GREVLEX,
    BlockOrder,
    Exponents,
    MonomialOrder,
    Packing,
    PackingOverflow,
    Polynomial,
    RingContext,
    elimination_order,
)

T = TypeVar("T")
Triple = tuple  # (lead code, lc, (steps, coefficients)) of one divisor; see `_divisor`


class DivisorTriples(tuple):
    """The `Triple` of each divisor of a list, all under ``packing``, the
    order's ``key`` on that packing, the mask ``low`` of a code's monomial
    bits, the lead codes and the packed leads."""

    def __new__(cls, triples, packing: Packing, key: Callable[[int], int]):
        self = super().__new__(cls, triples)
        self.packing = packing
        self.key = key
        self.low = low = (1 << packing.width) - 1
        self.codes = [t[0] for t in self]
        self.leads = [c & low for c in self.codes]
        return self


def _widest(polys: Sequence[Polynomial], context: RingContext) -> Packing:
    packing = context.packing()
    for p in polys:
        if p.packing.bits > packing.bits:
            packing = p.packing
    return packing


def _coded(p: Polynomial, packing: Packing, key: Callable[[int], int]) -> tuple[dict, int]:
    """p's terms under ``packing`` as ints over one denominator, ``(ints, den)``,
    keyed by their codes ``(key(m) << width) + m``: where p enters the kernel."""
    ints, den = integer_terms(p.repacked(packing).packed)
    width = packing.width
    return {(key(m) << width) + m: c for m, c in ints.items()}, den


def _fractions(ints: dict[int, int], den: int, low: int) -> dict[int, Fraction]:
    """The coded terms ``ints / den`` as Fractions keyed by their packed
    monomials ``code & low``; den is positive.  Where a term leaves the kernel."""
    if den == 1:
        return {t & low: Fraction(c) for t, c in ints.items()}
    return {t & low: Fraction(c, den) for t, c in ints.items()}


def _divisor(ints: dict[int, int]) -> tuple[dict[int, int], Triple]:
    """The primitive form of the nonzero coded integer terms ``ints`` and
    its `Triple` ``(lead, lc, tail)``; the one builder of a divisor, for
    `divisor_triples` and Buchberger alike.  The lead is the largest code,
    that of the term largest in the order, the form is
    `linalg.primitive` at it (int coefficients with gcd 1, lc positive),
    and the tail lists, for every other term ``c * x^e``, its int
    coefficient c and its step ``code(e) - code(lead)``.  A step added to
    the code of a monomial m that the lead divides gives the code of the
    product of m / lead and x^e, since keys add like the monomials."""
    lead = max(ints)
    ints = primitive(ints, lead)
    tail = [(t - lead, c) for t, c in ints.items() if t != lead]
    return ints, (lead, ints[lead], (tuple(s for s, _ in tail), tuple(c for _, c in tail)))


def divisor_triples(divisors: Sequence[Polynomial], order: MonomialOrder,
                    packing: Packing) -> DivisorTriples:
    """The `_divisor` triple of each divisor, as `normal_form` reads them,
    under ``packing`` and the order's int key: that of its primitive
    integer form, a nonzero rational multiple of the divisor.  The
    divisors must share one ring context."""
    context = divisors[0].context if divisors else None
    for d in divisors:
        if d.context != context:
            raise ValueError("ring context mismatch")
        if d.is_zero():
            raise ValueError("zero divisor in normal form")
    return _as_divisors(divisors, order, packing)[1]


def normal_form(p: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                triples: DivisorTriples | None = None) -> Polynomial:
    """Full remainder of p on division by the list of divisors.

    Reduces the largest reducible term by the first divisor in list
    order whose lead divides it, until no term is reducible.  ``triples``,
    when given, are the divisors' `divisor_triples` under ``order``, held
    by a caller that divides by the same list many times.  The division
    runs in ints (`_divide_int`); the remainder leaves once, packed like
    the triples, or wider when a product outgrows them.
    """
    if divisors and divisors[0].context != p.context:
        raise ValueError("ring context mismatch")
    if triples is None or triples.packing.bits < p.packing.bits:
        triples = divisor_triples(divisors, order, _widest([p, *divisors], p.context))
    while True:
        packing = triples.packing
        try:
            r, den = _divide_int(*_coded(p, packing, triples.key), triples, None)
            return Polynomial.from_packed(p.context, packing, _fractions(r, den, triples.low))
        except PackingOverflow:
            triples = divisor_triples(divisors, order, p.context.packing(packing.limit + 1))


def quotient_rows(p: Polynomial | dict[int, int], triples: DivisorTriples,
                  den: int = 1) -> tuple[list[dict[int, int]], int] | None:
    """``(rows, den)``, the quotients of an exact division of p by the
    divisors d_k of ``triples`` as int rows keyed by packed monomials:
    ``p == sum(rows[k] / den * d_k / lc(d_k))``; None when the remainder
    is not zero.  Row k is ``q_k * lc_k``, q_k / den the kernel's quotient
    by d_k's primitive form, whose lead coefficient is lc_k.  p is a
    Polynomial or, inside the kernel, the coded int terms of den * p,
    divided once at the triples' packing, which must hold every product:
    a homogeneous caller sizes it from the degrees, and an exact division
    by one d stays in the widest packing of p and d (the Newton polytope
    of q * d is the Minkowski sum of those of q and d)."""
    if isinstance(p, Polynomial):
        p, den = _coded(p, triples.packing, triples.key)
    quotients = [{} for _ in triples]
    remainder, den = _divide_int(p, den, triples, quotients)
    if remainder:
        return None
    return [q if lc == 1 else {m: c * lc for m, c in q.items()}
            for q, (_, lc, _) in zip(quotients, triples)], den


def _divide_int(work: dict[int, int], den: int, triples: DivisorTriples,
                quotients: list[dict[int, int]] | None) -> tuple[dict[int, int], int]:
    """Fraction-free division of ``work / den`` by the divisors (primitive
    pseudo-division, cf. Bareiss 1968): the remainder is ``r / den``
    for the returned ``(r, den)``, r's coded terms largest first.

    Every term is keyed by its code ``(key(m) << width) + m``, from the
    dividend to the remainder: codes sort like the order, since order
    keys are injective, ``code & low`` is the packed monomial, a tail
    step added to a code gives the product's code, and a difference of
    codes has the guard bits of the difference of the monomials, so the
    division evaluates no order key.

    One running denominator serves the whole division.  A term c meets
    a divisor's lead coefficient lc: with g = gcd(c, lc), the work, the
    remainder found so far, the quotients and the denominator are scaled
    by lc / g when that is not 1, and then (c / g) times the divisor's
    integer tail is subtracted, so no coefficient is ever a Fraction.
    ``quotients``, when given, gets int quotients q_k with the invariant
    ``work / den == (r + sum(q_k * P_k)) / den`` for the entry dividend
    work / den, P_k the primitive form of divisor k.  Raises
    `PackingOverflow` when a product reaches a guard bit."""
    work = dict(work)
    remainder: dict[int, int] = {}
    codes, guard, low = triples.codes, triples.packing.guard, triples.low
    agenda = sorted(work)  # ascending; pop() takes the largest
    while agenda:
        code = agenda.pop()
        c = work.pop(code, None)
        if c is None:
            continue
        for hit, lead in enumerate(codes):
            if not (code - lead) & guard:
                break
        else:
            remainder[code] = c
            continue
        _, lc, (steps, coeffs) = triples[hit]
        if lc != 1:
            g = gcd(c, lc)
            if g != lc:
                a = lc // g
                work = {t: v * a for t, v in work.items()}
                if remainder:
                    remainder = {t: v * a for t, v in remainder.items()}
                if quotients is not None:
                    quotients[:] = [{t: v * a for t, v in q.items()} for q in quotients]
                den *= a
            c //= g
        if quotients is not None:
            # terms only shrink, so no monomial is reduced twice and each
            # quotient term is set once
            quotients[hit][(code - lead) & low] = c
        # the lead term cancels m itself; the tail lands at m + (e - lead)
        for step, ce in zip(steps, coeffs):
            new = code + step
            if new & guard:
                raise PackingOverflow
            acc = work.get(new, 0) - c * ce
            if acc:
                if new not in work:
                    insort(agenda, new)
                work[new] = acc
            else:
                del work[new]
    return remainder, den


class GroebnerBasis:
    """Reduced basis and its order.

    One memo, `kept`, holds what is derived from the basis alone, built
    on first use under the caller's key: each element's ``(lead, lc,
    tail)`` per field width (`triples_at`), so that no division
    recomputes a lead term, the lead exponents, whether every element is
    homogeneous, and what Hom solves read of the basis.  The elements
    share one ``packing``.  A pickle or a copy holds the context, order
    and elements only, and derives the rest again.
    """

    __slots__ = ("context", "order", "elements", "packing", "_kept")

    def __init__(self, context: RingContext, order: MonomialOrder,
                 elements: Sequence[Polynomial]):
        packing = _widest(elements, context)
        self.context = context
        self.order = order
        self.elements = tuple(g.repacked(packing) for g in elements)
        self.packing = packing
        self._kept: dict = {}

    def __reduce__(self):
        return GroebnerBasis, (self.context, self.order, self.elements)

    def triples_at(self, packing: Packing) -> DivisorTriples:
        """The elements' `divisor_triples` under ``packing``, built once per
        width: a hit is one read of the memo."""
        triples = self._kept.get(("triples", packing.bits))
        if triples is None:
            triples = self.kept(("triples", packing.bits),
                                lambda: divisor_triples(self.elements, self.order, packing))
        return triples

    def kept(self, key, build: Callable[[], T]) -> T:
        """``build()`` on the first call with ``key``, the same object on
        every later one.  The basis never changes, so what depends on it
        alone is derived once; the caller keys it by everything else it
        depends on, and keeps it immutable, since every later caller
        shares it."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def normal_form(self, p: Polynomial) -> Polynomial:
        # checked here too: the zero ideal has no element to check against
        if p.context != self.context:
            raise ValueError("ring context mismatch")
        wide = max(self.packing, p.packing, key=lambda k: k.bits)
        return normal_form(p, self.elements, self.order, self.triples_at(wide))

    def monomial_remainder(self, m: int, packing: Packing) -> tuple[dict[int, int], int]:
        """Ints ``(r, den)``, ``r / den`` the remainder of the packed monomial m
        by the elements, r keyed by packed monomials; raises
        `PackingOverflow` when a product outgrows ``packing``."""
        triples, width = self.triples_at(packing), packing.width
        r, den = _divide_int({(triples.key(m) << width) + m: 1}, 1, triples, None)
        return {t & triples.low: c for t, c in r.items()}, den

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def lead_monomials(self) -> tuple[Exponents, ...]:
        """The elements' lead exponents, in the order of the elements."""
        return self.kept(("lead monomials",), lambda: tuple(
            map(self.packing.unpack, self.triples_at(self.packing).leads)))

    def is_homogeneous(self) -> bool:
        """Whether every element is homogeneous for the standard grading."""
        return self.kept(("homogeneous",),
                         lambda: all(g.is_homogeneous() for g in self.elements))

    def is_weight_homogeneous(self) -> bool:
        return all(g.is_weight_homogeneous() for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.elements)
        return f"GroebnerBasis([{inner}], order={self.order!r})"


def _s_polynomial(triples: DivisorTriples, i: int, j: int, base: int) -> dict[int, int]:
    """(lc_j / g) x^a tail_i - (lc_i / g) x^b tail_j, with g = gcd(lc_i, lc_j)
    and x^a = lcm / lead_i, x^b = lcm / lead_j: the coded integer terms of
    lcm(lc_i, lc_j) times the S-polynomial of the monic divisors i and j,
    the leads cancelled.  ``base`` is the lcm's code, and each tail step
    lands at ``base + step``, as in `_divide_int`; raises
    `PackingOverflow` when a product reaches a guard bit."""
    (_, lc_i, tail_i), (_, lc_j, tail_j) = triples[i], triples[j]
    g = gcd(lc_i, lc_j)
    s: dict[int, int] = {}
    seen = 0
    for (steps, coeffs), scale in ((tail_i, lc_j // g), (tail_j, -(lc_i // g))):
        for step, c in zip(steps, coeffs):
            t = base + step
            seen |= t
            acc = s.get(t, 0) + scale * c
            if acc:
                s[t] = acc
            else:
                del s[t]
    # a code's low bits are its monomial's, so the guard bits are read off them
    if seen & triples.packing.guard:
        raise PackingOverflow
    return s


def basis_syzygies(gb: GroebnerBasis, packing: Packing,
                   skip_coprime: bool = False) -> list[list[dict[int, int]]]:
    """The S-pair syzygy tau of each pair i < j of ``gb.elements``; by
    Schreyer's theorem they generate all relations among the elements.

    With ``skip_coprime``, pairs whose leads are coprime are left out,
    before any division, and the taus returned together with the Koszul
    relations K_ij = g_j e_i - g_i e_j still generate every relation.
    For a coprime pair, tau_ij - K_ij is a relation whose terms all lie
    strictly below lcm_ij = lead_i * lead_j in Schreyer's order.  The
    taus are a Groebner basis of the relations (Schreyer; Eisenbud,
    Commutative Algebra, Thm. 15.10), so tau_ij - K_ij is a combination
    of taus whose leads lie strictly below lcm_ij; by induction on the
    lcm, every coprime tau lies in the span of the other taus and the
    K's.  A caller that maps every K to zero, as a Hom solve into S/J
    with J containing the elements does, loses nothing by the skip.

    Each S-polynomial is built in ints by `_s_polynomial`, as in
    Buchberger, and divided over the denominator lcm(lc_i, lc_j) by
    `quotient_rows`, so the rows are the quotients of the S-polynomial
    of the reduced, hence monic, elements.  Each comes as den * tau, den
    the division's final denominator, one packed int dict per element:
    minus the rows off the leads, and +-den at lcm / lead_i and
    lcm / lead_j.  The elements must be homogeneous: every term of a
    pair's reduction then has the degree of its lcm, so the caller's
    ``packing`` holds the largest lcm degree."""
    G = gb.elements
    if not gb.is_homogeneous():
        raise ValueError("S-pair syzygies need a homogeneous basis")
    triples = gb.triples_at(packing)
    leads, lcm_of, key, width = triples.leads, packing.lcm, triples.key, packing.width
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))
             if not (skip_coprime and lcm_of(leads[i], leads[j]) == leads[i] + leads[j])]
    syzygies = []
    for i, j in pairs:
        m = lcm_of(leads[i], leads[j])
        found = quotient_rows(_s_polynomial(triples, i, j, (key(m) << width) + m), triples,
                              lcm(triples[i][1], triples[j][1]))
        if found is None:
            raise AssertionError("S-pair of a Groebner basis must reduce to zero")
        rows, den = found
        # the S-polynomial's terms lie below the lcm, so x^a is not in row i
        tau = [{t: -c for t, c in row.items()} for row in rows]
        tau[i][m - leads[i]] = den
        tau[j][m - leads[j]] = -den
        syzygies.append(tau)
    return syzygies


def reduced_groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX, *,
                           eliminate: Sequence[int] = ()) -> GroebnerBasis:
    """Buchberger with the normal selection strategy and both of
    Buchberger's pair-elimination criteria; result fully interreduced
    with monic leads, sorted by decreasing lead monomial.  The run holds
    every element as a primitive integer polynomial with a positive
    lead and reduces in ints (`_divide_int`); only the final basis is
    made monic, in Fractions.  The run starts at the generators' widest
    packing and starts over at a wider one whenever a product outgrows
    it.

    Interreduction takes the minimal elements in ascending lead order
    and divides each only by the elements before it, already
    interreduced: every tail term of an element lies below its lead,
    and a lead divides only monomials at or above it, so no larger lead
    ever divides one.  The least element is not divided, and an element
    that no division changes keeps its primitive form and divisor.

    ``eliminate`` (variable indices) asks for the reduced basis of
    I cap k[other variables] only; the order's first block must be
    exactly those variables, or `ValueError` is raised.  The minimal
    elements whose leads involve them are dropped before interreduction
    and before any conversion to Fractions.  This is exact: under such
    an order a term involving an eliminated variable lies above every
    term free of them, so a lead involves one exactly when its element
    does, and no such lead divides a term free of them; the elements
    left are interreduced among themselves alone, as in the full
    reduced basis (Cox, Little & O'Shea, Ch. 3, Sec. 1)."""
    if eliminate and (not isinstance(order, BlockOrder)
                      or set(order.groups[0]) != set(eliminate)):
        raise ValueError(f"eliminating {sorted(set(eliminate))} needs an order whose "
                         f"first block is exactly those variables, not {order!r}")
    if not gens:
        raise ValueError("cannot infer a ring context from an empty generator list")
    context = gens[0].context
    for g in gens:
        if g.context != context:
            raise ValueError("ring context mismatch")
    return _reduced(context, gens, order, eliminate, _buchberger)


def interreduced_basis(basis: Sequence[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """The reduced basis of the ideal generated by ``basis``, a nonempty
    list that is already a Groebner basis under ``order``: one
    interreduction (`_interreduced`) and no S-pairs.  Every lead of the
    ideal is then divisible by a lead of the list, so the minimal leads
    and the interreduced tails are those of the unique reduced basis."""
    return _reduced(basis[0].context, basis, order, (), _as_divisors)


def _reduced(context: RingContext, gens: Sequence[Polynomial], order: MonomialOrder,
             eliminate: Sequence[int], basis_of) -> GroebnerBasis:
    """`_interreduced` of ``basis_of(gens, order, packing)``, a
    Groebner basis of the nonzero gens as packed primitive integer terms
    with their divisor triples, at the gens' widest packing and again at
    a wider one whenever a product outgrows it."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return GroebnerBasis(context, order, ())
    packing = _widest(nonzero, context)
    while True:
        try:
            G, triples = basis_of(nonzero, order, packing)
            return _interreduced(context, order, G, triples, eliminate)
        except PackingOverflow:
            packing = context.packing(packing.limit + 1)


def _as_divisors(gens: Sequence[Polynomial], order: MonomialOrder,
                 packing: Packing) -> tuple[list[dict[int, int]], DivisorTriples]:
    """The nonzero ``gens`` as coded primitive integer terms with positive
    leads and their divisor triples, as `_buchberger` starts and returns
    its basis and `divisor_triples` hands them to a division."""
    key, G, triples = packing.key(order), [], []
    for g in gens:
        ints, triple = _divisor(_coded(g, packing, key)[0])
        G.append(ints)
        triples.append(triple)
    return G, DivisorTriples(triples, packing, key)


def _buchberger(gens: list[Polynomial], order: MonomialOrder,
                packing: Packing) -> tuple[list[dict[int, int]], DivisorTriples]:
    """A Groebner basis of nonzero ``gens`` at one packing, as coded
    primitive integer terms with positive leads and their divisor
    triples; raises `PackingOverflow` when a product outgrows the
    packing."""
    G, triples = _as_divisors(gens, order, packing)
    key, degree, guard, width = triples.key, packing.degree, packing.guard, packing.width
    low = triples.low
    # the open pairs, as a set for the chain criterion and as a heap of
    # (lcm degree, lcm code, i, j) for selection, which orders them as the
    # lcm's order key would; a pair leaves both only when popped, so they
    # always hold the same pairs
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def pair_with_earlier(new: int) -> None:
        lead = triples.leads[new]
        for k in range(new):
            lcm = packing.lcm(triples.leads[k], lead)
            heappush(queue, (degree(lcm), (key(lcm) << width) + lcm, k, new))
            pairs.add((k, new))

    for new in range(len(G)):
        pair_with_earlier(new)

    while queue:
        _, base, i, j = heappop(queue)
        pairs.discard((i, j))
        leads = triples.leads
        lcm = base & low
        if lcm == leads[i] + leads[j]:
            continue  # coprime leads reduce to zero
        chain = False
        for k in range(len(G)):
            if k in (i, j) or (lcm - leads[k]) & guard:
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                chain = True
                break
        if chain:
            continue
        r, _ = _divide_int(_s_polynomial(triples, i, j, base), 1, triples, None)
        if r:
            ints, triple = _divisor(r)
            G.append(ints)
            triples = DivisorTriples(triples + (triple,), packing, key)
            pair_with_earlier(len(G) - 1)
    return G, triples


def _interreduced(context: RingContext, order: MonomialOrder, G: list[dict[int, int]],
                  triples: DivisorTriples, eliminate: Sequence[int]) -> GroebnerBasis:
    """The reduced basis from `_buchberger`'s ``G``, without the elements
    whose leads involve the ``eliminate`` variables; see
    `reduced_groebner_basis`.  Raises `PackingOverflow` when a product
    outgrows the packing."""
    packing, key, leads, guard = triples.packing, triples.key, triples.leads, triples.packing.guard
    # minimal generating set of the lead ideal, ascending by lead code
    kept: list[int] = []
    for k in sorted(range(len(G)), key=triples.codes.__getitem__):
        if all((leads[k] - leads[t]) & guard for t in kept):
            kept.append(k)
    fields = sum(packing.limit << (i * packing.bits) for i in eliminate)
    kept = [k for k in kept if not leads[k] & fields]

    # interreduce tails against the smaller leads; leads are pairwise
    # indivisible so they survive
    final = [G[k] for k in kept]
    final_triples = [triples[k] for k in kept]
    for idx in range(1, len(final)):
        smaller = DivisorTriples(final_triples[:idx], packing, key)
        r, _ = _divide_int(final[idx], 1, smaller, None)
        if r != final[idx]:
            final[idx], final_triples[idx] = _divisor(r)

    # kept is ascending in lead order and interreduction keeps the leads,
    # so reversing sorts the basis by decreasing lead monomial
    low = triples.low
    return GroebnerBasis(context, order, [Polynomial.from_packed(context, packing,
                                                                 _fractions(ints, t[1], low))
                                          for ints, t in zip(final[::-1], final_triples[::-1])])


def syzygy_columns(gens: Sequence[Polynomial]) -> list[list[Polynomial]]:
    """Generating relations among ``gens``, one column per list entry.

    In S[y_1..y_m, z], the ideal J = (y_k - z*f_k) is the kernel of
    y_k -> z*f_k into S[z], and it is homogeneous in (y, z).  Its reduced
    basis under an order eliminating z is therefore (y, z)-homogeneous;
    only its elements free of z are finished (``eliminate``), and those
    linear in y, sum(c_k * y_k), are
    columns c with sum(c_k * f_k) == 0 that generate the module of
    relations.  They need not be a minimal generating set: of the 12
    columns for the five orbit quadrics, the five linear ones already
    generate the other seven.  A zero generator f_k puts y_k itself in
    J, so it gets the unit column e_k.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("syzygies need at least one generator")
    context = gens[0].context
    if any(g.context != context for g in gens):
        raise ValueError("ring context mismatch")
    n, m = context.nvars, len(gens)
    tagged = context
    for _ in range(m + 1):
        tagged = tagged.extended(tagged.fresh_name("y"))
    *y, z = tagged.gens()[n:]
    relations = [y_k - z * f.moved(tagged, range(n)) for y_k, f in zip(y, gens)]
    last = (n + m,)
    gb = reduced_groebner_basis(relations, elimination_order(n + m + 1, last), eliminate=last)

    columns = []
    for g in gb:
        terms = g.terms
        # g is free of z and (y, z)-homogeneous, so any one term gives its y-degree
        if sum(next(iter(terms))[n:]) != 1:
            continue
        column = [{} for _ in gens]
        for e, c in terms.items():
            column[e.index(1, n) - n][e[:n]] = c
        columns.append([Polynomial(context, t) for t in column])
    return columns


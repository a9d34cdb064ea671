"""Buchberger engine, S-pair syzygies, and syzygies of generators.

Everything here is deterministic: pairs come from a heap ordered by
(lcm degree, lcm order key, index pair), each entry built once when its
pair is formed, the reducer is always the first basis element in list
order whose lead divides the target term, and the final basis is the
unique reduced Groebner basis sorted by decreasing lead monomial.

Division, pair selection and interreduction run on packed monomials
(`polyring.Packing`): a product is an integer sum, divisibility one mask
test, and an order key one int, the key of a product being the sum of
the keys.  A product that outgrows its packing restarts the division,
or the Buchberger run, at a wider one, so no field ever wraps.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Sequence

from .polyring import (
    GREVLEX,
    Exponents,
    MonomialOrder,
    Packing,
    PackingOverflow,
    Polynomial,
    RingContext,
    elimination_order,
)

ONE = Fraction(1)

Triple = tuple  # (lead, lc, (steps, coefficients)) of one divisor; see `divisor_triples`


class DivisorTriples(tuple):
    """The `Triple` of each divisor of a list, all under ``packing``, the
    order's ``key`` on that packing, and the packed leads."""

    def __new__(cls, triples, packing: Packing, key: Callable[[int], int]):
        self = super().__new__(cls, triples)
        self.packing = packing
        self.key = key
        self.leads = [lead for lead, _, _ in self]
        return self


def _widest(polys: Sequence[Polynomial], context: RingContext) -> Packing:
    packing = context.packing()
    for p in polys:
        if p.packing.bits > packing.bits:
            packing = p.packing
    return packing


def _triple(packed: dict[int, Fraction], keys: dict[int, int], width: int,
            lead: int | None = None) -> Triple:
    """(lead, lc, tail) of one polynomial from its packed terms and their
    order keys; the lead is the largest key unless given."""
    if lead is None:
        lead = max(keys, key=keys.get)
    top = keys[lead]
    tail = [(((keys[m] - top) << width) + m - lead, c) for m, c in packed.items() if m != lead]
    return lead, packed[lead], (tuple(s for s, _ in tail), tuple(c for _, c in tail))


def divisor_triples(divisors: Sequence[Polynomial], order: MonomialOrder,
                    packing: Packing | None = None) -> DivisorTriples:
    """The ``(lead, lc, tail)`` triple of each divisor, as `normal_form`
    reads them, under ``packing`` (by default the widest of the
    divisors'): the packed lead monomial, its coefficient, and the tail:
    for every other term ``c * x^e`` its coefficient c and its step
    ``((key(e) - key(lead)) << width) + e - lead``, with e packed and key
    the order's int key.  A step added to ``(key(m) << width) + m`` for
    a monomial m that the lead divides gives the same code for the
    product of m / lead and x^e.  The divisors must share one ring
    context; an empty list needs the packing."""
    if packing is None:
        packing = _widest(divisors, divisors[0].context)
    key = packing.key(order)
    triples = []
    for d in divisors:
        if d.context != divisors[0].context:
            raise ValueError("ring context mismatch")
        if d.is_zero():
            raise ValueError("zero divisor in normal form")
        packed = d.repacked(packing).packed
        triples.append(_triple(packed, {m: key(m) for m in packed}, packing.width))
    return DivisorTriples(triples, packing, key)


def normal_form(p: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                with_quotients: bool = False, triples: DivisorTriples | None = None):
    """Full remainder of p on division by the list of divisors.

    Reduces the largest reducible term by the first divisor in list
    order whose lead divides it, until no term is reducible.  With
    ``with_quotients`` returns ``(r, quotients)`` satisfying
    ``p == sum(q_i * divisors_i) + r`` exactly.  ``triples``, when
    given, are the divisors' `divisor_triples` under ``order``, held by
    a caller that divides by the same list many times.  The results are
    packed like the triples, or wider when a product outgrows them.
    """
    if divisors and divisors[0].context != p.context:
        raise ValueError("ring context mismatch")
    if triples is None or triples.packing.bits < p.packing.bits:
        triples = divisor_triples(divisors, order, _widest([p, *divisors], p.context))
    packing = triples.packing
    while True:
        quotients = [{} for _ in divisors] if with_quotients else None
        try:
            remainder = _divide(p.repacked(packing).packed, triples, quotients)
            break
        except PackingOverflow:
            packing = p.context.packing(packing.limit + 1)
            triples = divisor_triples(divisors, order, packing)

    r = Polynomial.from_packed(p.context, packing, remainder)
    if quotients is None:
        return r
    return r, [Polynomial.from_packed(p.context, packing, q) for q in quotients]


def _divide(work: dict[int, Fraction], triples: DivisorTriples,
            quotients: list[dict[int, Fraction]] | None) -> dict[int, Fraction]:
    """The remainder's packed terms, largest first; fills ``quotients``
    when given.  Raises `PackingOverflow` when a product reaches a guard bit."""
    work = dict(work)
    remainder: dict[int, Fraction] = {}
    key, leads = triples.key, triples.leads
    guard, width = triples.packing.guard, triples.packing.width
    low = (1 << width) - 1
    # the codes (key(m) << width) + m, ascending; pop() takes the largest.
    # Order keys are injective, so codes sort by key, and m = code & low.
    agenda = sorted((key(m) << width) + m for m in work)
    while agenda:
        code = agenda.pop()
        m = code & low
        c = work.pop(m, None)
        if c is None:
            continue
        for hit, lead in enumerate(leads):
            if not (m - lead) & guard:
                break
        else:
            remainder[m] = c
            continue
        _, lc, (steps, coeffs) = triples[hit]
        factor = c if lc == 1 else c / lc
        if quotients is not None:
            q = quotients[hit]
            shift = m - lead
            acc = q.get(shift, 0) + factor
            if acc:
                q[shift] = acc
            else:
                q.pop(shift, None)
        # the lead term cancels m itself; the tail lands at m + (e - lead)
        for step, ce in zip(steps, coeffs):
            new = code + step
            t = new & low
            if t & guard:
                raise PackingOverflow
            acc = work.get(t, 0) - factor * ce
            if acc:
                if t not in work:
                    insort(agenda, new)
                work[t] = acc
            else:
                del work[t]
    return remainder


class GroebnerBasis:
    """Reduced basis and its order.

    ``triples`` holds each element's ``(lead, lc, tail)``, built on first
    use, so that dividing by the basis never recomputes a lead term; the
    elements and the triples share one ``packing``.
    """

    __slots__ = ("context", "order", "elements", "packing", "_triples")

    def __init__(self, context: RingContext, order: MonomialOrder,
                 elements: Sequence[Polynomial]):
        packing = _widest(elements, context)
        self.context = context
        self.order = order
        self.elements = tuple(g.repacked(packing) for g in elements)
        self.packing = packing
        self._triples = None

    @property
    def triples(self) -> DivisorTriples:
        if self._triples is None:
            self._triples = divisor_triples(self.elements, self.order, self.packing)
        return self._triples

    def normal_form(self, p: Polynomial, with_quotients: bool = False):
        # checked here too: the zero ideal has no element to check against
        if p.context != self.context:
            raise ValueError("ring context mismatch")
        return normal_form(p, self.elements, self.order, with_quotients, self.triples)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def lead_monomials(self) -> list[Exponents]:
        return [self.packing.unpack(lead) for lead, _, _ in self.triples]

    def is_weight_homogeneous(self) -> bool:
        return all(g.is_weight_homogeneous() for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.elements)
        return f"GroebnerBasis([{inner}], order={self.order!r})"


def _s_pair(G: Sequence[Polynomial], triples: DivisorTriples, i: int, j: int,
            order: MonomialOrder, with_syzygy: bool):
    """Remainder r of the S-pair x^mi G[i] - x^mj G[j] by G, whose divisor
    triples are given, and, with ``with_syzygy``, the list
    tau = x^mi e_i - x^mj e_j - q, where q are the reduction's quotients,
    so that ``sum(tau[t] * G[t]) == r``; when r is zero, tau is a syzygy of G."""
    packing, context = triples.packing, G[i].context
    lead_i, lead_j = triples[i][0], triples[j][0]
    lcm = packing.lcm(lead_i, lead_j)
    xi = Polynomial.from_packed(context, packing, {lcm - lead_i: ONE})
    xj = Polynomial.from_packed(context, packing, {lcm - lead_j: ONE})
    s = G[i] * xi - G[j] * xj
    if not with_syzygy:
        return normal_form(s, G, order, False, triples), None
    r, q = normal_form(s, G, order, True, triples)
    tau = [-qt for qt in q]
    tau[i] = tau[i] + xi
    tau[j] = tau[j] - xj
    return r, tau


def basis_syzygies(gb: GroebnerBasis, skip_coprime: bool = False) -> list[list[Polynomial]]:
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
    with J containing the elements does, loses nothing by the skip."""
    G, triples = gb.elements, gb.triples
    leads, lcm = triples.leads, triples.packing.lcm
    syzygies = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if skip_coprime and lcm(leads[i], leads[j]) == leads[i] + leads[j]:
                continue
            r, tau = _s_pair(G, triples, i, j, gb.order, True)
            if not r.is_zero():
                raise AssertionError("S-pair of a Groebner basis must reduce to zero")
            syzygies.append(tau)
    return syzygies


def reduced_groebner_basis(gens: Sequence[Polynomial],
                           order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Buchberger with the normal selection strategy and both of
    Buchberger's pair-elimination criteria; result fully interreduced
    with monic leads, sorted by decreasing lead monomial.  The run starts
    at the generators' widest packing and starts over at a wider one
    whenever a remainder outgrows it."""
    if not gens:
        raise ValueError("cannot infer a ring context from an empty generator list")
    context = gens[0].context
    for g in gens:
        if g.context != context:
            raise ValueError("ring context mismatch")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return GroebnerBasis(context, order, ())
    packing = _widest(nonzero, context)
    while True:
        try:
            return _buchberger(context, nonzero, order, packing)
        except PackingOverflow:
            packing = context.packing(packing.limit + 1)


def _buchberger(context: RingContext, gens: list[Polynomial], order: MonomialOrder,
                packing: Packing) -> GroebnerBasis:
    """`reduced_groebner_basis` of nonzero ``gens`` at one packing; raises
    `PackingOverflow` when a remainder comes back wider."""
    key, degree, guard = packing.key(order), packing.degree, packing.guard
    G: list[Polynomial] = []
    leads: list[int] = []
    lead_keys: list[int] = []
    triples = DivisorTriples((), packing, key)   # divisor triples of G
    # the open pairs, as a set for the chain criterion and as a heap of
    # (lcm degree, lcm order key, i, j) for selection; a pair leaves both
    # only when popped, so they always hold the same pairs
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def add_element(g: Polynomial) -> None:
        nonlocal triples
        if g.packing.bits != packing.bits:
            raise PackingOverflow
        keys = {m: key(m) for m in g.packed}
        lead = max(keys, key=keys.get)
        new = len(G)
        monic = g / g.packed[lead]
        G.append(monic)
        leads.append(lead)
        lead_keys.append(keys[lead])
        triples = DivisorTriples(triples + (_triple(monic.packed, keys, packing.width, lead),),
                                 packing, key)
        for k in range(new):
            lcm = packing.lcm(leads[k], lead)
            heappush(queue, (degree(lcm), key(lcm), k, new))
            pairs.add((k, new))

    for g in gens:
        add_element(g.repacked(packing))

    while queue:
        _, _, i, j = heappop(queue)
        pairs.discard((i, j))
        lcm = packing.lcm(leads[i], leads[j])
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
        r, _ = _s_pair(G, triples, i, j, order, False)
        if not r.is_zero():
            add_element(r)

    # minimal generating set of the lead ideal
    by_lead = sorted(range(len(G)), key=lead_keys.__getitem__)
    kept: list[int] = []
    for k in by_lead:
        if all((leads[k] - leads[t]) & guard for t in kept):
            kept.append(k)

    # interreduce tails; leads are pairwise indivisible so they survive,
    # and so does each lead coefficient
    final = [G[k] for k in kept]
    final_triples = [triples[k] for k in kept]
    for idx in range(len(final)):
        others = final[:idx] + final[idx + 1:]
        other_triples = DivisorTriples(final_triples[:idx] + final_triples[idx + 1:], packing, key)
        final[idx] = normal_form(final[idx], others, order, False, other_triples)
        if final[idx].packing.bits != packing.bits:
            raise PackingOverflow
        lead = final_triples[idx][0]
        final_triples[idx] = _triple(final[idx].packed, {m: key(m) for m in final[idx].packed},
                                     packing.width, lead)

    # kept is ascending in lead order and interreduction keeps the leads,
    # so reversing sorts the basis by decreasing lead monomial
    return GroebnerBasis(context, order, final[::-1])


def syzygy_columns(gens: Sequence[Polynomial]) -> list[list[Polynomial]]:
    """Generating relations among ``gens``, one column per list entry.

    In S[y_1..y_m, z], the ideal J = (y_k - z*f_k) is the kernel of
    y_k -> z*f_k into S[z], and it is homogeneous in (y, z).  Its reduced
    basis under an order eliminating z is therefore (y, z)-homogeneous,
    and its elements free of z and linear in y, sum(c_k * y_k), are
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
    width = n + m + 1
    relations = []
    for k, f in enumerate(gens):
        tag = [0] * width
        tag[n + k] = 1
        terms = {e + (0,) * m + (1,): -c for e, c in f.terms.items()}
        terms[tuple(tag)] = ONE
        relations.append(Polynomial(tagged, terms))
    gb = reduced_groebner_basis(relations, elimination_order(width, (n + m,)))

    columns = []
    for g in gb:
        terms = g.terms
        # g is (y, z)-homogeneous, so any one term gives its y-degree
        if any(e[-1] for e in terms) or sum(next(iter(terms))[n:]) != 1:
            continue
        column = [{} for _ in gens]
        for e, c in terms.items():
            column[e.index(1, n) - n][e[:n]] = c
        columns.append([Polynomial(context, t) for t in column])
    return columns


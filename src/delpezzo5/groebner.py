"""Buchberger engine with cofactor tracking and Schreyer syzygies.

Everything here is deterministic: pairs come from a heap ordered by
(lcm degree, lcm order key, index pair), each entry built once when its
pair is formed, the reducer is always the first basis element in list
order whose lead divides the target term, and the final basis is the
unique reduced Groebner basis sorted by decreasing lead monomial.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from .polyring import (
    GREVLEX,
    Exponents,
    MonomialOrder,
    Polynomial,
    RingContext,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


Triple = tuple  # (lead monomial, lead coefficient, terms) of one divisor


def divisor_triples(divisors: Sequence[Polynomial], order: MonomialOrder) -> list[Triple]:
    """The ``(lead, lc, terms)`` triple of each divisor, as `normal_form` reads them."""
    triples = []
    for d in divisors:
        if d.is_zero():
            raise ValueError("zero divisor in normal form")
        triples.append(d.lead_term(order) + (d.terms,))
    return triples


def normal_form(p: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                with_quotients: bool = False, triples: Sequence[Triple] | None = None):
    """Full remainder of p on division by the list of divisors.

    Reduces the largest reducible term by the first divisor in list
    order whose lead divides it, until no term is reducible.  With
    ``with_quotients`` returns ``(r, quotients)`` satisfying
    ``p == sum(q_i * divisors_i) + r`` exactly.  ``triples``, when
    given, are the divisors' `divisor_triples` under ``order``, held by
    a caller that divides by the same list many times.
    """
    for d in divisors:
        if d.context != p.context:
            raise ValueError("ring context mismatch")
    divs = divisor_triples(divisors, order) if triples is None else triples
    key = order.key
    work = dict(p.terms)
    remainder: dict[Exponents, Fraction] = {}
    quotients: list[dict[Exponents, Fraction]] | None = None
    if with_quotients:
        quotients = [{} for _ in divisors]

    # (order key, monomial), ascending; pop() takes the largest.  Order keys
    # are injective, so the monomial never decides a comparison.
    agenda = sorted((key(m), m) for m in work)
    while agenda:
        _, m = agenda.pop()
        c = work.get(m)
        if not c:
            continue
        hit = -1
        for j, (lm, _, _) in enumerate(divs):
            if mono_divides(lm, m):
                hit = j
                break
        if hit < 0:
            remainder[m] = c
            del work[m]
            continue
        lm, lc, dterms = divs[hit]
        shift = mono_div(m, lm)
        factor = c / lc
        if quotients is not None:
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
                    insort(agenda, (key(t), t))
                work[t] = acc
            else:
                work.pop(t, None)

    r = Polynomial(p.context, remainder)
    if quotients is None:
        return r
    qpolys = [Polynomial(p.context, q) for q in quotients]
    return r, qpolys


class GroebnerBasis:
    """Reduced basis, its order, and optional cofactor bookkeeping.

    ``cofactors[i]`` expresses ``elements[i]`` as a combination of the
    input generators: ``elements[i] == sum(cofactors[i][k] * input_gens[k])``.
    ``triples`` holds each element's ``(lead, lc, terms)``, so that
    dividing by the basis never recomputes a lead term.
    """

    __slots__ = ("context", "order", "elements", "input_gens", "cofactors", "triples")

    def __init__(self, context: RingContext, order: MonomialOrder,
                 elements: Sequence[Polynomial], input_gens: Sequence[Polynomial],
                 cofactors=None, triples: Sequence[Triple] | None = None):
        self.context = context
        self.order = order
        self.elements = tuple(elements)
        self.input_gens = tuple(input_gens)
        self.cofactors = None if cofactors is None else tuple(tuple(r) for r in cofactors)
        self.triples = tuple(divisor_triples(self.elements, order) if triples is None
                             else triples)

    def normal_form(self, p: Polynomial, with_quotients: bool = False):
        return normal_form(p, self.elements, self.order, with_quotients, self.triples)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def express(self, p: Polynomial) -> list[Polynomial]:
        """Coefficients c with ``p == sum(c[k] * input_gens[k])``, for p
        in the ideal; needs a basis computed with cofactor tracking."""
        if self.cofactors is None:
            raise ValueError("expressing needs a basis computed with cofactor tracking")
        r, q = self.normal_form(p, with_quotients=True)
        if not r.is_zero():
            raise ValueError("polynomial is not in the ideal")
        start = [self.context.zero()] * len(self.input_gens)
        return _lift(start, [-qt for qt in q], self.cofactors)

    def lead_monomials(self) -> list[Exponents]:
        return [lead for lead, _, _ in self.triples]

    def is_weight_homogeneous(self) -> bool:
        return all(g.is_weight_homogeneous() for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.elements)
        return f"GroebnerBasis([{inner}], order={self.order!r})"


def _s_pair(G: Sequence[Polynomial], triples: Sequence[Triple], i: int, j: int,
            order: MonomialOrder, track: bool):
    """Remainder of the S-pair x^mi G[i] - x^mj G[j] by G, whose divisor
    triples are given, and, with ``track``, the map from cofactor rows
    aligned with G to the remainder's row."""
    lead_i, lead_j = triples[i][0], triples[j][0]
    lcm = mono_lcm(lead_i, lead_j)
    mi = mono_div(lcm, lead_i)
    mj = mono_div(lcm, lead_j)
    s = G[i].term_multiple(mi, Fraction(1)) - G[j].term_multiple(mj, Fraction(1))
    if not track:
        return normal_form(s, G, order, False, triples), None
    r, q = normal_form(s, G, order, True, triples)

    def lift(rows):
        row = [a.term_multiple(mi, Fraction(1)) - b.term_multiple(mj, Fraction(1))
               for a, b in zip(rows[i], rows[j])]
        return _lift(row, q, rows)

    return r, lift


def _unit_row(context: RingContext, n: int, k: int) -> list[Polynomial]:
    """The cofactor row e_k of length n."""
    row = [context.zero()] * n
    row[k] = context.one()
    return row


def _lift(row: list[Polynomial], quotients: Sequence[Polynomial], rows) -> list[Polynomial]:
    """row - sum(quotients[t] * rows[t]): the cofactor row of the remainder
    of p == sum(quotients[t] * divisors[t]) + r, from the rows of p and the divisors."""
    for qt, other in zip(quotients, rows):
        if not qt.is_zero():
            row = [a - qt * b for a, b in zip(row, other)]
    return row


def reduced_groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                           track_cofactors: bool = False) -> GroebnerBasis:
    """Buchberger with the normal selection strategy and both of
    Buchberger's pair-elimination criteria; result fully interreduced
    with monic leads, sorted by decreasing lead monomial."""
    gens = list(gens)
    context = gens[0].context if gens else None
    for g in gens:
        if context is not None and g.context != context:
            raise ValueError("ring context mismatch")
    nonzero = [(k, g) for k, g in enumerate(gens) if not g.is_zero()]
    if context is None or not nonzero:
        if context is None:
            raise ValueError("cannot infer a ring context from an empty generator list")
        return GroebnerBasis(context, order, (), gens, () if track_cofactors else None)

    G: list[Polynomial] = []
    leads: list[Exponents] = []
    triples: list[Triple] = []        # divisor triples of G
    rows: list[list[Polynomial]] = []  # aligned with G when tracking
    # the open pairs, as a set for the chain criterion and as a heap of
    # (lcm degree, lcm order key, i, j) for selection; a pair leaves both
    # only when popped, so they always hold the same pairs
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def add_element(g: Polynomial, row) -> None:
        lead, lc = g.lead_term(order)
        new = len(G)
        monic = g / lc
        G.append(monic)
        leads.append(lead)
        triples.append((lead, monic.terms[lead], monic.terms))
        if track_cofactors:
            rows.append([a / lc for a in row])
        for k in range(new):
            lcm = mono_lcm(leads[k], lead)
            heappush(queue, (mono_degree(lcm), order.key(lcm), k, new))
            pairs.add((k, new))

    for k, g in nonzero:
        add_element(g, _unit_row(context, len(gens), k) if track_cofactors else None)

    while queue:
        _, _, i, j = heappop(queue)
        pairs.discard((i, j))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            continue  # coprime leads reduce to zero
        chain = False
        for k in range(len(G)):
            if k in (i, j) or not mono_divides(leads[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                chain = True
                break
        if chain:
            continue
        r, lift = _s_pair(G, triples, i, j, order, track_cofactors)
        if not r.is_zero():
            add_element(r, lift(rows) if track_cofactors else None)

    # minimal generating set of the lead ideal
    by_lead = sorted(range(len(G)), key=lambda k: order.key(leads[k]))
    kept: list[int] = []
    for k in by_lead:
        if not any(mono_divides(leads[t], leads[k]) for t in kept):
            kept.append(k)

    # interreduce tails; leads are pairwise indivisible so they survive,
    # and so does each lead coefficient
    final = [G[k] for k in kept]
    final_triples = [triples[k] for k in kept]
    final_rows = [list(rows[k]) for k in kept] if track_cofactors else None
    for idx in range(len(final)):
        others = final[:idx] + final[idx + 1:]
        other_triples = final_triples[:idx] + final_triples[idx + 1:]
        if track_cofactors:
            final[idx], q = normal_form(final[idx], others, order, True, other_triples)
            final_rows[idx] = _lift(final_rows[idx], q, final_rows[:idx] + final_rows[idx + 1:])
        else:
            final[idx] = normal_form(final[idx], others, order, False, other_triples)
        lead, lc, _ = final_triples[idx]
        final_triples[idx] = (lead, lc, final[idx].terms)

    # kept is ascending in lead order and interreduction keeps the leads,
    # so reversing sorts the basis by decreasing lead monomial
    elements = final[::-1]
    cof = final_rows[::-1] if track_cofactors else None
    return GroebnerBasis(context, order, elements, gens, cof, final_triples[::-1])


class SyzygyBasis:
    """Generating set for the module of relations among ``gens``.

    Each column c satisfies ``sum(c[k] * gens[k]) == 0``; by Schreyer's
    construction the columns generate every relation.
    """

    __slots__ = ("gens", "columns")

    def __init__(self, gens: Sequence[Polynomial], columns):
        self.gens = tuple(gens)
        self.columns = tuple(tuple(col) for col in columns)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)


def syzygy_columns(gb: GroebnerBasis) -> list[list[Polynomial]]:
    """Schreyer syzygies of ``gb.input_gens``, one relation per list entry.

    Lifts every S-pair reduction of the basis through the cofactor
    matrix, then adds the columns e_i - sum_j B[i][j] A[j] accounting
    for the generators' own reductions.  A zero input generator yields
    the trivial relation e_i, which any generating set of relations
    must contain.
    """
    if gb.cofactors is None:
        raise ValueError("syzygies need a basis computed with cofactor tracking")
    gens = gb.input_gens
    order = gb.order
    G = gb.elements
    A = gb.cofactors

    columns: list[list[Polynomial]] = []

    def push(col: list[Polynomial]) -> None:
        if any(not c.is_zero() for c in col):
            columns.append(col)

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            r, lift = _s_pair(G, gb.triples, i, j, order, True)
            if not r.is_zero():
                raise AssertionError("S-pair of a Groebner basis must reduce to zero")
            # tau = x^mi e_i - x^mj e_j - q, a syzygy of G; push tau * A
            push(lift(A))

    for i, g in enumerate(gens):
        unit = _unit_row(gb.context, len(gens), i)
        if g.is_zero():
            push(unit)
            continue
        r, b = gb.normal_form(g, with_quotients=True)
        if not r.is_zero():
            raise AssertionError("generator must reduce to zero against its own basis")
        push(_lift(unit, b, A))

    return columns


def syzygy_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> SyzygyBasis:
    """Generating relations among nonzero generators."""
    gens = list(gens)
    if not gens:
        raise ValueError("syzygies need at least one generator")
    for g in gens:
        if g.is_zero():
            raise ValueError("syzygies require nonzero generators")
    gb = reduced_groebner_basis(gens, order, track_cofactors=True)
    return SyzygyBasis(gens, syzygy_columns(gb))

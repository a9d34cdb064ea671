"""Hilbert functions, series numerators, and Hilbert polynomials.

All three are computed independently enough to cross-check each other:
the Hilbert function counts standard monomials under a Groebner basis,
the direct variant row-reduces generator multiples without any Groebner
step, and the Hilbert polynomial is sum_k Q_k binom(m - k + r - 1, r - 1)
for the lead ideal's series Q(t)/(1-t)^r, Q(1) != 0.  For a homogeneous
ideal they agree in every sufficiently large degree, and the tests insist
on it.  The Groebner routes read the grevlex basis: S/I and S/in(I) have
the same Hilbert function under every order (Macaulay), so no other is offered.

The direct variant builds no row s*g_j whose shift s is divisible by
the lead of an earlier generator g_i (the F5 criterion, Faugere 2002):
with s = t*lead(g_i), such a row is t*g_j times g_i, a combination of
rows of g_i, minus rows of g_j whose shifts lie beyond s, so it adds
nothing to the rank.

Both Hilbert functions read their monomials of one degree, packed, from
one table per process (`packed_degree_monomials`), keyed by (variables,
field width, degree): the standard-monomial count its candidates, the
direct variant its shifts.  The table keeps lists while all of them
together hold at most `_TABLE_LIMIT` ints, dropping the oldest first, so
its memory is bounded however high the degrees a run asks for.

Serre's criterion reads the same (Q, r): S/I is Cohen-Macaulay when its
cut by r fixed linear forms is Artinian with Q_cut(1) = Q(1), and then
its sections by a regular sequence are saturated as they stand.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Iterator, Sequence

from .ideals import Ideal
from .linalg import SparseEchelon, integer_terms, primitive
from .polyring import (GREVLEX, Exponents, Packing, Polynomial, RingContext,
                       format_polynomial, mono_divides)


_M = RingContext(["m"])  # the ring of Hilbert polynomials, printed by `format_polynomial`


class HilbertPolynomial:
    """Polynomial in one variable m with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)  # ascending powers of m

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def __call__(self, m) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def variety_degree(self) -> int:
        """Degree of the projective scheme: (deg P)! times the lead coefficient."""
        if not self.coeffs:
            return 0
        value = self.coeffs[-1] * factorial(self.degree)
        if value.denominator != 1:
            raise AssertionError("lead coefficient times degree! must be an integer")
        return int(value)

    def curve_invariants(self) -> tuple[int, int]:
        """(degree, arithmetic genus) for a linear Hilbert polynomial d*m + (1-g)."""
        if self.degree != 1:
            raise ValueError("not the Hilbert polynomial of a curve")
        d = self.coeffs[1]
        c = self.coeffs[0] if self.coeffs else Fraction(0)
        if d.denominator != 1 or c.denominator != 1:
            raise AssertionError("curve Hilbert polynomial must have integer coefficients")
        return int(d), int(1 - c)

    def __eq__(self, other) -> bool:
        if isinstance(other, HilbertPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return format_polynomial(Polynomial(_M, {(k,): c for k, c in enumerate(self.coeffs)}))

    def __repr__(self) -> str:
        return f"HilbertPolynomial({self})"


# ---------------------------------------------------------------------------
# Hilbert functions

def degree_monomials(nvars: int, d: int) -> Iterator[Exponents]:
    """All exponent tuples of total degree d, lexicographically decreasing."""
    if d < 0:
        return
    e = [d] + [0] * (nvars - 1)
    while True:
        yield tuple(e)
        # the successor moves one unit from the last nonzero entry before
        # the final one to its right neighbour, which also takes the final
        # entry's units; entries between them are zero
        i = nvars - 2
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return
        rest = e[-1] + 1
        e[-1] = 0
        e[i] -= 1
        e[i + 1] = rest


# (variables, field width, degree) -> `packed_degree_monomials`; the lists
# kept hold at most _TABLE_LIMIT ints in all, about 0.3 MB at 8-bit fields
_DEGREE_TABLES: dict[tuple[int, int, int], tuple[int, ...]] = {}
_TABLE_LIMIT = 1 << 13


def packed_degree_monomials(packing: Packing, d: int) -> tuple[int, ...]:
    """The monomials of `degree_monomials` (packing.nvars, d), packed by
    ``packing``, in the same order; d must not exceed ``packing.limit``.

    Each list is built once and kept in one table per process while the
    lists kept hold at most `_TABLE_LIMIT` ints in all; keeping one drops
    the oldest until it fits, and a longer one is returned and not kept.
    A list of n variables is read off those of n - 1 at the same width:
    the first exponent a from d down, plus each monomial of degree d - a
    in the others, shifted one field up."""
    key = (packing.nvars, packing.bits, d)
    table = _DEGREE_TABLES.get(key)
    if table is not None:
        return table
    n, bits = packing.nvars, packing.bits
    if d < 0 or n == 0:
        table = (0,) if d == 0 else ()
    elif n == 1:
        table = (d,)
    else:
        rest = Packing.holding(n - 1, packing.limit)
        table = tuple(a + (r << bits) for a in range(d, -1, -1)
                      for r in packed_degree_monomials(rest, d - a))
    if len(table) <= _TABLE_LIMIT:
        size = sum(map(len, _DEGREE_TABLES.values()))
        while size + len(table) > _TABLE_LIMIT:
            size -= len(_DEGREE_TABLES.pop(next(iter(_DEGREE_TABLES))))
        _DEGREE_TABLES[key] = table
    return table


def _standard_packed(ideal: Ideal, d: int, top: int) -> tuple[list[int], list[int]]:
    """``(free, survivors)``: the variables that are not lead monomials,
    and the degree-d monomials in them outside the grevlex lead ideal,
    packed by their packing whose fields hold ``top`` (at least d), in
    the order of `degree_monomials`.

    A variable that is itself a lead monomial divides every monomial it
    occurs in, so only monomials in the other variables are candidates,
    read from `packed_degree_monomials`, and each is tested against the
    packed leads of degree at most d that involve none of the excluded
    variables."""
    n = ideal.context.nvars
    leads = ideal.groebner(GREVLEX).lead_monomials()
    excluded = {g.index(1) for g in leads if sum(g) == 1}
    free = [i for i in range(n) if i not in excluded]
    packing = Packing.holding(len(free), top)
    pack, guard = packing.pack, packing.guard
    live = [pack(tuple(g[i] for i in free)) for g in leads
            if sum(g) <= d and not any(g[i] for i in excluded)]
    survivors = [m for m in packed_degree_monomials(packing, d)
                 if all((m - g) & guard for g in live)]
    return free, survivors


def standard_monomials(ideal: Ideal, d: int) -> list[Exponents]:
    """Degree-d monomials not in the grevlex lead ideal: a basis of
    (S/I)_d, in the order of `degree_monomials`.  The candidates are
    the monomials in the variables that are not leads, read packed from
    the bounded table of `packed_degree_monomials`, and only the
    survivors are unpacked (see `_standard_packed`)."""
    packing = Packing.holding(ideal.context.nvars, d)
    return list(map(packing.unpack, packed_standard_monomials(ideal, d, packing)))


def packed_standard_monomials(ideal: Ideal, d: int, packing: Packing) -> list[int]:
    """The degree-d standard monomials packed by ``packing``, a packing of
    the ideal's ring whose fields hold d, in the order of
    `degree_monomials`; none below degree 0.  Each survivor of
    `_standard_packed` has its fields copied to its variables' fields of
    the same width."""
    if d < 0:
        return []
    free, survivors = _standard_packed(ideal, d, packing.limit)
    if len(free) == packing.nvars:
        return survivors
    bits, limit = packing.bits, packing.limit
    moves = [(k * bits, i * bits) for k, i in enumerate(free)]
    return [sum(((m >> s) & limit) << t for s, t in moves) for m in survivors]


def hilbert_function(ideal: Ideal, d: int) -> int:
    """dim_k (S/I)_d for homogeneous I: the packed survivors of
    `_standard_packed`, counted without unpacking them."""
    if d < 0:
        return 0
    if not ideal.is_homogeneous():
        raise ValueError("Hilbert function needs a homogeneous ideal")
    return len(_standard_packed(ideal, d, d)[1])


def hilbert_function_direct(ideal: Ideal, d: int) -> int:
    """Groebner-free oracle: dim S_d minus the rank of the degree-d
    multiples s*g_j of the generators, by sparse row reduction, with
    the rows that the F5 criterion (Faugere 2002) proves redundant
    never built: s*g_j is skipped when the lead of an earlier
    generator g_i divides the shift s.

    The lead is the least term of g_i as a packed int; packed monomials
    multiply by adding their ints without a carry, so a product keeps
    the order of its factors.  Write s = t*lead(g_i) and g_i = c*lead(g_i) +
    sum_u c_u*u; then c*s*g_j = (t*g_j)*g_i - sum_u c_u*(t*u)*g_j.  The
    first part is a combination of rows of g_i, and every t*u lies above
    s, so the second part is rows of g_j with larger shifts; induction
    on j, then downward on the shift, puts every skipped row in the
    span of the kept ones, and the rank is unchanged.  The shifts to
    skip are read once per generator, as the set of lead(g_i)*t over
    the earlier leads and every t of degree d - deg g_j - deg g_i.

    Each generator's degree and homogeneity are read in one pass over
    its terms, and an inhomogeneous one raises before any row is built.
    Each generator is scaled once to its primitive integer form
    (`linalg.primitive`, least term positive), which leaves the row
    space unchanged.  A column is a degree-d monomial packed at the
    ring's packing for degree d: no exponent exceeds d, so a shift
    times a term is the sum of their packed ints, and the shifts of
    each degree are read once per call from the table of
    `packed_degree_monomials` at that packing's width.

    A row s*g_j goes to the echelon through
    `SparseEchelon.add_primitive_row` at column s + least(g_j), which
    stores it in one write when no pivot has that column.  This is what
    `add_row` would store: the row is the primitive generator with every
    key shifted by s, so its entries keep their gcd 1 and its entry at
    the least key stays positive, and that least key is s + least(g_j),
    since adding s to every key keeps their order.  The echelon's
    pivots, their order and its rank are those of `add_row` fed the
    same rows."""
    if d < 0:
        return 0
    gens: list[tuple[Polynomial, int]] = []
    for g in ideal.gens:
        degrees = set(map(g.packing.degree, g.packed))
        if len(degrees) > 1:
            raise ValueError("Hilbert function needs homogeneous generators")
        if degrees:
            (gd,) = degrees
            if gd <= d:
                gens.append((g, gd))
    n = ideal.context.nvars
    packing = ideal.context.packing(d)
    tables: dict[int, tuple[int, ...]] = {}

    def monomials(k: int) -> tuple[int, ...]:
        if k not in tables:
            tables[k] = packed_degree_monomials(packing, k)
        return tables[k]

    leads: list[tuple[int, int]] = []  # (least term, degree) of each earlier generator
    ech = SparseEchelon()
    add = ech.add_primitive_row
    for g, gd in gens:
        terms, _ = integer_terms(g.repacked(packing).packed)
        least = min(terms)
        terms = primitive(terms, least)
        skips = {lead + t for lead, ld in leads if ld <= d - gd
                 for t in monomials(d - gd - ld)}
        for shift in monomials(d - gd):
            if shift not in skips:
                add({shift + m: c for m, c in terms.items()}, shift + least)
        leads.append((least, gd))
    return comb(d + n - 1, n - 1) - ech.rank


# ---------------------------------------------------------------------------
# Hilbert series numerator of the lead-monomial ideal

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return out


def _minimalize(monos: list[Exponents]) -> list[Exponents]:
    monos = sorted(set(monos), key=sum)
    kept: list[Exponents] = []
    for m in monos:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def _numerator(monos: tuple[Exponents, ...], nvars: int) -> list[int]:
    """Numerator of the Hilbert series of S/(monomial ideal), over the
    standard denominator (1-t)^nvars.

    Pivot recursion (Bigatti 1997): for a variable x and k >= 1,
    N(M) = N(M + (x^k)) + t^k * N(M : x^k), from the exact sequence
    0 -> (S/(M:x^k))(-k) -> S/M -> S/(M+(x^k)) -> 0.  x is the variable
    in most generators with another variable, and k the median of its
    exponents there, so the recursion depth does not grow with the
    exponents.
    """
    monos = _minimalize(list(monos))
    if not monos:
        return [1]
    if monos[0] == (0,) * nvars:
        return [0]
    counts = [0] * nvars
    mixed = []
    for m in monos:
        support = [i for i, e in enumerate(m) if e]
        if len(support) > 1:
            mixed.append(m)
            for i in support:
                counts[i] += 1
    if not mixed:
        # minimal pure powers are of distinct variables: a complete intersection
        acc = [1]
        for m in monos:
            acc = _poly_mul(acc, [1] + [0] * (sum(m) - 1) + [-1])
        return acc

    pivot = max(range(nvars), key=lambda i: counts[i])
    exps = sorted(m[pivot] for m in mixed if m[pivot])
    k = exps[len(exps) // 2]

    plus = [m for m in monos if m[pivot] < k] + [
        tuple(k if i == pivot else 0 for i in range(nvars))]
    colon = [tuple(max(e - k, 0) if i == pivot else e for i, e in enumerate(m)) for m in monos]
    n_plus = _numerator(tuple(plus), nvars)
    n_colon = _numerator(tuple(colon), nvars)
    return _poly_add(n_plus, [0] * k + n_colon)


def hilbert_series_numerator(ideal: Ideal) -> list[int]:
    """Integer coefficients N_0, N_1, ... with
    sum_d dim (S/I)_d t^d = N(t) / (1-t)^nvars, read from the grevlex
    lead ideal."""
    if not ideal.is_homogeneous():
        raise ValueError("Hilbert series needs a homogeneous ideal")
    leads = tuple(ideal.groebner(GREVLEX).lead_monomials())
    out = _numerator(leads, ideal.context.nvars)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _h_polynomial(ideal: Ideal) -> tuple[list[int], int]:
    """(Q, r) with HS(S/I) = Q(t)/(1-t)^r and Q(1) != 0: r is the Krull
    dimension and Q(1) the multiplicity (Bruns & Herzog 4.1); ([0], 0)
    for the unit ideal.  Read in R when some generators are bare variables
    (`Ideal.split_variables`: S/I and R/Ibar are isomorphic graded rings)."""
    split = ideal.split_variables()
    if split is not None:
        ideal = split[0]
    q, r = hilbert_series_numerator(ideal), ideal.context.nvars
    if q == [0]:
        return q, 0
    while sum(q) == 0:
        # N = (1-t) * Q for Q_k = N_0 + ... + N_k, whose last sum N(1) is 0
        q, r = list(accumulate(q))[:-1], r - 1
    return q, r


def _binomial_poly(shift: int, r: int) -> list[Fraction]:
    """binom(m + shift, r) expanded as a polynomial in m, ascending coeffs."""
    acc = [Fraction(1)]
    for i in range(r):
        # multiply by (m + shift - i)
        nxt = [Fraction(0)] * (len(acc) + 1)
        for k, c in enumerate(acc):
            nxt[k + 1] += c
            nxt[k] += c * (shift - i)
        acc = nxt
    inv = Fraction(1, factorial(r))
    return [c * inv for c in acc]


def hilbert_polynomial(ideal: Ideal) -> HilbertPolynomial:
    """Exact Hilbert polynomial of S/I from `_h_polynomial`'s (Q, r):
    P(m) = sum_k Q_k * binom(m - k + r - 1, r - 1), and 0 when r = 0."""
    return _from_h_polynomial(*_h_polynomial(ideal))


def _from_h_polynomial(q: list[int], r: int) -> HilbertPolynomial:
    coeffs = [Fraction(0)] * r
    for k, qk in enumerate(q if r else ()):
        for j, c in enumerate(_binomial_poly(r - 1 - k, r - 1)):
            coeffs[j] += qk * c
    return HilbertPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Cohen-Macaulay certificate and sections that need no saturation

class CohenMacaulayCertificate:
    """Whether Serre's multiplicity criterion proved S/I Cohen-Macaulay,
    with the Hilbert polynomial of S/I it was read from."""

    __slots__ = ("ideal", "hilbert", "proven")

    def __init__(self, ideal: Ideal, hilbert: HilbertPolynomial, proven: bool):
        self.ideal = ideal
        self.hilbert = hilbert
        self.proven = proven

    def section(self, forms: Sequence[Polynomial]) -> tuple[Ideal, HilbertPolynomial, bool]:
        """(saturation of J, HP(S/J), certified) for J = I + (forms).

        When the certificate is proven and the forms drop the degree of
        the Hilbert polynomial by their number, leaving it nonnegative,
        they are a regular sequence on S/I: S/J is Cohen-Macaulay of
        positive dimension, so it has positive depth and J is returned
        as it is (certified).  Otherwise J is saturated by the
        irrelevant ideal, which leaves HP(S/J) as it is."""
        cut = self.ideal + Ideal(self.ideal.context, forms)
        hp = hilbert_polynomial(cut)
        certified = (self.proven and hp.degree >= 0
                     and hp.degree == self.hilbert.degree - len(forms))
        return (cut if certified else cut.saturate_irrelevant()), hp, certified


def certify_cohen_macaulay(ideal: Ideal) -> CohenMacaulayCertificate:
    """Serre's multiplicity criterion on a fixed linear system of parameters.

    With HS(S/I) = Q(t)/(1-t)^r, the r Vandermonde forms theta_k =
    sum_i (i+1)^k x_i, k < r, are tried as a system of parameters: if
    S/(I + theta) is Artinian, its length Q_cut(1) is at least Q(1), with
    equality exactly when S/I is Cohen-Macaulay (Bruns & Herzog 4.7).
    Not proven means S/I is not Cohen-Macaulay, the forms are not a
    system of parameters, or S/I defines the empty scheme (r = 0)."""
    q, r = _h_polynomial(ideal)
    proven = r > 0 and _parameter_length(ideal, r) == sum(q)
    return CohenMacaulayCertificate(ideal, _from_h_polynomial(q, r), proven)


def _parameter_length(ideal: Ideal, k: int) -> int | None:
    """Length Q_cut(1) of S/(I + theta_0..theta_{k-1}), or None when not Artinian."""
    context = ideal.context
    units = [tuple(int(i == j) for j in range(context.nvars)) for i in range(context.nvars)]
    thetas = [Polynomial(context, {u: (i + 1) ** p for i, u in enumerate(units)})
              for p in range(k)]
    q, r = _h_polynomial(ideal + Ideal(context, thetas))
    return sum(q) if r == 0 else None

"""Hilbert functions, series numerators, and Hilbert polynomials.

All three are computed independently enough to cross-check each other:
the Hilbert function counts standard monomials under a Groebner basis,
the direct variant row-reduces generator multiples without any Groebner
step, and the Hilbert polynomial comes from the series numerator of the
lead-monomial ideal.  For a homogeneous ideal they must agree in every
sufficiently large degree, and the tests insist on it.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

from .ideals import Ideal
from .linalg import SparseEchelon
from .polyring import GREVLEX, Exponents, MonomialOrder, mono_divides


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
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "m" if k == 1 else f"m^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"HilbertPolynomial({self})"


# ---------------------------------------------------------------------------
# Hilbert functions

def degree_monomials(nvars: int, d: int) -> Iterator[Exponents]:
    """All exponent tuples of total degree d, lexicographically."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in degree_monomials(nvars - 1, d - first):
            yield (first,) + rest


def standard_monomials(ideal: Ideal, d: int, order: MonomialOrder = GREVLEX) -> list[Exponents]:
    """Degree-d monomials not in the lead ideal: a basis of (S/I)_d."""
    leads = ideal.groebner(order).lead_monomials()
    return [m for m in degree_monomials(ideal.context.nvars, d)
            if not any(mono_divides(g, m) for g in leads)]


def hilbert_function(ideal: Ideal, d: int, order: MonomialOrder = GREVLEX) -> int:
    """dim_k (S/I)_d for homogeneous I."""
    if d < 0:
        return 0
    if not ideal.is_homogeneous():
        raise ValueError("Hilbert function needs a homogeneous ideal")
    return len(standard_monomials(ideal, d, order))

def hilbert_function_direct(ideal: Ideal, d: int) -> int:
    """Groebner-free oracle: dim S_d minus the rank of all degree-d
    multiples of the generators, by sparse row reduction."""
    if d < 0:
        return 0
    context = ideal.context
    n = context.nvars
    for g in ideal.gens:
        if not g.is_homogeneous():
            raise ValueError("Hilbert function needs homogeneous generators")
    col = {m: i for i, m in enumerate(degree_monomials(n, d))}
    ech = SparseEchelon()
    for g in ideal.gens:
        gd = g.total_degree()
        if g.is_zero() or gd > d:
            continue
        for shift in degree_monomials(n, d - gd):
            row = {col[tuple(a + b for a, b in zip(shift, m))]: c for m, c in g.terms.items()}
            ech.add_row(row)
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

    Pivot recursion: for a variable x,
    N(M) = N(M + (x)) + t * N(M : x),
    from the exact sequence 0 -> (S/(M:x))(-1) -> S/M -> S/(M+(x)) -> 0.
    """
    monos = _minimalize(list(monos))
    if not monos:
        return [1]
    if monos[0] == (0,) * nvars:
        return [0]
    # complete-intersection base case: pure powers of distinct variables
    pure = True
    seen_vars = set()
    for m in monos:
        support = [i for i, e in enumerate(m) if e]
        if len(support) != 1 or support[0] in seen_vars:
            pure = False
            break
        seen_vars.add(support[0])
    if pure:
        acc = [1]
        for m in monos:
            a = sum(m)
            factor = [1] + [0] * (a - 1) + [-1]
            acc = _poly_mul(acc, factor)
        return acc

    counts = [0] * nvars
    for m in monos:
        support = [i for i, e in enumerate(m) if e]
        if len(support) > 1:
            for i in support:
                counts[i] += 1
    pivot = max(range(nvars), key=lambda i: counts[i])

    plus = [m for m in monos if m[pivot] == 0] + [
        tuple(1 if i == pivot else 0 for i in range(nvars))]
    colon = [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(m)) for m in monos]
    n_plus = _numerator(tuple(plus), nvars)
    n_colon = _numerator(tuple(colon), nvars)
    return _poly_add(n_plus, [0] + n_colon)


def hilbert_series_numerator(ideal: Ideal, order: MonomialOrder = GREVLEX) -> list[int]:
    """Integer coefficients N_0, N_1, ... with
    sum_d dim (S/I)_d t^d = N(t) / (1-t)^nvars."""
    if not ideal.is_homogeneous():
        raise ValueError("Hilbert series needs a homogeneous ideal")
    leads = tuple(ideal.groebner(order).lead_monomials())
    out = _numerator(leads, ideal.context.nvars)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _binomial_poly(shift: int, r: int) -> list[Fraction]:
    """binom(m + shift, r) expanded as a polynomial in m, ascending coeffs."""
    if r == 0:
        return [Fraction(1)]
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


def hilbert_polynomial(ideal: Ideal, order: MonomialOrder = GREVLEX) -> HilbertPolynomial:
    """Exact Hilbert polynomial of S/I from the series numerator:
    P(m) = sum_k N_k * binom(m - k + n - 1, n - 1)."""
    numerator = hilbert_series_numerator(ideal, order)
    n = ideal.context.nvars
    coeffs = [Fraction(0)] * n
    for k, nk in enumerate(numerator):
        if nk == 0:
            continue
        for j, c in enumerate(_binomial_poly(n - 1 - k, n - 1)):
            coeffs[j] += nk * c
    return HilbertPolynomial(coeffs)

"""Reduced Groebner bases checked against an independent implementation.

sympy's `groebner` serves as the oracle; it is a test dependency only.
Both sides return reduced bases with monic leads, so for the same
variable order they must agree as sets of polynomials, compared here
as sets of {exponents: coefficient} term dicts.
"""
import random
from fractions import Fraction
from math import comb

import pytest

from delpezzo5 import dp5, verify
from delpezzo5.groebner import reduced_groebner_basis
from delpezzo5.hilbert import degree_monomials, hilbert_function_direct
from delpezzo5.ideals import Ideal
from delpezzo5.polyring import GREVLEX, LEX

from test_homspaces import catalogued_curves

sympy = pytest.importorskip("sympy")

MODEL = dp5.build_model()
ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def term_sets(polys):
    return {frozenset(p.terms.items()) for p in polys}


def sympy_exprs(ideal, symbols):
    return [sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator)
                 for e, c in g.terms.items()}, *symbols).as_expr()
            for g in ideal.gens]


def sympy_basis(ideal, order: str, exprs=None):
    # without domain="QQ" sympy returns primitive integer polynomials,
    # not monic ones
    symbols = sympy.symbols(ideal.context.variables)
    if exprs is None:
        exprs = sympy_exprs(ideal, symbols)
    basis = sympy.groebner(exprs, *symbols, order=order, domain="QQ")
    return {frozenset((e, Fraction(int(c.p), int(c.q)))
                      for e, c in p.as_dict().items())
            for p in basis.polys}


def sympy_divided(ideal, name: str, saturate: bool):
    """(I : x) or (I : x^inf) of a homogeneous ideal, all in sympy: the
    grevlex basis with x last, each element divided by x once or by its
    whole power of x (Bayer-Stillman), then reduced in the ring's order."""
    symbols = sympy.symbols(ideal.context.variables)
    x = symbols[ideal.context.index(name)]
    last = [v for v in symbols if v != x] + [x]
    basis = sympy.groebner(sympy_exprs(ideal, symbols), *last, order="grevlex", domain="QQ")
    divided = []
    for g in basis.exprs:
        power = min(m[-1] for m in sympy.Poly(g, *last).monoms())
        divided.append(sympy.cancel(g / x ** (power if saturate else min(power, 1))))
    return sympy_basis(ideal, "grevlex", exprs=divided)


def mismatches(named_ideals, order: str) -> list[str]:
    return [name for name, ideal in named_ideals
            if term_sets(reduced_groebner_basis(ideal.gens, ORDERS[order]).elements)
            != sympy_basis(ideal, order)]


def catalogued():
    """The threefold and the 48 catalogued torus-fixed curves."""
    return [("threefold", MODEL.threefold), *catalogued_curves()]


def random_ideals(count: int = 60):
    """Seeded ideals from the property suites' generators, half homogeneous."""
    rng = random.Random(20261018)
    out = []
    for case in range(count):
        ctx = verify._random_context(rng)
        out.append((f"case {case}",
                    verify._random_ideal(rng, ctx, 3, homogeneous=case % 2 == 0)))
    return out


def test_catalogue_has_forty_eight_curves():
    assert len(catalogued()) == 1 + 48


@pytest.mark.parametrize("order", ORDERS)
def test_catalogued_curves(order):
    assert mismatches(catalogued(), order) == []


@pytest.mark.parametrize("order", ORDERS)
def test_computed_census(order):
    records = dp5.enumerate_fixed_quartics(MODEL).records
    assert mismatches([(f"{r.line}{r.pick}", r.curve) for r in records], order) == []


@pytest.mark.parametrize("order", ORDERS)
def test_random_ideals(order):
    assert mismatches(random_ideals(), order) == []


@pytest.mark.parametrize("d", range(5))
def test_direct_hilbert_function_against_sympy_rank(d):
    """The rank oracle's echelon against sympy's: the Macaulay matrix of
    all degree-d multiples of the threefold's generators, built here.
    Degree 4 is the first at which the oracle skips rows (a quadric's
    lead divides a quadric shift)."""
    ideal = MODEL.threefold
    n = ideal.context.nvars
    columns = list(degree_monomials(n, d))
    index = {m: k for k, m in enumerate(columns)}
    rows = []
    for g in ideal.gens:
        gd = g.total_degree()
        if gd > d:
            continue
        for shift in degree_monomials(n, d - gd):
            row = [0] * len(columns)
            for m, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(shift, m))]] = \
                    sympy.Rational(c.numerator, c.denominator)
            rows.append(row)
    matrix_rank = sympy.Matrix(rows).rank() if rows else 0
    assert hilbert_function_direct(ideal, d) == comb(d + n - 1, n - 1) - matrix_rank


def split_ideals():
    """Seeded homogeneous ideals in 3-4 variables with one or two bare
    variable generators c*x added, so the kernel computes their
    quotients and saturations in the ring without those variables."""
    rng = random.Random(20261019)
    out = []
    while len(out) < 12:
        ctx = verify._random_context(rng)
        if ctx.nvars < 3:
            continue
        I = verify._random_ideal(rng, ctx, 3, homogeneous=True)
        bare = [ctx.constant(rng.choice((2, -1))) * ctx.variable(v)
                for v in rng.sample(ctx.variables, rng.randint(1, 2))]
        I = Ideal(ctx, I.gens + tuple(bare))
        if I.split_variables() is not None:
            out.append(I)
    return out


def test_split_quotients_and_saturations_against_sympy():
    for I in split_ideals():
        for name in I.context.variables:
            x = I.context.variable(name)
            assert term_sets(I.quotient(x).groebner().elements) \
                == sympy_divided(I, name, saturate=False)
            assert term_sets(I.saturate(x).groebner().elements) \
                == sympy_divided(I, name, saturate=True)

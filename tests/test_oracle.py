"""Reduced Groebner bases checked against an independent implementation.

sympy's `groebner` serves as the oracle; it is a test dependency only.
Both sides return reduced bases with monic leads, so for the same
variable order they must agree as sets of polynomials, compared here
as sets of {exponents: coefficient} term dicts.
"""
import random
from fractions import Fraction

import pytest

from delpezzo5 import dp5, verify
from delpezzo5.groebner import reduced_groebner_basis
from delpezzo5.polyring import GREVLEX, LEX

sympy = pytest.importorskip("sympy")

MODEL = dp5.build_model()
ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def term_sets(polys):
    return {frozenset(p.terms.items()) for p in polys}


def sympy_basis(ideal, order: str):
    # without domain="QQ" sympy returns primitive integer polynomials,
    # not monic ones
    symbols = sympy.symbols(ideal.context.variables)
    exprs = [sympy.Poly.from_dict(
                 {e: sympy.Rational(c.numerator, c.denominator)
                  for e, c in g.terms.items()}, *symbols).as_expr()
             for g in ideal.gens]
    basis = sympy.groebner(exprs, *symbols, order=order, domain="QQ")
    return {frozenset((e, Fraction(int(c.p), int(c.q)))
                      for e, c in p.as_dict().items())
            for p in basis.polys}


def mismatches(named_ideals, order: str) -> list[str]:
    return [name for name, ideal in named_ideals
            if term_sets(reduced_groebner_basis(ideal.gens, ORDERS[order]).elements)
            != sympy_basis(ideal, order)]


def catalogued():
    """The threefold and the 48 catalogued torus-fixed curves."""
    quartics = [(f"row {row}", ideal) for row, (ideal, _)
                in enumerate(dp5.expected_quartic_rows(MODEL), start=1)]
    mirrors = [(f"{name} mirror", mirror) for name, ideal in quartics
               if (mirror := dp5.mirror_ideal(MODEL, ideal)) != ideal]
    return [("threefold", MODEL.threefold),
            *sorted(MODEL.lines.items()),
            *((f"conic {w}", ideal)
              for w, ideal in dp5.expected_conic_ideals(MODEL).items()),
            *((f"cubic {pair}", ideal)
              for pair, ideal, _ in dp5.expected_cubic_rows(MODEL)),
            *quartics, *mirrors,
            ("rnc", dp5.rnc_ideal(MODEL))]


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

"""Property tests: the text format reads back what it writes."""
import pytest

from delpezzo5.polyring import (GREVLEX, LEX, Polynomial, RingContext,
                                format_ideal_text, format_polynomial,
                                parse_ideal_text, parse_polynomial)

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings

FIRST = "abcxyzAB_"
NAMES = st.builds(str.__add__, st.sampled_from(FIRST),
                  st.text(alphabet=FIRST + "0129", max_size=3))
COEFFS = st.fractions(min_value=-1000, max_value=1000, max_denominator=50).filter(bool)


@st.composite
def contexts(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    weights = draw(st.none() | st.lists(st.integers(-9, 9), min_size=len(names),
                                        max_size=len(names)))
    return RingContext(names, weights)


def polynomials(ctx):
    exps = st.tuples(*[st.integers(0, 4)] * ctx.nvars)
    return st.dictionaries(exps, COEFFS, max_size=5).map(
        lambda terms: Polynomial(ctx, terms))


@st.composite
def context_and_polynomial(draw):
    ctx = draw(contexts())
    return ctx, draw(polynomials(ctx))


@st.composite
def ideal_files(draw):
    ctx = draw(contexts())
    return ctx, draw(st.lists(polynomials(ctx), max_size=4))


def examples(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


@examples(200)
@given(context_and_polynomial(), st.sampled_from([LEX, GREVLEX]))
def test_polynomial_round_trip(case, order):
    ctx, p = case
    assert parse_polynomial(format_polynomial(p, order), ctx) == p


@examples(100)
@given(ideal_files())
def test_ideal_file_round_trip(case):
    ctx, gens = case
    assert parse_ideal_text(format_ideal_text(ctx, gens)) == (ctx, gens)


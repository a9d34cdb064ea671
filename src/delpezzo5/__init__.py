"""Exact commutative-algebra toolkit for the quintic del Pezzo threefold.

Everything computes over the rationals with no floating point anywhere:
polynomial arithmetic, Groebner bases, ideal operations, Hilbert
functions and polynomials, graded Hom spaces, and the torus-fixed
curve census on the quintic del Pezzo threefold.
"""
from .polyring import (
    GREVLEX,
    LEX,
    BlockOrder,
    GrevlexOrder,
    LexOrder,
    MonomialOrder,
    Polynomial,
    RingContext,
    elimination_order,
    format_ideal_text,
    format_polynomial,
    parse_ideal_text,
    parse_polynomial,
    substitute_linear,
    variable_last_order,
)
from .groebner import (
    GroebnerBasis,
    normal_form,
    reduced_groebner_basis,
)
from .ideals import Ideal
from .hilbert import (
    CohenMacaulayCertificate,
    HilbertPolynomial,
    certify_cohen_macaulay,
    hilbert_function,
    hilbert_function_direct,
    hilbert_polynomial,
    hilbert_series_numerator,
)
from .homspaces import graded_hom_dimension, tangent_dimension
from .dp5 import (
    DP5Model,
    build_model,
    coordinate_change_check,
    enumerate_fixed_quartics,
    fixed_curves,
    invariant_subspace_check,
    residual_quartic,
    rnc_check,
)
from .verify import run_suite

__all__ = [
    "GREVLEX",
    "LEX",
    "BlockOrder",
    "CohenMacaulayCertificate",
    "DP5Model",
    "GrevlexOrder",
    "GroebnerBasis",
    "HilbertPolynomial",
    "Ideal",
    "LexOrder",
    "MonomialOrder",
    "Polynomial",
    "RingContext",
    "build_model",
    "certify_cohen_macaulay",
    "coordinate_change_check",
    "elimination_order",
    "enumerate_fixed_quartics",
    "fixed_curves",
    "format_ideal_text",
    "format_polynomial",
    "graded_hom_dimension",
    "hilbert_function",
    "hilbert_function_direct",
    "hilbert_polynomial",
    "hilbert_series_numerator",
    "invariant_subspace_check",
    "normal_form",
    "parse_ideal_text",
    "parse_polynomial",
    "reduced_groebner_basis",
    "residual_quartic",
    "rnc_check",
    "run_suite",
    "substitute_linear",
    "tangent_dimension",
    "variable_last_order",
]

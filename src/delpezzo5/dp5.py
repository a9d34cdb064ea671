"""Scenario layer for the quintic del Pezzo threefold.

Builds the threefold in both coordinate systems, checks the coordinate
change between them, and constructs every torus-fixed curve of degree one
through four: lines by a parametric search, conics by cutting with
coordinate 4-spaces, twisted cubics from incidence loci of coordinate
lines, and quartics as residuals of hyperplane sections through a fixed
line.  The census in `tables` supplies the values every construction is
compared against.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

from . import tables
from .hilbert import (CohenMacaulayCertificate, HilbertPolynomial, certify_cohen_macaulay,
                      hilbert_function, hilbert_polynomial)
from .homspaces import graded_hom_dimension, tangent_dimension
from .ideals import Ideal
from .linalg import rank, row_space_equal
from .polyring import Polynomial, RingContext, parse_polynomial, substitute_linear


# ---------------------------------------------------------------------------
# the model

@dataclass(frozen=True, eq=False)
class DP5Model:
    """The threefold with both of its coordinate presentations."""

    orbit: RingContext
    plucker: RingContext
    threefold: Ideal          # five quadrics in orbit coordinates
    grassmannian: Ideal       # five Pluecker relations
    hyperplanes: tuple        # three linear forms cutting the threefold
    images: Mapping           # orbit image of each Pluecker variable
    lines: Mapping            # torus-fixed lines, keyed l0/l1/l2

    @cached_property
    def threefold_certificate(self) -> CohenMacaulayCertificate:
        """The threefold's Cohen-Macaulay certificate, computed on first
        use (the first residual quartic), not by `build_model`, and kept
        in this model's own dict, so it goes when the model goes."""
        return certify_cohen_macaulay(self.threefold)


@lru_cache(maxsize=1)
def build_model() -> DP5Model:
    orbit = RingContext(tables.ORBIT_VARIABLES, tables.ORBIT_WEIGHTS)
    plucker = RingContext(tables.PLUCKER_VARIABLES, tables.PLUCKER_WEIGHTS)
    threefold = _catalog_ideal(orbit, tables.QUINTIC_THREEFOLD_GENS)
    grassmannian = Ideal(plucker, _plucker_relations(plucker))
    hyperplanes = tuple(parse_polynomial(s, plucker)
                        for s in tables.PLUCKER_LINEAR_FORMS)
    # read-only views: the model is cached and shared by every caller
    images = MappingProxyType(
        {name: parse_polynomial(tables.COORDINATE_CHANGE[name], orbit)
         for name in tables.PLUCKER_VARIABLES})
    lines = MappingProxyType(
        {name: Ideal(orbit, [orbit.variable(v) for v in gens])
         for name, gens in tables.LINE_GENS.items()})
    return DP5Model(orbit, plucker, threefold, grassmannian, hyperplanes,
                    images, lines)


def _plucker_relations(ctx: RingContext) -> list[Polynomial]:
    # one quadratic relation per 4-subset of the weight basis
    rels = []
    for w1, w2, w3, w4 in combinations(tables.SPACE_WEIGHTS, 4):
        rels.append(_pvar(ctx, w1, w2) * _pvar(ctx, w3, w4)
                    - _pvar(ctx, w1, w3) * _pvar(ctx, w2, w4)
                    + _pvar(ctx, w1, w4) * _pvar(ctx, w2, w3))
    return rels


def _pair_position(i: int, j: int) -> int:
    if i < j:
        i, j = j, i
    return tables.PLUCKER_PAIRS.index((i, j))


def _pvar(ctx: RingContext, i: int, j: int) -> Polynomial:
    """Signed Pluecker coordinate of the wedge e_i ^ e_j."""
    sign = 1
    if i < j:
        i, j = j, i
        sign = -1
    v = ctx.variable(tables.PLUCKER_VARIABLES[_pair_position(i, j)])
    return v if sign == 1 else -v


def change_coordinates(model: DP5Model, p: Polynomial) -> Polynomial:
    """Carry a Pluecker-coordinate polynomial into orbit coordinates."""
    return substitute_linear(p, model.images, model.orbit)


# ---------------------------------------------------------------------------
# structural checks on the model itself

def coordinate_change_check(model: DP5Model) -> dict:
    """Push the Grassmannian presentation through the coordinate change.

    The three hyperplane forms must map to zero, each Pluecker relation
    must land on a scalar multiple of one of the five orbit quadrics,
    and together the images must generate the threefold ideal.
    """
    forms_vanish = all(change_coordinates(model, h).is_zero()
                       for h in model.hyperplanes)
    images = [change_coordinates(model, g) for g in model.grassmannian.gens]
    matches = []
    for k, im in enumerate(images):
        hit = None
        for q_index, q in enumerate(model.threefold.gens):
            factor = _scalar_ratio(im, q)
            if factor is not None:
                hit = (k, q_index, factor)
                break
        matches.append(hit)
    pairing_ok = (all(m is not None for m in matches)
                  and len({m[1] for m in matches if m}) == len(matches))
    ideal_equal = Ideal(model.orbit, images) == model.threefold
    return {
        "hyperplanes_vanish": forms_vanish,
        "quadric_matches": matches,
        "bijective": pairing_ok,
        "ideal_equal": ideal_equal,
        "passed": forms_vanish and pairing_ok and ideal_equal,
    }


def _scalar_ratio(p: Polynomial, q: Polynomial) -> Fraction | None:
    """c with p == c*q, or None."""
    if p.is_zero() or q.is_zero() or set(p.terms) != set(q.terms):
        return None
    ratios = {p.terms[m] / q.terms[m] for m in q.terms}
    return ratios.pop() if len(ratios) == 1 else None


def lowering_chain() -> list[dict]:
    """Iterate the lowering operator on the wedge square, starting from
    the lowest-weight wedge vector, until it dies; each vector is a map
    from an ordered weight pair to its coefficient."""
    vec = {(-2, -4): Fraction(1)}
    chain = [vec]
    while True:
        vec = _lower_wedge(vec)
        if not vec:
            return chain
        chain.append(vec)


def _lower_wedge(vec: dict) -> dict:
    out: dict[tuple[int, int], Fraction] = {}

    def add(i: int, j: int, c: Fraction) -> None:
        if i == j:
            return
        if i < j:
            i, j, c = j, i, -c
        out[(i, j)] = out.get((i, j), Fraction(0)) + c
        if out[(i, j)] == 0:
            del out[(i, j)]

    for (i, j), c in vec.items():
        if i in tables.LOWERING_ACTION:
            coeff, i2 = tables.LOWERING_ACTION[i]
            add(i2, j, c * coeff)
        if j in tables.LOWERING_ACTION:
            coeff, j2 = tables.LOWERING_ACTION[j]
            add(i, j2, c * coeff)
    return out


def invariant_subspace_check(model: DP5Model) -> dict:
    """The lowering orbit of the lowest wedge vector must span the same
    7-dimensional subspace as the expected basis."""
    chain = lowering_chain()
    rows = [_wedge_row(v) for v in chain]
    expected = [_wedge_row({pair: Fraction(c) for pair, c in v.items()})
                for v in tables.INVARIANT_WEDGE_BASIS]
    dim = rank(rows)
    matches = row_space_equal(rows, expected)
    return {
        "chain_length": len(chain),
        "dimension": dim,
        "matches": matches,
        "passed": len(chain) == 7 and dim == 7 and matches,
    }


def _wedge_row(vec: dict) -> list[Fraction]:
    row = [Fraction(0)] * len(tables.PLUCKER_PAIRS)
    for (i, j), c in vec.items():
        row[_pair_position(i, j)] = Fraction(c)
    return row


# ---------------------------------------------------------------------------
# torus-fixed points of the Grassmannian

@dataclass(frozen=True)
class GrassmannFixedPoint:
    pair: tuple[int, int]     # weights of the spanning basis vectors
    weight: int               # induced weight on the wedge line
    isolated: bool            # wedge weight occurs at most twice


def torus_fixed_grassmannian(weights: Sequence[int]) -> list[GrassmannFixedPoint]:
    """Coordinate 2-planes as fixed points of the torus action on Gr(2, V).

    A fixed point is isolated when its wedge weight occurs at most twice
    among all coordinate pairs: a pencil u*ei^ej + v*ek^el through two
    such planes (necessarily with disjoint index pairs, the weights being
    distinct) is decomposable only at u = 0 or v = 0, so the weight line
    meets the Grassmannian in exactly the two coordinate points.
    """
    ws = tuple(weights)
    if len(set(ws)) != len(ws):
        raise ValueError("torus weights must be pairwise distinct")
    multiplicity = Counter(a + b for a, b in combinations(ws, 2))
    return [GrassmannFixedPoint((a, b), a + b, multiplicity[a + b] <= 2)
            for a, b in combinations(ws, 2)]


# ---------------------------------------------------------------------------
# fixed curves of degree 1, 2, 3

@dataclass(eq=False)
class FixedCurveRecord:
    degree: int
    label: str
    ideal: Ideal
    details: dict


def fixed_lines(model: DP5Model) -> list[FixedCurveRecord]:
    """Search the pencils e_v ^ (u e_s + v e_t) for those lying on the
    threefold: both wedge coordinates must be absent from every
    hyperplane form.  Each survivor maps to a coordinate line in orbit
    coordinates."""
    support = set()
    for h in model.hyperplanes:
        for mono in h.terms:
            support.add(mono.index(1))
    records = []
    for vertex in tables.SPACE_WEIGHTS:
        others = [w for w in tables.SPACE_WEIGHTS if w != vertex]
        for s, t in combinations(others, 2):
            positions = (_pair_position(vertex, s), _pair_position(vertex, t))
            if any(pos in support for pos in positions):
                continue
            spanned = {model.images[tables.PLUCKER_VARIABLES[pos]].variable_name()
                       for pos in positions}
            if None in spanned:
                raise ValueError("a fixed line's Pluecker coordinate has no orbit variable as image")
            gens = [model.orbit.variable(v) for v in tables.ORBIT_VARIABLES
                    if v not in spanned]
            ideal = Ideal(model.orbit, gens)
            name = next((nm for nm, li in model.lines.items() if li == ideal),
                        "unmatched")
            records.append(FixedCurveRecord(1, name, ideal, {
                "vertex": vertex, "moving_pair": (s, t),
                "spanned": tuple(sorted(spanned)),
            }))
    return records


def fixed_conics(model: DP5Model) -> list[FixedCurveRecord]:
    """One fixed conic per coordinate 4-space: add the images of the
    Pluecker coordinates that vanish on it, then saturate."""
    records = []
    for omitted, _ in tables.CONIC_ROWS:
        cut = [model.images[tables.PLUCKER_VARIABLES[k]]
               for k, pair in enumerate(tables.PLUCKER_PAIRS)
               if omitted in pair]
        ideal = (model.threefold + Ideal(model.orbit, cut)).saturate_irrelevant()
        records.append(FixedCurveRecord(2, "C2", ideal,
                                        {"omitted_weight": omitted}))
    return records


def schubert_cubic(model: DP5Model, vertex_pair: Sequence[int]) -> Ideal:
    """Ideal of the locus of 2-planes meeting the coordinate line of the
    given weight pair, pushed into orbit coordinates and saturated.

    In Pluecker coordinates the locus is cut by the three coordinates
    complementary to the pair; modulo those, the quadratic relations
    collapse to the 2x2 minors of a 2x3 coordinate matrix.
    """
    a, b = sorted(vertex_pair, reverse=True)
    if a == b or a not in tables.SPACE_WEIGHTS or b not in tables.SPACE_WEIGHTS:
        raise ValueError("vertex pair must be two distinct basis weights")
    rest = [w for w in tables.SPACE_WEIGHTS if w not in (a, b)]
    top = [_pvar(model.plucker, a, k) for k in rest]
    bot = [_pvar(model.plucker, b, k) for k in rest]
    gens = [top[c1] * bot[c2] - top[c2] * bot[c1]
            for c1, c2 in combinations(range(3), 2)]
    gens += [_pvar(model.plucker, k, l) for k, l in combinations(rest, 2)]
    images = [change_coordinates(model, g) for g in gens]
    raw = Ideal(model.orbit, [im for im in images if not im.is_zero()])
    return raw.saturate_irrelevant()


def fixed_cubics(model: DP5Model) -> list[FixedCurveRecord]:
    """One fixed twisted cubic (possibly degenerate) per coordinate line
    of the Grassmannian."""
    labels = {frozenset(pair): label for pair, _, label in tables.CUBIC_ROWS}
    records = []
    for point in torus_fixed_grassmannian(tables.SPACE_WEIGHTS):
        ideal = schubert_cubic(model, point.pair)
        label = labels.get(frozenset(point.pair), "unmatched")
        records.append(FixedCurveRecord(3, label, ideal, {
            "vertex_pair": point.pair, "isolated": point.isolated,
        }))
    return records


# ---------------------------------------------------------------------------
# fixed quartics: residuals of hyperplane sections through a line

@dataclass(frozen=True, eq=False)
class ResidualQuartic:
    line: str                      # name of the fixed line L
    pick: tuple[int, int]          # which two generators of I_L cut the section
    sections: tuple                # the two linear forms themselves
    quintic: Ideal                 # saturated curve section X + (s1, s2)
    curve: Ideal                   # residual of L inside the section
    quintic_hilbert: HilbertPolynomial
    curve_hilbert: HilbertPolynomial
    secant_hilbert: HilbertPolynomial | None   # None when L is a component
    certified_section: bool        # True: certified saturated and kept as cut;
                                   # False: saturated explicitly
    label: str = ""
    orbit_index: int | None = None
    relative_tangent: int | None = None


def residual_quartic(model: DP5Model, line: str, pick: Sequence[int]) -> ResidualQuartic:
    """Cut the threefold with two coordinate hyperplanes through the
    line, then remove the line by an ideal quotient.  The section is
    saturated as it stands when the threefold's Cohen-Macaulay
    certificate holds and the section is a curve: the two forms are then
    a regular sequence, and the section ring has positive depth;
    otherwise the section is saturated explicitly.  The quotient of a
    saturated ideal is saturated, since (I : J) : m^inf = (I : m^inf) : J.
    Records the section and residual ideals and their Hilbert
    polynomials, plus the Hilbert polynomial of the scheme intersection
    with the line when the line is not a component.

    s1 and s2 are coordinates, so the kernel computes the quotient and
    the Hilbert polynomials of the section and the residual in the ring
    of the other five coordinates, and the secant's in the two
    coordinates the line leaves (`Ideal.split_variables`); no Groebner
    basis in all seven is needed beyond the threefold's certificate and
    the line's own basis."""
    if line not in tables.LINE_GENS:
        raise ValueError(f"unknown fixed line {line!r}")
    i, j = sorted(pick)
    names = tables.LINE_GENS[line]
    if not (0 <= i < j < len(names)):
        raise ValueError("pick must be two distinct generator indices")
    s1 = model.orbit.variable(names[i])
    s2 = model.orbit.variable(names[j])
    quintic, quintic_hilbert, certified = model.threefold_certificate.section((s1, s2))
    line_ideal = model.lines[line]
    curve = quintic.quotient(line_ideal)
    secant = None
    if not line_ideal.contains_ideal(curve):
        # Hilbert polynomials ignore irrelevant components, so the raw
        # sum is enough here
        secant = hilbert_polynomial(curve + line_ideal)
    return ResidualQuartic(
        line=line, pick=(i, j), sections=(s1, s2),
        quintic=quintic, curve=curve,
        quintic_hilbert=quintic_hilbert,
        curve_hilbert=hilbert_polynomial(curve),
        secant_hilbert=secant,
        certified_section=certified,
    )


def mirror_ideal(model: DP5Model, ideal: Ideal) -> Ideal:
    """Image under the involution a_w -> a_{-w}."""
    # ORBIT_VARIABLES lists a_w by weight 6 ... -6: a_w -> a_{-w} reverses the variables
    at = range(model.orbit.nvars - 1, -1, -1)
    return Ideal(model.orbit, [g.moved(model.orbit, at) for g in ideal.gens])


@dataclass(frozen=True, eq=False)
class QuarticOrbit:
    keys: tuple                   # canonical keys of the member ideals
    members: tuple                # indices into the census records
    label: str
    row: int | None               # 1-based row of the reducible table, or None
    self_mirror: bool


@dataclass(frozen=True, eq=False)
class QuarticCensus:
    records: tuple                # ResidualQuartic, census fields set
    orbits: tuple                 # QuarticOrbit, in order of first member


@lru_cache(maxsize=2)
def enumerate_fixed_quartics(model: DP5Model) -> QuarticCensus:
    """All thirty residual quartics: three lines times ten generator
    picks.  Groups them into involution orbits, matches each orbit
    against the census (the fifteen reducible rows plus the rational
    normal quartic), and attaches tangent dimensions.  Cached: the
    census is shared by the verification suites."""
    residuals = [residual_quartic(model, line, pick)
                 for line in sorted(tables.LINE_GENS)
                 for pick in combinations(range(5), 2)]
    keys = [r.curve.canonical_key() for r in residuals]
    mirror_keys = [mirror_ideal(model, r.curve).canonical_key()
                   for r in residuals]
    expected_keys = [(ideal.canonical_key(), label, row)
                     for row, (ideal, label)
                     in enumerate(expected_quartic_rows(model), start=1)]
    rnc_key = rnc_ideal(model).canonical_key()

    orbits: list[QuarticOrbit] = []
    orbit_of: dict[tuple, int] = {}
    for key, partner_key in zip(keys, mirror_keys):
        if key in orbit_of:
            continue
        orbit_keys = (key,) if partner_key == key else (key, partner_key)
        if rnc_key in orbit_keys:
            label, row = "C4", None
        else:
            label, row = next(((elabel, erow) for ekey, elabel, erow
                               in expected_keys if ekey in orbit_keys),
                              ("unmatched", None))
        orbit_of.update(dict.fromkeys(orbit_keys, len(orbits)))
        orbits.append(QuarticOrbit(
            keys=orbit_keys, label=label, row=row, self_mirror=len(orbit_keys) == 1,
            members=tuple(m for m, k in enumerate(keys) if k in orbit_keys)))

    records = tuple(replace(rec, label=orbits[orbit_of[key]].label,
                            orbit_index=orbit_of[key],
                            relative_tangent=tangent_dimension(
                                rec.curve, within=model.threefold))
                    for rec, key in zip(residuals, keys))
    return QuarticCensus(records=records, orbits=tuple(orbits))


# ---------------------------------------------------------------------------
# expected census ideals, parsed from the catalog

def _catalog_ideal(ctx: RingContext, texts: Sequence[str]) -> Ideal:
    """The ideal of catalog polynomials, generators in catalog order."""
    return Ideal(ctx, [parse_polynomial(s, ctx) for s in texts])


def expected_conic_ideals(model: DP5Model) -> dict[int, Ideal]:
    return {omitted: _catalog_ideal(model.orbit, gens)
            for omitted, gens in tables.CONIC_ROWS}


def expected_cubic_rows(model: DP5Model) -> list[tuple[tuple[int, int], Ideal, str]]:
    return [(pair, _catalog_ideal(model.orbit, gens), label)
            for pair, gens, label in tables.CUBIC_ROWS]


def expected_quartic_rows(model: DP5Model) -> list[tuple[Ideal, str]]:
    return [(_catalog_ideal(model.orbit, gens), label)
            for gens, label in tables.QUARTIC_ROWS]


def rnc_ideal(model: DP5Model) -> Ideal:
    return _catalog_ideal(model.orbit, tables.RNC_GENS)


def fixed_curves(model: DP5Model, degree: int) -> list[FixedCurveRecord]:
    """Census dispatcher.  Degree 4 reads `enumerate_fixed_quartics`, which
    computes all 30 relative tangents; the records here do not carry them."""
    if degree == 1:
        return fixed_lines(model)
    if degree == 2:
        return fixed_conics(model)
    if degree == 3:
        return fixed_cubics(model)
    if degree == 4:
        census = enumerate_fixed_quartics(model)
        return [FixedCurveRecord(4, rec.label, rec.curve, {
                    "line": rec.line, "pick": rec.pick,
                    "orbit_index": rec.orbit_index,
                    "self_mirror": census.orbits[rec.orbit_index].self_mirror,
                }) for rec in census.records]
    raise ValueError("fixed curves are catalogued for degrees 1 through 4")


# ---------------------------------------------------------------------------
# derived quantities used by the verification suites

def rnc_check(model: DP5Model) -> dict:
    """The rational normal quartic: its printed ideal must agree with
    the determinantal presentation, have the right Hilbert polynomial,
    be torus-fixed, span a hyperplane, and lie on the threefold; "passed"
    says whether it does.  The tangent dimensions are reported only."""
    ctx = model.orbit
    rows = [[parse_polynomial(s, ctx) for s in row] for row in tables.RNC_MATRIX]
    minors = [rows[0][c1] * rows[1][c2] - rows[0][c2] * rows[1][c1]
              for c1, c2 in combinations(range(4), 2)]
    built = Ideal(ctx, [ctx.variable("a6"), ctx.variable("am6")] + minors)
    printed = rnc_ideal(model)
    out = {
        "determinantal_equal": built == printed,
        "hilbert": hilbert_polynomial(printed),
        "torus_fixed": printed.is_torus_fixed(),
        "span": linear_span_dimension(printed),
        "on_threefold": printed.contains_ideal(model.threefold),
        "tangent_ambient": tangent_dimension(printed),
        "tangent_relative": tangent_dimension(printed,
                                              within=model.threefold),
    }
    out["passed"] = (out["determinantal_equal"]
                     and out["hilbert"] == HilbertPolynomial([1, 4])
                     and out["torus_fixed"] and out["span"] == 4
                     and out["on_threefold"])
    return out


def linear_span_dimension(ideal: Ideal) -> int:
    """Projective dimension of the linear span of the subscheme."""
    return hilbert_function(ideal, 1) - 1


def line_section_count(model: DP5Model, line: str) -> int:
    """Number of independent hyperplanes through the line."""
    ideal = model.lines[line]
    return ideal.context.nvars - hilbert_function(ideal, 1)


def vertex_cubic_hom_bound(model: DP5Model) -> int:
    """dim Hom(I_D, (S/I_L)(-1)) in degree zero, taken relative to the
    threefold, for D the degenerate cubic with vertex weights (4, -4)
    and L the middle fixed line.  Bounds how a fixed quartic through
    that configuration can attach to the line."""
    for pair, ideal, _ in expected_cubic_rows(model):
        if frozenset(pair) == frozenset((4, -4)):
            return graded_hom_dimension(ideal, model.lines["l0"], twist=-1,
                                        within=model.threefold)
    raise AssertionError("vertex (4, -4) row missing from the cubic census")

"""Verification suites over the threefold model, with text and JSON reports.

Each suite runs a list of named checks and collects one CheckResult per
check.  A check that raises is recorded as a failure rather than
aborting the suite, so a report always covers every claim it set out to
verify.  Checks with nothing to compare against (reported-only values)
carry status "warn" and never fail a suite.

Values that several checks share are built inside the first check that
reads them: the model by the cached `dp5.build_model`, the censuses
through memos local to one suite call.  That check's time includes the
build, and a build that raises fails the checks that need it instead of
escaping the suite.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import dp5
from .groebner import reduced_groebner_basis
from .hilbert import (HilbertPolynomial, degree_monomials, hilbert_function,
                      hilbert_function_direct, hilbert_polynomial)
from .homspaces import graded_hom_dimension, tangent_dimension
from .ideals import Ideal
from .polyring import GREVLEX, Polynomial, RingContext, mono_div, mono_lcm

SUITE_NAMES = ("section-2", "section-3", "section-4", "section-5", "properties")

_PROPERTY_SEED = 20260818

# The checks' cost grows steeply with the degree window, through the
# kernel-rank Hilbert functions in hilbert-oracle and the properties
# suite: `dp5 suite all --format json` runs, seven processes each, on a
# 2-core Xeon under Python 3.11 took a median 0.45 s at degree 8, 0.70 s
# at 12, 2.1 s at 16 and 9.4 s at 20 (that one with the cap lifted).
_MAX_CHECK_DEGREE = 16


@dataclass
class CheckResult:
    id: str
    cite: str
    status: str          # pass | fail | warn
    expected: str
    actual: str
    ms: int


@dataclass
class VerificationReport:
    suite: str
    checks: list

    @property
    def status(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"


# ---------------------------------------------------------------------------
# rendering

def emit_text(report: VerificationReport) -> str:
    lines = [f"suite {report.suite}: {report.status} "
             f"({len(report.checks)} checks)"]
    for c in report.checks:
        lines.append(f"{c.status.upper():4s}  {c.id:24s}  {c.cite}")
        if c.status != "pass":
            lines.append(f"      expected: {c.expected}")
            lines.append(f"      actual:   {c.actual}")
    return "\n".join(lines) + "\n"


def emit_json(report: VerificationReport) -> str:
    payload = {
        "suite": report.suite,
        "status": report.status,
        "checks": [{
            "id": c.id,
            "cite": c.cite,
            "status": c.status,
            "expected": c.expected,
            "actual": c.actual,
            "ms": c.ms,
        } for c in report.checks],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the check runner

class _Suite:
    def __init__(self) -> None:
        self.checks: list[CheckResult] = []

    def check(self, cid: str, cite: str, expected: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            ok, actual = fn()
        except Exception as exc:  # a crash is a failed check, not a crash
            ok, actual = False, f"error: {exc}"
        ms = int((time.perf_counter() - t0) * 1000)
        status = "warn" if ok is None else ("pass" if ok else "fail")
        self.checks.append(CheckResult(cid, cite, status, expected, actual, ms))


def run_suite(name: str, check_degree: int = 8) -> VerificationReport:
    """Run one named suite, or all of them concatenated.  A window below
    degree 1 is rejected: hilbert-oracle promises 7 sections there.  So
    is one above degree 16, since the cost grows steeply (about 2.1 s for
    the whole run at 16, 9.4 s at 20) and, for a huge degree, never ends."""
    if check_degree < 1:
        raise ValueError(f"check degree must be at least 1, got {check_degree}")
    if check_degree > _MAX_CHECK_DEGREE:
        raise ValueError(f"check degree must be at most {_MAX_CHECK_DEGREE}, "
                         f"got {check_degree}")
    builders = {
        "section-2": _section_2,
        "section-3": _section_3,
        "section-4": _section_4,
        "section-5": _section_5,
        "properties": _properties,
    }
    if name == "all":
        checks = []
        for suite in SUITE_NAMES:
            checks.extend(builders[suite](check_degree))
        return VerificationReport("all", checks)
    if name not in builders:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from all, {', '.join(SUITE_NAMES)}")
    return VerificationReport(name, builders[name](check_degree))


# ---------------------------------------------------------------------------
# suites

def _section_2(check_degree: int) -> list[CheckResult]:
    model = dp5.build_model
    s = _Suite()

    def coordinate_change():
        out = dp5.coordinate_change_check(model())
        factors = ",".join(str(m[2]) if m else "?"
                           for m in out["quadric_matches"])
        return out["passed"], (f"hyperplanes vanish: {out['hyperplanes_vanish']}; "
                               f"factors {factors}; "
                               f"ideal equality: {out['ideal_equal']}")

    s.check("coordinate-change",
            "the linear substitution carries the Grassmannian presentation "
            "onto the five orbit quadrics",
            "hyperplane forms map to zero; the five relations match the five "
            "quadrics up to scalars; the image generates the threefold ideal",
            coordinate_change)

    def invariant():
        out = dp5.invariant_subspace_check(model())
        return out["passed"], (f"chain length {out['chain_length']}, "
                               f"rank {out['dimension']}, "
                               f"span matches: {out['matches']}")

    s.check("invariant-subspace",
            "the lowering-operator orbit of the lowest wedge vector spans "
            "the expected invariant 7-space",
            "7 nonzero iterates of rank 7 spanning the catalogued subspace",
            invariant)
    return s.checks


def _section_3(check_degree: int) -> list[CheckResult]:
    model = dp5.build_model
    conics = cache(lambda: dp5.fixed_conics(model()))
    cubics = cache(lambda: dp5.fixed_cubics(model()))
    s = _Suite()

    hp_x5 = HilbertPolynomial([1, Fraction(8, 3), Fraction(5, 2), Fraction(5, 6)])

    def threefold_hp():
        hp = hilbert_polynomial(model().threefold)
        deg = hp.variety_degree()
        return (hp == hp_x5 and deg == 5), f"{hp}, degree {deg}"

    s.check("threefold-hilbert",
            "the five quadrics cut an anticanonically embedded threefold "
            "of degree five",
            f"{hp_x5}, degree 5", threefold_hp)

    def oracle():
        values = []
        threefold = model().threefold
        for d in range(check_degree + 1):
            a = hilbert_function(threefold, d)
            b = hilbert_function_direct(threefold, d)
            c = hp_x5(d)
            if not (a == b == c):
                return False, f"degree {d}: basis count {a}, rank count {b}, polynomial {c}"
            values.append(a)
        return True, f"values {values}"

    s.check("hilbert-oracle",
            "standard-monomial counts, kernel ranks, and the Hilbert "
            "polynomial agree on the threefold",
            f"three-way agreement for degrees 0..{check_degree}, "
            "with 7 sections in degree 1",
            oracle)

    def line_census():
        records = dp5.fixed_lines(model())
        names = sorted(r.label for r in records)
        ok = (len(records) == 3 and names == ["l0", "l1", "l2"]
              and all(r.ideal == model().lines[r.label] for r in records))
        return ok, f"found {names}"

    s.check("line-census",
            "the pencil search finds exactly the three torus-fixed lines",
            "three pencils, matching the catalogued lines l0, l1, l2",
            line_census)

    def line_invariants():
        hp_line = HilbertPolynomial([1, 1])
        parts = []
        ok = True
        for name in sorted(model().lines):
            ideal = model().lines[name]
            hp = hilbert_polynomial(ideal)
            tan = tangent_dimension(ideal, within=model().threefold)
            ok = ok and hp == hp_line and tan == 2
            parts.append(f"{name}: {hp}, tangent {tan}")
        return ok, "; ".join(parts)

    s.check("line-invariants",
            "every fixed line moves in a 2-dimensional family on the "
            "threefold",
            "Hilbert polynomial m + 1 and tangent dimension 2 at each line",
            line_invariants)

    def line_hyperplanes():
        counts = {name: dp5.line_section_count(model(), name)
                  for name in sorted(model().lines)}
        return all(v == 5 for v in counts.values()), str(counts)

    s.check("line-hyperplanes",
            "each fixed line lies on five independent hyperplanes, giving "
            "ten section picks per line",
            "5 independent linear forms vanish on each line",
            line_hyperplanes)

    def conic_census():
        return _census_match(conics(), dp5.expected_conic_ideals(model()),
                             lambda r: r.details["omitted_weight"], 5)

    s.check("conic-census",
            "cutting with the five coordinate 4-spaces yields the five "
            "catalogued fixed conics",
            "5 of 5 saturated ideals match", conic_census)

    def conic_invariants():
        return _curve_invariants(conics(), HilbertPolynomial([1, 2]), 4,
                                 model().threefold)

    s.check("conic-invariants",
            "every fixed conic moves in a 4-dimensional family on the "
            "threefold",
            "Hilbert polynomial 2*m + 1 and tangent dimension 4 at each conic",
            conic_invariants)

    def cubic_census():
        expected = {frozenset(pair): ideal
                    for pair, ideal, _ in dp5.expected_cubic_rows(model())}
        return _census_match(cubics(), expected,
                             lambda r: frozenset(r.details["vertex_pair"]), 10)

    s.check("cubic-census",
            "the incidence loci of all ten coordinate lines reproduce the "
            "catalogued fixed cubics",
            "10 of 10 saturated ideals match", cubic_census)

    def cubic_invariants():
        return _curve_invariants(cubics(), HilbertPolynomial([1, 3]), 6,
                                 model().threefold)

    s.check("cubic-invariants",
            "every fixed cubic moves in a 6-dimensional family on the "
            "threefold",
            "Hilbert polynomial 3*m + 1 and tangent dimension 6 at each cubic",
            cubic_invariants)
    return s.checks


def _census_match(records, expected: dict, key, count: int):
    """Whether each of exactly `count` records has the catalogued ideal
    stored under its key."""
    hits = sum(r.ideal == expected[key(r)] for r in records)
    return hits == count == len(records), f"{hits} of {len(records)} match"


def _curve_invariants(records, hp: HilbertPolynomial, tangent: int,
                      threefold: Ideal):
    """Whether every record has Hilbert polynomial `hp` and tangent
    dimension `tangent` on the threefold; reports the tangent dimensions."""
    hp_ok = all(hilbert_polynomial(r.ideal) == hp for r in records)
    tans = [tangent_dimension(r.ideal, within=threefold) for r in records]
    return hp_ok and all(t == tangent for t in tans), f"tangents {tans}"


def _section_4(check_degree: int) -> list[CheckResult]:
    model = dp5.build_model
    records = cache(lambda: dp5.enumerate_fixed_quartics(model()).records)
    s = _Suite()

    def section_degrees():
        hp_e = HilbertPolynomial([0, 5])
        bad = [f"{r.line}{r.pick}" for r in records() if r.quintic_hilbert != hp_e]
        return not bad, (f"5*m at all {len(records())} sections" if not bad
                         else f"wrong at {bad}")

    s.check("section-degrees",
            "every hyperplane pair through a fixed line cuts a quintic "
            "curve section out of the threefold",
            "Hilbert polynomial 5*m for all 30 sections", section_degrees)

    def residual_degrees():
        hp_c = HilbertPolynomial([1, 4])
        bad = [f"{r.line}{r.pick}" for r in records() if r.curve_hilbert != hp_c]
        invariants = {r.curve_hilbert.curve_invariants() for r in records()}
        return (not bad and invariants == {(4, 0)}), \
            f"degree-genus pairs {sorted(invariants)}"

    s.check("residual-degrees",
            "removing the line from each section leaves a quartic of "
            "arithmetic genus zero",
            "Hilbert polynomial 4*m + 1, so (degree, genus) = (4, 0), "
            "for all 30 residuals", residual_degrees)

    def residual_difference():
        ok = all(_hp_coeff_difference(r.quintic_hilbert, r.curve_hilbert)
                 == (-1, 1) for r in records())
        return ok, "difference m - 1 at all 30 residuals"

    s.check("residual-difference",
            "each residual differs from its section by a line's worth of "
            "Hilbert polynomial",
            "HP(section) - HP(residual) = m - 1", residual_difference)

    def secants():
        hp_two = HilbertPolynomial([2])
        with_secant = [r for r in records() if r.secant_hilbert is not None]
        ok = all(r.secant_hilbert == hp_two for r in with_secant)
        return ok, (f"constant 2 at {len(with_secant)} curves; the line is "
                    f"a component of the other {len(records()) - len(with_secant)}")

    s.check("secant-intersections",
            "whenever the cut line is not a component it meets the "
            "residual quartic in a length-two scheme",
            "intersection Hilbert polynomial is the constant 2",
            secants)

    def spans():
        ok = True
        for r in records():
            ok = (ok and r.curve.is_torus_fixed()
                  and dp5.linear_span_dimension(r.curve) == 4
                  and r.curve.contains_ideal(model().threefold))
        return ok, "all 30 torus-fixed, spanning a hyperplane, on the threefold"

    s.check("residual-spans",
            "every residual quartic is torus-fixed, nondegenerate in its "
            "hyperplane, and lies on the threefold",
            "weight-homogeneous ideals with exactly two independent linear "
            "forms, containing the threefold ideal", spans)
    return s.checks


def _hp_coeff_difference(a: HilbertPolynomial, b: HilbertPolynomial) -> tuple:
    width = max(len(a.coeffs), len(b.coeffs))
    pad = lambda c: tuple(c) + (Fraction(0),) * (width - len(c))
    return tuple(x - y for x, y in zip(pad(a.coeffs), pad(b.coeffs)))


def _section_5(check_degree: int) -> list[CheckResult]:
    model = dp5.build_model
    census = cache(lambda: dp5.enumerate_fixed_quartics(model()))
    rnc_out = cache(lambda: dp5.rnc_check(model()))
    s = _Suite()

    def census_size():
        records = census().records
        keys = {r.curve.canonical_key() for r in records}
        return (len(records) == 30 and len(keys) == 30), \
            f"{len(records)} curves, {len(keys)} distinct ideals"

    s.check("quartic-census-size",
            "three fixed lines with ten hyperplane picks each give thirty "
            "distinct fixed quartics",
            "30 pairwise distinct saturated ideals", census_size)

    def involution_classes():
        orbits = census().orbits
        rows = sorted(o.row for o in orbits if o.row is not None)
        rnc_orbits = [o for o in orbits if o.label == "C4"]
        self_mirror = {(o.label, o.row) for o in orbits if o.self_mirror}
        ok = (len(orbits) == 16
              and rows == list(range(1, 16))
              and len(rnc_orbits) == 1
              and self_mirror == {("C4", None), ("l1+l2+C2", 2)})
        return ok, (f"{len(orbits)} classes; catalogued rows {rows}; "
                    f"self-mirror {sorted(self_mirror, key=str)}")

    s.check("involution-classes",
            "the coefficient-reversing involution groups the thirty "
            "quartics into sixteen classes: the fifteen catalogued "
            "reducible rows plus the rational normal curve",
            "16 classes, rows 1..15 each hit once, and exactly the "
            "rational curve class and row 2 are self-mirror",
            involution_classes)

    def quartic_tangents():
        tans = sorted({r.relative_tangent for r in census().records})
        return tans == [8], f"tangent dimensions {tans} across all 30"

    s.check("quartic-tangents",
            "every fixed quartic moves in an 8-dimensional family on the "
            "threefold",
            "tangent dimension 8 at all 30 curves", quartic_tangents)

    def rnc():
        out = rnc_out()
        return out["passed"], (f"determinantal match: {out['determinantal_equal']}; "
                               f"{out['hilbert']}; span {out['span']}; "
                               f"on threefold: {out['on_threefold']}")

    s.check("rnc-determinantal",
            "the unique irreducible fixed quartic is the rational normal "
            "curve cut by two hyperplanes and six determinantal quadrics",
            "printed ideal equals the determinantal one; Hilbert polynomial "
            "4*m + 1; torus-fixed; spans a hyperplane; on the threefold",
            rnc)

    def rnc_tangent():
        out = rnc_out()
        return None, (f"ambient {out['tangent_ambient']}, "
                      f"relative {out['tangent_relative']}")

    s.check("rnc-tangent",
            "tangent dimensions at the rational normal quartic, in the "
            "full ambient space and on the threefold",
            "(reported)", rnc_tangent)

    def hom_bound():
        dim = dp5.vertex_cubic_hom_bound(model())
        return dim <= 2, str(dim)

    s.check("hom-bound",
            "twisted maps from the triple-line cubic to the middle line "
            "are at most 2-dimensional",
            "at most 2", hom_bound)
    return s.checks


# ---------------------------------------------------------------------------
# randomized property suites

def _properties(check_degree: int) -> list[CheckResult]:
    s = _Suite()
    s.check("groebner-axioms",
            "reduced bases reduce their inputs and S-polynomials to zero "
            "and give canonical normal forms",
            "30 randomized cases", lambda: _prop_groebner(30))
    s.check("quotient-containment",
            "multiplying an ideal quotient back never leaves the ideal",
            "25 randomized cases", lambda: _prop_quotient(25))
    s.check("saturation-idempotent",
            "saturation is idempotent, contains the ideal, and the "
            "variable fast path matches the general construction",
            "20 randomized cases", lambda: _prop_saturation(20))
    s.check("intersection-product",
            "intersections sit between the product and both factors",
            "25 randomized cases", lambda: _prop_intersection(25))
    s.check("hilbert-two-method",
            "standard-monomial and rank-based Hilbert functions agree",
            f"20 randomized cases, degrees 0..{check_degree}",
            lambda: _prop_hilbert(20, check_degree))
    s.check("hom-presentation",
            "graded Hom dimensions do not depend on the chosen generators",
            "12 randomized cases", lambda: _prop_hom(12))
    return s.checks


def _random_context(rng: random.Random, max_vars: int = 4) -> RingContext:
    return RingContext(("x", "y", "z", "w")[: rng.randint(2, max_vars)])


def _random_poly(rng: random.Random, ctx: RingContext,
                 homogeneous: bool = False) -> Polynomial:
    while True:
        terms: dict[tuple, Fraction] = {}
        if homogeneous:
            pool = list(degree_monomials(ctx.nvars, rng.randint(1, 3)))
            picks = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
            for exps in picks:
                c = rng.randint(-3, 3)
                if c:
                    terms[exps] = Fraction(c)
        else:
            for _ in range(rng.randint(1, 4)):
                exps = [0] * ctx.nvars
                for _ in range(rng.randint(0, 3)):
                    exps[rng.randrange(ctx.nvars)] += 1
                c = rng.randint(-3, 3)
                if c:
                    key = tuple(exps)
                    terms[key] = terms.get(key, Fraction(0)) + c
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return Polynomial(ctx, terms)


def _random_ideal(rng: random.Random, ctx: RingContext, max_gens: int = 3,
                  homogeneous: bool = False) -> Ideal:
    return Ideal(ctx, [_random_poly(rng, ctx, homogeneous)
                       for _ in range(rng.randint(1, max_gens))])


def _prop_groebner(cases: int):
    rng = random.Random(_PROPERTY_SEED)
    for case in range(cases):
        ctx = _random_context(rng)
        gens = [_random_poly(rng, ctx) for _ in range(rng.randint(1, 3))]
        gb = reduced_groebner_basis(gens)
        for g in gens:
            if not gb.contains(g):
                return False, f"case {case}: input escapes its own basis"
        els = gb.elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                mi = els[i].lead_monomial(GREVLEX)
                mj = els[j].lead_monomial(GREVLEX)
                lcm = mono_lcm(mi, mj)
                spoly = els[i].term_multiple(
                    mono_div(lcm, mi), 1 / els[i].lead_coefficient(GREVLEX))
                spoly = spoly - els[j].term_multiple(
                    mono_div(lcm, mj), 1 / els[j].lead_coefficient(GREVLEX))
                if not gb.normal_form(spoly).is_zero():
                    return False, f"case {case}: S-polynomial survives reduction"
        combo = ctx.zero()
        for g in gens:
            combo = combo + _random_poly(rng, ctx) * g
        if not gb.contains(combo):
            return False, f"case {case}: combination escapes membership"
        p = _random_poly(rng, ctx)
        r = gb.normal_form(p)
        if gb.normal_form(r) != r:
            return False, f"case {case}: normal form not idempotent"
    return True, f"{cases} cases passed"


def _prop_quotient(cases: int):
    rng = random.Random(_PROPERTY_SEED + 1)
    for case in range(cases):
        ctx = _random_context(rng)
        I = _random_ideal(rng, ctx, 2)
        J = _random_ideal(rng, ctx, 2)
        Q = I.quotient(J)
        if not Q.contains_ideal(I):
            return False, f"case {case}: quotient lost the ideal"
        for q in Q.gens:
            for j in J.gens:
                if q * j not in I:
                    return False, f"case {case}: (I:J)*J escapes I"
    return True, f"{cases} cases passed"


def _prop_saturation(cases: int):
    rng = random.Random(_PROPERTY_SEED + 2)
    for case in range(cases):
        ctx = _random_context(rng)
        homogeneous = case % 2 == 0
        I = _random_ideal(rng, ctx, 2, homogeneous)
        f = _random_poly(rng, ctx, homogeneous)
        S = I.saturate(f)
        if not S.contains_ideal(I):
            return False, f"case {case}: saturation lost the ideal"
        if S.saturate(f) != S:
            return False, f"case {case}: saturation not idempotent"
        if homogeneous:
            name = ctx.variables[rng.randrange(ctx.nvars)]
            if I.saturate_variable(name) != I._saturate_poly(ctx.variable(name)):
                return False, f"case {case}: variable fast path disagrees"
    return True, f"{cases} cases passed"


def _prop_intersection(cases: int):
    rng = random.Random(_PROPERTY_SEED + 3)
    for case in range(cases):
        ctx = _random_context(rng)
        I = _random_ideal(rng, ctx, 2)
        J = _random_ideal(rng, ctx, 2)
        M = I.intersect(J)
        if not (I.contains_ideal(M) and J.contains_ideal(M)):
            return False, f"case {case}: intersection escapes a factor"
        if not M.contains_ideal(I * J):
            return False, f"case {case}: product escapes the intersection"
    return True, f"{cases} cases passed"


def _prop_hilbert(cases: int, check_degree: int):
    rng = random.Random(_PROPERTY_SEED + 4)
    for case in range(cases):
        ctx = _random_context(rng)
        I = _random_ideal(rng, ctx, 3, homogeneous=True)
        for d in range(check_degree + 1):
            a = hilbert_function(I, d)
            b = hilbert_function_direct(I, d)
            if a != b:
                return False, f"case {case}: degree {d} gives {a} vs {b}"
    return True, f"{cases} cases passed"


def _prop_hom(cases: int):
    rng = random.Random(_PROPERTY_SEED + 5)
    for case in range(cases):
        ctx = _random_context(rng, max_vars=3)
        source = _random_ideal(rng, ctx, 2, homogeneous=True)
        target = _random_ideal(rng, ctx, 2, homogeneous=True)
        # re-present the source: shuffle and append a redundant combination
        gens = list(source.gens)
        rng.shuffle(gens)
        extra = gens[0] * _random_poly(rng, ctx, homogeneous=True)
        alt = Ideal(ctx, gens + [extra])
        for twist in (-1, 0, 1):
            a = graded_hom_dimension(source, target, twist)
            b = graded_hom_dimension(alt, target, twist)
            if a != b:
                return False, (f"case {case}: twist {twist} gives {a} "
                               f"then {b} after re-presentation")
    return True, f"{cases} cases passed"

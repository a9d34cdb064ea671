"""The three benchmark workloads and the pinned answers they are checked against.

Each workload builds fresh inputs for one cold pass (`inputs`), runs the
pass against the public API (`run`, the only timed call, which returns
the outputs and the wall interval of each operation, or None when the
operation is the pass itself), and checks the outputs afterwards
(`check`).  Every call into the package goes through a
module attribute, so that the traced run sees it.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

# ---------------------------------------------------------------------------
# suite-all: `dp5 suite all --format json`


class SuiteAll:
    """The user-facing end-to-end run; one operation is one invocation."""

    name = "suite-all"
    argv = ("suite", "all", "--format", "json")
    # every check of the suite, in report order, with its pinned status
    CHECKS = (
        ("coordinate-change", "pass"), ("invariant-subspace", "pass"),
        ("threefold-hilbert", "pass"), ("hilbert-oracle", "pass"),
        ("line-census", "pass"), ("line-invariants", "pass"),
        ("line-hyperplanes", "pass"), ("conic-census", "pass"),
        ("conic-invariants", "pass"), ("cubic-census", "pass"),
        ("cubic-invariants", "pass"), ("section-degrees", "pass"),
        ("residual-degrees", "pass"), ("residual-difference", "pass"),
        ("secant-intersections", "pass"), ("residual-spans", "pass"),
        ("quartic-census-size", "pass"), ("involution-classes", "pass"),
        ("quartic-tangents", "pass"), ("rnc-determinantal", "pass"),
        ("rnc-tangent", "warn"), ("hom-bound", "pass"),
        ("groebner-axioms", "pass"), ("quotient-containment", "pass"),
        ("saturation-idempotent", "pass"), ("intersection-product", "pass"),
        ("hilbert-two-method", "pass"), ("hom-presentation", "pass"),
    )

    def __init__(self, dp, seed: int):
        self.dp = dp

    def inputs(self):
        return self.argv

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.dp.cli.main(list(argv))
        return (code, out.getvalue()), None

    def check(self, outputs, first: bool) -> tuple[int, list[str]]:
        """Failed operations (checks plus the census-key comparison) and notes.

        Runs while the pass's model and census are still cached, so the
        census keys come from the run that was timed.
        """
        code, text = outputs
        problems = []
        try:
            report = json.loads(text)
        except ValueError:
            return len(self.CHECKS) + 1, [f"exit {code}; output is not JSON"]
        if code != 0 or report.get("status") != "pass":
            problems.append(f"exit {code}, status {report.get('status')}")
        got = {c["id"]: c["status"] for c in report.get("checks", [])}
        if [c["id"] for c in report.get("checks", [])] != [cid for cid, _ in self.CHECKS]:
            problems.append(f"check ids differ: {sorted(got)}")
        failed = sum(got.get(cid) != status for cid, status in self.CHECKS)
        problems += [f"{cid}: {got.get(cid)}" for cid, status in self.CHECKS
                     if got.get(cid) != status]
        if not self._census_keys_match():
            failed += 1
            problems.append("census keys differ from the catalog rows plus mirrors")
        return failed, problems

    def attempted(self) -> int:
        return len(self.CHECKS) + 1

    def _census_keys_match(self) -> bool:
        dp5 = self.dp.dp5
        model = dp5.build_model()
        census = dp5.enumerate_fixed_quartics(model)
        found = {r.curve.canonical_key() for r in census.records}
        expected = {dp5.rnc_ideal(model).canonical_key()}
        for ideal, _ in dp5.expected_quartic_rows(model):
            expected.add(ideal.canonical_key())
            expected.add(dp5.mirror_ideal(model, ideal).canonical_key())
        return len(found) == 30 and found == expected

    def reported_s(self, outputs) -> float | None:
        """Seconds the report attributes to its checks."""
        return sum(c["ms"] for c in json.loads(outputs[1])["checks"]) / 1000


# ---------------------------------------------------------------------------
# tangent-census: 96 Hom solves over the catalogued curves


class TangentCensus:
    """Relative and ambient tangent dimension of all 48 catalogued curves.

    The ideals come from the catalog, so no saturation runs.  One
    operation is one Hom solve; the seed only permutes the curves.
    """

    name = "tangent-census"
    RELATIVE = {1: 2, 2: 4, 3: 6, 4: 8}
    AMBIENT = {1: 10, 2: 17, 3: 24, 4: 31}
    COUNTS = {1: 3, 2: 5, 3: 10, 4: 30}

    def __init__(self, dp, seed: int):
        self.dp = dp
        self.permutation = list(range(sum(self.COUNTS.values())))
        random.Random(seed).shuffle(self.permutation)

    def inputs(self):
        return None

    def run(self, _):
        dp5 = self.dp.dp5
        model = dp5.build_model()
        curves = [(1, ideal) for _, ideal in sorted(model.lines.items())]
        curves += [(2, ideal) for _, ideal in sorted(dp5.expected_conic_ideals(model).items())]
        curves += [(3, ideal) for _, ideal, _ in dp5.expected_cubic_rows(model)]
        self_mirror = self.dp.tables.SELF_MIRROR_QUARTIC_ROW
        for row, (ideal, _) in enumerate(dp5.expected_quartic_rows(model), start=1):
            curves.append((4, ideal))
            if row != self_mirror:
                curves.append((4, dp5.mirror_ideal(model, ideal)))
        curves.append((4, dp5.rnc_ideal(model)))
        curves = [curves[k] for k in self.permutation]

        tangent = self.dp.tangent_dimension
        perf = time.perf_counter
        results, ops = [], []
        for degree, ideal in curves:
            dims = []
            for within in (model.threefold, None):
                t0 = perf()
                try:
                    dims.append(tangent(ideal, within=within))
                except Exception as exc:  # a raising solve is a failed operation
                    dims.append(f"error: {exc!r}")
                ops.append((t0, perf()))
            results.append((degree, ideal, dims))
        return results, ops

    def check(self, results, first: bool) -> tuple[int, list[str]]:
        failed, problems = 0, []
        degrees = sorted(degree for degree, _, _ in results)
        if degrees != sorted(d for d, n in self.COUNTS.items() for _ in range(n)):
            failed += 1
            problems.append(f"curve degrees {degrees}")
        for degree, ideal, (relative, ambient) in results:
            for got, want, kind in ((relative, self.RELATIVE[degree], "relative"),
                                    (ambient, self.AMBIENT[degree], "ambient")):
                if got != want:
                    failed += 1
                    problems.append(f"degree {degree} {kind}: {got} != {want}")
        keys = {ideal.canonical_key() for _, ideal, _ in results}
        if len(keys) != len(results):
            failed += 1
            problems.append(f"{len(keys)} distinct ideals among {len(results)} curves")
        return failed, problems

    def attempted(self) -> int:
        return 2 * sum(self.COUNTS.values()) + 2

    def reported_s(self, outputs) -> float | None:
        return None


# ---------------------------------------------------------------------------
# kernel-random: seeded homogeneous ideals through every kernel layer

VARIABLES = ("x", "y", "z", "w")
# Generator degrees of I, by number of variables, and of J.  The cases
# run through every (variables, I shape, J shape) triple three times, so
# every seed runs the same mix of shapes and only the supports and
# coefficients change; the number of terms per generator of I alternates
# over the (I shape, J shape) grid.  Three instances per triple keep the
# seed's effect on the operation quantiles to a few percent.  Generators are homogeneous: with inhomogeneous
# ones a single intersection can take tens of seconds.
I_SHAPES = {
    2: ((1,), (2,), (3,), (2, 2), (1, 3), (2, 3), (1, 2, 3), (3, 3)),
    3: ((1,), (2,), (3,), (2, 2), (1, 2), (2, 3), (1, 1, 2), (1, 2, 2)),
    4: ((1,), (2,), (3,), (2, 2), (1, 2), (1, 3), (1, 1, 2), (1, 1, 1)),
}
J_SHAPES = ((1,), (2,), (1, 1), (1, 2))
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)
CASES = 288
HILBERT_DEGREES = range(9)
TWISTS = (-1, 0, 1)


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree, -1, -1)
            for rest in _monomials(nvars - 1, degree - a)]


def _form(rng: random.Random, nvars: int, degree: int, terms: int) -> dict:
    pool = _monomials(nvars, degree)
    return {m: rng.choice(COEFFICIENTS)
            for m in rng.sample(pool, k=min(len(pool), terms))}


def random_cases(seed: int) -> list[tuple]:
    """(nvars, I terms, J terms, f terms) for each case, from the seed alone."""
    rng = random.Random(seed)
    cases = []
    for k in range(CASES):
        nvars = 2 + k % 3
        i_degrees = I_SHAPES[nvars][(k // 3) % 8]
        j_degrees = J_SHAPES[(k // 24) % 4]
        terms = 2 + (k // 3 + k // 24) % 2
        cases.append((nvars,
                      [_form(rng, nvars, d, terms) for d in i_degrees],
                      [_form(rng, nvars, d, 2) for d in j_degrees],
                      _form(rng, nvars, 1, 2)))
    return cases


class KernelRandom:
    """Many small ideals through the kernel; one operation is one case."""

    name = "kernel-random"

    def __init__(self, dp, seed: int):
        self.dp = dp
        self.cases = random_cases(seed)
        self.reference = None

    def inputs(self):
        dp = self.dp
        built = []
        for nvars, i_gens, j_gens, f in self.cases:
            ctx = dp.RingContext(VARIABLES[:nvars])

            def poly(terms):
                return dp.Polynomial(ctx, {m: Fraction(c) for m, c in terms.items()})

            built.append((dp.Ideal(ctx, [poly(t) for t in i_gens]),
                          dp.Ideal(ctx, [poly(t) for t in j_gens]), poly(f)))
        return built

    def run(self, cases):
        dp = self.dp
        perf = time.perf_counter
        results, ops = [], []
        for I, J, f in cases:
            t0 = perf()
            try:
                out = {
                    "grevlex": I.groebner(dp.GREVLEX),
                    "lex": I.groebner(dp.LEX),
                    "saturate": I.saturate(f),
                    "saturate_irrelevant": I.saturate_irrelevant(),
                    "intersect": I.intersect(J),
                    "quotient": I.quotient(J),
                    "hf": [dp.hilbert_function(I, d) for d in HILBERT_DEGREES],
                    "hf_direct": [dp.hilbert_function_direct(I, d) for d in HILBERT_DEGREES],
                    "hp": dp.hilbert_polynomial(I),
                    "hom": [dp.graded_hom_dimension(I, J, t) for t in TWISTS],
                }
            except Exception as exc:  # a raising case is a failed operation
                out = {"error": repr(exc)}
            ops.append((t0, perf()))
            results.append((I, J, out))
        return results, ops

    def check(self, results, first: bool) -> tuple[int, list[str]]:
        """Cross-check every case on the first pass; later passes must
        reproduce the first pass's outputs exactly."""
        failed, problems = 0, []
        prints = []
        for k, (I, J, out) in enumerate(results):
            if "error" in out:
                failed += 1
                problems.append(f"case {k}: {out['error']}")
                prints.append(None)
                continue
            prints.append(self._fingerprint(out))
            if first:
                bad = self._cross_check(I, J, out)
                if bad:
                    failed += 1
                    problems.append(f"case {k}: {bad}")
        if first:
            self.reference = prints
        else:
            for k, (a, b) in enumerate(zip(prints, self.reference)):
                if a != b:
                    failed += 1
                    problems.append(f"case {k}: outputs differ from the first pass")
        return failed, problems

    def _fingerprint(self, out) -> tuple:
        fmt = self.dp.format_polynomial
        ideals = tuple(tuple(fmt(g) for g in out[k].gens)
                       for k in ("saturate", "saturate_irrelevant", "intersect", "quotient"))
        bases = tuple(tuple(fmt(g) for g in out[k]) for k in ("grevlex", "lex"))
        return (ideals, bases, tuple(out["hf"]), tuple(out["hf_direct"]),
                out["hp"].coeffs, tuple(out["hom"]))

    @staticmethod
    def _cross_check(I, J, out) -> str | None:
        if out["hf"] != out["hf_direct"]:
            return f"Hilbert functions differ: {out['hf']} vs {out['hf_direct']}"
        M, Q = out["intersect"], out["quotient"]
        if not (I.contains_ideal(M) and J.contains_ideal(M)):
            return "intersection escapes a factor"
        if not M.contains_ideal(I * J):
            return "product escapes the intersection"
        if any(q * j not in I for q in Q.gens for j in J.gens):
            return "(I:J)*J escapes I"
        if not (out["saturate"].contains_ideal(I) and out["saturate_irrelevant"].contains_ideal(I)):
            return "a saturation lost the ideal"
        return None

    def attempted(self) -> int:
        return len(self.cases)

    def reported_s(self, outputs) -> float | None:
        return None


WORKLOADS = {w.name: w for w in (SuiteAll, TangentCensus, KernelRandom)}

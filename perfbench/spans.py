"""Per-layer spans and counters, recorded from outside the package.

`Tracer.installed()` rebinds each traced function wherever a
``delpezzo5`` module holds it (its home module and every module that
imported it by name), and each traced method on its class, to a wrapper
that records a span; leaving the block puts the originals back.  The
package's source is never modified.

A span has a name, a duration and the time its child spans cover; the
difference is the span's self time.  `MonomialOrder.key` is counted
without a span, because it runs millions of times per pass.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median_low, quantiles

PACKAGE = "delpezzo5"

# (module, function, span name): rebound in every module that holds it
FUNCTIONS = (
    ("groebner", "reduced_groebner_basis", "groebner.basis"),
    ("groebner", "normal_form", "groebner.nf"),
    ("groebner", "syzygy_columns", "groebner.syzygy"),
    ("hilbert", "hilbert_polynomial", "hilbert.polynomial"),
    ("hilbert", "standard_monomials", "hilbert.standard_monomials"),
    ("hilbert", "hilbert_function_direct", "hilbert.direct"),
    ("homspaces", "graded_hom_dimension", "homspaces.hom"),
    ("linalg", "rref", "linalg.dense"),
    ("linalg", "rank", "linalg.dense"),
    ("linalg", "row_space_equal", "linalg.dense"),
    ("dp5", "residual_quartic", "dp5.residual"),
    ("dp5", "mirror_ideal", "dp5.mirror"),
    ("dp5", "enumerate_fixed_quartics", "dp5.census"),
    ("dp5", "fixed_conics", "dp5.conics"),
    ("dp5", "fixed_cubics", "dp5.cubics"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)

# (module, name, span name): only this one binding, to attribute the
# tangent stage of the quartic census to dp5
BINDINGS = (
    ("dp5", "tangent_dimension", "dp5.tangent"),
)

# (module, class, method, span name)
METHODS = (
    ("ideals", "Ideal", "groebner", "ideals.groebner"),
    ("ideals", "Ideal", "saturate_irrelevant", "ideals.saturate_irrelevant"),
    ("ideals", "Ideal", "saturate_variable", "ideals.saturate_variable"),
    ("ideals", "Ideal", "intersect", "ideals.intersect"),
    ("ideals", "Ideal", "quotient", "ideals.quotient"),
    ("ideals", "Ideal", "canonical_key", "ideals.canonical_key"),
    ("linalg", "SparseEchelon", "add_row", "linalg.echelon"),
)

ORDER_KINDS = {"LexOrder": "lex", "GrevlexOrder": "grevlex", "BlockOrder": "block"}


def suite_builders(verify) -> list[tuple[str, str]]:
    """(attribute, suite name) of each suite builder `run_suite` dispatches to."""
    return [("_" + name.replace("-", "_"), name) for name in verify.SUITE_NAMES]


class Tracer:
    """Span totals of one traced pass; each `installed()` block starts afresh."""

    def __init__(self):
        self._reset()

    def _reset(self) -> None:
        self.stack: list[list] = []      # open spans: [name, child seconds, spawned a basis]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.key_calls = [0]
        self.covered_s = 0.0             # wall time inside some top-level span

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name: str, fn, after=None):
        perf = time.perf_counter
        stack = self.stack
        calls, total, self_s = self.calls, self.total, self.self_s
        keep = self.durations[name] if name == "dp5.residual" else None

        def traced(*args, **kwargs):
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - frame[1]
                if keep is not None:
                    keep.append(dt)
                if stack:
                    stack[-1][1] += dt
                else:
                    self.covered_s += dt
            if after is not None:
                after(args, kwargs, result, frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_basis(self, args, kwargs, result, frame):
        order = args[1] if len(args) > 1 else kwargs.get("order")
        kind = ORDER_KINDS.get(type(order).__name__, "grevlex" if order is None else "other")
        self.counts["groebner.basis." + kind] += 1
        if self.stack and self.stack[-1][0] == "ideals.groebner":
            self.stack[-1][2] = True

    def _after_nf(self, args, kwargs, result, frame):
        if self.stack and self.stack[-1][0] == "groebner.basis":
            self.counts["groebner.reduce"] += 1
            remainder = result[0] if isinstance(result, tuple) else result
            if not remainder.is_zero():
                self.counts["groebner.reduce.useful"] += 1

    def _after_ideal_groebner(self, args, kwargs, result, frame):
        if frame[2]:
            self.counts["ideals.groebner.miss"] += 1

    def _after_add_row(self, args, kwargs, result, frame):
        if result:
            self.counts["linalg.echelon.pivots"] += 1

    def _counted_key(self, fn):
        cell = self.key_calls

        def key(order, exps):
            cell[0] += 1
            return fn(order, exps)

        key.__wrapped__ = fn
        return key

    # ------------------------------------------------------------------
    # installation

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        self._reset()
        mods = {name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
                if mod is not None and name.startswith(PACKAGE + ".")}
        holders = [sys.modules[PACKAGE], *mods.values()]
        after = {
            "groebner.basis": self._after_basis,
            "groebner.nf": self._after_nf,
            "ideals.groebner": self._after_ideal_groebner,
            "linalg.echelon": self._after_add_row,
        }
        undo: list[tuple[object, str, object]] = []

        def rebind(holder, attr, wrapper):
            undo.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, wrapper)

        functions = list(FUNCTIONS)
        functions += [("verify", attr, f"verify.suite.{suite}")
                      for attr, suite in suite_builders(mods["verify"])]
        try:
            for modname, attr, name in functions:
                original = getattr(mods[modname], attr)
                wrapper = self._span(name, original, after.get(name))
                for holder in holders:
                    for held, value in list(vars(holder).items()):
                        if value is original:
                            rebind(holder, held, wrapper)
            for modname, attr, name in BINDINGS:
                holder = mods[modname]
                rebind(holder, attr, self._span(name, getattr(holder, attr)))
            for modname, cls_name, attr, name in METHODS:
                cls = getattr(mods[modname], cls_name)
                rebind(cls, attr, self._span(name, cls.__dict__[attr], after.get(name)))
            order_classes = [mods["polyring"].MonomialOrder]
            while order_classes:
                cls = order_classes.pop()
                order_classes.extend(cls.__subclasses__())
                if "key" in cls.__dict__:
                    rebind(cls, "key", self._counted_key(cls.__dict__["key"]))
            yield self
        finally:
            for holder, attr, value in reversed(undo):
                setattr(holder, attr, value)

    # ------------------------------------------------------------------
    # results

    def counters(self) -> dict[str, int]:
        """Every deterministic count of the pass, for the repeat check."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"count.{k}": v for k, v in self.counts.items()})
        out["polyring.order_key"] = self.key_calls[0]
        return dict(sorted(out.items()))

    def layer_metrics(self, suites: list[str]) -> dict[str, float]:
        """Per-layer values of one traced pass, keyed by metric name."""
        c, tot, slf, n = self.calls, self.total, self.self_s, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        residual_ms = [d * 1000 for d in self.durations["dp5.residual"]]
        m = {
            "groebner.basis.calls": c["groebner.basis"],
            "groebner.basis.grevlex.calls": n["groebner.basis.grevlex"],
            "groebner.basis.lex.calls": n["groebner.basis.lex"],
            "groebner.basis.block.calls": n["groebner.basis.block"],
            "groebner.basis.self_s": slf["groebner.basis"],
            "groebner.reduce.calls": n["groebner.reduce"],
            "groebner.reduce.useful_frac": frac(n["groebner.reduce.useful"], n["groebner.reduce"]),
            "groebner.nf.calls": c["groebner.nf"],
            "groebner.nf.self_s": slf["groebner.nf"],
            "groebner.syzygy.calls": c["groebner.syzygy"],
            "groebner.syzygy.self_s": slf["groebner.syzygy"],
            "polyring.order_key.calls": self.key_calls[0],
            "ideals.saturate_irrelevant.calls": c["ideals.saturate_irrelevant"],
            "ideals.saturate_irrelevant.self_s": slf["ideals.saturate_irrelevant"],
            "ideals.saturate_variable.calls": c["ideals.saturate_variable"],
            "ideals.intersect.calls": c["ideals.intersect"],
            "ideals.intersect.self_s": slf["ideals.intersect"],
            "ideals.quotient.calls": c["ideals.quotient"],
            "ideals.quotient.self_s": slf["ideals.quotient"],
            "ideals.groebner.hit_frac": frac(c["ideals.groebner"] - n["ideals.groebner.miss"],
                                             c["ideals.groebner"]),
            "ideals.canonical_key.self_s": slf["ideals.canonical_key"],
            "hilbert.polynomial.self_s": slf["hilbert.polynomial"],
            "hilbert.standard_monomials.self_s": slf["hilbert.standard_monomials"],
            "hilbert.direct.calls": c["hilbert.direct"],
            "hilbert.direct.self_s": slf["hilbert.direct"],
            "homspaces.hom.calls": c["homspaces.hom"],
            "homspaces.hom.self_s": slf["homspaces.hom"],
            "homspaces.hom.total_s": tot["homspaces.hom"],
            "linalg.echelon.rows": c["linalg.echelon"],
            "linalg.echelon.pivot_frac": frac(n["linalg.echelon.pivots"], c["linalg.echelon"]),
            "linalg.echelon.self_s": slf["linalg.echelon"],
            "linalg.dense.calls": c["linalg.dense"],
            "dp5.residual.s": tot["dp5.residual"],
            "dp5.residual.p90_ms": p90(residual_ms),
            "dp5.mirror.s": tot["dp5.mirror"],
            "dp5.tangent.s": tot["dp5.tangent"],
            "dp5.census.s": tot["dp5.census"],
            "dp5.conics.s": tot["dp5.conics"],
            "dp5.cubics.s": tot["dp5.cubics"],
        }
        for suite in suites:
            m[f"verify.suite.{suite}.s"] = tot[f"verify.suite.{suite}"]
        return m


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples; 0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=10, method="inclusive")[8]


def median_of(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise low median of several passes' metrics: a value one of
    the passes measured, so a count that repeats stays a whole number."""
    return {k: median_low(s[k] for s in samples) for k in samples[0]}

"""Census benchmark for delpezzo5: cold passes of one workload, checked outputs.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
command repeats cold passes of the workload while the next one is
expected to end within ``--seconds`` (at least one pass), checks every
pass against pinned answers outside the timed region, and prints one
JSON result as its last line.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from traced passes, preceded by
one untraced pass that the tracing overhead is measured against.  A line
before the result gives the pass quartiles, failure share and a stamp of
the machine and commit.  The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, median_of, p90, suite_builders
from speed import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1   # seed 2 is held out for confirming a claimed gain; do not tune on it
SETUP_REPEATS = 9
MIN_TRACED_PASSES = 2

# import, model, and the threefold basis, in a fresh interpreter; then the
# reference loop's time there, to rescale the set-up to the reference speed
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import delpezzo5
delpezzo5.build_model().threefold.groebner()
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(setup_s, setup_s * speed.NOMINAL_S / speed.reference_seconds())
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> tuple[float, float]:
    """Median cold set-up time over fresh interpreters: (wall, at the reference speed)."""
    wall, normal = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        w, n = map(float, done.stdout.split()[-2:])
        wall.append(w)
        normal.append(n)
    return statistics.median(wall), statistics.median(normal)


def cold(dp) -> None:
    """Drop every cache the package keeps between calls."""
    dp.dp5.build_model.cache_clear()
    dp.dp5.enumerate_fixed_quartics.cache_clear()
    gc.collect()


def one_pass(dp, workload, tracer=None):
    """Run one cold pass: (wall seconds, reference-speed seconds of the pass
    and of each operation, outputs)."""
    cold(dp)
    inputs = workload.inputs()
    perf = time.perf_counter
    with SpeedProbe() as probe, (tracer.installed() if tracer else contextlib.nullcontext()):
        t0 = perf()
        outputs, ops = workload.run(inputs)
        t1 = perf()
    ops = [probe.normalised(a, b) for a, b in (ops if ops is not None else [(t0, t1)])]
    return t1 - t0, probe.normalised(t0, t1), ops, outputs


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def stamp(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(ROOT), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delpezzo5" / "__init__.py").is_file():
        print(f"error: no delpezzo5 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delpezzo5 as dp
    import delpezzo5.cli  # noqa: F401  (the suite-all entry point)

    workload = WORKLOADS[args.workload](dp, args.seed)
    tracer = Tracer() if args.trace else None
    setup_wall_s, setup_s = (None, None) if args.trace else setup_seconds()

    attempted = failed = 0
    problems: list[str] = []
    wall_s: list[float] = []
    pass_s: list[float] = []         # at the reference speed
    op_s: list[float] = []           # at the reference speed, pooled over passes
    layers: list[dict] = []
    counters = None
    untraced_s = None
    if tracer is not None:
        # the untraced reference pass the tracing overhead is measured against
        _, untraced_s, _, outputs = one_pass(dp, workload)
        bad, notes = workload.check(outputs, first=True)
        attempted += workload.attempted()
        failed += bad
        problems += notes

    start = time.perf_counter()
    while True:
        first = not wall_s and tracer is None
        dt, normal_s, ops, outputs = one_pass(dp, workload, tracer)
        wall_s.append(dt)
        bad, notes = workload.check(outputs, first=first)
        attempted += workload.attempted()
        failed += bad
        problems += notes
        if tracer is None:
            pass_s.append(normal_s)
            op_s.extend(ops)
        else:
            m = tracer.layer_metrics([s for _, s in suite_builders(dp.verify)])
            reported = workload.reported_s(outputs)
            suite_wall = tracer.total["verify.run_suite"]
            m["verify.unreported_frac"] = (1 - reported / suite_wall
                                           if reported is not None and suite_wall else 0.0)
            m["trace.pass_s"] = normal_s
            m["trace.uncovered_frac"] = 1 - tracer.covered_s / dt
            layers.append(m)
            if counters is None:
                counters = tracer.counters()
            elif tracer.counters() != counters:
                failed += 1
                attempted += 1
                diff = {k: (counters.get(k), v) for k, v in tracer.counters().items()
                        if counters.get(k) != v}
                problems.append(f"per-layer counts changed between passes: {diff}")
        # free this pass's results before the next one runs, so that the peak
        # resident set is that of one pass, whatever the number of passes
        del outputs
        # no pass may start that would end past the budget, given the last one
        enough = len(wall_s) >= (MIN_TRACED_PASSES if tracer is not None else 1)
        if enough and time.perf_counter() - start + dt > args.seconds:
            break

    if tracer is None:
        metrics = {
            "pass_s": (statistics.median(pass_s), "s"),
            "op_p50_ms": (statistics.median(op_s) * 1000, "ms"),
            "op_p90_ms": (p90(op_s) * 1000, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_layer = median_of(layers)
        per_layer["trace.overhead_s"] = per_layer["trace.pass_s"] - untraced_s
        metrics = {k: (v, _unit(k)) for k, v in per_layer.items()}

    detail = {
        "stamp": stamp(args),
        "wall_pass_s": quartiles(wall_s),
        "passes": len(wall_s),
        "ops": len(op_s),
        "fail_frac": failed / attempted,
        "problems": problems[:20],
    }
    if pass_s:
        detail["pass_s"] = quartiles(pass_s)
        detail["wall_setup_s"] = setup_wall_s
    if untraced_s is not None:
        detail["untraced_pass_s"] = untraced_s
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

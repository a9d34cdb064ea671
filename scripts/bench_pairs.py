"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py PARENT --workload suite-all --pairs 10 \\
        --seed 1 --out BENCH_<n>.json

Exports the parent revision with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py --trace 0`` on the parent and on
the working tree, one pair at a time, with the side that runs first
alternating from pair to pair.  Both sides use the run length that
``BENCHMARK.json`` fixes, and each writes its bytecode to its own cache
directory on its first run and reads it on the later ones, also where
the calling environment sets ``PYTHONDONTWRITEBYTECODE``.  After the pairs, one traced run per side
(``--trace 1``) gives the per-layer counts, and the counts that differ
are listed.

The result is merged into the ``--out`` file under the key
``"<workload> seed <seed>"``: what the working tree measured (``HEAD``,
a sha256 of ``git diff HEAD --binary`` under ``src/`` and ``tests/`` and
a sha256 of each untracked file there, taken before the first run, since
the measured change is usually not committed yet), each side's runs,
median and quartiles per end-to-end metric, the pairs the working tree
won, whether the median moved by more than the metric's bound, and
whether the gain rule holds (wins in at least nine tenths of the pairs
and a median gap larger than the parent's interquartile spread).  The
exit code is 1 when any run failed a check.  Standard library only;
nothing in the package imports this script, and
``tests/test_bench_pairs.py`` loads it from its file to check its
verdicts on synthetic runs.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 3600


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision to compare the working tree against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under dest, without touching the repository."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def working_tree() -> dict:
    """The code the working tree runs, beyond ``HEAD``: a sha256 of the
    uncommitted diff and of each untracked file under src/ and tests/."""
    paths = ("--", "src", "tests")
    untracked = git("ls-files", "--others", "--exclude-standard", "-z", *paths)
    return {
        "head": git("rev-parse", "HEAD").decode().strip(),
        "diff_sha256": hashlib.sha256(git("diff", "HEAD", "--binary", *paths)).hexdigest(),
        "untracked_sha256": {path: hashlib.sha256((ROOT / path).read_bytes()).hexdigest()
                             for path in untracked.decode().split("\0") if path},
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: int,
        pycache: Path) -> dict:
    """One benchmark run: its result line plus the detail line before it.
    Bytecode is read from and written to ``pycache`` only, so neither
    side reuses ``__pycache__`` directories that its tree happens to hold
    (the exported parent has none), which would tilt ``setup_s``.
    ``PYTHONDONTWRITEBYTECODE`` is left out of the run's environment, so
    that ``pycache`` fills on each side's first run and later runs
    measure neither compilation in ``setup_s`` nor its memory in
    ``peak_rss_mb``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"no result from {root}: exit {done.returncode}\n{done.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    result["exit"] = done.returncode
    result["detail"] = detail
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' runs and quartiles, pairs won by
    the change, the median's relative move, and the bound and gain verdicts."""
    out = {}
    pairs = len(parent)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sa, sb = spread(a), spread(b)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        worse_by = (sb["median"] - sa["median"]) / sa["median"] * (1 if lower else -1)
        gap = (sa["median"] - sb["median"]) * (1 if lower else -1)
        out[name] = {
            "unit": m["unit"],
            "parent": {"runs": a, **sa},
            "change": {"runs": b, **sb},
            "pairs_won": won,
            "worse_by": worse_by,
            "bound": m["bound"],
            "within_bound": worse_by <= m["bound"],
            "gain": won * 10 >= pairs * 9 and gap > sa["q3"] - sa["q1"],
        }
    return out


def count_diff(parent: dict, change: dict, per_layer: list[dict]) -> dict:
    """The per-layer counts of two traced runs that differ: name -> [parent, change]."""
    counts = [m["name"] for m in per_layer if m["unit"] == "count"]
    pm, cm = parent["metrics"], change["metrics"]
    return {k: [pm[k]["value"], cm[k]["value"]] for k in counts
            if k in pm and k in cm and pm[k]["value"] != cm[k]["value"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    parent_rev = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    change = working_tree()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp) / "tree"
        export(parent_rev, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        caches = {side: Path(tmp) / "pycache" / side for side in sides}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        first = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                r = run(sides[side], args.workload, args.seed, seconds, 0, caches[side])
                runs[side].append(r)
                pass_s = r["metrics"]["pass_s"]["value"]
                print(f"pair {k + 1}/{args.pairs} {side}: pass_s {pass_s:.3f}", file=sys.stderr)
        traced = {side: run(sides[side], args.workload, args.seed, seconds, 1, caches[side])
                  for side in ("parent", "change")}

    failed = [f"{side} run {i + 1}" for side, rs in runs.items()
              for i, r in enumerate(rs) if r["exit"] != 0 or r["failed"]]
    failed += [f"{side} traced run" for side, r in traced.items() if r["exit"] != 0 or r["failed"]]
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "first": first,
        "parent_commit": parent_rev,
        "change_base": change["head"],
        "change_diff_sha256": change["diff_sha256"],
        "change_untracked_sha256": change["untracked_sha256"],
        "stamp": {k: v for k, v in runs["change"][0]["detail"]["stamp"].items()
                  if k in ("python", "nproc", "cpu")},
        "failed_runs": failed,
        "attempted_failed": {side: [[r["attempted"], r["failed"]] for r in rs]
                             for side, rs in runs.items()},
        "end_to_end": compare(runs["parent"], runs["change"], bench["end_to_end"]),
        "traced": {side: {k: v["value"] for k, v in r["metrics"].items()}
                   for side, r in traced.items()},
        "traced_count_diff": count_diff(traced["parent"], traced["change"], bench["per_layer"]),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("entries", {})[f"{args.workload} seed {args.seed}"] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, v in entry["end_to_end"].items():
        print(f"{name}: parent {v['parent']['median']:.4g} change {v['change']['median']:.4g}"
              f" won {v['pairs_won']}/{args.pairs} worse_by {v['worse_by']:+.3f}"
              f" within_bound {v['within_bound']} gain {v['gain']}", file=sys.stderr)
    if failed:
        print(f"error: failed runs: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

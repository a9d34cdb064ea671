"""Dump the outputs a refactor must keep byte-identical, as one file.

    python3 scripts/dump_outputs.py OUT

Imports the package from this tree's ``src/`` and writes, one titled
section after another:

- ``census``: the 30 records and 16 orbits of `enumerate_fixed_quartics`;
- ``suite``: ``dp5 suite all --format json`` with every ``ms`` field removed;
- ``fixed``: ``dp5 fixed --degree D`` for D = 1..4, in text and JSON;
- ``residual``: ``dp5 residual`` for all 30 (line, pick), in text and JSON;
- ``tangent``: the relative and ambient tangent dimensions of the
  ``tangent-census`` workload's 48 curves;
- ``kernel``: the ``kernel-random`` fingerprints of seeds 1 and 2.

Two trees have the same outputs when their dumps compare equal with
``cmp``.  The workloads are read from ``perfbench/workloads.py``, which
this script does not change.  Standard library only; nothing in the
package imports this script, and ``tests/test_dump_outputs.py`` loads it
from its file.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SEEDS = (1, 2)
TANGENT_SEED = 1


def load_package():
    """The delpezzo5 package of this tree, with its command line."""
    sys.path.insert(0, str(ROOT / "src"))
    dp = importlib.import_module("delpezzo5")
    importlib.import_module("delpezzo5.cli")
    return dp


def load_workloads():
    """perfbench/workloads.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(dp, *argv: str) -> tuple[int, str]:
    """``dp5 ARGV``: its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dp.cli.main(list(argv))
    return code, out.getvalue()


def cli(dp, *argv: str) -> str:
    code, out = run_cli(dp, *argv)
    return f"$ dp5 {' '.join(argv)}\nexit {code}\n{out}"


def census(dp) -> str:
    dp5 = dp.dp5
    result = dp5.enumerate_fixed_quartics(dp5.build_model())
    lines = []
    for k, r in enumerate(result.records):
        lines.append(f"record {k}: line {r.line} pick {r.pick} label {r.label}"
                     f" orbit {r.orbit_index} relative_tangent {r.relative_tangent}"
                     f" certified {r.certified_section}")
        lines.append(f"  sections {[dp.format_polynomial(s) for s in r.sections]}")
        lines.append(f"  hilbert {r.quintic_hilbert} | {r.curve_hilbert} | {r.secant_hilbert}")
        lines.append(f"  quintic {list(r.quintic.canonical_key())}")
        lines.append(f"  curve {list(r.curve.canonical_key())}")
    for k, o in enumerate(result.orbits):
        lines.append(f"orbit {k}: label {o.label} row {o.row} self_mirror {o.self_mirror}"
                     f" members {list(o.members)}")
        lines += [f"  key {list(key)}" for key in o.keys]
    return "\n".join(lines) + "\n"


def suite(dp) -> str:
    code, out = run_cli(dp, "suite", "all", "--format", "json")
    report = json.loads(out)
    for check in report["checks"]:
        del check["ms"]
    return f"exit {code}\n{json.dumps(report, indent=2)}\n"


def fixed(dp) -> str:
    return "".join(cli(dp, "fixed", "--degree", str(d), *fmt)
                   for d in (1, 2, 3, 4) for fmt in ((), ("--format", "json")))


def residual(dp) -> str:
    return "".join(cli(dp, "residual", "--line", line, "--pick", f"{i},{j}", *fmt)
                   for line in ("l0", "l1", "l2") for i, j in combinations(range(5), 2)
                   for fmt in ((), ("--format", "json")))


def tangent(dp) -> str:
    workload = load_workloads().TangentCensus(dp, TANGENT_SEED)
    results, _ = workload.run(workload.inputs())
    return "".join(f"degree {degree} dims {dims} {list(ideal.canonical_key())}\n"
                   for degree, ideal, dims in results)


def kernel(dp) -> str:
    workloads = load_workloads()
    lines = []
    for seed in KERNEL_SEEDS:
        workload = workloads.KernelRandom(dp, seed)
        results, _ = workload.run(workload.inputs())
        lines += [f"seed {seed} case {k}: "
                  + (repr(out) if "error" in out else repr(workload._fingerprint(out)))
                  for k, (_, _, out) in enumerate(results)]
    return "\n".join(lines) + "\n"


SECTIONS = {"census": census, "suite": suite, "fixed": fixed, "residual": residual,
            "tangent": tangent, "kernel": kernel}


def dump(dp) -> str:
    return "".join(f"=== {name}\n{section(dp)}" for name, section in SECTIONS.items())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 scripts/dump_outputs.py OUT", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(dump(load_package()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

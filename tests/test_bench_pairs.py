"""The verdicts of scripts/bench_pairs.py on synthetic runs: the gain
rule (wins in at least nine tenths of the pairs and a median gap larger
than the parent's interquartile spread), the bound verdict, and the
traced count differences.  No benchmark is run."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

METRICS = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.2}]


def load_bench_pairs():
    """scripts/bench_pairs.py as a module, without putting scripts on the path."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = load_bench_pairs()


def runs(values, name="pass_s"):
    return [{"metrics": {name: {"value": v}}} for v in values]


def verdict(parent, change, metrics=METRICS):
    return BENCH.compare(runs(parent), runs(change), metrics)["pass_s"]


PARENT = [2.40, 2.45, 2.43, 2.47, 2.44, 2.46, 2.42, 2.48, 2.41, 2.44]


def test_spread_is_the_inclusive_quartiles():
    assert BENCH.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert BENCH.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_ten_wins_and_a_wide_gap_are_a_gain():
    v = verdict(PARENT, [x - 0.5 for x in PARENT])
    assert v["pairs_won"] == 10 and v["gain"] and v["within_bound"]
    assert v["worse_by"] == pytest.approx(-0.5 / 2.44)
    assert v["parent"]["runs"] == PARENT


def test_nine_wins_in_ten_are_enough():
    change = [x - 0.5 for x in PARENT]
    change[3] = PARENT[3]       # a tie counts for neither side
    v = verdict(PARENT, change)
    assert v["pairs_won"] == 9 and v["gain"]


def test_eight_wins_in_ten_are_no_gain():
    change = [x - 0.5 for x in PARENT]
    change[0], change[1] = PARENT[0] + 0.01, PARENT[1] + 0.01
    v = verdict(PARENT, change)
    assert v["pairs_won"] == 8 and not v["gain"]


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # every pair won, but by less than the parent's own interquartile spread
    v = verdict(PARENT, [x - 0.005 for x in PARENT])
    assert v["pairs_won"] == 10 and not v["gain"]


def test_bound_verdict():
    assert verdict(PARENT, [x * 1.19 for x in PARENT])["within_bound"]
    slow = verdict(PARENT, [x * 1.21 for x in PARENT])
    assert not slow["within_bound"] and not slow["gain"]
    higher = [{"name": "pass_s", "unit": "ratio", "better": "higher", "bound": 0.2}]
    v = verdict(PARENT, [x * 0.75 for x in PARENT], higher)
    assert v["worse_by"] == pytest.approx(0.25) and not v["within_bound"]
    assert v["pairs_won"] == 0


def test_count_diff_lists_only_the_counts_that_moved():
    per_layer = [{"name": "groebner.basis.calls", "unit": "count"},
                 {"name": "groebner.basis.grevlex.calls", "unit": "count"},
                 {"name": "groebner.basis.self_s", "unit": "s"},
                 {"name": "hilbert.direct.calls", "unit": "count"}]
    parent = {"metrics": {"groebner.basis.calls": {"value": 875},
                          "groebner.basis.grevlex.calls": {"value": 566},
                          "groebner.basis.self_s": {"value": 1.0},
                          "hilbert.direct.calls": {"value": 12}}}
    change = {"metrics": {"groebner.basis.calls": {"value": 974},
                          "groebner.basis.grevlex.calls": {"value": 665},
                          "groebner.basis.self_s": {"value": 0.5}}}
    assert BENCH.count_diff(parent, change, per_layer) == {
        "groebner.basis.calls": [875, 974],
        "groebner.basis.grevlex.calls": [566, 665]}


def test_runs_write_bytecode_to_their_own_cache(monkeypatch, tmp_path):
    # without PYTHONDONTWRITEBYTECODE the prefix fills on the first run,
    # so setup_s and peak_rss_mb stop measuring compilation
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("BENCH_PAIRS_KEPT", "yes")
    seen = {}

    def fake_run(cmd, cwd, env, capture_output, text, timeout):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        stdout = '{"stamp": {}}\n{"metrics": {}, "failed": 0}\n'
        return BENCH.subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(BENCH.subprocess, "run", fake_run)
    result = BENCH.run(tmp_path, "suite-all", 1, 30, 0, tmp_path / "pycache")
    assert "PYTHONDONTWRITEBYTECODE" not in seen["env"]
    assert seen["env"]["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache")
    assert seen["env"]["BENCH_PAIRS_KEPT"] == "yes"
    assert seen["cwd"] == tmp_path and seen["cmd"][1:3] == ["perfbench/run.py", "--workload"]
    assert result == {"metrics": {}, "failed": 0, "exit": 0, "detail": {"stamp": {}}}

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit
for every workload, traced and untraced; that a tampered record counts as
failed; that a target missing from vnlab is reported as absent; and that
the benchmark exits non-zero without a result where vnlab's sources are
missing.  The functions are also collected by pytest when this file is
named explicitly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import SpanStats, Tracer  # noqa: E402
from workloads import Checks, PassResult, check_bound_record, make_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "kernel_backend"}


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_metric_printed_with_unit():
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, out = _result(wl["name"], trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, lines
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: entry["unit"] for name, entry in out["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            for entry in out["metrics"].values():
                assert isinstance(entry["value"], (int, float)), entry
            env = json.loads(lines[0])["environment"]
            assert ENV_KEYS <= set(env), env
            assert any(line.startswith("failed_frac = 0 ") for line in lines), lines


def test_tampered_record_counts_as_failed():
    wl = make_workloads(tiny=True)["d_sweep"]
    result = wl.run_pass(wl.inputs(5))
    assert result.checks.failed == 0, result.checks.reasons
    rec = result.records[0]
    tampers = {
        "commutator_max": 1e-6,
        "opnorm_max_dev": 1e-3,
        "pte_value": rec["cardinality"] - 1.0,
        "pte_residual": 1e-3,
        "norm_lower": rec["norm_upper"] * 2.0,
        "direct_value": rec["bound"] * 0.5,
    }
    for field, value in tampers.items():
        checks = Checks()
        check_bound_record({**rec, field: value}, checks)
        assert (checks.attempted, checks.failed) == (1, 1), field
    changed = PassResult([{**rec, "bound": rec["bound"] * 2}], [], Checks())
    assert changed.digest != result.digest


def test_absent_target_is_reported():
    targets = [
        ("vnlab.dixon", "no_such_probe", "dixon.no_such_probe", None),
        ("vnlab.steiner", "greedy_generate", "steiner.greedy_generate", None),
    ]
    import vnlab.steiner

    original = vnlab.steiner.greedy_generate
    with Tracer(targets) as tracer:
        vnlab.steiner.greedy_generate(7, 3, 2, 1)
    assert vnlab.steiner.greedy_generate is original
    assert tracer.absent == ["vnlab.dixon.no_such_probe"]
    stats = SpanStats(tracer.spans)
    assert stats.calls("steiner.greedy_generate") == 1
    assert stats.calls("dixon.no_such_probe") == 0


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)

#!/usr/bin/env python3
"""vnlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload d_sweep --seed 1 --seconds 30 --trace 0

Workloads: d_sweep, c_sweep, chaos (see perfbench/README.md).  The run
imports vnlab from ``src/`` of the checkout, derives the program's inputs
from ``--seed``, warms up on a tiny input, then repeats one pass of the
workload until ``--seconds`` are used (at least three passes untraced) and
reports medians.  Every pass's outputs are checked and their records
digested; passes on the same inputs must agree.  With ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics come from the traced
ones; the spans of the last traced pass are written under perfbench/out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# Fix the BLAS pool before NumPy is imported; the environment block records it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_IMPORT = (
    "import vnlab.cli, vnlab.bounds, vnlab.dixon, vnlab.norms, vnlab.kernels, "
    "vnlab.polynomials, vnlab.rademacher, vnlab.report, vnlab.steiner"
)
SETUP_SAMPLES = 5
MIN_PASSES = 3


def start_interpreter() -> float:
    """Wall time of a fresh interpreter importing the CLI and the layers."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_IMPORT], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True
    )
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    from vnlab import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "kernel_backend": kernels.backend_name(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(st, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    m = {}
    name = "dixon.check_row_condition"
    m[f"{name}.self_s"] = metric(st.self_s(name), "s")
    m[f"{name}.total_s"] = metric(st.total_s(name), "s")
    pi = "dixon.power_iteration"
    m[f"{pi}.calls"] = metric(st.calls(pi), "count")
    m[f"{pi}.self_s"] = metric(st.self_s(pi), "s")
    m[f"{pi}.iterations"] = metric(st.count(pi, "iterations"), "count")
    m[f"{pi}.unconverged"] = metric(st.count(pi, "unconverged"), "count")
    for name in (
        "dixon.check_commuting",
        "dixon.build_tuple",
        "dixon.pte_coefficient",
        "dixon.polynomial_operator",
    ):
        m[f"{name}.self_s"] = metric(st.self_s(name), "s")
    for name in ("dixon.operator_norms", "dixon.operator_norm"):
        m[f"{name}.total_s"] = metric(st.total_s(name), "s")
    m["dixon.dimension"] = metric(st.count("dixon.build_tuple", "dimension"), "count")

    en = "norms.estimate_norm"
    m[f"{en}.calls"] = metric(st.calls(en), "count")
    m[f"{en}.self_s"] = metric(st.self_s(en), "s")
    m[f"{en}.total_s"] = metric(st.total_s(en), "s")
    restarts = st.count(en, "restarts")
    evals, grads = "kernels.poly_eval_batch", "kernels.poly_eval_grad_batch"
    m["norms.ascent.iterations"] = metric(st.count(en, "iterations"), "count")
    m["norms.ascent.restarts"] = metric(restarts, "count")
    m["norms.ascent.converged_frac"] = metric(
        st.count(en, "converged_restarts") / restarts if restarts else 0.0, "ratio"
    )
    m["norms.ascent.evals_per_grad"] = metric(
        st.calls(evals) / st.calls(grads) if st.calls(grads) else 0.0, "ratio"
    )
    name = "norms.flattening_upper_bound"
    m[f"{name}.self_s"] = metric(st.self_s(name), "s")

    for name in (evals, grads):
        m[f"{name}.calls"] = metric(st.calls(name), "count")
        m[f"{name}.self_s"] = metric(st.self_s(name), "s")
        m[f"{name}.points"] = metric(st.count(name, "points"), "count")
    term_points = st.count(grads, "term_points")
    m[f"{grads}.term_points"] = metric(term_points, "count")
    m["kernels.grad_ns_per_term_point"] = metric(
        st.self_s(grads) / term_points * 1e9 if term_points else 0.0, "ns"
    )

    cells = st.durations("bounds.cell")
    sweep_s = st.total_s("bounds.scaling_sweep")
    m["bounds.cells"] = metric(len(cells), "count")
    m["bounds.cells_excluded"] = metric(st.errors("bounds.cell"), "count")
    m["bounds.cell_s.p50"] = metric(statistics.median(cells) if cells else 0.0, "s")
    m["bounds.cell_s.max"] = metric(max(cells, default=0.0), "s")
    m["bounds.busy_ratio"] = metric(sum(cells) / sweep_s if sweep_s else 0.0, "ratio")
    m["bounds.scaling_sweep.self_s"] = metric(st.self_s("bounds.scaling_sweep"), "s")

    m["rademacher.sample_sup.total_s"] = metric(st.total_s("rademacher.sample_sup"), "s")
    for name in (
        "rademacher.lipschitz_check",
        "rademacher.mc_increment_std",
        "rademacher.psi2_norm_mc",
    ):
        m[f"{name}.self_s"] = metric(st.self_s(name), "s")
    m["rademacher.sign_draws"] = metric(st.calls("rademacher.sample_sup"), "count")

    m["steiner.greedy_generate.self_s"] = metric(st.self_s("steiner.greedy_generate"), "s")
    m["steiner.blocks"] = metric(st.count("steiner.greedy_generate", "blocks"), "count")
    name = "polynomials.random_steiner_polynomial"
    m[f"{name}.self_s"] = metric(st.self_s(name), "s")
    m["polynomials.terms"] = metric(st.count(name, "terms"), "count")
    m["report.serialize.self_s"] = metric(st.self_s("report.serialize"), "s")
    m["report.bytes"] = metric(st.count("report.serialize", "bytes"), "count")
    m["trace.overhead_frac"] = metric(overhead_frac, "ratio")
    return m


def median_metrics(per_pass: list) -> dict:
    return {
        name: metric(statistics.median(p[name]["value"] for p in per_pass), entry["unit"])
        for name, entry in per_pass[0].items()
    }


def timed(wl, inputs):
    t0 = time.perf_counter()
    result = wl.run_pass(inputs)
    return time.perf_counter() - t0, result


def run(args) -> dict:
    from tracer import SpanStats, Tracer
    from workloads import make_workloads

    workloads = make_workloads(tiny=args.tiny)
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    inputs = wl.inputs(args.seed)

    # setup_s: one interpreter start per round, spread over the run like the
    # passes; the first start is not measured, it writes the bytecode caches
    setup_times = []
    if not args.trace:
        start_interpreter()
    wl.warm(inputs)

    walls, traced_walls, results, layer_runs = [], [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        if not args.trace:
            setup_times.append(start_interpreter())
        wall, result = timed(wl, inputs)
        walls.append(wall)
        results.append(result)
        if args.trace:
            tracer = Tracer()
            with tracer:
                wall, result = timed(wl, inputs)
            traced_walls.append(wall)
            results.append(result)
            layer_runs.append(SpanStats(tracer.spans))
        elapsed = time.perf_counter() - start
        enough = args.trace or len(walls) >= (2 if args.tiny else MIN_PASSES)
        if enough and elapsed + elapsed / len(walls) > args.seconds:
            break
    while not args.trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(start_interpreter())

    attempted = sum(r.checks.attempted for r in results)
    failed = sum(r.checks.failed for r in results)
    reasons = [reason for r in results for reason in r.checks.reasons]
    digests = [r.digest for r in results]
    for d in digests[1:]:
        attempted += 1
        if d != digests[0]:
            failed += 1
            reasons.append("records differ between passes on identical inputs")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_samples_s": setup_times,
        "records_digest": digests[0],
        "failed_frac": failed / attempted,
        "direct_value_max_shortfall": max(r.checks.direct_shortfall for r in results),
        "failure_reasons": reasons[:20],
    }
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics = median_metrics([layer_metrics(st, overhead) for st in layer_runs])
        summary["traced_pass_wall_s"] = traced_walls
        summary["absent_targets"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(trace_path)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "pass_frac": metric((attempted - failed) / attempted, "ratio"),
            "ascent_gap": metric(results[0].ascent_gap, "ratio"),
        }
    return {"summary": summary, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "vnlab" / "__init__.py").is_file():
        print(f"error: no vnlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": out.pop("summary")}))
    print(f"failed_frac = {out['failed'] / out['attempted']:.6g} ratio")
    for name, entry in out["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

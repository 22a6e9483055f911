"""Per-call timings of the evaluation kernels."""

from __future__ import annotations

import time

import numpy as np

from . import kernels


def _time_call(fn, *args, repeats: int = 5, inner: int = 10) -> float:
    """Best-of wall time per call in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best * 1e6


def run_bench(nvar: int = 25, terms: int = 90, batch: int = 32, k: int = 3, repeats: int = 5):
    """Timings of the evaluation kernels on a synthetic workload, one record."""
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    idx = rng.integers(0, nvar, size=(terms, k)).astype(np.int64)
    points = rng.standard_normal((batch, nvar)) + 1j * rng.standard_normal((batch, nvar))
    return [
        {
            "backend": kernels.backend_name(),
            "nvar": nvar,
            "terms": terms,
            "batch": batch,
            "k": k,
            "eval_us": _time_call(kernels.poly_eval_batch, coef, idx, points, repeats=repeats),
            "eval_grad_us": _time_call(
                kernels.poly_eval_grad_batch, coef, idx, points, repeats=repeats
            ),
        }
    ]

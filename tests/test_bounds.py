"""Bound pipelines: certified cells, reference exponents, scaling sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vnlab.bounds import (
    BoundRecord,
    CertificationError,
    _cell_seed,
    _pipeline_inputs,
    fit_power_law,
    lower_bound_C,
    lower_bound_D,
    monotone_inversions,
    reference_exponents,
    scaling_sweep,
)
from vnlab.dixon import build_tuple, certify
from vnlab.norms import flattening_upper_bound, interpolation_upper
from vnlab.util import Exponent


# ----------------------------------------------------------------- fit layer


def test_fit_power_law_recovers_exact_slopes():
    pts = [(n, float(n) ** 2) for n in (3, 5, 9, 17)]
    fit = fit_power_law(pts)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    flat = fit_power_law([(2, 7.0), (4, 7.0), (8, 7.0)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    assert math.exp(flat.intercept) == pytest.approx(7.0, rel=1e-12)


def test_fit_power_law_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_power_law([(3, 1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(3, 1.0), (4, -2.0)])


def test_monotone_inversions_counts_descents():
    assert monotone_inversions([1, 2, 3]) == 0
    assert monotone_inversions([1, 3, 2, 5, 4]) == 2
    assert monotone_inversions([2, 2, 2]) == 0
    assert monotone_inversions([]) == 0


# ------------------------------------------------------------ exponent tables


def test_reference_exponents_q2():
    r = reference_exponents(3, 2)
    assert r.classical_lower == Fraction(1, 2)
    assert r.classical_upper == Fraction(1, 2)
    assert r.improved_lower == Fraction(1, 2)
    assert r.improved_lower_log_power == Fraction(3, 2)
    assert r.d_upper == Fraction(2)
    assert r.d_lower == Fraction(2)
    assert r.d_lower_log_power == Fraction(15, 4)
    r4 = reference_exponents(4, 2)
    assert r4.classical_lower == Fraction(1, 2)
    assert r4.classical_upper == Fraction(1)
    assert r4.d_upper == Fraction(3)


def test_reference_exponents_infinity_and_low_q():
    rinf = reference_exponents(3, "inf")
    assert rinf.classical_lower is None and rinf.classical_upper is None
    assert rinf.improved_lower == Fraction(1, 2)
    assert rinf.improved_lower_log_power == Fraction(0)
    assert rinf.d_upper == Fraction(1)
    assert rinf.d_lower is None
    r1 = reference_exponents(3, 1)
    assert r1.classical_lower == Fraction(-1, 2)  # conjugate exponent term vanishes
    assert r1.classical_upper == Fraction(0)
    assert r1.d_upper == Fraction(1)
    r43 = reference_exponents(3, Fraction(4, 3))
    assert r43.classical_lower == Fraction(0)
    assert r43.classical_upper == Fraction(1, 4)
    assert r43.d_upper == Fraction(3, 2)
    with pytest.raises(ValueError):
        reference_exponents(2, 2)


# ---------------------------------------------------------------- D pipeline


def test_lower_bound_D_record_is_internally_consistent():
    rec = lower_bound_D(3, 9, seed=11)
    assert rec.kind == "D" and rec.q == "2"
    # hard certificates
    assert rec.commutator_max <= 1e-12
    assert rec.opnorm_max_dev <= 1e-10
    assert rec.pte_value == rec.cardinality
    assert rec.pte_residual <= 1e-9
    # scale and headline bound recompute from the stored upper bound
    assert rec.scale == pytest.approx((1 + rec.norm_upper) ** -0.5, rel=1e-14)
    assert rec.bound == pytest.approx(
        rec.scale ** 3 * rec.cardinality / rec.norm_upper, rel=1e-12
    )
    # the estimate-denominator column dominates the certified one
    assert rec.bound_estimate >= rec.bound - 1e-12
    # direct operator norm of p(T) is exactly the cardinality (rank one)
    assert rec.direct_value == rec.scale ** 3 * rec.cardinality / rec.norm_upper
    # certified upper really is an upper bound for the ascent lower value
    assert rec.norm_lower <= rec.norm_upper + 1e-9
    flat = flattening_upper_bound(_pipeline_inputs(3, 9, 11)[1])
    assert rec.norm_upper <= min(flat, rec.upper_coefficient_sum) + 1e-12
    # the certified column is the reweighted tuple's ||p(W T)|| over the same
    # denominator, and W is at most the identity on every layer
    assert 0 < rec.bound_certified <= rec.cardinality / rec.norm_upper
    assert rec.ref_upper_exponent == 2.0
    assert rec.ref_lower_exponent == 2.0


def test_lower_bound_D_direct_norm_is_exact():
    # p(T) = |J| g e^* has norm exactly |J|, so direct_value and bound are
    # the same expression and compare with no tolerance (criterion-07 cell
    # at k = 3, and a k = 4 cell)
    for k, n, seed in [(3, 8, _cell_seed(20260826, 8, 0)), (4, 9, 3)]:
        rec = lower_bound_D(k, n, seed)
        assert rec.direct_value == rec.bound


def test_lower_bound_C_direct_norm_is_exact():
    for q in ("inf", 2):
        rec = lower_bound_C(3, q, 9, seed=2)
        assert rec.direct_value == rec.bound
        # the C bound is certified already: its l_q constraint is exact
        assert rec.bound_certified == rec.bound


@pytest.mark.parametrize("n,seed", [(7, 1), (13, 2), (25, 3)])
def test_bound_certified_at_k3_is_card_over_six_flattening_squared(n, seed):
    # prod_m w_m = 1 / (6 U) at k = 3, since the t_1 -> f block has 2 deg(x)
    # entries in row f_x and the flattening is sqrt(2 max deg) / 6
    rec = lower_bound_D(3, n, seed, norm_restarts=4, norm_max_iter=100)
    system, p = _pipeline_inputs(3, n, seed)
    cert = certify(build_tuple(p))
    u = flattening_upper_bound(p)
    assert cert.weight_product == pytest.approx(1 / (6 * u), rel=1e-12)
    assert rec.bound_certified == cert.weight_product * rec.cardinality / rec.norm_upper
    assert rec.norm_upper == u  # the coefficient sum |J| is far looser here
    assert rec.bound_certified == pytest.approx(rec.cardinality / (6 * u**2), rel=1e-12)


def test_bound_certified_at_k4_is_card_over_two_upper():
    # w = (1, 1/sqrt(2), 1/sqrt(2), 1): t_1 -> t_2 and t_2 -> f both have
    # two entries in some row and in every column
    for n, seed in [(8, 2), (9, 3)]:
        rec = lower_bound_D(4, n, seed, norm_restarts=4, norm_max_iter=100)
        assert rec.bound_certified == pytest.approx(
            rec.cardinality / (2 * rec.norm_upper), rel=1e-12
        )


def test_lower_bound_D_deterministic():
    a = lower_bound_D(3, 8, seed=4)
    b = lower_bound_D(3, 8, seed=4)
    assert a == b


# ---------------------------------------------------------------- C pipeline


def test_lower_bound_C_infinity_certified_is_unity():
    # at q = inf the only closed-form denominator is the coefficient sum,
    # which equals the cardinality for unit weights: certified bound == 1
    rec = lower_bound_C(3, "inf", 9, seed=2)
    assert rec.scale == 1.0
    assert rec.norm_upper == rec.upper_coefficient_sum
    assert rec.bound == pytest.approx(1.0, rel=1e-12)
    # the estimate column is the nontrivial one and exceeds 1
    assert rec.bound_estimate > 1.0
    assert rec.ref_lower_exponent == 0.5  # (k-2)/2 at k=3


def test_lower_bound_C_q2_uses_euclidean_denominator():
    rec = lower_bound_C(3, 2, 8, seed=3)
    assert rec.scale == pytest.approx(8 ** -0.5, rel=1e-14)
    flat = flattening_upper_bound(_pipeline_inputs(3, 8, 3)[1])
    u2 = min(flat, rec.upper_coefficient_sum)
    assert rec.norm_upper == pytest.approx(u2, rel=1e-13)
    assert rec.bound == pytest.approx(
        rec.scale ** 3 * rec.cardinality / u2, rel=1e-12
    )


def test_lower_bound_C_interpolated_denominators():
    rec4 = lower_bound_C(3, 4, 8, seed=5)
    flat = flattening_upper_bound(_pipeline_inputs(3, 8, 5)[1])
    u2 = min(flat, rec4.upper_coefficient_sum)
    want = interpolation_upper(4, (2, u2), ("inf", rec4.upper_coefficient_sum), 3)
    assert rec4.norm_upper == pytest.approx(want, rel=1e-12)
    rec32 = lower_bound_C(3, 1.5, 8, seed=5)
    assert rec32.norm_upper > 0
    assert rec32.scale == pytest.approx(8 ** (-1 / 1.5), rel=1e-14)
    # soundness at every exponent: ascent never clears a certified upper
    for rec in (rec4, rec32):
        assert rec.norm_lower <= rec.norm_upper + 1e-9


def test_lower_bound_C_q1_uses_l1_denominator():
    rec = lower_bound_C(3, 1, 8, seed=6)
    assert rec.scale == pytest.approx(1 / 8, rel=1e-14)
    # l1 denominator for unit signs is max multinomial weight 1/k! = 1/6
    assert rec.norm_upper == pytest.approx(1 / 6, rel=1e-12)


# -------------------------------------------------------------------- sweeps


def test_sweep_small_grid_structure():
    res = scaling_sweep("D", 3, 2, [7, 9], 2, seed=1)
    assert len(res.records) == 4
    assert [n for n, _ in res.medians] == [7, 9]
    assert res.warnings == ()
    assert res.fit_column == "bound"
    assert math.isfinite(res.fit.slope)
    summary = res.summary()
    assert summary["kind"] == "D" and len(summary["medians"]) == 2


def _sweep_outcome(res):
    return res.to_records(), res.medians, res.fit, res.inversions, res.warnings


def test_sweep_is_deterministic(monkeypatch):
    # every worker count, the in-process path at 1 CPU included, gives the
    # serial loop's records, medians, fit, inversions and warnings; a cell
    # that raises keeps its warning's text and place
    import vnlab.bounds as bounds_mod

    real = bounds_mod.lower_bound_C
    failing_seed = _cell_seed(7, 9, 1)

    def flaky(k, q, n, seed, **kw):
        if n == 9 and seed == failing_seed:
            raise RuntimeError("injected failure")
        return real(k, q, n, seed, **kw)

    def sweeps(cpus):
        monkeypatch.setattr(bounds_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(bounds_mod, "lower_bound_C", real)
        out = [
            scaling_sweep("C", 3, "inf", [7, 9], 2, seed=7),
            scaling_sweep("D", 3, 2, [7, 9, 11], 1, seed=7, norm_restarts=4),
        ]
        monkeypatch.setattr(bounds_mod, "lower_bound_C", flaky)
        out.append(scaling_sweep("C", 3, "3/2", [7, 9, 11], 2, seed=7, norm_restarts=4))
        return out

    serial = sweeps(1)
    assert [r.n for r in serial[2].records] == [7, 7, 9, 11, 11]
    assert serial[2].warnings == ("cell n=9 index=1 excluded: RuntimeError: injected failure",)
    assert [(n, i) for n, i, _ in serial[2].cells] == [(n, i) for n in (7, 9, 11) for i in (0, 1)]
    for cpus in (1, 2, 3):
        for want, got in zip(serial, sweeps(cpus)):
            assert _sweep_outcome(got) == _sweep_outcome(want), cpus
            cells = got.summary()["cells"]
            assert [(c["n"], c["index"]) for c in cells] == [(n, i) for n, i, _ in want.cells]
            assert all(c["seconds"] > 0 for c in cells)
            assert got.summary()["workers"] == min(cpus, len(cells))


def test_sweep_runs_in_process_with_one_cpu_or_one_cell(monkeypatch):
    # no affinity set (macOS, Windows) counts as one CPU; one cell needs no pool
    import concurrent.futures
    import os

    import vnlab.bounds as bounds_mod

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert bounds_mod._usable_cpus() == 1
    norm = {"norm_restarts": 2, "norm_max_iter": 20}
    res = scaling_sweep("C", 3, "inf", [7, 9], 1, seed=7, **norm)
    assert res.workers == 1 and len(res.records) == 2
    monkeypatch.setattr(bounds_mod, "_usable_cpus", lambda: 4)
    res = scaling_sweep("C", 3, "inf", [7], 1, seed=7, **norm)
    assert res.workers == 1 and len(res.records) == 1


def test_sweep_raises_when_a_worker_dies():
    # a cell that kills its worker must fail the sweep at once, not leave it
    # waiting for a result that never comes; the subprocess's timeout fails
    # the test if it hangs
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vnlab

    script = """
import os, sys
from concurrent.futures.process import BrokenProcessPool
import vnlab.bounds as bounds

real = bounds.lower_bound_C

def dying(k, q, n, seed, **kw):
    if n == 9:
        os._exit(3)
    return real(k, q, n, seed, **kw)

bounds.lower_bound_C = dying
bounds._usable_cpus = lambda: 2
try:
    bounds.scaling_sweep("C", 3, "inf", [7, 9, 11], 1, norm_restarts=2, norm_max_iter=20)
except BrokenProcessPool:
    sys.exit(0)
sys.exit("the sweep returned")
"""
    src = str(Path(vnlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        scaling_sweep("E", 3, 2, [7], 1)
    with pytest.raises(ValueError):
        scaling_sweep("D", 3, 4, [7], 1)  # D pipeline is anchored at q = 2
    with pytest.raises(ValueError):
        scaling_sweep("D", 3, 2, [7], 0)
    with pytest.raises(ValueError):
        scaling_sweep("D", 3, 2, [7, 9], 1, fit_column="no_such_column")


def test_sweep_turns_a_crashing_cell_into_a_warning(monkeypatch):
    import vnlab.bounds as bounds_mod

    real = bounds_mod.lower_bound_C
    calls = []

    def flaky(k, q, n, seed, **kw):
        calls.append(n)
        if n == 9:
            raise RuntimeError("injected failure")
        return real(k, q, n, seed, **kw)

    monkeypatch.setattr(bounds_mod, "lower_bound_C", flaky)
    res = scaling_sweep("C", 3, "inf", [7, 9, 11], 1, seed=3)
    assert [r.n for r in res.records] == [7, 11]
    assert [n for n, _ in res.medians] == [7, 11]
    assert res.warnings[0] == "cell n=9 index=0 excluded: RuntimeError: injected failure"
    assert "no surviving cells at n=9" in res.warnings
    # a grid point below k is a configuration error, raised before any cell runs
    calls.clear()
    with pytest.raises(ValueError):
        scaling_sweep("C", 3, "inf", [7, 2], 1)
    assert calls == []


@pytest.mark.parametrize("bad", [{"norm_restart": 4}, {"threads": 4}], ids=["typo", "threads"])
def test_sweep_rejects_unknown_keywords_before_any_cell(monkeypatch, bad):
    import vnlab.bounds as bounds_mod

    calls = []
    monkeypatch.setattr(bounds_mod, "lower_bound_C", lambda *a, **kw: calls.append(a))
    with pytest.raises(TypeError):
        scaling_sweep("C", 3, "inf", [7, 9], 1, **bad)
    assert calls == []


def test_sweep_median_uses_per_n_cells():
    res = scaling_sweep("C", 3, "inf", [7], 3, seed=9)
    vals = sorted(r.bound_estimate for r in res.records)
    assert res.medians[0][1] == pytest.approx(vals[1], rel=1e-12)
    # one-point grids carry no slope but must not crash
    assert math.isnan(res.fit.slope)
    assert any("no slope" in w for w in res.warnings)


def test_bound_record_roundtrip_keys():
    rec = lower_bound_C(3, "inf", 7, seed=0)
    d = rec.to_record()
    assert set(d) == set(BoundRecord.__dataclass_fields__)
    assert d["q"] == "inf"
    assert d["bound_certified"] == d["bound"]
    for gone in ("row_sup", "row_value", "cond_ok", "bound_cond_adjusted", "direct_norm"):
        assert gone not in d


def test_sweep_of_certified_column_grows():
    res = scaling_sweep("D", 3, 2, [7, 13, 19, 25], 2, fit_column="bound_certified")
    assert res.warnings == ()
    assert res.inversions == 0, res.medians
    assert 0.8 <= res.fit.slope <= 1.4, res.fit.slope


def test_flattening_runs_at_most_once_per_cell(monkeypatch):
    # norm_upper is the only certified number a cell reads from a closed
    # form, and the ascent computes none, so a cell computes the flattening
    # once where certified_upper needs it and never otherwise
    import sys

    import vnlab.norms as norms_mod
    from vnlab.norms import estimate_norm
    from vnlab.rademacher import RademacherProcess, sample_sup
    from vnlab.steiner import greedy_generate

    calls = []
    real = norms_mod.flattening_upper_bound

    def counted(p):
        calls.append(p)
        return real(p)

    # every binding in the package, so an import of the function elsewhere counts too
    for name, mod in list(sys.modules.items()):
        if name.startswith("vnlab") and getattr(mod, "flattening_upper_bound", None) is real:
            monkeypatch.setattr(mod, "flattening_upper_bound", counted)
    norm = {"norm_restarts": 2, "norm_max_iter": 5}
    cells = [
        (lambda: lower_bound_D(3, 9, 1, **norm), 1),
        (lambda: lower_bound_D(4, 8, 1, **norm), 1),
        (lambda: lower_bound_C(3, 2, 9, 1, **norm), 1),
        (lambda: lower_bound_C(3, "3/2", 9, 1, **norm), 1),
        (lambda: lower_bound_C(3, 1, 9, 1, **norm), 0),
        (lambda: lower_bound_C(3, "inf", 9, 1, **norm), 0),
    ]
    for i, (cell, want) in enumerate(cells):
        calls.clear()
        cell()
        assert len(calls) == want, i

    p = _pipeline_inputs(3, 9, 1)[1]
    calls.clear()
    for q in ("1", "3/2", "2", "4", "inf"):
        estimate_norm(p, q, restarts=2, max_iter=5, seed=1)
    proc = RademacherProcess(greedy_generate(9, 3, 2, 1))
    sample_sup(proc, 1, restarts=2, max_iter=5)
    assert calls == []

"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Each test prints a single
ACCEPTANCE line on success; pytest's own -v row is the fail line otherwise.
Criteria with runtime budgets assert them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from vnlab.bounds import lower_bound_C, scaling_sweep
from vnlab.cli import execute
from vnlab.dixon import build_tuple, verify_report
from vnlab.norms import (
    estimate_norm,
    flattening_upper_bound,
    interpolation_upper,
    l1_ball_upper_bound,
    multilinear_estimate,
)
from vnlab.polynomials import HomogeneousPolynomial, random_steiner_polynomial
from vnlab.rademacher import (
    RADEMACHER_PSI2,
    RademacherProcess,
    ball_point,
    l2_distance,
    lipschitz_check,
    mc_increment_std,
    psi2_norm_mc,
)
from vnlab.steiner import (
    fano_system,
    greedy_generate,
    max_cardinality,
    validate,
)
from vnlab.util import stream

ROOT_SEED = 20260826


_EMIT = None


@pytest.fixture(autouse=True)
def _live_criterion_lines(capsys):
    # punch through output capture so criterion lines reach the terminal
    global _EMIT

    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    _EMIT = emit
    yield
    _EMIT = None


def _pass(num, detail, t0=None):
    stamp = f" [{time.time() - t0:.1f}s]" if t0 is not None else ""
    line = f"\nACCEPTANCE {num:02d} PASS {detail}{stamp}"
    (_EMIT or print)(line)


def test_criterion_01_steiner_validity_and_ceiling():
    t0 = time.time()
    assert validate(fano_system()).valid
    checked = 0
    for k, t, n_hi in ((3, 2, 15), (4, 3, 12)):
        for n in range(k + 3, n_hi + 1):
            for seed in range(3):
                sys_ = greedy_generate(n, k, t, seed)
                assert validate(sys_).valid, (n, k, t, seed)
                assert sys_.cardinality <= max_cardinality(n, k, t), (n, k, t, seed)
                checked += 1
    for seed in range(5):
        assert greedy_generate(6, 2, 1, seed).cardinality == 3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _pass(1, f"fano + {checked} greedy systems valid and below ceiling; "
             "6-point matchings exactly 3 blocks", t0)


def test_criterion_02_exact_norm_values():
    t0 = time.time()
    pairs = HomogeneousPolynomial(
        n=8, k=2, coeffs={(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0, (7, 8): 1.0}
    )
    exact = flattening_upper_bound(pairs)  # exact at k = 2
    assert abs(exact - 0.5) <= 1e-12
    est = estimate_norm(pairs, 2, restarts=8, seed=ROOT_SEED)
    assert abs(est.lower - 0.5) <= 1e-6
    for k in (2, 3, 4):
        mono = HomogeneousPolynomial(
            n=k, k=k, coeffs={tuple(range(1, k + 1)): 1.0}
        )
        got = estimate_norm(mono, 2, restarts=8, seed=ROOT_SEED + k).lower
        want = k ** (-k / 2)
        assert abs(got - want) <= 1e-4, (k, got, want)
        assert want <= 1.0 / k + 1e-15
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(2, "pair-sum sup = 0.5 exactly (ascent within 1e-6); "
             "monomial sups k^{-k/2} within 1e-4 for k in {2,3,4}", t0)


def test_criterion_03_polynomial_vs_multilinear_at_q2():
    t0 = time.time()
    worst = 0.0
    for i in range(20):
        n = 6 + (i % 2)
        sys_ = greedy_generate(n, 3, 2, i)
        p = random_steiner_polynomial(sys_, rng=np.random.default_rng(ROOT_SEED + i))
        est = estimate_norm(p, 2, restarts=10, seed=i)
        mul = multilinear_estimate(
            p, 2, restarts=5, seed=i, extra_starts=[np.tile(est.witness, (3, 1))]
        )
        gap = abs(mul.lower - est.lower)
        assert gap <= 1e-3, (i, gap)
        worst = max(worst, gap)
    _pass(3, f"20 random cubic instances, worst |multilinear - polynomial| "
             f"= {worst:.2e} <= 1e-3", t0)


def test_criterion_04_operator_tuple_identities():
    t0 = time.time()
    instances = [fano_system()]
    instances += [greedy_generate(n, 3, 2, n) for n in (9, 10)]
    instances += [greedy_generate(n, 4, 2, n) for n in (8, 10)]
    for idx, sys_ in enumerate(instances):
        p = random_steiner_polynomial(
            sys_, rng=np.random.default_rng(ROOT_SEED + idx)
        )
        tup = build_tuple(p)
        rep = verify_report(tup)
        assert rep["max_commutator"] <= 1e-12, idx
        assert all(abs(v - 1.0) <= 1e-10 for v in rep["op_norms"]), idx
        assert rep["pTe_re"] == float(sys_.cardinality), idx
        assert rep["pTe_im"] == 0.0, idx
        assert rep["pTe_residual"] <= 1e-9, idx
        # the combination condition by certificate: the layer-weighted tuple commutes,
        # is a contraction at 32 unit alpha (dense SVD), and maps e to
        # prod w |J| g under p
        layer = {"e": 0, "f": sys_.k - 1, "g": sys_.k}
        layers = [len(lab[1]) if lab[0] == "t" else layer[lab[0]] for lab in tup.basis.labels]
        scale = np.array([1.0, *rep["layer_weights"]])[layers]
        # dense T_l from the maps: value[l, c] at (target[l, c], c), sink dropped
        dim = tup.basis.dimension
        dense = np.zeros((sys_.n, dim + 1, dim + 1), dtype=complex)
        dense[np.arange(sys_.n)[:, None], tup.target, np.arange(dim + 1)] = tup.value
        weighted = list(scale[:, None] * dense[:, :dim, :dim])
        for a, b in itertools.combinations(weighted, 2):
            assert np.abs(a @ b - b @ a).max() <= 1e-12, idx
        rng = stream(ROOT_SEED, "acceptance-row", idx)
        alphas = [np.full(sys_.n, sys_.n**-0.5), np.eye(sys_.n)[0]]
        for _ in range(30):
            a = rng.normal(size=sys_.n) + 1j * rng.normal(size=sys_.n)
            alphas.append(a / np.linalg.norm(a))
        for alpha in alphas:
            comb = sum(a * t for a, t in zip(alpha, weighted))
            assert np.linalg.norm(comb, 2) <= 1.0 + 1e-12, idx
        pe = np.zeros(tup.basis.dimension, dtype=complex)
        for key, c in p.coeffs.items():
            v = np.eye(tup.basis.dimension)[tup.basis.index[("e",)]]
            for j in reversed(key):
                v = weighted[j - 1] @ v
            pe += c * v
        want = np.zeros_like(pe)
        want[tup.basis.index[("g",)]] = rep["weight_product"] * sys_.cardinality
        np.testing.assert_allclose(pe, want, rtol=1e-12, atol=0)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(4, "5 tuples (k=3,4; n<=10): commutators <= 1e-12, unit operator "
             "norms, p(T)e = |J| g, layer-weighted unit combinations <= 1", t0)


def test_criterion_05_increment_and_lipschitz():
    t0 = time.time()
    proc = RademacherProcess(fano_system())
    rng = stream(ROOT_SEED, "acceptance-pairs")
    for i in range(20):
        z, zp = ball_point(rng, 7), ball_point(rng, 7)
        want = l2_distance(proc, z, zp)
        got, se = mc_increment_std(proc, z, zp, draws=100000, seed=i)
        assert abs(got - want) <= 3 * se, (i, got, want, se)
    rep = lipschitz_check(proc, pairs=1000, seed=ROOT_SEED)
    assert rep.pairs == 1000
    assert rep.violations == 0
    _pass(5, "20 closed-form increments within 3 SE of 1e5-draw Monte Carlo; "
             "0/1000 Lipschitz violations", t0)


def test_criterion_06_psi2_calibration():
    t0 = time.time()
    est = psi2_norm_mc(
        lambda rng, size: rng.integers(0, 2, size=size) * 2.0 - 1.0,
        samples=100000,
        seed=ROOT_SEED,
    )
    rel = abs(est.value - RADEMACHER_PSI2) / RADEMACHER_PSI2
    assert rel <= 0.02, (est.value, RADEMACHER_PSI2)
    rng = stream(ROOT_SEED, "khintchine-acceptance")
    for i in range(20):
        w = rng.normal(size=int(rng.integers(5, 40)))
        l2 = float(np.linalg.norm(w))

        def sampler(r, size, w=w):
            signs = r.integers(0, 2, size=(size, len(w))) * 2 - 1
            return signs @ w

        got = psi2_norm_mc(sampler, samples=40000, seed=i).value
        assert 0.4 * l2 <= got <= 4.0 * l2, (i, got, l2)
    _pass(6, f"single-sign psi2 within {100 * rel:.2f}% of 1/sqrt(ln 2); "
             "20 Khintchine ratios inside [0.4, 4]", t0)


def test_criterion_07_d_pipeline_scaling():
    t0 = time.time()
    res = scaling_sweep("D", 3, 2, range(7, 26), 5, seed=ROOT_SEED)
    assert res.warnings == (), res.warnings
    assert res.inversions <= 1, res.medians
    assert 1.2 <= res.fit.slope <= 2.0, res.fit.slope
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _pass(7, f"95-cell sweep n=7..25: slope {res.fit.slope:.3f} in [1.2, 2.0], "
             f"{res.inversions} median inversions", t0)


def test_criterion_08_c_pipeline_scaling_at_infinity():
    t0 = time.time()
    res = scaling_sweep("C", 3, "inf", range(7, 26), 5, seed=ROOT_SEED)
    assert res.warnings == (), res.warnings
    assert 0.2 <= res.fit.slope <= 0.7, res.fit.slope
    _pass(8, f"95-cell sweep n=7..25 at q=inf: slope {res.fit.slope:.3f} "
             "in [0.2, 0.7] against target 0.5", t0)


def test_criterion_09_interpolation_soundness():
    t0 = time.time()
    for i in range(20):
        p = random_steiner_polynomial(
            greedy_generate(7, 3, 2, 100 + i),
            rng=np.random.default_rng(ROOT_SEED + 900 + i),
        )
        u2 = min(flattening_upper_bound(p), p.coefficient_sum)
        u1 = l1_ball_upper_bound(p)
        for q in (3, 4, 6):
            est = estimate_norm(p, q, restarts=8, seed=i)
            upper = interpolation_upper(q, (2, u2), ("inf", p.coefficient_sum), 3)
            assert est.lower <= upper + 1e-9, (i, q, est.lower, upper)
        for q in (1.25, 1.5, 1.75):
            est = estimate_norm(p, q, restarts=8, seed=i)
            upper = interpolation_upper(q, (1, u1), (2, u2), 3)
            assert est.lower <= upper + 1e-9, (i, q, est.lower, upper)
    _pass(9, "20 instances x 6 exponents: ascent lower bounds never exceed "
             "interpolated certified uppers", t0)


def test_criterion_10_byte_reproducibility(tmp_path):
    t0 = time.time()
    sweep_cfg = {
        "command": "bounds.sweep",
        "kind": "C",
        "q": "inf",
        "k": 3,
        "n_list": "7,9,11",
        "seeds": 2,
        "seed": ROOT_SEED,
        "norm_restarts": 6,
    }
    rep_a, _, failed_a = execute(dict(sweep_cfg))
    rep_b, _, failed_b = execute(dict(sweep_cfg))
    assert not failed_a and not failed_b
    assert rep_a.records_json() == rep_b.records_json()
    assert rep_a.to_csv() == rep_b.to_csv()
    assert rep_a.input_hash == rep_b.input_hash

    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    execute_gen = {
        "command": "steiner.gen", "n": 9, "k": 3, "t": 2, "seed": ROOT_SEED,
    }
    _, sys_text, _ = execute(dict(execute_gen))
    sys_path.write_text(sys_text)
    _, poly_text, _ = execute(
        {"command": "poly.rand", "system": str(sys_path), "seed": ROOT_SEED}
    )
    poly_path.write_text(poly_text)
    norm_cfg = {
        "command": "norm", "poly": str(poly_path), "q": "2",
        "restarts": 6, "seed": ROOT_SEED,
    }
    n_a, _, _ = execute(dict(norm_cfg))
    n_b, _, _ = execute(dict(norm_cfg))
    assert n_a.records_json() == n_b.records_json()
    _pass(10, "repeated sweep and norm runs byte-reproduce their records "
              "(canonical JSON and CSV)", t0)

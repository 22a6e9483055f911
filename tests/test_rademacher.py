"""Sign-process increments, Orlicz calibration, and Lipschitz envelopes."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vnlab import rademacher
from vnlab.polynomials import random_steiner_polynomial
from vnlab.rademacher import (
    RADEMACHER_PSI2,
    RademacherProcess,
    ball_point,
    l2_distance,
    lipschitz_check,
    mc_increment_std,
    psi2_norm_mc,
    sample_sup,
)
from vnlab.steiner import PartialSteinerSystem, fano_system, greedy_generate
from vnlab.util import stream


def single_block_process():
    sys_ = PartialSteinerSystem(n=3, k=3, t=2, blocks=((1, 2, 3),))
    return RademacherProcess(sys_)


# ----------------------------------------------------------------- increments


def test_l2_increment_single_block_hand_value():
    # one unit-weight block, z uniform on the sphere, z' = 0:
    # d = (1/3) |z1 z2 z3| = (1/3) 3^{-3/2} = 3^{-5/2}
    proc = single_block_process()
    z = np.full(3, 1 / math.sqrt(3), dtype=complex)
    zp = np.zeros(3, dtype=complex)
    assert l2_distance(proc, z, zp) == pytest.approx(3 ** -2.5, rel=1e-12)
    assert l2_distance(proc, z, z) == 0.0


def test_process_requires_top_uniqueness():
    with pytest.raises(ValueError):
        RademacherProcess(greedy_generate(9, 3, 3, 0))


def test_mc_increment_matches_closed_form():
    proc = RademacherProcess(fano_system())
    rng = stream(77, "test-pairs")
    for i in range(4):
        z, zp = ball_point(rng, 7), ball_point(rng, 7)
        want = l2_distance(proc, z, zp)
        got, se = mc_increment_std(proc, z, zp, draws=60000, seed=i)
        assert abs(got - want) <= 3 * se
        assert se < want / 50  # draws are plenty for a tight proxy


@pytest.mark.parametrize("m", [1, 85, 86])
def test_sign_sums_do_not_depend_on_the_chunk(m, monkeypatch):
    # 1 row a chunk, an odd row count (an odd entry count at odd m), and one
    # chunk of more rows than draws all give the default's bits
    draws = 1001
    w = stream(3, "w", m).standard_normal(m) + 1j * stream(4, "w", m).standard_normal(m)
    want = rademacher._sign_sums(stream(5, "signs"), w, draws)
    for rows in (1, 7, draws + 4):
        monkeypatch.setattr(rademacher, "_SIGN_CHUNK", rows * m)
        got = rademacher._sign_sums(stream(5, "signs"), w, draws)
        assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()


def test_sign_sums_draw_the_signs_of_one_draw(monkeypatch):
    # with w_j = 2^j each sum is an exact integer whose binary digits are the
    # signs; chunks of 3 rows of 45 entries hold an odd number of entries
    m, draws = 45, 200
    monkeypatch.setattr(rademacher, "_SIGN_CHUNK", 3 * m)
    sums = rademacher._sign_sums(stream(8, "signs"), 2.0 ** np.arange(m), draws)
    assert not sums.imag.any()
    bits = (sums.real.astype(np.int64) + (2**m - 1)) // 2
    got = (bits[:, None] >> np.arange(m)) & 1
    want = stream(8, "signs").integers(0, 2, size=(draws, m)) * 2 - 1
    assert np.array_equal(got * 2 - 1, want)


def test_mc_increment_memory_does_not_grow_with_draws_times_blocks():
    # 100,000 draws on 235 blocks: one (draws, blocks) int64 sign matrix
    # alone is 188 MB; the chunked sums peak near 3 MB
    proc = RademacherProcess(greedy_generate(40, 3, 2, 1))
    assert len(proc.system.blocks) >= 200
    rng = stream(6, "memory-pair")
    z, zp = ball_point(rng, 40), ball_point(rng, 40)
    tracemalloc.start()
    try:
        rms, se = mc_increment_std(proc, z, zp, draws=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert abs(rms - l2_distance(proc, z, zp)) <= 4 * se


def test_mc_increment_zero_pair():
    proc = single_block_process()
    z = np.array([0.3, 0.2, 0.1], dtype=complex)
    got, se = mc_increment_std(proc, z, z, draws=100, seed=0)
    assert got == 0.0 and se == 0.0


def test_signed_polynomial_is_the_steiner_polynomial_over_k():
    # the process and random_steiner_polynomial draw the same signs from one
    # generator state, and the process divides each coefficient by k
    designs = (
        greedy_generate(13, 3, 2, 4),
        greedy_generate(9, 4, 3, 1),
        greedy_generate(9, 4, 2, 1),  # pair-unique, so an S_p(3, 4, 9)
    )
    for sys_ in (fano_system(), *designs):
        proc = RademacherProcess(sys_)
        got = proc.signed_polynomial(proc.draw_signs(stream(21, "same-state")))
        want = random_steiner_polynomial(sys_, stream(21, "same-state"))
        assert got.support() == want.support() == sys_.blocks
        for key, c in want.coeffs.items():
            assert got.coeffs[key] == c / sys_.k


# ----------------------------------------------------------------- sup samples


def test_sample_sup_single_block_is_deterministic_value():
    # |eps a z1 z2 z3| / 3 has sup 3^{-5/2} regardless of the sign draw
    proc = single_block_process()
    got = sample_sup(proc, seed=1, restarts=6)
    assert got == pytest.approx(3 ** -2.5, abs=1e-6)


def test_sample_sup_reproducible():
    proc = RademacherProcess(fano_system())
    a = sample_sup(proc, seed=5, restarts=4)
    b = sample_sup(proc, seed=5, restarts=4)
    assert a == b


# -------------------------------------------------------------------- psi2


def test_psi2_single_rademacher_exact():
    # |Z| = 1 a.s.: gauge(c) = exp(1/c^2) - 1 <= 1 iff c >= 1/sqrt(ln 2),
    # so the norm is known in closed form
    est = psi2_norm_mc(
        lambda rng, size: rng.integers(0, 2, size=size) * 2.0 - 1.0,
        samples=20000,
        seed=3,
    )
    assert est.value == pytest.approx(RADEMACHER_PSI2, rel=1e-12)
    assert not est.unstable


def test_psi2_standard_gaussian():
    # E exp(Z^2/c^2) = (1 - 2/c^2)^{-1/2} = 2 at c^2 = 8/3
    est = psi2_norm_mc(
        lambda rng, size: rng.standard_normal(size), samples=200000, seed=4
    )
    assert est.value == pytest.approx(math.sqrt(8 / 3), rel=3e-2)


def test_psi2_zero_variable():
    est = psi2_norm_mc(lambda rng, size: np.zeros(size), samples=100, seed=0)
    assert est.value == 0.0


def test_psi2_is_homogeneous():
    base = psi2_norm_mc(
        lambda rng, size: rng.standard_normal(size), samples=50000, seed=6
    )
    doubled = psi2_norm_mc(
        lambda rng, size: 2.0 * rng.standard_normal(size), samples=50000, seed=6
    )
    assert doubled.value == pytest.approx(2 * base.value, rel=1e-3)


def test_psi2_flags_unstable_halves():
    # all the mass of the gauge sits in one half of the sample: the two
    # half-sample gauges disagree grossly and the flag must trip
    def lopsided(rng, size):
        z = np.full(size, 0.05)
        z[0] = 30.0
        return z

    est = psi2_norm_mc(lopsided, samples=4000, seed=0)
    assert est.unstable


def test_khintchine_corridor_random_sign_sums():
    # psi2 of sum eps_j w_j sits within [0.4, 4] times its L2 norm
    rng = stream(99, "khintchine")
    for _ in range(5):
        w = rng.normal(size=int(rng.integers(5, 40)))
        l2 = float(np.linalg.norm(w))

        def sampler(r, size, w=w):
            signs = r.integers(0, 2, size=(size, len(w))) * 2 - 1
            return signs @ w

        est = psi2_norm_mc(sampler, samples=40000, seed=int(rng.integers(2**31)))
        assert 0.4 * l2 <= est.value <= 4.0 * l2


# ----------------------------------------------------------------- ball points


def test_ball_points_stay_inside():
    rng = stream(1, "ball")
    for _ in range(500):
        z = ball_point(rng, 6)
        assert np.linalg.norm(z) <= 1 + 1e-12


def test_ball_point_radius_distribution():
    # P(||z|| <= r) = r^{2n}: the median radius is 2^{-1/(2n)}
    rng = stream(2, "ball-median")
    n = 4
    radii = np.array([np.linalg.norm(ball_point(rng, n)) for _ in range(4000)])
    want = 2 ** (-1 / (2 * n))
    assert np.median(radii) == pytest.approx(want, abs=0.02)


# ------------------------------------------------------------------- Lipschitz


def test_lipschitz_envelope_holds_on_sampled_pairs():
    proc = RademacherProcess(fano_system())
    rep = lipschitz_check(proc, pairs=300, seed=11)
    assert rep.pairs == 300
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0
    assert len(rep.rows) == 300
    for lhs, rhs, ratio in rep.rows:
        assert lhs <= rhs + 1e-12
    for r in rep.psi2_l2_ratios:
        assert 0.4 <= r <= 4.0


def test_lipschitz_check_counts_unstable_psi2_estimates(monkeypatch):
    proc = RademacherProcess(fano_system())
    none = lipschitz_check(proc, pairs=10, seed=2, mc_pairs=0)
    assert none.psi2_l2_ratios == () and none.psi2_unstable == 0
    assert lipschitz_check(proc, pairs=10, seed=2, mc_draws=2000).psi2_unstable == 0
    psi2 = rademacher.psi2_norm_mc
    monkeypatch.setattr(
        rademacher, "psi2_norm_mc", lambda *args: replace(psi2(*args), unstable=True)
    )
    rep = lipschitz_check(proc, pairs=10, seed=2, mc_pairs=4, mc_draws=2000)
    assert len(rep.psi2_l2_ratios) == rep.psi2_unstable == 4

"""Sign-process increments, Orlicz calibration, and Lipschitz envelopes."""

import math

import numpy as np
import pytest

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
        RademacherProcess(greedy_generate(9, 3, 3, seed=0))


def test_mc_increment_matches_closed_form():
    proc = RademacherProcess(fano_system())
    rng = stream(77, "test-pairs")
    for i in range(4):
        z, zp = ball_point(rng, 7), ball_point(rng, 7)
        want = l2_distance(proc, z, zp)
        got, se = mc_increment_std(proc, z, zp, draws=60000, seed=i)
        assert abs(got - want) <= 3 * se
        assert se < want / 50  # draws are plenty for a tight proxy


def test_mc_increment_zero_pair():
    proc = single_block_process()
    z = np.array([0.3, 0.2, 0.1], dtype=complex)
    got, se = mc_increment_std(proc, z, z, draws=100, seed=0)
    assert got == 0.0 and se == 0.0


def test_signed_polynomial_is_the_steiner_polynomial_over_k():
    # the process and random_steiner_polynomial draw the same signs from one
    # generator state, and the process divides each coefficient by k
    designs = (greedy_generate(13, 3, 2, seed=4), greedy_generate(9, 4, 3, seed=1))
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

"""Homogeneous polynomial container: evaluation, polarization, bounds, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab.polynomials import (
    HomogeneousPolynomial,
    polarize_evaluate,
    random_steiner_polynomial,
)
from vnlab.steiner import PartialSteinerSystem, fano_system, greedy_generate


def pairs_poly(r):
    # z1 z2 + z3 z4 + ... on 2r variables
    terms = {(2 * i + 1, 2 * i + 2): 1.0 for i in range(r)}
    return HomogeneousPolynomial(n=2 * r, k=2, coeffs=terms)


def test_evaluate_monomial_at_uniform_point():
    p = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 2, 3): 1.0})
    z = np.full(3, 1 / math.sqrt(3), dtype=complex)
    assert p.evaluate(z) == pytest.approx(3 ** -1.5, rel=1e-14)


def test_evaluate_repeated_index_power():
    p = HomogeneousPolynomial(n=2, k=3, coeffs={(1, 1, 2): 2.0})
    z = np.array([0.5 + 0.5j, -1.0 + 0j])
    expected = 2.0 * (0.5 + 0.5j) ** 2 * (-1.0)  # direct hand expansion
    assert p.evaluate(z) == pytest.approx(expected, rel=1e-14)


def test_evaluate_batch_matches_single():
    rng = np.random.default_rng(3)
    p = random_steiner_polynomial(fano_system(), rng=rng)
    Z = rng.normal(size=(11, 7)) + 1j * rng.normal(size=(11, 7))
    vals = p.evaluate_batch(Z)
    for row, v in zip(Z, vals):
        assert v == pytest.approx(p.evaluate(row), rel=1e-13)


def test_homogeneity():
    rng = np.random.default_rng(8)
    p = random_steiner_polynomial(greedy_generate(9, 3, 2, 2), rng=rng)
    z = rng.normal(size=9) + 1j * rng.normal(size=9)
    lam = 0.37 - 1.21j
    assert p.evaluate(lam * z) == pytest.approx(lam ** 3 * p.evaluate(z), rel=1e-12)


def test_gradient_batch_matches_finite_differences():
    rng = np.random.default_rng(12)
    p = HomogeneousPolynomial(
        n=4, k=3,
        coeffs={(1, 2, 3): 1.5, (2, 3, 4): -2.0j, (1, 1, 4): 0.25},
    )
    Z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    vals, grads = p.gradient_batch(Z)
    np.testing.assert_allclose(vals, p.evaluate_batch(Z), rtol=1e-13)
    h = 1e-6
    for r in range(3):
        for j in range(4):
            zp, zm = Z[r].copy(), Z[r].copy()
            zp[j] += h
            zm[j] -= h
            fd = (p.evaluate(zp) - p.evaluate(zm)) / (2 * h)
            assert grads[r, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_validation_rejects_bad_terms():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(n=3, k=2, coeffs={(2, 1): 1.0})  # not sorted
    with pytest.raises(ValueError):
        HomogeneousPolynomial(n=3, k=2, coeffs={(1, 4): 1.0})  # out of range
    with pytest.raises(ValueError):
        HomogeneousPolynomial(n=3, k=2, coeffs={(1, 2, 3): 1.0})  # wrong degree
    with pytest.raises(ValueError):
        HomogeneousPolynomial(n=3, k=2, coeffs={(1, 2): float("nan")})


def test_zero_coefficients_dropped():
    p = HomogeneousPolynomial(n=3, k=2, coeffs={(1, 2): 0.0, (1, 3): 1.0})
    assert p.support() == ((1, 3),)
    assert p.coefficient_sum == 1.0


def test_random_steiner_signs_unimodular_and_reproducible():
    sys_ = fano_system()
    p1 = random_steiner_polynomial(sys_, rng=np.random.default_rng(5))
    p2 = random_steiner_polynomial(sys_, rng=np.random.default_rng(5))
    p3 = random_steiner_polynomial(sys_, rng=np.random.default_rng(6))
    assert p1.coeffs == p2.coeffs
    assert p1.coeffs != p3.coeffs
    assert p1.support() == sys_.blocks
    assert all(c in (1.0, -1.0) for c in p1.coeffs.values())


def test_random_steiner_accepts_a_pair_unique_design():
    # a valid t = 2 design at k = 4 is an S_p(3, 4, 9); its signs are those
    # of the same blocks tagged t = 3
    sys_ = greedy_generate(9, 4, 2, 1)
    tagged = PartialSteinerSystem(sys_.n, sys_.k, 3, sys_.blocks)
    p = random_steiner_polynomial(sys_, 5)
    assert p.support() == sys_.blocks
    assert p.coeffs == random_steiner_polynomial(tagged, 5).coeffs


def test_random_steiner_requires_top_uniqueness():
    sys_ = greedy_generate(9, 3, 3, 0)  # t=3 is not k-1=2
    with pytest.raises(ValueError):
        random_steiner_polynomial(sys_, rng=np.random.default_rng(0))


def test_polarize_single_cross_monomial():
    # p = z1 z2, k = 2: L(e1, e2) = (1/8) sum_eps eps1 eps2 p(eps1 e1 + eps2 e2)
    # = (1/8) * 4 = 1/2, the symmetric-tensor entry of the monomial.
    p = HomogeneousPolynomial(n=2, k=2, coeffs={(1, 2): 1.0})
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert polarize_evaluate(p, [e1, e2]) == pytest.approx(0.5, abs=1e-14)
    assert polarize_evaluate(p, [e1, e1]) == pytest.approx(0.0, abs=1e-14)


def test_polarize_diagonal_recovers_polynomial():
    rng = np.random.default_rng(21)
    p = random_steiner_polynomial(greedy_generate(8, 3, 2, 3), rng=rng)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    z /= np.linalg.norm(z)
    assert polarize_evaluate(p, [z, z, z]) == pytest.approx(p.evaluate(z), rel=1e-12)


def test_polarize_is_symmetric_in_arguments():
    rng = np.random.default_rng(22)
    p = random_steiner_polynomial(fano_system(), rng=rng)
    zs = [rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(3)]
    a = polarize_evaluate(p, zs)
    b = polarize_evaluate(p, [zs[2], zs[0], zs[1]])
    assert a == pytest.approx(b, rel=1e-12)


def test_polarize_argument_count_checked():
    p = HomogeneousPolynomial(n=2, k=2, coeffs={(1, 2): 1.0})
    with pytest.raises(ValueError):
        polarize_evaluate(p, [np.ones(2, dtype=complex)])


def test_coefficient_sum_dominates_on_polydisc():
    rng = np.random.default_rng(18)
    p = random_steiner_polynomial(fano_system(), rng=rng)
    for _ in range(200):
        z = rng.random(7) * np.exp(2j * np.pi * rng.random(7))
        assert abs(p.evaluate(z)) <= p.coefficient_sum + 1e-12


def test_json_roundtrip_with_complex_weights():
    p = HomogeneousPolynomial(
        n=4, k=2, coeffs={(1, 2): 1.0 - 2.0j, (3, 4): 0.5}
    )
    text = p.to_json()
    back = HomogeneousPolynomial.from_json(text)
    assert back.coeffs == p.coeffs
    assert back.n == p.n and back.k == p.k
    payload = json.loads(text)
    assert set(payload) == {"n", "k", "terms"}


def test_from_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        HomogeneousPolynomial.from_json('{"n": 3, "k": 2}')


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.1, 2.0))
def test_homogeneity_property(seed, scale):
    rng = np.random.default_rng(seed)
    p = random_steiner_polynomial(fano_system(), rng=rng)
    z = rng.normal(size=7) + 1j * rng.normal(size=7)
    lhs = p.evaluate(scale * z)
    rhs = scale ** 3 * p.evaluate(z)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

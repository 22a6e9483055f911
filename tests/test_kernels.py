"""The NumPy evaluation kernels against independent oracles."""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import kernels
from vnlab.polynomials import HomogeneousPolynomial, random_steiner_polynomial
from vnlab.steiner import greedy_generate


def random_case(rng, nb=6, n=5, m=8, k=3):
    coef = rng.normal(size=m) + 1j * rng.normal(size=m)
    idx = np.sort(rng.integers(0, n, size=(m, k)), axis=1).astype(np.int64)
    Z = rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n))
    return coef, idx, Z


def naive_eval_grad(coef, idx, Z):
    """Per-monomial loop: p(z) and dp/dz_j, one product at a time."""
    nb, n = Z.shape
    values = np.zeros(nb, dtype=complex)
    grads = np.zeros((nb, n), dtype=complex)
    for b in range(nb):
        for c, row in zip(coef, idx):
            values[b] += c * np.prod([Z[b, j] for j in row])
            for u, j in enumerate(row):
                grads[b, j] += c * np.prod([Z[b, i] for v, i in enumerate(row) if v != u])
    return values, grads


def cumprod_add_at_oracle(coef, idx, points):
    """Reference gradient kernel: cumprod prefix and suffix products over a
    (B, m, k) array, scattered with np.add.at."""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    nb, n = points.shape
    m, k = idx.shape
    grads = np.zeros((nb, n), dtype=np.complex128)
    if m == 0:
        return np.zeros(nb, dtype=np.complex128), grads
    factors = points[:, idx]
    prefix = np.ones_like(factors)
    suffix = np.ones_like(factors)
    np.cumprod(factors[:, :, :-1], axis=2, out=prefix[:, :, 1:])
    np.cumprod(factors[:, :, :0:-1], axis=2, out=suffix[:, :, -2::-1])
    # the kernel's row-wise term sum; the gradient keeps its own scatter
    values = np.einsum("bt,t->b", prefix[:, :, -1] * factors[:, :, -1], coef)
    contrib = coef[None, :, None] * prefix * suffix
    rows = np.broadcast_to(np.arange(nb)[:, None, None], contrib.shape)
    cols = np.broadcast_to(idx[None, :, :], contrib.shape)
    np.add.at(grads, (rows, cols), contrib)
    return values, grads


def magnitudes(coef, idx, Z):
    """Sums of the moduli of the terms behind each value and gradient entry."""
    vals, grads = cumprod_add_at_oracle(np.abs(coef).astype(complex), idx, np.abs(Z))
    return vals.real, grads.real


def test_python_backend_always_available():
    assert kernels.backend_name() == "python"


def test_empty_support_gives_zeros():
    Z = np.ones((4, 3), dtype=complex)
    coef = np.zeros(0, dtype=complex)
    idx = np.zeros((0, 2), dtype=np.int64)
    assert np.all(kernels.poly_eval_batch(coef, idx, Z) == 0)
    vals, grads = kernels.poly_eval_grad_batch(coef, idx, Z)
    assert vals.shape == (4,) and grads.shape == (4, 3)
    assert np.all(vals == 0) and np.all(grads == 0)


def test_python_eval_matches_direct_product_sum():
    # oracle: naive per-monomial product loop written independently here
    rng = np.random.default_rng(0)
    coef, idx, Z = random_case(rng)
    got = kernels.poly_eval_batch(coef, idx, Z)
    for b in range(Z.shape[0]):
        direct = sum(
            c * np.prod([Z[b, j] for j in row]) for c, row in zip(coef, idx)
        )
        assert got[b] == pytest.approx(direct, rel=1e-13)


def test_python_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    coef, idx, Z = random_case(rng, nb=2, n=4, m=5, k=3)
    _, grads = kernels.poly_eval_grad_batch(coef, idx, Z)
    h = 1e-6
    for b in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            zp, zm = Z.copy(), Z.copy()
            zp[b, j] += h
            zm[b, j] -= h
            fd = (
                kernels.poly_eval_batch(coef, idx, zp)[b]
                - kernels.poly_eval_batch(coef, idx, zm)[b]
            ) / (2 * h)
            assert grads[b, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=1, max_value=6),
    nb=st.integers(min_value=1, max_value=4),
)
def test_gradient_kernel_matches_naive_loop(seed, k, m, n, nb):
    # unsorted rows over few variables: indices repeat within and across monomials
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=m) + 1j * rng.normal(size=m)
    idx = rng.integers(0, n, size=(m, k)).astype(np.int64)
    Z = rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n))
    vals, grads = kernels.poly_eval_grad_batch(coef, idx, Z)
    want_vals, want_grads = naive_eval_grad(coef, idx, Z)
    mag_vals, mag_grads = magnitudes(coef, idx, Z)
    assert vals.shape == (nb,) and grads.shape == (nb, n)
    assert np.all(np.abs(vals - want_vals) <= 1e-13 * mag_vals)
    assert np.all(np.abs(grads - want_grads) <= 1e-13 * mag_grads)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gradient_kernel_matches_cumprod_add_at_formula(k):
    # k <= 3 multiplies the same operands in the same order and adds in the
    # same (b, t, u) order, so the results are equal bit for bit; from k = 4
    # cumprod's accumulate loop rounds its products differently
    rng = np.random.default_rng(100 + k)
    # single-element products round on a path of their own in NumPy
    shapes = [(1, 1)] * 8 + [(1, 4), (6, 1), (0, 3)]
    shapes += [(int(rng.integers(0, 60)), int(rng.integers(1, 9))) for _ in range(40)]
    for m, nb in shapes:
        n = int(rng.integers(1, 12))
        coef = rng.normal(size=m) + 1j * rng.normal(size=m)
        idx = rng.integers(0, n, size=(m, k)).astype(np.int64)
        if rng.random() < 0.5:
            idx = np.sort(idx, axis=1)
        Z = rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n))
        vals, grads = kernels.poly_eval_grad_batch(coef, idx, Z)
        want_vals, want_grads = cumprod_add_at_oracle(coef, idx, Z)
        if k <= 3:
            assert np.array_equal(vals, want_vals)
            assert np.array_equal(grads, want_grads)
        else:
            mag_vals, mag_grads = magnitudes(coef, idx, Z)
            assert np.all(np.abs(vals - want_vals) <= 1e-14 * mag_vals)
            assert np.all(np.abs(grads - want_grads) <= 1e-14 * mag_grads)


def shifted_copy(a, shift):
    """A copy of a that starts shift bytes into a fresh buffer; a shift of an
    odd multiple of 8 bytes puts complex128 entries off 16-byte alignment."""
    buf = np.zeros(a.nbytes + 32, dtype=np.uint8)
    view = buf[shift : shift + a.nbytes].view(a.dtype).reshape(a.shape)
    view[...] = a
    return view


@pytest.mark.parametrize(
    "k, n", [(3, 7), (3, 25), (3, 100), (4, 9), (4, 25), (4, 40), (5, 11), (5, 23)]
)
def test_kernels_are_row_independent(k, n):
    # a row's output may not depend on the rows beside it, their number or
    # where the batch starts in memory
    p = random_steiner_polynomial(
        greedy_generate(n, k, k - 1, n), rng=np.random.default_rng(n)
    )
    coef, idx = p._coef, p._idx0
    rng = np.random.default_rng(10 * n + k)
    nb = 24
    Z = rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n))
    want = kernels.poly_eval_batch(coef, idx, Z)
    want_vals, want_grads = kernels.poly_eval_grad_batch(coef, idx, Z)
    assert np.array_equal(want_vals, want)
    subsets = [np.array([b]) for b in range(nb)]
    subsets += [np.arange(lo, hi) for lo, hi in [(0, 2), (0, nb - 1), (1, nb), (5, 17)]]
    subsets += [np.sort(rng.choice(nb, size=rng.integers(2, nb), replace=False)) for _ in range(8)]
    # contiguous rows also as a view that starts one element into a larger buffer
    flat = np.concatenate([np.zeros(1, dtype=complex), Z.ravel()])
    for rows in subsets:
        start = rows[0] * n + 1
        views = [Z[rows], shifted_copy(Z[rows], 8), shifted_copy(Z[rows], 24)]
        if np.array_equal(rows, np.arange(rows[0], rows[-1] + 1)):
            views.append(flat[start : start + rows.size * n].reshape(rows.size, n))
        for points in views:
            vals, grads = kernels.poly_eval_grad_batch(coef, idx, points)
            assert np.array_equal(kernels.poly_eval_batch(coef, idx, points), want[rows])
            assert np.array_equal(vals, want_vals[rows])
            assert np.array_equal(grads, want_grads[rows])


def test_kernel_index_belongs_to_its_polynomial():
    # pairs of polynomials of one shape (n, m, k) with different supports,
    # evaluated in turn while the batch grows and shrinks.  A polynomial is
    # collected before its successor is built, whose arrays can then take
    # over its memory (the points are drawn beforehand, so that nothing else
    # takes it first); no polynomial may see another's indices
    n, m, k = 9, 12, 3
    rng = np.random.default_rng(5)
    batches = [rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n)) for nb in (3, 8, 1, 5, 2)]

    def polynomial():
        keys = set()
        while len(keys) < m:
            keys.add(tuple(np.sort(rng.choice(n, size=k, replace=False)) + 1))
        coeffs = {key: complex(*rng.normal(size=2)) for key in keys}
        return HomogeneousPolynomial(n, k, coeffs)

    pair = [polynomial()]
    for drop in (1, 2, 1, 2, 1, 2):
        # collect the last polynomial built, or both, and build their successors
        del pair[2 - drop :]
        gc.collect()
        pair += [polynomial() for _ in range(drop)]
        assert pair[0].support() != pair[1].support()
        for Z in batches:
            for p in pair:
                vals, grads = p.gradient_batch(Z)
                want_vals, want_grads = naive_eval_grad(p._coef, p._idx0, Z)
                mag_vals, mag_grads = magnitudes(p._coef, p._idx0, Z)
                assert np.all(np.abs(vals - want_vals) <= 1e-13 * mag_vals)
                assert np.all(np.abs(grads - want_grads) <= 1e-13 * mag_grads)
                assert np.array_equal(p.evaluate_batch(Z), vals)
        del p


def test_kernel_index_can_be_shared_between_threads():
    # threads that evaluate one polynomial at growing batch sizes build and
    # grow its indices concurrently; each must get its rows' bits.  Every
    # round starts from a fresh copy, whose indices are not built yet
    p = random_steiner_polynomial(greedy_generate(13, 3, 2, 13), rng=np.random.default_rng(13))
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(32, 13)) + 1j * rng.normal(size=(32, 13))
    want_vals, want_grads = kernels.poly_eval_grad_batch(p._coef, p._idx0, Z)
    failures = []

    def work(shared, start):
        try:
            start.wait(timeout=60)
            for nb in range(1, 33):
                vals, grads = shared.gradient_batch(Z[:nb])
                if not np.array_equal(vals, want_vals[:nb]):
                    failures.append(nb)
                if not np.array_equal(grads, want_grads[:nb]):
                    failures.append(nb)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared, start = HomogeneousPolynomial(p.n, p.k, p.coeffs), threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(shared, start)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []

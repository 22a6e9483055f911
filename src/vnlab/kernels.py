"""Batched evaluation kernels: values and holomorphic gradients of a sparse
homogeneous polynomial at many points at once, in NumPy.

A polynomial is passed as coef (m,) complex128 and idx (m, k) int64, the
zero-based variable indices of each monomial; points is (B, n).

Both kernels are row-independent: the output for a row of points has the
same bits whichever rows share its batch, however many there are and
wherever the array starts in memory.  The norm ascent relies on this to
drop converged restarts from its batch without changing any other row.
So every product is formed left to right by elementwise multiplies, and
every sum over terms is NumPy's einsum loop, one row at a time.  Two
shorter spellings break the contract: a matrix-vector product (``@``)
goes to BLAS gemv, whose blocking and summation order depend on the
batch size and the alignment of the operands, and ``prod(axis=...)``
rounds on a path of its own when the batch has one row.  Both kernels
also give the same values bit for bit.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded by benchmarks."""
    return "python"


def poly_eval_batch(coef: np.ndarray, idx: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate sum_t coef[t] * prod_u z[idx[t, u]] at each row of points.

    coef: (m,) complex128, idx: (m, k) int64 zero-based, points: (B, n).
    Returns (B,) complex128.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    return _term_sum(_product(*_factors(points, idx)), coef)


def _factors(points, idx):
    """The k factors of every term as (B, m) arrays, from one gather: with
    idx.T the gather runs several times faster than k column gathers."""
    return list(points[:, idx.T].transpose(1, 0, 2))


def _product(*factors, out=None):
    """Left-to-right product of the factors that are not None (None stands
    for the empty product 1); the last multiplication writes into out."""
    factors = [f for f in factors if f is not None]
    if len(factors) == 1:
        if out is None:
            return factors[0]
        out[...] = factors[0]
        return out
    acc = factors[0]
    for f in factors[1:-1]:
        acc = acc * f
    return np.multiply(acc, factors[-1], out=out)


def _term_sum(prods, coef):
    """sum_t prods[b, t] * coef[t] for each row b, added in t order."""
    return np.einsum("bt,t->b", prods, coef)


def poly_eval_grad_batch(coef: np.ndarray, idx: np.ndarray, points: np.ndarray):
    """Values and holomorphic gradients of the polynomial at each point.

    Returns (values (B,), gradients (B, n)).  The partial derivative in z_j
    sums, over every monomial position u with idx[t, u] == j, the product of
    the other k - 1 factors, assembled from exclusive prefix and suffix
    products.  Contributions are added in (b, t, u) order.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    nb, n = points.shape
    m, k = idx.shape
    factors = _factors(points, idx)
    # prefix[u] = f_0 ... f_{u-1} and suffix[u] = f_{k-1} ... f_{u+1}, each
    # multiplied left to right
    prefix = [None] * k
    suffix = [None] * k
    for u in range(1, k):
        prefix[u] = _product(prefix[u - 1], factors[u - 1])
        suffix[k - 1 - u] = _product(suffix[k - u], factors[k - u])
    values = _term_sum(_product(prefix[-1], factors[-1]), coef)
    # coef as a row, not a vector: a (1, 1) product of a 1-D and a 2-D operand
    # takes NumPy's scalar path, which rounds differently from the array loop
    row = coef[None, :]
    contrib = np.empty((nb, m, k), dtype=np.complex128)
    for u in range(k):
        _product(row, prefix[u], suffix[u], out=contrib[:, :, u])
    # bincount accumulates in input order, so each gradient entry sums its
    # contributions in (t, u) order
    flat = (np.arange(0, nb * n, n)[:, None] + idx.reshape(1, -1)).ravel()
    contrib = contrib.ravel()
    grads = np.empty(nb * n, dtype=np.complex128)
    grads.real = np.bincount(flat, weights=contrib.real, minlength=nb * n)
    grads.imag = np.bincount(flat, weights=contrib.imag, minlength=nb * n)
    return values, grads.reshape(nb, n)

"""Batched evaluation kernels: values and holomorphic gradients of a sparse
homogeneous polynomial at many points at once, in NumPy.

A polynomial is passed as coef (m,) complex128 and idx (m, k) int64, the
zero-based variable indices of each monomial; points is (B, n).  A caller
that evaluates one support many times passes its TermIndex as well, which
holds the gather and scatter indices that would otherwise be built per call.

Both kernels are row-independent: the output for a row of points has the
same bits whichever rows share its batch, however many there are and
wherever the array starts in memory.  The norm ascent relies on this to
drop converged restarts from its batch without changing any other row.
So the k factors of every term come from one take along the rows, every
product is formed left to right by elementwise multiplies, every sum over
terms is NumPy's einsum loop, one row at a time, and the gradient is
scattered by one bincount over the contributions viewed as float64 pairs,
which adds each entry's real and imaginary parts in (b, t, u) order.  Two
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


class TermIndex:
    """The kernels' indices for the support idx (m, k) in n variables.

    factors gathers factor u of term t to u m + t.  scatter(B) sends the
    float64 pairs of the gradient contributions (B, m, k) to their entries
    of the (B, n) gradient viewed as float64, real part then imaginary part.
    """

    def __init__(self, idx: np.ndarray, n: int):
        self.factors = idx.T.ravel()
        self._pairs = (2 * idx.reshape(-1, 1) + np.arange(2)).ravel()
        self._n = n
        self._scatter = self._pairs[:0]

    def scatter(self, nb: int) -> np.ndarray:
        """The scatter index of nb rows: a prefix of the longest one built."""
        size = nb * self._pairs.size
        scatter = self._scatter
        if scatter.size < size:
            rows = 2 * self._n * np.arange(nb)
            scatter = self._scatter = (rows[:, None] + self._pairs).ravel()
        return scatter[:size]


def poly_eval_batch(coef: np.ndarray, idx: np.ndarray, points: np.ndarray, *, index=None):
    """Evaluate sum_t coef[t] * prod_u z[idx[t, u]] at each row of points.

    coef: (m,) complex128, idx: (m, k) int64 zero-based, points: (B, n);
    index is idx's TermIndex in n variables, built here if None.
    Returns (B,) complex128.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    index = index or TermIndex(idx, points.shape[1])
    f = points.take(index.factors, axis=1).reshape(points.shape[0], *idx.shape[::-1])
    prod = f[:, 0]
    for u in range(1, idx.shape[1]):
        prod = prod * f[:, u]
    return np.einsum("bt,t->b", prod, coef)


def poly_eval_grad_batch(coef: np.ndarray, idx: np.ndarray, points: np.ndarray, *, index=None):
    """Values and holomorphic gradients of the polynomial at each point.

    The arguments are those of poly_eval_batch.  Returns (values (B,),
    gradients (B, n)).  The partial derivative in z_j sums, over every
    monomial position u with idx[t, u] == j, the product of the other k - 1
    factors, assembled from exclusive prefix and suffix products.
    Contributions are added in (b, t, u) order.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    nb, n = points.shape
    m, k = idx.shape
    index = index or TermIndex(idx, n)
    f = points.take(index.factors, axis=1).reshape(nb, k, m)
    # prefix[u] = f_0 ... f_{u-1} for u >= 1 and suffix[u] = f_{k-1} ... f_{u+1}
    # for u <= k - 2, each multiplied left to right
    prefix, suffix = [None] * k, [None] * k
    if k > 1:
        prefix[1], suffix[k - 2] = f[:, 0], f[:, k - 1]
    for u in range(2, k):
        prefix[u] = prefix[u - 1] * f[:, u - 1]
        suffix[k - 1 - u] = suffix[k - u] * f[:, k - u]
    values = np.einsum("bt,t->b", f[:, 0] if k == 1 else prefix[-1] * f[:, -1], coef)
    # coef as a row, not a vector: a (1, 1) product of a 1-D and a 2-D operand
    # takes NumPy's scalar path, which rounds differently from the array loop
    row = coef[None, :]
    contrib = np.empty((nb, m, k), dtype=np.complex128)
    if k == 1:
        contrib[:, :, 0] = row
    else:
        np.multiply(row, suffix[0], out=contrib[:, :, 0])
        for u in range(1, k - 1):
            np.multiply(row * prefix[u], suffix[u], out=contrib[:, :, u])
        np.multiply(row, prefix[-1], out=contrib[:, :, -1])
    # bincount accumulates in input order, so each gradient entry sums its
    # contributions in (t, u) order, its real and imaginary parts apart
    pairs = contrib.view(np.float64).ravel()
    grads = np.bincount(index.scatter(nb), weights=pairs, minlength=2 * nb * n)
    return values, grads.view(np.complex128).reshape(nb, n)

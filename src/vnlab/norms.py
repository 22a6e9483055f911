"""Sup-norms of homogeneous polynomials over l_q unit balls.

Lower estimates come from multistart projected gradient ascent on |p(z)|^2
(by homogeneity the search lives on the unit sphere of the ball); upper
bounds come from certified closed forms, and certified_upper is the one
place that picks among them:

  * the coefficient absolute sum (any q),
  * the spectral norm of the coefficient-tensor flattening (q = 2),
  * the l1-ball bound max_J |c_J| mult(J)! / k! (q = 1),
  * Hoelder interpolation between certified endpoint bounds.

The quadratic case (q = 2, k = 2) also has an exact value from singular values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .polynomials import HomogeneousPolynomial, l1_ball_upper_bound, polarization_signs
from .util import Exponent, stream

_STEP_GROW = 1.3
_STEP_SHRINK = 0.5
_STEP_FLOOR = 1e-18
_BACKTRACK_LIMIT = 60
# a restart has converged once an accepted step gains at most this relative amount
_ASCENT_TOL = 1e-10


@dataclass(frozen=True)
class NormEstimate:
    """Ascent lower estimate of sup |p| with a witness that attains it."""

    q: Exponent
    lower: float
    witness: np.ndarray
    restarts: int
    iterations: int
    converged_restarts: int


@dataclass(frozen=True)
class MultilinearEstimate:
    """Ascent lower estimate for the sup of the polarized multilinear form."""

    q: Exponent
    value: float
    vectors: np.ndarray
    restarts: int
    iterations: int
    converged_restarts: int


def _batched_ascent(params, value_fn, grad_fn, max_iter, tol):
    """Maximize value_fn over rows of params by backtracking gradient ascent.

    Returns (params, values, iterations, converged mask).  value_fn maps an
    (R, P) array to (R,); grad_fn additionally returns the (R, P) gradient,
    and its values must equal value_fn's bit for bit.  Each iteration steps,
    backtracks and differentiates only the live rows, the restarts that
    have not converged; a converged row keeps its final params and value.
    Both functions must treat every row on its own (see vnlab.kernels), so
    the result equals that of stepping every row in every iteration.
    """
    params = np.array(params, dtype=np.float64)
    values, grads = grad_fn(params)
    eta = np.full(params.shape[0], 0.25)
    live = np.arange(params.shape[0])
    iterations = 0
    while live.size and iterations < max_iter:
        iterations += 1
        # grads holds the live rows only; x, v and e are copies of theirs
        x, v, e = params[live], values[live], eta[live]
        done = np.zeros(live.size, dtype=bool)
        trial = x + e[:, None] * grads
        trial_values = value_fn(trial)
        for _ in range(_BACKTRACK_LIMIT):
            worse = ~done & (trial_values < v)
            if not worse.any():
                break
            e[worse] *= _STEP_SHRINK
            stuck = worse & (e < _STEP_FLOOR)
            done |= stuck
            worse &= ~stuck
            if not worse.any():
                break
            trial[worse] = x[worse] + e[worse, None] * grads[worse]
            trial_values[worse] = value_fn(trial[worse])
        accept = np.flatnonzero(~done & (trial_values >= v))
        gain = trial_values[accept] - v[accept]
        done[accept[gain <= tol * np.maximum(v[accept], 1e-300)]] = True
        x[accept] = trial[accept]
        v[accept] = trial_values[accept]
        e[accept] = np.minimum(e[accept] * _STEP_GROW, 1e3)
        params[live], values[live], eta[live] = x, v, e
        live = live[~done]
        if live.size:
            values[live], grads = grad_fn(params[live])
    converged = np.ones(params.shape[0], dtype=bool)
    converged[live] = False
    return params, values, iterations, converged


def _points(params, qf, shape):
    """Unit-sphere points of shape (R, blocks, n) from parameter rows.

    At qf = inf a row holds one phase per coordinate, z = exp(i theta).
    At finite qf it holds, per block, softplus weights w and then phases
    theta, with magnitudes s / ||s||_q for s = softplus(w).  Returns the
    points and what _pullback needs (None at qf = inf).
    """
    blocks, n = shape
    # one 2-D row per block, so each block follows the arithmetic of a single vector
    rows = params.reshape(params.shape[0] * blocks, -1)
    if qf == math.inf:
        return np.exp(1j * rows).reshape(-1, blocks, n), None
    w, theta = rows[:, :n], rows[:, n:]
    s = np.logaddexp(0.0, w)
    nu = (s**qf).sum(axis=1) ** (1.0 / qf)
    z = s / nu[:, None] * np.exp(1j * theta)
    return z.reshape(-1, blocks, n), (w, theta, s, nu)


def _pullback(g, z, aux, qf):
    """Parameter-row gradient of |f|^2 from g = 2 conj(f) df/dz at points z."""
    nrows, n = z.shape[0], z.shape[2]
    g = g.reshape(-1, n)
    if qf == math.inf:
        # d|f|^2/dtheta_j for z_j = exp(i theta_j)
        return (-np.imag(g * z.reshape(-1, n))).reshape(nrows, -1)
    w, theta, s, nu = aux
    # chain rule through magnitudes m = s / ||s||_q with s = softplus(w)
    radial = np.real(g * np.exp(1j * theta))
    proj = (radial * s).sum(axis=1)
    dw = expit(w) * (
        radial / nu[:, None] - s ** (qf - 1.0) * (proj / nu ** (qf + 1.0))[:, None]
    )
    dtheta = -np.imag(g * s / nu[:, None] * np.exp(1j * theta))
    return np.concatenate([dw, dtheta], axis=1).reshape(nrows, -1)


def _start_rows(shape, qf, restarts, seed, label, extra):
    """Random parameter rows plus rows encoding caller-supplied start points."""
    rows = []
    for r in range(restarts):
        rng = stream(seed, label, r)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        if qf == math.inf:
            rows.append(theta)
        else:
            w = rng.normal(0.0, 1.0, size=shape)
            rows.append(np.concatenate([w, theta], axis=-1))
    for z in extra:
        z = np.asarray(z, dtype=np.complex128).reshape(shape)
        theta = np.angle(z)
        if qf == math.inf:
            rows.append(theta)
        else:
            mag = np.maximum(np.abs(z), 1e-9)
            rows.append(np.concatenate([np.log(np.expm1(mag) + 1e-300), theta], axis=-1))
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _maximize(objective, shape, q, restarts, max_iter, seed, label, extra_starts):
    """Multistart ascent of |f| over products of l_q unit spheres.

    objective(z, grad) takes points of shape (R, blocks, n) and returns the
    complex values f (R,), or with grad=True the pair (f, df/dz) with df of
    shape (R, blocks, n).  Returns (points, value, restarts, iterations,
    converged restarts) for the best row, each block normalized to
    ||v||_q = 1 and value = |f| evaluated there.
    """
    qf = q.as_float()

    def value_fn(params):
        return np.abs(objective(_points(params, qf, shape)[0], False)) ** 2

    def grad_fn(params):
        z, aux = _points(params, qf, shape)
        vals, grads = objective(z, True)
        g = 2.0 * np.conj(vals)[:, None, None] * grads
        return np.abs(vals) ** 2, _pullback(g, z, aux, qf)

    params = _start_rows(shape, qf, restarts, seed, label, extra_starts)
    params, values, iterations, converged = _batched_ascent(
        params, value_fn, grad_fn, max_iter, _ASCENT_TOL
    )
    best = int(np.argmax(values))
    z, _ = _points(params[best : best + 1], qf, shape)
    points = z[0]
    if not q.is_inf:
        points = np.array([v / float(np.linalg.norm(v, ord=qf)) for v in points])
    value = abs(complex(objective(points[None], False)[0]))
    return points, float(value), params.shape[0], iterations, int(converged.sum())


def _zero_witness(shape, q):
    """Equal-modulus points of shape (blocks, n), each block with ||v||_q = 1."""
    z = np.ones(shape, dtype=np.complex128)
    if not q.is_inf:
        z /= float(np.linalg.norm(z[0], ord=q.as_float()))
    return z


def estimate_norm(
    p: HomogeneousPolynomial,
    q,
    *,
    restarts: int = 32,
    max_iter: int = 2000,
    seed: int = 0,
    extra_starts=(),
) -> NormEstimate:
    """Lower estimate of sup_{||z||_q <= 1} |p(z)| by multistart ascent.

    For q = infinity the search runs over phases only (the maximum modulus
    principle puts a maximizer on the polytorus); for finite q magnitudes are
    reparameterized through a normalized softplus so the iterates stay on the
    unit sphere and the objective stays smooth.  Each restart derives its own
    RNG stream from (seed, restart index).  The witness satisfies the ball
    constraint and reproduces the reported lower value by direct evaluation.
    The result is an estimate only; the certified upper end is
    certified_upper(p, q), which this function does not compute.
    """
    q = Exponent.parse(q)
    if p.term_count == 0:
        return NormEstimate(q, 0.0, _zero_witness((1, p.n), q)[0], 0, 0, 0)

    def objective(z, grad):
        if not grad:
            return p.evaluate_batch(z[:, 0])
        vals, grads = p.gradient_batch(z[:, 0])
        return vals, grads[:, None, :]

    points, lower, nrows, iterations, converged = _maximize(
        objective, (1, p.n), q, restarts, max_iter, seed, "norm-ascent", extra_starts
    )
    return NormEstimate(q, lower, points[0], nrows, iterations, converged)


def multilinear_estimate(
    p: HomogeneousPolynomial,
    q,
    *,
    restarts: int = 16,
    max_iter: int = 1500,
    seed: int = 0,
    extra_starts=(),
) -> MultilinearEstimate:
    """Ascent lower estimate for sup |L(z1, ..., zk)| over k unit-ball vectors.

    L is the symmetric multilinear form whose diagonal is p, evaluated by
    sign averaging; each of the k vectors is constrained to its own l_q ball
    with the same parameterizations as estimate_norm.  extra_starts entries
    are (k, n) arrays; seeding one restart from a polynomial witness z
    (repeated k times) makes the estimate start at the diagonal value.
    """
    q = Exponent.parse(q)
    k, n = p.k, p.n
    if p.term_count == 0:
        return MultilinearEstimate(q, 0.0, _zero_witness((k, n), q), 0, 0, 0)
    signs, parity, count = polarization_signs(k)
    scale = 1.0 / count

    def objective(z, grad):
        nrows = z.shape[0]
        points = np.einsum("ek,rkn->ren", signs, z).reshape(-1, n)
        vals, grads = p.gradient_batch(points) if grad else (p.evaluate_batch(points), None)
        # a row-wise sum over the sign patterns, as in vnlab.kernels
        form = scale * np.einsum("re,e->r", vals.reshape(nrows, -1), parity)
        if not grad:
            return form
        dform = scale * np.einsum("e,ek,ren->rkn", parity, signs, grads.reshape(nrows, -1, n))
        return form, dform

    vectors, value, nrows, iterations, converged = _maximize(
        objective, (k, n), q, restarts, max_iter, seed, "multilinear-ascent", extra_starts
    )
    return MultilinearEstimate(q, value, vectors, nrows, iterations, converged)


def exact_norm_quadratic_l2(p: HomogeneousPolynomial) -> float:
    """Exact sup of a 2-homogeneous polynomial on the Euclidean ball.

    Writing p(z) = z^T A z with A complex symmetric, the sup equals the
    largest singular value of A (Takagi factorization).
    """
    if p.k != 2:
        raise ValueError(f"exact quadratic norm requires k = 2, got k={p.k}")
    a = np.zeros((p.n, p.n), dtype=np.complex128)
    for (i, j), c in p.coeffs.items():
        if i == j:
            a[i - 1, i - 1] = c
        else:
            a[i - 1, j - 1] = c / 2.0
            a[j - 1, i - 1] = c / 2.0
    if not p.coeffs:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def lambda_constant(k: int, q) -> float:
    """Comparison constant between polynomial and multilinear sup-norms.

    Equals 1 at q = 2, k^{k/2} (k+1)^{(k+1)/2} / (2^k k!) at q = infinity,
    and the generic polarization constant k^k / k! otherwise.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    q = Exponent.parse(q)
    if q.is_inf:
        return k ** (k / 2.0) * (k + 1) ** ((k + 1) / 2.0) / (2**k * math.factorial(k))
    if q.fraction == 2:
        return 1.0
    return float(k**k) / math.factorial(k)


def interpolation_upper(q, norm2_upper: float, norminf_upper: float, k: int) -> float:
    """Upper bound for the l_q sup, 2 < q < inf, from l_2 and l_inf bounds.

    Hoelder interpolation of the multilinear form gives
    (lam(k,2) U_2)^{2/q} (lam(k,inf) U_inf)^{(q-2)/q}.
    """
    q = Exponent.parse(q)
    if q.is_inf or not (2 < q.fraction):
        raise ValueError(f"interpolation requires 2 < q < inf, got q={q}")
    if norm2_upper < 0 or norminf_upper < 0:
        raise ValueError("norm upper bounds must be nonnegative")
    qf = q.as_float()
    a = lambda_constant(k, 2) * norm2_upper
    b = lambda_constant(k, Exponent.infinity()) * norminf_upper
    return a ** (2.0 / qf) * b ** ((qf - 2.0) / qf)


def interpolation_upper_low(q, norm1_upper: float, norm2_upper: float, k: int) -> float:
    """Upper bound for the l_q sup, 1 < q < 2, from l_1 and l_2 bounds.

    Hoelder interpolation gives (lam(k,1) U_1)^{(2-q)/q} (lam(k,2) U_2)^{(2q-2)/q}.
    """
    q = Exponent.parse(q)
    if q.is_inf or not (1 < q.fraction < 2):
        raise ValueError(f"interpolation requires 1 < q < 2, got q={q}")
    if norm1_upper < 0 or norm2_upper < 0:
        raise ValueError("norm upper bounds must be nonnegative")
    qf = q.as_float()
    a = lambda_constant(k, 1) * norm1_upper
    b = lambda_constant(k, 2) * norm2_upper
    return a ** ((2.0 - qf) / qf) * b ** ((2.0 * qf - 2.0) / qf)


def certified_upper(p: HomogeneousPolynomial, q) -> tuple[float, str]:
    """The smallest closed-form upper bound on sup_{||z||_q <= 1} |p(z)| that applies at q.

    Returns (value, method).  The coefficient sum applies at every q; a
    tighter form replaces it only if strictly smaller: at q = 2 the
    flattening, at q = 1 the l1-ball bound, and for 1 < q < 2 or
    2 < q < inf (k >= 2) the Hoelder interpolation between the endpoint
    bounds, which at large q can exceed the coefficient sum.
    """
    q = Exponent.parse(q)
    coef_sum = p.coefficient_sum
    if q.is_inf or (p.k < 2 and q.fraction not in (1, 2)):
        return coef_sum, "coefficient_sum"
    qf = q.fraction
    if qf == 1:
        value, method = l1_ball_upper_bound(p), "l1"
    else:
        u2 = min(flattening_upper_bound(p), coef_sum)
        if qf == 2:
            value, method = u2, "flattening"
        elif qf > 2:
            value, method = interpolation_upper(q, u2, coef_sum, p.k), "interpolation"
        else:
            u1 = l1_ball_upper_bound(p)
            value, method = interpolation_upper_low(q, u1, u2, p.k), "interpolation"
    return (value, method) if value < coef_sum else (coef_sum, "coefficient_sum")


def flattening_upper_bound(p: HomogeneousPolynomial) -> float:
    """Certified l_2 upper bound from the coefficient-tensor flattening.

    The symmetric coefficient tensor of p is unfolded into an n x n^{k-1}
    matrix M; since |p(z)| = |z^T M z^{otimes(k-1)}| <= sigma_max(M) ||z||^k,
    the largest singular value certifies the Euclidean sup.  For unit-weight
    supports on a partial Steiner system with t = k - 1 the Gram matrix
    M M^* is diagonal and the bound is max_i sqrt(deg(i) / (k * k!)).
    """
    if p.term_count == 0:
        return 0.0
    n, k = p.n, p.k
    if k == 1:
        return float(np.linalg.norm(list(p.coeffs.values())))
    rows, cols, data = [], [], []
    kfact = math.factorial(k)
    for key, c in p.coeffs.items():
        mult_fact = 1
        for x in set(key):
            mult_fact *= math.factorial(key.count(x))
        entry = c * (mult_fact / kfact)
        for perm in set(itertools.permutations(key)):
            rows.append(perm[0] - 1)
            col = 0
            for j in range(1, k):
                col = col * n + (perm[j] - 1)
            cols.append(col)
            data.append(entry)
    m = sp.coo_matrix((data, (rows, cols)), shape=(n, n ** (k - 1))).tocsr()
    gram = (m @ m.conjugate().transpose()).toarray()
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0))

"""Sup-norms of homogeneous polynomials over l_q unit balls.

Lower estimates come from multistart projected gradient ascent on |p(z)|^2
(by homogeneity the search lives on the unit sphere of the ball).  A
restart ascends in its phases at q = inf and in softplus magnitudes and
phases at finite q.  For 1 < q <= 2 this softplus phase only picks the
basin: it stops once a step gains little, and each restart then finishes
in its basin with a step that converges fast there.  At q = 2 that is an
ascent in plain coordinates u on the sphere, z = u / ||u||, until a step
gains nothing; its normalized gradient step is the shifted power step of
Kolda and Mayo, which started from random points picks worse basins than
the softplus phase does.  For 1 < q < 2 it is that power step carried to
l_q (_power_step), taken while it raises |p|; the handover comes later
there, since a power step taken from a saddle's plateau can climb into a
poorer basin.  max_iter caps the iterations of both phases together.  Upper bounds come from certified
closed forms, and certified_upper is the one place that picks among them:

  * the coefficient absolute sum (any q),
  * the spectral norm of the coefficient-tensor flattening (q = 2), which
    is the exact Euclidean sup at k = 2,
  * the l1-ball bound max_J |c_J| mult(J)! / k! (q = 1),
  * Hoelder interpolation between certified endpoint bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import HomogeneousPolynomial, polarization_signs
from .util import Exponent, stream

_STEP_GROW = 1.3
_STEP_SHRINK = 0.5
_STEP_FLOOR = 1e-18
_BACKTRACK_LIMIT = 60
# a restart has converged once an accepted step gains at most this relative amount
_ASCENT_TOL = 1e-10
# at q = 2 the softplus-phase ascent hands a restart to the sphere ascent here
_HANDOVER_TOL = 1e-4
# and for 1 < q < 2 to the l_q power steps here: a single small step can fall on
# a saddle's plateau, from which a power step may climb into a poorer basin
_POWER_HANDOVER_TOL = 1e-7
# the shift of the l_q power step for 1 < q < 2 is beta = _POWER_SHIFT / (q - 1)
_POWER_SHIFT = 0.5


@dataclass(frozen=True)
class NormEstimate:
    """Ascent lower estimate of a sup with a witness that attains it.

    The witness is a point (n,) for estimate_norm and k vectors (k, n) for
    multilinear_estimate.
    """

    q: Exponent
    lower: float
    witness: np.ndarray
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
    phase = np.exp(1j * theta)
    z = s / nu[:, None] * phase
    return z.reshape(-1, blocks, n), (phase, s, nu)


def _pullback(g, z, aux, qf):
    """Parameter-row gradient of |f|^2 from g = 2 conj(f) df/dz at points z."""
    nrows, n = z.shape[0], z.shape[2]
    g = g.reshape(-1, n)
    if qf == math.inf:
        # d|f|^2/dtheta_j for z_j = exp(i theta_j)
        return (-np.imag(g * z.reshape(-1, n))).reshape(nrows, -1)
    phase, s, nu = aux
    # chain rule through magnitudes m = s / ||s||_q with s = softplus(w), s' = 1 - e^{-s}
    radial = np.real(g * phase)
    proj = (radial * s).sum(axis=1)
    dw = -np.expm1(-s) * (
        radial / nu[:, None] - s ** (qf - 1.0) * (proj / nu ** (qf + 1.0))[:, None]
    )
    dtheta = -np.imag(g * s / nu[:, None] * phase)
    return np.concatenate([dw, dtheta], axis=1).reshape(nrows, -1)


def _sphere_points(params, shape):
    """Euclidean unit-sphere points of shape (R, blocks, n) from parameter rows.

    A row holds, per block, [Re u, Im u] of a nonzero u in C^n, and the
    point is u / ||u||.  Returns the points and the norms ||u||, one per
    block, which _sphere_pullback needs.
    """
    blocks, n = shape
    rows = params.reshape(params.shape[0] * blocks, -1)
    norm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    z = (rows[:, :n] + 1j * rows[:, n:]) / norm[:, None]
    return z.reshape(-1, blocks, n), norm


def _sphere_pullback(g, z, norm):
    """Parameter-row gradient of |f(u / ||u||)|^2 from g = 2 conj(f) df/dz.

    In real coordinates the gradient at z is conj(g); the normalization
    keeps its part tangent to the sphere and divides it by ||u||.
    """
    nrows, n = z.shape[0], z.shape[2]
    g, z = g.reshape(-1, n), z.reshape(-1, n)
    radial = np.real(np.einsum("ij,ij->i", z, g))
    du = (np.conj(g) - radial[:, None] * z) / norm[:, None]
    return np.concatenate([du.real, du.imag], axis=1).reshape(nrows, -1)


def _power_step(z, f, df, qf):
    """One shifted l_q power step from the points z (R, blocks, n), 1 < qf < 2.

    f (R,) and df (R, blocks, n) are the values and df/dz at z, and f has
    total degree k in z.  With a = conj(f) df, a maximizer of |f| on the
    product of l_q spheres has a = k |f|^2 conj(z) |z|^(q-2) in each block
    (k |f|^2 = Re sum a z by Euler's identity).  The step adds
    beta k |f|^2 conj(z) |z|^(q-2) to a, the shift of Kolda and Mayo, and
    maps the sum b to the point of each block's l_q sphere that is dual to
    it, w = conj(b) |b|^(q'-2) / ||b||_q'^(q'-1) with q' = q / (q - 1), so
    that a maximizer is a fixed point.  The shift is 0 where z_j = 0.
    """
    nrows, blocks, n = z.shape
    # one 2-D row per block, as in _points
    z = z.reshape(-1, n)
    a = (np.conj(f)[:, None, None] * df).reshape(-1, n)
    lam = np.real(np.einsum("ij,ij->i", a, z)).reshape(nrows, blocks).sum(axis=1)
    mag = np.abs(z)
    shift = np.zeros_like(mag)
    np.power(mag, qf - 2.0, out=shift, where=mag > 0.0)
    beta = _POWER_SHIFT / (qf - 1.0)
    b = a + (beta * np.repeat(lam, blocks))[:, None] * shift * np.conj(z)
    # w does not change when b is scaled; at max |b_j| = 1 the powers of |b|
    # neither overflow nor all underflow when q' is large (q near 1)
    mb = np.abs(b)
    top = mb.max(axis=1)[:, None]
    b, mb = b / top, mb / top
    dual = qf / (qf - 1.0)
    norm = (mb**dual).sum(axis=1) ** (1.0 / qf)
    w = np.conj(b) * mb ** (dual - 2.0) / norm[:, None]
    return w.reshape(nrows, blocks, n)


def _power_ascent(objective, z, qf, max_iter):
    """Shifted l_q power iteration (_power_step) on the rows of z, 1 < qf < 2.

    objective is _maximize's.  A row takes its step only if |f| rises
    there; otherwise it stops and counts as converged, as does a row
    with f = 0.  Each iteration differentiates the live rows only, at
    their steps, which gives both the test and the next step; every
    operation treats each block's row on its own, so the result equals
    that of stepping every row in every iteration.  Returns (points,
    values |f|, iterations, converged mask).
    """
    z = np.array(z, dtype=np.complex128)
    f, df = objective(z, True)
    values = np.abs(f)
    live = np.flatnonzero(values > 0.0)
    df = df[live]
    iterations = 0
    while live.size and iterations < max_iter:
        iterations += 1
        w = _power_step(z[live], f[live], df, qf)
        fw, dfw = objective(w, True)
        up = np.abs(fw) > values[live]
        live = live[up]
        z[live], f[live], values[live], df = w[up], fw[up], np.abs(fw[up]), dfw[up]
    converged = np.ones(z.shape[0], dtype=bool)
    converged[live] = False
    return z, values, iterations, converged


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

    Every restart first ascends in the rows of _points.  For 1 < q <= 2
    that phase only picks the basin: it stops at _HANDOVER_TOL (q = 2) or
    _POWER_HANDOVER_TOL or after half of max_iter, and a second phase runs
    until a step gains nothing or max_iter is spent.  At q = 2 each row
    ascends as [Re u, Im u] on the sphere (_sphere_points); for 1 < q < 2
    each point takes shifted l_q power steps (_power_ascent).  The half
    keeps iterations for the second phase when one slow restart holds the
    others back.  iterations counts both phases, and the converged restarts
    are those of the last phase.
    """
    if restarts < 1 and len(extra_starts) == 0:
        raise ValueError(f"restarts must be >= 1 when no extra starts are given, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    qf = q.as_float()

    def ascend(params, points_fn, pullback, budget, tol):
        def value_fn(params):
            return np.abs(objective(points_fn(params)[0], False)) ** 2

        def grad_fn(params):
            z, aux = points_fn(params)
            vals, grads = objective(z, True)
            g = 2.0 * np.conj(vals)[:, None, None] * grads
            return np.abs(vals) ** 2, pullback(g, z, aux)

        return _batched_ascent(params, value_fn, grad_fn, budget, tol)

    def softplus_points(params):
        return _points(params, qf, shape)

    def softplus_pullback(g, z, aux):
        return _pullback(g, z, aux, qf)

    def sphere_points(params):
        return _sphere_points(params, shape)

    def same_points(z):
        return z, None

    params = _start_rows(shape, qf, restarts, seed, label, extra_starts)
    if not 1.0 < qf <= 2.0:
        params, values, iterations, converged = ascend(
            params, softplus_points, softplus_pullback, max_iter, _ASCENT_TOL
        )
        points_fn = softplus_points
    else:
        handover = _HANDOVER_TOL if qf == 2.0 else _POWER_HANDOVER_TOL
        params, _, iterations, _ = ascend(
            params, softplus_points, softplus_pullback, max_iter // 2, handover
        )
        z = softplus_points(params)[0]
        if qf == 2.0:
            params = np.concatenate([z.real, z.imag], axis=-1).reshape(params.shape[0], -1)
            params, values, last_iterations, converged = ascend(
                params, sphere_points, _sphere_pullback, max_iter - iterations, 0.0
            )
            points_fn = sphere_points
        else:
            params, values, last_iterations, converged = _power_ascent(
                objective, z, qf, max_iter - iterations
            )
            points_fn = same_points
        iterations += last_iterations
    best = int(np.argmax(values))
    points = points_fn(params[best : best + 1])[0][0]
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
    unit sphere and the objective stays smooth.  For 1 < q <= 2 every
    restart then finishes in its basin until a step gains nothing: at
    q = 2 on the sphere in plain coordinates, for 1 < q < 2 by shifted
    l_q power steps.  max_iter (at least 1) caps the iterations of both
    phases together; iterations counts both, and converged_restarts counts
    the restarts whose last phase stopped before the cap.  Each restart
    derives its own RNG stream from (seed, restart index).  The witness satisfies the ball
    constraint and reproduces the reported lower value by direct evaluation.
    The result is an estimate only; the certified upper end is
    certified_upper(p, q), which this function does not compute.  The value
    is not clamped, and rounding can lift it a few ulps above an exact sup
    (0.5000000000000001 against 0.5 on a k = 2 polynomial at q = 2).
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
) -> NormEstimate:
    """Ascent lower estimate for sup |L(z1, ..., zk)| over k unit-ball vectors.

    L is the symmetric multilinear form whose diagonal is p, evaluated by
    sign averaging; each of the k vectors is constrained to its own l_q ball
    with the same parameterizations as estimate_norm, and the witness holds
    the k vectors.  extra_starts entries are (k, n) arrays; seeding one
    restart from a polynomial witness z (repeated k times) makes the
    estimate start at the diagonal value.
    """
    q = Exponent.parse(q)
    k, n = p.k, p.n
    if p.term_count == 0:
        return NormEstimate(q, 0.0, _zero_witness((k, n), q), 0, 0, 0)
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
    return NormEstimate(q, value, vectors, nrows, iterations, converged)


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


def interpolation_upper(q, low, high, k: int) -> float:
    """Upper bound for the l_q sup from certified bounds at q0 < q < q1.

    low = (q0, U0) and high = (q1, U1).  Hoelder interpolation of the
    multilinear form gives (lam(k,q0) U0)^{1-t} (lam(k,q1) U1)^t, where
    1/q = (1-t)/q0 + t/q1; t is computed exactly from the exponents.
    """
    (q0, u0), (q1, u1) = low, high
    q, q0, q1 = (Exponent.parse(x) for x in (q, q0, q1))
    inv, inv0, inv1 = (Fraction(0) if x.is_inf else 1 / x.fraction for x in (q, q0, q1))
    if not inv0 > inv > inv1:
        raise ValueError(f"interpolation requires q0 < q < q1, got {q0}, {q}, {q1}")
    if u0 < 0 or u1 < 0:
        raise ValueError("norm upper bounds must be nonnegative")
    t = (inv0 - inv) / (inv0 - inv1)
    a = lambda_constant(k, q0) * u0
    b = lambda_constant(k, q1) * u1
    return a ** float(1 - t) * b ** float(t)


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
            value = interpolation_upper(q, (2, u2), ("inf", coef_sum), p.k)
            method = "interpolation"
        else:
            value = interpolation_upper(q, (1, l1_ball_upper_bound(p)), (2, u2), p.k)
            method = "interpolation"
    return (value, method) if value < coef_sum else (coef_sum, "coefficient_sum")


def _multiplicity_factorial(key) -> int:
    """mult(J)!: the product of the factorials of the index multiplicities of J."""
    return math.prod(math.factorial(key.count(x)) for x in set(key))


def l1_ball_upper_bound(p: HomogeneousPolynomial) -> float:
    """Upper bound on sup of |p| over the unit l1 ball: max_J |c_J| * mult(J)! / k!.

    For squarefree unimodular monomials the bound is 1/k!.  It is not the
    sup: for z1 z2 z3 the sup is 1/27 and the bound is 1/6.
    """
    kfact = math.factorial(p.k)
    per_term = (abs(c) * _multiplicity_factorial(key) / kfact for key, c in p.coeffs.items())
    return max(per_term, default=0.0)


def flattening_upper_bound(p: HomogeneousPolynomial) -> float:
    """Certified l_2 upper bound from the coefficient-tensor flattening.

    The symmetric coefficient tensor of p is unfolded into an n x n^{k-1}
    matrix M; since |p(z)| = |z^T M z^{otimes(k-1)}| <= sigma_max(M) ||z||^k,
    the largest singular value certifies the Euclidean sup.  At k = 2, M is
    the symmetric matrix A of p(z) = z^T A z and the bound is exact:
    sup |z^T A z| = sigma_max(A) (Takagi factorization).  For unit-weight
    supports on a partial Steiner system with t = k - 1 the Gram matrix
    M M^* is diagonal and the bound is max_i sqrt(deg(i) / (k * k!)).
    """
    if p.term_count == 0:
        return 0.0
    n, k = p.n, p.k
    if k == 1:
        return float(np.linalg.norm(list(p.coeffs.values())))
    perms, data = [], []
    kfact = math.factorial(k)
    for key, c in p.coeffs.items():
        distinct = set(itertools.permutations(key))
        perms.extend(distinct)
        data.extend([c * (_multiplicity_factorial(key) / kfact)] * len(distinct))
    # M M^* sums a a^* over the columns a of M in ascending order: each entry
    # pairs with every entry of its column, and bincount adds the pairs in turn
    perms = np.array(perms) - 1
    cols = perms[:, 1:] @ n ** np.arange(k - 2, -1, -1)
    order = np.argsort(cols, kind="stable")
    rows, cols, data = perms[order, 0], cols[order], np.array(data)[order]
    start = np.searchsorted(cols, cols)
    size = np.searchsorted(cols, cols, side="right") - start
    left = np.repeat(np.arange(cols.size), size)
    right = np.arange(left.size) + np.repeat(start - np.cumsum(size) + size, size)
    a, b = data[left], data[right]
    # a conj(b) with each product rounded on its own: NumPy's complex multiply
    # fuses them on some builds, and the certified bound must not depend on that
    parts = (a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag)
    re, im = (np.bincount(rows[left] * n + rows[right], x, minlength=n * n) for x in parts)
    top = float(np.linalg.eigvalsh((re + 1j * im).reshape(n, n))[-1])
    return math.sqrt(max(top, 0.0))

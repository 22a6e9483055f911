"""Sup-norms of homogeneous polynomials over l_q unit balls.

Lower estimates come from multistart projected gradient ascent on |p(z)|^2
(by homogeneity the search lives on the unit sphere of the ball).  A
restart ascends in its phases at q = inf and in softplus magnitudes and
phases at finite q.  For 1 < q <= 2 this softplus phase only picks the
basin: it stops once a step gains little, and each restart then finishes
in its basin with shifted l_q power steps (_power_step), taken while they
raise |p|.  At q = 2 that is the shifted power step of Kolda and Mayo,
which started from random points picks worse basins than the softplus
phase does.  Below 2 the handover comes later, since a power step taken
from a saddle's plateau can climb into a poorer basin.  max_iter caps the
iterations of both phases together.

Every ascent runs on p times k^{k/q} / max |c_J| (_in_sup_units), a form
whose sup is at least 1, so its steps and stopping tests do not depend on
the scale of p; the witness is evaluated on p itself.

The symmetric multilinear form L of p is itself a k-homogeneous
polynomial in the k n variables w = (z_1, ..., z_k) (multilinear_lift).
A maximizer of |L| on the unit l_q ball of C^{kn} has blocks of equal
norm k^{-1/q}, so multilinear_estimate is estimate_norm on the lift over
that one sphere, with each block of its witness scaled to the unit sphere.

Upper bounds come from certified closed forms, and certified_upper is the
one place that picks among them:

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

from .polynomials import HomogeneousPolynomial
from .util import Exponent, stream

_STEP_GROW = 1.3
_STEP_SHRINK = 0.5
_BACKTRACK_LIMIT = 60
# a restart has converged once an accepted step gains at most this relative amount
_ASCENT_TOL = 1e-10
# at q = 2 the softplus-phase ascent hands a restart to the power steps here;
# 1e-7 there costs more softplus steps and finds the same values
_HANDOVER_TOL = 1e-4
# and for 1 < q < 2 here: a single small step can fall on a saddle's
# plateau, from which a power step may climb into a poorer basin
_POWER_HANDOVER_TOL = 1e-7
# the shift of the l_q power step is beta = _POWER_SHIFT / (q - 1)
_POWER_SHIFT = 0.5


@dataclass(frozen=True)
class NormEstimate:
    """Ascent lower estimate of a sup with a witness that attains it.

    For estimate_norm the witness is a point (n,) with ||z||_q = 1; for
    multilinear_estimate it is the k vectors (k, n), each with ||v||_q = 1.
    """

    q: Exponent
    lower: float
    witness: np.ndarray
    restarts: int
    iterations: int
    converged_restarts: int


def _points(params, qf):
    """Unit-sphere points (R, n) from parameter rows.

    At qf = inf a row holds one phase per coordinate, z = exp(i theta).
    At finite qf it holds softplus weights w and then phases theta, with
    magnitudes s / ||s||_q for s = softplus(w).  Returns the points and
    what _pullback needs (None at qf = inf).
    """
    if qf == math.inf:
        return np.exp(1j * params), None
    n = params.shape[1] // 2
    w, theta = params[:, :n], params[:, n:]
    s = np.logaddexp(0.0, w)
    nu = (s**qf).sum(axis=1) ** (1.0 / qf)
    phase = np.exp(1j * theta)
    return s / nu[:, None] * phase, (phase, s, nu)


def _pullback(g, z, aux, qf):
    """Parameter-row gradient of |f|^2 from g = 2 conj(f) df/dz at points z."""
    if qf == math.inf:
        # d|f|^2/dtheta_j for z_j = exp(i theta_j)
        return -np.imag(g * z)
    phase, s, nu = aux
    # chain rule through magnitudes m = s / ||s||_q with s = softplus(w), s' = 1 - e^{-s}
    radial = np.real(g * phase)
    proj = (radial * s).sum(axis=1)
    dw = -np.expm1(-s) * (
        radial / nu[:, None] - s ** (qf - 1.0) * (proj / nu ** (qf + 1.0))[:, None]
    )
    dtheta = -np.imag(g * s / nu[:, None] * phase)
    return np.concatenate([dw, dtheta], axis=1)


def _power_step(z, f, df, qf):
    """One shifted l_q power step from the points z (R, n), 1 < qf <= 2.

    f (R,) and df (R, n) are the values and df/dz at z, and f is
    k-homogeneous.  With a = conj(f) df, a maximizer of |f| on the l_q
    sphere has a = k |f|^2 conj(z) |z|^(q-2) (k |f|^2 = Re sum a z by
    Euler's identity).  The step adds beta k |f|^2 conj(z) |z|^(q-2) to a,
    the shift of Kolda and Mayo, and maps the sum b to the point of the
    l_q sphere that is dual to it, w = conj(b) |b|^(q'-2) / ||b||_q'^(q'-1)
    with q' = q / (q - 1), so that a maximizer is a fixed point.  The shift
    is taken as beta k |f|^2 |z|^(q-1) times the conjugate phase of z (0
    where z_j = 0), which is finite however small z_j is.
    """
    a = np.conj(f)[:, None] * df
    lam = np.real(np.einsum("ij,ij->i", a, z))
    mag = np.abs(z)
    # conj(z) / |z| part by part: a complex division overflows at a subnormal z_j
    unit = np.where(mag > 0.0, mag, 1.0)
    phase = z.real / unit - 1j * (z.imag / unit)
    beta = _POWER_SHIFT / (qf - 1.0)
    b = a + (beta * lam)[:, None] * mag ** (qf - 1.0) * phase
    # w does not change when b is scaled; at max |b_j| = 1 the powers of |b|
    # neither overflow nor all underflow when q' is large (q near 1)
    mb = np.abs(b)
    top = mb.max(axis=1)[:, None]
    b, mb = b / top, mb / top
    dual = qf / (qf - 1.0)
    norm = (mb**dual).sum(axis=1) ** (1.0 / qf)
    return np.conj(b) * mb ** (dual - 2.0) / norm[:, None]


def _power_ascent(p, z, qf, max_iter):
    """Shifted l_q power iteration (_power_step) of |p| on the rows of z, 1 < qf <= 2.

    A row takes its step only if |p| rises there; otherwise it stops and
    counts as converged, as does a row with p = 0.  Each iteration
    differentiates the live rows only, at their steps, which gives both the
    test and the next step; every operation treats each row on its own, so
    the result equals that of stepping every row in every iteration.
    Returns (points, values |p|, iterations, converged mask).
    """
    z = np.array(z, dtype=np.complex128)
    f, df = p.gradient_batch(z)
    values = np.abs(f)
    live = np.flatnonzero(values > 0.0)
    df = df[live]
    iterations = 0
    while live.size and iterations < max_iter:
        iterations += 1
        w = _power_step(z[live], f[live], df, qf)
        fw, dfw = p.gradient_batch(w)
        up = np.abs(fw) > values[live]
        live = live[up]
        z[live], f[live], values[live], df = w[up], fw[up], np.abs(fw[up]), dfw[up]
    converged = np.ones(z.shape[0], dtype=bool)
    converged[live] = False
    return z, values, iterations, converged


def _ascend(p, params, qf, max_iter, tol):
    """Backtracking gradient ascent of |p|^2 in the parameter rows of _points.

    Returns (points, values |p|^2, iterations, converged mask).  A row's
    step halves at most _BACKTRACK_LIMIT times while it lowers |p|^2.  The
    row then takes the step unless it still loses, and has converged if it
    loses or gains at most tol relative.  Each iteration steps, backtracks
    and differentiates only the live rows, the restarts that have not
    converged; a converged row keeps its final params and value.  Every
    operation, the kernels' too (see vnlab.kernels), treats each row on its
    own, so the result equals that of stepping every row in every iteration.
    """

    def value(params):
        return np.abs(p.evaluate_batch(_points(params, qf)[0])) ** 2

    def value_and_grad(params):
        z, aux = _points(params, qf)
        vals, grads = p.gradient_batch(z)
        return np.abs(vals) ** 2, _pullback(2.0 * np.conj(vals)[:, None] * grads, z, aux, qf)

    params = np.array(params, dtype=np.float64)
    values, grads = value_and_grad(params)
    eta = np.full(params.shape[0], 0.25)
    live = np.arange(params.shape[0])
    iterations = 0
    while live.size and iterations < max_iter:
        iterations += 1
        # grads holds the live rows only; x, v and e are copies of theirs
        x, v, e = params[live], values[live], eta[live]
        trial = x + e[:, None] * grads
        trial_values = value(trial)
        for _ in range(_BACKTRACK_LIMIT):
            worse = trial_values < v
            if not worse.any():
                break
            e[worse] *= _STEP_SHRINK
            trial[worse] = x[worse] + e[worse, None] * grads[worse]
            trial_values[worse] = value(trial[worse])
        # a step that still loses has a negative gain, so it stops the row too
        done = trial_values - v <= tol * v
        up = trial_values >= v
        x[up], v[up] = trial[up], trial_values[up]
        e[up] = np.minimum(e[up] * _STEP_GROW, 1e3)
        params[live], values[live], eta[live] = x, v, e
        live = live[~done]
        if live.size:
            values[live], grads = value_and_grad(params[live])
    converged = np.ones(params.shape[0], dtype=bool)
    converged[live] = False
    return _points(params, qf)[0], values, iterations, converged


def _start_rows(n, qf, restarts, seed, extra):
    """Random parameter rows plus rows encoding the directions of extra start points."""
    rows = []
    for r in range(restarts):
        rng = stream(seed, "norm-ascent", r)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        if qf == math.inf:
            rows.append(theta)
        else:
            w = rng.normal(0.0, 1.0, size=n)
            rows.append(np.concatenate([w, theta]))
    for z in extra:
        z = np.asarray(z, dtype=np.complex128).reshape(n)
        theta = np.angle(z)
        if qf == math.inf:
            rows.append(theta)
        else:
            mag = np.abs(z)
            mag = np.maximum(mag / (mag.max() or 1.0), 1e-9)
            rows.append(np.concatenate([np.log(np.expm1(mag)), theta]))
    return np.array(rows, dtype=np.float64)


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
    restart hands over at _HANDOVER_TOL (q = 2) or _POWER_HANDOVER_TOL, or
    after half of max_iter, and then finishes in its basin by shifted l_q
    power steps until a step gains nothing (_power_ascent).  The half keeps
    iterations for the second phase when one slow restart holds the others
    back.  max_iter (at least 1) caps the iterations of both phases
    together; iterations counts both, and converged_restarts counts the
    restarts whose last phase stopped before the cap.  Each restart derives
    its own RNG stream from (seed, restart index); extra_starts are further
    start points.  Both phases ascend _in_sup_units(p, q), so the estimate
    is independent of the scale of p: the witness and the counts are the
    same, and lower = |p(witness)| scales with p.  The witness satisfies
    the ball constraint and reproduces the reported lower value by direct
    evaluation.  The result is an estimate only; the certified upper end is
    certified_upper(p, q), which this function does not compute.  The
    value is not clamped, and rounding can lift it a few ulps above an
    exact sup (0.5000000000000002 against 0.5 on a k = 2 polynomial at
    q = 2).
    """
    q = Exponent.parse(q)
    if restarts < 1 and len(extra_starts) == 0:
        raise ValueError(f"restarts must be >= 1 when no extra starts are given, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    qf = q.as_float()
    form = _in_sup_units(p, q)
    params = _start_rows(p.n, qf, restarts, seed, extra_starts)
    if not 1.0 < qf <= 2.0:
        z, values, iterations, converged = _ascend(form, params, qf, max_iter, _ASCENT_TOL)
    else:
        handover = _HANDOVER_TOL if qf == 2.0 else _POWER_HANDOVER_TOL
        z, _, iterations, _ = _ascend(form, params, qf, max_iter // 2, handover)
        z, values, last, converged = _power_ascent(form, z, qf, max_iter - iterations)
        iterations += last
    witness = z[int(np.argmax(values))]
    if not q.is_inf:
        witness = witness / float(np.linalg.norm(witness, ord=qf))
    lower = abs(p.evaluate(witness))
    return NormEstimate(q, lower, witness, len(values), iterations, int(converged.sum()))


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

    L is the symmetric multilinear form whose diagonal is p.  The ascent is
    estimate_norm's on multilinear_lift(p) over the unit l_q sphere of
    C^{kn}; each of the k blocks of its witness is then scaled to
    ||v||_q = 1, which cannot lower |L|, and lower is |L| there.  The
    counts are those of the lift's ascent.  extra_starts entries are
    (k, n) arrays; seeding one restart from a polynomial witness z
    (repeated k times) makes the ascent start on the diagonal, at the value
    |p(z)|.  The lift has up to k! terms per monomial of p, so a step costs
    up to k! / 2^k times a 2^k-point sign average of p (3.75 at k = 5).
    """
    q = Exponent.parse(q)
    lift = multilinear_lift(p)
    extra = [np.ravel(z) for z in extra_starts]
    kwargs = dict(restarts=restarts, max_iter=max_iter, seed=seed, extra_starts=extra)
    est = estimate_norm(lift, q, **kwargs)
    vectors = est.witness.reshape(p.k, p.n)
    if not q.is_inf:
        vectors = vectors / np.linalg.norm(vectors, ord=q.as_float(), axis=1, keepdims=True)
    lower = abs(lift.evaluate(vectors.ravel()))
    return NormEstimate(q, lower, vectors, est.restarts, est.iterations, est.converged_restarts)


def _in_sup_units(p: HomogeneousPolynomial, q: Exponent) -> HomogeneousPolynomial:
    """p times k^{k/q} / c, with c its largest |coefficient| (1 for p = 0).

    The sup of this form over the unit l_q ball is at least 1 when p is not
    0.  The ball is a Reinhardt domain, so for each monomial z^a of p and
    each z in the ball, c_a z^a is the average of p(e^{i theta} z)
    e^{-i a theta} over the torus, and Cauchy's inequality gives
    |c_a z^a| <= sup |p|.  Put |z_j| = k^{-1/q} on the distinct indices of
    the monomial of a largest coefficient and 0 elsewhere: that is at most
    k coordinates, so ||z||_q <= 1, and |z^a| = k^{-k/q}.  Hence
    sup |p| >= c k^{-k/q}.  The ascent's steps and stopping tests then
    read values of order 1 whatever the scale of p; at q = inf and unit
    coefficients the factor is 1.
    """
    top = max(map(abs, p.coeffs.values()), default=1.0)
    scale = p.k ** (p.k / q.as_float()) / top
    return HomogeneousPolynomial(p.n, p.k, {j: scale * c for j, c in p.coeffs.items()})


def multilinear_lift(p: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """The symmetric multilinear form L of p as a polynomial in k n variables.

    With w = (z_1, ..., z_k) concatenated, L(w) has one term per distinct
    ordering pi of each monomial J of p, with key (pi_1, n + pi_2, ...,
    (k - 1) n + pi_k) and coefficient c_J mult(J)! / k!, so that
    L(z, ..., z) = p(z).  L is k-homogeneous in w, and on the unit l_q ball
    of C^{kn} a maximizer has blocks of norm k^{-1/q} (AM-GM), so the sup
    over the product of the k unit balls is k^{k/q} times the lift's sup.
    """
    orderings, entries = _tensor_entries(p)
    keys = orderings + p.n * np.arange(p.k)
    return HomogeneousPolynomial(
        p.n * p.k, p.k, dict(zip(map(tuple, keys.tolist()), entries.tolist()))
    )


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


def _tensor_entries(p: HomogeneousPolynomial):
    """The nonzero entries of the symmetric coefficient tensor of p.

    Returns (orderings, entries): one row of 1-based indices (m, k) for each
    distinct ordering of each monomial J, in coefficient order, and its
    entry c_J mult(J)! / k!.
    """
    orderings, entries = [], []
    kfact = math.factorial(p.k)
    for key, c in p.coeffs.items():
        distinct = set(itertools.permutations(key))
        orderings.extend(distinct)
        entries.extend([c * (_multiplicity_factorial(key) / kfact)] * len(distinct))
    return np.array(orderings, dtype=np.int64).reshape(-1, p.k), np.array(entries, dtype=complex)


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
    # M M^* sums a a^* over the columns a of M in ascending order: each entry
    # pairs with every entry of its column, and bincount adds the pairs in turn
    perms, data = _tensor_entries(p)
    perms = perms - 1
    cols = perms[:, 1:] @ n ** np.arange(k - 2, -1, -1)
    order = np.argsort(cols, kind="stable")
    rows, cols, data = perms[order, 0], cols[order], data[order]
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

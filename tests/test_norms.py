"""Sup-norm brackets: ascent lower bounds, certified uppers, exact oracles."""

import math

import numpy as np
import pytest

from vnlab import kernels, norms
from vnlab.norms import (
    certified_upper,
    estimate_norm,
    exact_norm_quadratic_l2,
    flattening_upper_bound,
    interpolation_upper,
    interpolation_upper_low,
    lambda_constant,
    multilinear_estimate,
)
from vnlab.polynomials import (
    HomogeneousPolynomial,
    l1_ball_upper_bound,
    random_steiner_polynomial,
)
from vnlab.steiner import fano_system, greedy_generate
from vnlab.util import Exponent


def pairs_poly(r):
    terms = {(2 * i + 1, 2 * i + 2): 1.0 for i in range(r)}
    return HomogeneousPolynomial(n=2 * r, k=2, coeffs=terms)


def monomial_poly(k):
    return HomogeneousPolynomial(n=k, k=k, coeffs={tuple(range(1, k + 1)): 1.0})


# ---------------------------------------------------------------- exact layer


def test_quadratic_exact_pair_sums():
    # sum of r disjoint cross terms has Euclidean sup exactly 1/2 for any r
    for r in (1, 2, 3, 5):
        assert exact_norm_quadratic_l2(pairs_poly(r)) == pytest.approx(0.5, abs=1e-12)


def test_quadratic_exact_square_and_zero():
    square = HomogeneousPolynomial(n=2, k=2, coeffs={(1, 1): 1.0})
    assert exact_norm_quadratic_l2(square) == pytest.approx(1.0, abs=1e-14)
    zero = HomogeneousPolynomial(n=2, k=2, coeffs={})
    assert exact_norm_quadratic_l2(zero) == 0.0
    with pytest.raises(ValueError):
        exact_norm_quadratic_l2(monomial_poly(3))


def test_quadratic_exact_matches_dense_svd_oracle():
    # independent oracle: assemble the symmetric matrix here and call SVD
    rng = np.random.default_rng(4)
    for _ in range(10):
        coeffs = {}
        n = 6
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.random() < 0.5:
                    coeffs[(i, j)] = complex(rng.normal(), rng.normal())
        p = HomogeneousPolynomial(n=n, k=2, coeffs=coeffs)
        a = np.zeros((n, n), dtype=complex)
        for (i, j), c in p.coeffs.items():
            if i == j:
                a[i - 1, j - 1] += c
            else:
                a[i - 1, j - 1] += c / 2
                a[j - 1, i - 1] += c / 2
        want = np.linalg.svd(a, compute_uv=False)[0] if coeffs else 0.0
        assert exact_norm_quadratic_l2(p) == pytest.approx(want, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- ascent layer


def test_ascent_hits_quadratic_oracle():
    p = pairs_poly(2)
    est = estimate_norm(p, 2, restarts=8, seed=1)
    assert est.lower == pytest.approx(0.5, abs=1e-6)
    assert est.lower <= certified_upper(p, 2)[0] + 1e-12


def test_ascent_hits_monomial_values():
    # sup of z1...zk on the Euclidean ball is k^{-k/2}
    for k in (2, 3, 4):
        est = estimate_norm(monomial_poly(k), 2, restarts=8, seed=2)
        assert est.lower == pytest.approx(k ** (-k / 2), abs=1e-4)
        assert est.lower <= 1.0 / k + 1e-9


def test_ascent_polytorus_pairs():
    # on the max-modulus ball each cross term attains 1, so the sup is r
    p = pairs_poly(2)
    est = estimate_norm(p, "inf", restarts=8, seed=3)
    assert est.lower == pytest.approx(2.0, abs=1e-6)
    assert certified_upper(p, "inf")[0] == pytest.approx(2.0, abs=1e-12)  # coefficient-sum cap


def test_witness_reproduces_lower_and_respects_ball():
    rng = np.random.default_rng(9)
    p = random_steiner_polynomial(greedy_generate(8, 3, 2, seed=7), rng=rng)
    for q in (2, 4, "inf"):
        est = estimate_norm(p, q, restarts=6, seed=4)
        assert abs(p.evaluate(est.witness)) == pytest.approx(est.lower, rel=1e-10)
        if q == "inf":
            assert np.max(np.abs(est.witness)) <= 1 + 1e-10
        else:
            assert np.linalg.norm(est.witness, ord=q) <= 1 + 1e-10
        assert est.lower <= certified_upper(p, q)[0] + 1e-9


def test_estimate_is_deterministic_in_seed():
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(11))
    a = estimate_norm(p, 2, restarts=4, seed=5)
    b = estimate_norm(p, 2, restarts=4, seed=5)
    c = estimate_norm(p, 2, restarts=4, seed=6)
    assert a.lower == b.lower
    assert np.array_equal(a.witness, b.witness)
    # different seeds may land on the same optimum but not the same witness
    assert not np.array_equal(a.witness, c.witness)


def test_zero_polynomial_estimate():
    zero = HomogeneousPolynomial(n=3, k=2, coeffs={})
    est = estimate_norm(zero, 2, restarts=2, seed=0)
    assert est.lower == 0.0 and certified_upper(zero, 2)[0] == 0.0


def test_extra_start_can_only_help():
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(13))
    base = estimate_norm(p, 2, restarts=3, seed=7)
    seeded = estimate_norm(p, 2, restarts=3, seed=7, extra_starts=[base.witness])
    assert seeded.lower >= base.lower - 1e-12


# ----------------------------------------------------------- multilinear layer


def test_multilinear_diagonal_matches_polynomial_at_q2():
    # lambda(k,2) = 1: the multilinear sup equals the polynomial sup
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(15))
    est = estimate_norm(p, 2, restarts=12, seed=9)
    mul = multilinear_estimate(
        p, 2, restarts=6, seed=9, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.value >= est.lower - 1e-9  # diagonal start can only go up
    assert mul.value <= est.lower + 1e-3  # equality within ascent slack


def test_multilinear_linf_sandwich():
    # est <= sup L <= lambda(3,inf) * est with lambda(3,inf) = sqrt(3)
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(16))
    est = estimate_norm(p, "inf", restarts=12, seed=10)
    mul = multilinear_estimate(
        p, "inf", restarts=6, seed=10, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.value >= est.lower - 1e-9
    assert mul.value <= math.sqrt(3) * est.lower + 1e-3


def test_multilinear_finite_q_stays_on_the_unit_spheres():
    # q = 3/2 runs the softplus parameterization on every block
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(17))
    est = estimate_norm(p, "3/2", restarts=8, seed=11)
    mul = multilinear_estimate(
        p, "3/2", restarts=4, seed=11, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.value >= est.lower - 1e-9
    assert mul.vectors.shape == (3, 7)
    for v in mul.vectors:
        assert abs(np.linalg.norm(v, ord=1.5) - 1.0) <= 1e-12


def test_multilinear_zero_polynomial():
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    mul = multilinear_estimate(zero, 2, restarts=2, seed=0)
    assert mul.value == 0.0


@pytest.mark.parametrize("q, qf", [("2", 2.0), ("3/2", 1.5), ("inf", math.inf)])
def test_multilinear_zero_polynomial_vectors_are_unit(q, qf):
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    mul = multilinear_estimate(zero, q, restarts=2, seed=0)
    assert mul.vectors.shape == (3, 3)
    for v in mul.vectors:
        assert abs(np.linalg.norm(v, ord=qf) - 1.0) <= 1e-12


# ------------------------------------------------------------ constants layer


def test_lambda_constant_values():
    for k in (2, 3, 4, 5):
        assert lambda_constant(k, 2) == 1.0
    assert lambda_constant(3, "inf") == pytest.approx(math.sqrt(3), rel=1e-14)
    assert lambda_constant(3, 4) == pytest.approx(27 / 6, rel=1e-14)
    assert lambda_constant(2, "inf") == pytest.approx(
        2 * 3 ** 1.5 / (4 * 2), rel=1e-14
    )
    with pytest.raises(ValueError):
        lambda_constant(1, 2)


def test_interpolation_upper_frozen_value():
    # q=4, U2=1, Uinf=2, k=3: sqrt(1) * sqrt(sqrt(3)*2)
    assert interpolation_upper(4, 1.0, 2.0, 3) == pytest.approx(
        1.8612097182041991, rel=1e-12
    )
    with pytest.raises(ValueError):
        interpolation_upper(2, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        interpolation_upper("inf", 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        interpolation_upper(4, -1.0, 1.0, 3)


def test_interpolation_upper_low_frozen_value():
    # q=3/2, U1=1/2, U2=3/4, k=3: (4.5*0.5)^{1/3} * 0.75^{2/3}
    assert interpolation_upper_low(1.5, 0.5, 0.75, 3) == pytest.approx(
        1.0816871777305561, rel=1e-12
    )
    with pytest.raises(ValueError):
        interpolation_upper_low(2.5, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        interpolation_upper_low(1.0, 1.0, 1.0, 3)


# ------------------------------------------------------- certified upper bound


def selected_denominator(p, q):
    """The C pipeline's denominator as chosen before certified_upper (the oracle)."""
    q = Exponent.parse(q)
    u2 = min(flattening_upper_bound(p), p.coefficient_sum)
    if q.is_inf:
        return p.coefficient_sum
    if q.fraction == 2:
        return u2
    if q.fraction > 2:
        return interpolation_upper(q, u2, p.coefficient_sum, p.k)
    if q.fraction == 1:
        return l1_ball_upper_bound(p)
    return interpolation_upper_low(q, l1_ball_upper_bound(p), u2, p.k)


def steiner_poly(k, n, seed):
    system = greedy_generate(n, k, k - 1, seed=seed)
    return random_steiner_polynomial(system, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("q", ["1", "5/4", "3/2", "2", "3", "4", "6", "inf"])
@pytest.mark.parametrize("k,n,seed", [(3, 7, 1), (3, 13, 2), (3, 25, 3), (4, 8, 1), (4, 13, 2)])
def test_certified_upper_matches_the_c_pipeline_selection(k, n, seed, q):
    p = steiner_poly(k, n, seed)
    value, method = certified_upper(p, q)
    assert value == selected_denominator(p, q)
    if q == "2":
        flat = flattening_upper_bound(p)
        want = "flattening" if flat < p.coefficient_sum else "coefficient_sum"
    else:
        want = {"1": "l1", "inf": "coefficient_sum"}.get(q, "interpolation")
    assert method == want
    assert value <= p.coefficient_sum


@pytest.mark.parametrize("k,n,seed", [(3, 7, 1), (3, 13, 2), (4, 8, 1), (4, 13, 2)])
def test_certified_upper_never_exceeds_the_coefficient_sum(k, n, seed):
    # at q = 20 the interpolated form is above the coefficient sum, which
    # bounds |p| on every l_q ball
    p = steiner_poly(k, n, seed)
    assert selected_denominator(p, 20) > p.coefficient_sum
    assert certified_upper(p, 20) == (p.coefficient_sum, "coefficient_sum")
    est = estimate_norm(p, 20, restarts=8, max_iter=400, seed=seed)
    assert est.lower <= p.coefficient_sum


def test_certified_upper_zero_and_linear_polynomials():
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    for q in ("1", "3/2", "2", "4", "inf"):
        assert certified_upper(zero, q) == (0.0, "coefficient_sum")
    # k = 1 has no interpolation constant; the flattening is the l2 norm
    linear = HomogeneousPolynomial(n=2, k=1, coeffs={(1,): 3.0, (2,): 4.0})
    assert certified_upper(linear, 2) == (5.0, "flattening")
    assert certified_upper(linear, 3) == (7.0, "coefficient_sum")


# ------------------------------------------------------------ flattening layer


def test_flattening_fano_closed_form():
    # every point lies in 3 blocks: max_i sqrt(deg_i / (k * k!)) = sqrt(3/18)
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(17))
    assert flattening_upper_bound(p) == pytest.approx(
        math.sqrt(3 / 18), rel=1e-12
    )


def test_flattening_steiner_degree_formula():
    for seed, (n, k) in enumerate([(11, 3), (13, 3), (9, 4)]):
        sys_ = greedy_generate(n, k, 2, seed=seed).with_uniqueness(k - 1)
        p = random_steiner_polynomial(sys_, rng=np.random.default_rng(seed))
        deg = sys_.point_degrees().max()
        want = math.sqrt(deg / (k * math.factorial(k)))
        assert flattening_upper_bound(p) == pytest.approx(want, rel=1e-10)


def test_flattening_exact_for_rank_one_quadratics():
    # z1*z2: unfolding is [[0, 1/2], [1/2, 0]], sigma = 1/2 = true norm
    p = HomogeneousPolynomial(n=2, k=2, coeffs={(1, 2): 1.0})
    assert flattening_upper_bound(p) == pytest.approx(0.5, rel=1e-12)
    sq = HomogeneousPolynomial(n=1, k=2, coeffs={(1, 1): 1.0})
    assert flattening_upper_bound(sq) == pytest.approx(1.0, rel=1e-12)


def test_flattening_dominates_ascent():
    for seed in range(5):
        sys_ = greedy_generate(9, 3, 2, seed=seed)
        p = random_steiner_polynomial(sys_, rng=np.random.default_rng(seed))
        upper = flattening_upper_bound(p)
        est = estimate_norm(p, 2, restarts=8, seed=seed)
        assert est.lower <= upper + 1e-9


def test_flattening_degree_one():
    p = HomogeneousPolynomial(n=3, k=1, coeffs={(1,): 3.0, (2,): 4.0})
    assert flattening_upper_bound(p) == pytest.approx(5.0, rel=1e-14)


# ------------------------------------------------------------ soundness layer


def test_lower_bounds_respect_interpolation_uppers():
    rng = np.random.default_rng(19)
    for seed in range(3):
        p = random_steiner_polynomial(
            greedy_generate(7, 3, 2, seed=seed), rng=rng
        )
        u2 = min(flattening_upper_bound(p), p.coefficient_sum)
        uinf = p.coefficient_sum
        u1 = l1_ball_upper_bound(p)
        for q in (3, 4, 6):
            est = estimate_norm(p, q, restarts=6, seed=seed)
            assert est.lower <= interpolation_upper(q, u2, uinf, 3) + 1e-9
        for q in (1.25, 1.5, 1.75):
            est = estimate_norm(p, q, restarts=6, seed=seed)
            assert est.lower <= interpolation_upper_low(q, u1, u2, 3) + 1e-9


def test_row_norm_certificate_theory():
    # Banach duality: sup over two unit vectors of the symmetrized coefficient
    # tensor contracted once equals k! times the polynomial sup at q=2.
    # Cross-check ascent against the flattening on a single-block cubic where
    # both sides are known exactly: sup = 3^{-3/2}, flattening = 1/sqrt(18).
    p = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 2, 3): 1.0})
    est = estimate_norm(p, 2, restarts=8, seed=3)
    assert est.lower == pytest.approx(3 ** -1.5, abs=1e-7)
    assert flattening_upper_bound(p) == pytest.approx(math.sqrt(1 / 18), rel=1e-12)
    # sqrt(1/18) = 3^{-3/2} * sqrt(3/2) > 3^{-3/2}: strictly looser but close
    assert flattening_upper_bound(p) > est.lower


# ---------------------------------------------------------- live-row ascent


def full_batch_ascent(params, value_fn, grad_fn, max_iter, tol):
    """The ascent loop as it was before it dropped converged rows: every
    row is stepped, evaluated and differentiated in every iteration."""
    params = np.array(params, dtype=np.float64)
    nrows = params.shape[0]
    values, grads = grad_fn(params)
    eta = np.full(nrows, 0.25)
    converged = np.zeros(nrows, dtype=bool)
    iterations = 0
    for _ in range(max_iter):
        if converged.all():
            break
        iterations += 1
        trial = params + eta[:, None] * grads
        trial_values = value_fn(trial)
        for _ in range(norms._BACKTRACK_LIMIT):
            worse = ~converged & (trial_values < values)
            if not worse.any():
                break
            eta[worse] *= norms._STEP_SHRINK
            stuck = worse & (eta < norms._STEP_FLOOR)
            converged |= stuck
            worse &= ~stuck
            if not worse.any():
                break
            trial[worse] = params[worse] + eta[worse, None] * grads[worse]
            trial_values[worse] = value_fn(trial[worse])
        accept = ~converged & (trial_values >= values)
        if accept.any():
            gain = trial_values[accept] - values[accept]
            base = np.maximum(values[accept], 1e-300)
            done = gain <= tol * base
            params[accept] = trial[accept]
            values[accept] = trial_values[accept]
            eta[accept] = np.minimum(eta[accept] * norms._STEP_GROW, 1e3)
            idx = np.flatnonzero(accept)
            converged[idx[done]] = True
        if converged.all():
            break
        values_new, grads = grad_fn(params)
        values = values_new
    return params, values, iterations, converged


def run_with_loop(monkeypatch, loop, estimator, *args, **kwargs):
    """Run estimator on the ascent loop given.  Returns its result, the
    loop's (params, values, iterations, converged) for every restart and
    the number of points sent to the gradient kernel."""
    rows, runs = [0], []
    kernel = kernels.poly_eval_grad_batch

    def counted(coef, idx, points):
        rows[0] += points.shape[0]
        return kernel(coef, idx, points)

    def recorded(*loop_args):
        runs.append(loop(*loop_args))
        return runs[-1]

    with monkeypatch.context() as m:
        m.setattr(kernels, "poly_eval_grad_batch", counted)
        m.setattr(norms, "_batched_ascent", recorded)
        result = estimator(*args, **kwargs)
    return result, runs[0], rows[0]


@pytest.mark.parametrize("k, n", [(3, 13), (4, 13)])
@pytest.mark.parametrize("q", ["2", "inf", "3/2", "3"])
def test_live_row_ascent_equals_full_batch_loop(monkeypatch, k, n, q):
    p = random_steiner_polynomial(
        greedy_generate(n, k, k - 1, seed=n + k), rng=np.random.default_rng(n * k)
    )
    cases = [
        (estimate_norm, dict(restarts=12, max_iter=400, seed=k)),
        (multilinear_estimate, dict(restarts=6, max_iter=300, seed=k)),
    ]
    for estimator, kwargs in cases:
        args = (estimator, p, q)
        got, got_run, got_rows = run_with_loop(monkeypatch, norms._batched_ascent, *args, **kwargs)
        want, want_run, want_rows = run_with_loop(monkeypatch, full_batch_ascent, *args, **kwargs)
        if estimator is estimate_norm:
            assert np.array_equal(got.witness, want.witness)
            assert got.lower == want.lower
        else:
            assert np.array_equal(got.vectors, want.vectors)
            assert got.value == want.value
        assert got.iterations == want.iterations
        assert got.converged_restarts == want.converged_restarts
        # every restart ends where it ended in the full-batch loop
        for got_part, want_part in zip(got_run, want_run):
            assert np.array_equal(got_part, want_part)
        # a converged restart is no longer differentiated
        if got.converged_restarts:
            assert got_rows < want_rows
        else:
            assert got_rows == want_rows

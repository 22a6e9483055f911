"""Sup-norm brackets: ascent lower bounds, certified uppers, exact oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from vnlab import bounds, kernels, norms
from vnlab.norms import (
    certified_upper,
    estimate_norm,
    flattening_upper_bound,
    interpolation_upper,
    l1_ball_upper_bound,
    lambda_constant,
    multilinear_estimate,
    multilinear_lift,
)
from vnlab.polynomials import HomogeneousPolynomial, polarize_evaluate, random_steiner_polynomial
from vnlab.rademacher import RademacherProcess
from vnlab.steiner import fano_system, greedy_generate
from vnlab.util import Exponent, stream


def pairs_poly(r):
    terms = {(2 * i + 1, 2 * i + 2): 1.0 for i in range(r)}
    return HomogeneousPolynomial(n=2 * r, k=2, coeffs=terms)


def monomial_poly(k):
    return HomogeneousPolynomial(n=k, k=k, coeffs={tuple(range(1, k + 1)): 1.0})


# ---------------------------------------------------------------- exact layer
# at k = 2 the flattening is the exact Euclidean sup, sigma_max of the
# symmetric matrix A of p(z) = z^T A z


def test_quadratic_exact_pair_sums():
    # sum of r disjoint cross terms has Euclidean sup exactly 1/2 for any r
    for r in (1, 2, 3, 5):
        assert flattening_upper_bound(pairs_poly(r)) == pytest.approx(0.5, abs=1e-12)


def test_quadratic_exact_square_and_zero():
    square = HomogeneousPolynomial(n=2, k=2, coeffs={(1, 1): 1.0})
    assert flattening_upper_bound(square) == pytest.approx(1.0, abs=1e-14)
    zero = HomogeneousPolynomial(n=2, k=2, coeffs={})
    assert flattening_upper_bound(zero) == 0.0


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
        assert flattening_upper_bound(p) == pytest.approx(want, rel=1e-12, abs=1e-12)


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
    # the counts are checked on the zero polynomial too
    for counts in (dict(restarts=0), dict(max_iter=0), dict(restarts=0, max_iter=0)):
        with pytest.raises(ValueError):
            estimate_norm(zero, 2, **counts)


def test_extra_start_can_only_help():
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(13))
    base = estimate_norm(p, 2, restarts=3, seed=7)
    seeded = estimate_norm(p, 2, restarts=3, seed=7, extra_starts=[base.witness])
    assert seeded.lower >= base.lower - 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", ["2", "3/2", "3", "101/100"])
def test_extra_start_scale_does_not_matter(q):
    p = bounds._pipeline_inputs(3, 13, 1)[1]
    w = estimate_norm(p, 2, restarts=3, seed=7).witness
    unit = estimate_norm(p, q, restarts=0, extra_starts=[w]).lower
    for scale in (1e4, 1e300, 1e-300):
        est = estimate_norm(p, q, restarts=0, extra_starts=[scale * w])
        assert est.lower == pytest.approx(unit, rel=1e-14)
    diagonal = np.tile(w, (3, 1))
    unit = multilinear_estimate(p, q, restarts=0, extra_starts=[diagonal]).lower
    est = multilinear_estimate(p, q, restarts=0, extra_starts=[1e6 * diagonal])
    assert est.lower == pytest.approx(unit, rel=1e-14)


# ----------------------------------------------------------- multilinear layer


def test_multilinear_diagonal_matches_polynomial_at_q2():
    # lambda(k,2) = 1: the multilinear sup equals the polynomial sup
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(15))
    est = estimate_norm(p, 2, restarts=12, seed=9)
    mul = multilinear_estimate(
        p, 2, restarts=6, seed=9, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.lower >= est.lower - 1e-9  # diagonal start can only go up
    assert mul.lower <= est.lower + 1e-3  # equality within ascent slack
    assert abs(polarize_evaluate(p, mul.witness)) == pytest.approx(mul.lower, rel=1e-10)


def test_multilinear_linf_sandwich():
    # est <= sup L <= lambda(3,inf) * est with lambda(3,inf) = sqrt(3)
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(16))
    est = estimate_norm(p, "inf", restarts=12, seed=10)
    mul = multilinear_estimate(
        p, "inf", restarts=6, seed=10, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.lower >= est.lower - 1e-9
    assert mul.lower <= math.sqrt(3) * est.lower + 1e-3
    assert abs(polarize_evaluate(p, mul.witness)) == pytest.approx(mul.lower, rel=1e-10)


def test_multilinear_finite_q_stays_on_the_unit_spheres():
    # q = 3/2 runs the softplus phase and the power steps on the lift
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(17))
    est = estimate_norm(p, "3/2", restarts=8, seed=11)
    mul = multilinear_estimate(
        p, "3/2", restarts=4, seed=11, extra_starts=[np.tile(est.witness, (3, 1))]
    )
    assert mul.lower >= est.lower - 1e-9
    assert mul.witness.shape == (3, 7)
    for v in mul.witness:
        assert abs(np.linalg.norm(v, ord=1.5) - 1.0) <= 1e-12
    assert abs(polarize_evaluate(p, mul.witness)) == pytest.approx(mul.lower, rel=1e-10)


@pytest.mark.parametrize("q", ["2", "3/2", "3", "inf"])
def test_multilinear_estimate_scales_the_lift_witness_to_unit_blocks(q):
    # the ascent is estimate_norm's on the lift, which ascends the lift times
    # k^{k/q} / c, with c its largest |coefficient|; scaling each block of
    # its witness to the unit sphere multiplies |L| by at least k^{k/q}
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(23))
    kwargs = dict(restarts=4, max_iter=300, seed=12)
    mul = multilinear_estimate(p, q, **kwargs)
    q = Exponent.parse(q)
    qf = q.as_float()
    lift = multilinear_lift(p)
    ascended = norms._in_sup_units(lift, q)
    scale = 3 ** (3 / qf) / max(abs(c) for c in lift.coeffs.values())
    for key, c in lift.coeffs.items():
        assert ascended.coeffs[key] == pytest.approx(scale * c, rel=1e-15)
    est = estimate_norm(lift, q, **kwargs)
    assert (mul.restarts, mul.iterations, mul.converged_restarts) == (
        est.restarts, est.iterations, est.converged_restarts
    )
    ratio = mul.witness / est.witness.reshape(3, 7)
    assert np.allclose(ratio, np.abs(ratio[:, :1]), rtol=1e-12, atol=0)
    assert np.allclose(np.linalg.norm(mul.witness, ord=qf, axis=1), 1.0, rtol=0, atol=1e-12)
    assert mul.lower >= 3 ** (3 / qf) * est.lower * (1 - 1e-12)
    assert abs(polarize_evaluate(p, mul.witness)) == pytest.approx(mul.lower, rel=1e-10)


@pytest.mark.parametrize("k, n, q", [(3, 13, "101/100"), (3, 13, "5/4"), (4, 13, "5/4")])
def test_multilinear_estimate_is_at_least_the_polynomial_estimate(k, n, q):
    # sup |L| >= sup |p|, since L(z, ..., z) = p(z); unseeded, near q = 1,
    # where the lift's values on the sphere of C^{kn} are smallest
    p = bounds._pipeline_inputs(k, n, seed=1)[1]
    est = estimate_norm(p, q, restarts=16, max_iter=800, seed=1)  # a pipeline cell's ascent
    mul = multilinear_estimate(p, q, restarts=8, max_iter=800, seed=1)
    assert mul.lower >= est.lower
    # the sup over the unit l1 balls, 1 / k!, is attained by basis vectors
    assert mul.lower >= 1 / math.factorial(k) * (1 - 1e-12)


@pytest.mark.parametrize("q", ["1", "5/4", "2", "3", "inf"])
@pytest.mark.parametrize(
    "estimator", [estimate_norm, multilinear_estimate], ids=lambda f: f.__name__
)
def test_estimate_does_not_depend_on_the_scale_of_p(estimator, q):
    # scaling p by a power of 2 scales its largest coefficient exactly and
    # leaves the ascended form unchanged, so the witness and the counts are
    # the same and lower scales
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(24))
    kwargs = dict(restarts=4, max_iter=300, seed=13)
    est = estimator(p, q, **kwargs)
    for e in (-30, 30):
        scaled = HomogeneousPolynomial(p.n, p.k, {key: c * 2.0**e for key, c in p.coeffs.items()})
        got = estimator(scaled, q, **kwargs)
        assert np.array_equal(got.witness, est.witness)
        assert got.lower == est.lower * 2.0**e
        assert got.iterations == est.iterations


@pytest.mark.parametrize("q", ["1", "101/100"])
def test_estimate_near_q_1_reaches_a_block_on_many_variables(q):
    # one block's monomial attains 1/27 at k = 3, q = 1, and |p| is far
    # smaller at most points of the sphere of C^40, where the ascent starts
    p = bounds._pipeline_inputs(3, 40, seed=1)[1]
    est = estimate_norm(p, q, restarts=16, max_iter=800, seed=1)  # a pipeline cell's ascent
    assert est.lower >= (1 - 1e-3) / 27


def test_multilinear_zero_polynomial():
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    mul = multilinear_estimate(zero, 2, restarts=2, seed=0)
    assert mul.lower == 0.0
    # the counts are checked on the zero polynomial too
    for counts in (dict(restarts=0), dict(max_iter=0), dict(restarts=0, max_iter=0)):
        with pytest.raises(ValueError):
            multilinear_estimate(zero, 2, **counts)


@pytest.mark.parametrize("q, qf", [("2", 2.0), ("3/2", 1.5), ("inf", math.inf)])
def test_multilinear_zero_polynomial_vectors_are_unit(q, qf):
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    mul = multilinear_estimate(zero, q, restarts=2, seed=0)
    assert mul.witness.shape == (3, 3)
    for v in mul.witness:
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
    assert interpolation_upper(4, (2, 1.0), ("inf", 2.0), 3) == pytest.approx(
        1.8612097182041991, rel=1e-12
    )
    with pytest.raises(ValueError):
        interpolation_upper(2, (2, 1.0), ("inf", 1.0), 3)
    with pytest.raises(ValueError):
        interpolation_upper("inf", (2, 1.0), ("inf", 1.0), 3)
    with pytest.raises(ValueError):
        interpolation_upper(4, (2, -1.0), ("inf", 1.0), 3)
    with pytest.raises(ValueError):
        interpolation_upper(4, ("inf", 1.0), (2, 1.0), 3)  # endpoints out of order


def test_interpolation_upper_low_frozen_value():
    # q=3/2, U1=1/2, U2=3/4, k=3: (4.5*0.5)^{1/3} * 0.75^{2/3}
    assert interpolation_upper(1.5, (1, 0.5), (2, 0.75), 3) == pytest.approx(
        1.0816871777305561, rel=1e-12
    )
    with pytest.raises(ValueError):
        interpolation_upper(2.5, (1, 1.0), (2, 1.0), 3)
    with pytest.raises(ValueError):
        interpolation_upper(1.0, (1, 1.0), (2, 1.0), 3)


# ------------------------------------------------------- certified upper bound


def written_out_upper(p, q):
    """certified_upper's value with each Hoelder exponent written out in
    floats: 2/q and (q-2)/q above q = 2, (2-q)/q and (2q-2)/q below."""
    q = Exponent.parse(q)
    k, coef_sum = p.k, p.coefficient_sum
    if q.is_inf or (k < 2 and q.fraction not in (1, 2)):
        return coef_sum
    qf = q.as_float()
    u1 = l1_ball_upper_bound(p)
    u2 = min(flattening_upper_bound(p), coef_sum)
    if qf == 1:
        value = u1
    elif qf == 2:
        value = u2
    elif qf > 2:
        a, b = lambda_constant(k, 2) * u2, lambda_constant(k, "inf") * coef_sum
        value = a ** (2 / qf) * b ** ((qf - 2) / qf)
    else:
        a, b = lambda_constant(k, 1) * u1, lambda_constant(k, 2) * u2
        value = a ** ((2 - qf) / qf) * b ** ((2 * qf - 2) / qf)
    return min(value, coef_sum)


def steiner_poly(k, n, seed):
    system = greedy_generate(n, k, k - 1, seed=seed)
    return random_steiner_polynomial(system, rng=np.random.default_rng(seed))


def complex_poly(k, n, seed):
    """Random complex coefficients spanning 6 decades, repeated indices allowed."""
    rng = np.random.default_rng(seed)
    keys = {tuple(sorted(rng.integers(1, n + 1, size=k))) for _ in range(3 * n)}
    coeffs = {
        key: 10.0 ** rng.uniform(-3, 3) * np.exp(2j * math.pi * rng.random()) for key in keys
    }
    return HomogeneousPolynomial(n, k, coeffs)


CERTIFIED_INPUTS = {
    **{f"steiner-k{k}-n{n}": (steiner_poly, k, n, seed)
       for k, n, seed in [(3, 7, 1), (3, 13, 2), (3, 25, 3), (4, 8, 1), (4, 13, 2)]},
    **{f"complex-k{k}-s{seed}": (complex_poly, k, 5 + 2 * seed, seed)
       for k in (1, 2, 3) for seed in (1, 2, 3)},
}


# exactly representable exponents, where each written-out exponent is
# correctly rounded and equals the exact one certified_upper rounds
@pytest.mark.parametrize(
    "q", ["1", "5/4", "3/2", "7/4", "2", "5/2", "3", "4", "6", "10", "20", "inf"]
)
@pytest.mark.parametrize("name", list(CERTIFIED_INPUTS))
def test_certified_upper_matches_the_written_out_formulas(name, q):
    make, k, n, seed = CERTIFIED_INPUTS[name]
    p = make(k, n, seed)
    value, method = certified_upper(p, q)
    assert value == written_out_upper(p, q)
    if value == p.coefficient_sum:
        want = "coefficient_sum"
    else:
        want = {"1": "l1", "2": "flattening"}.get(q, "interpolation")
    assert method == want
    assert value <= p.coefficient_sum


@pytest.mark.parametrize("k,n,seed", [(3, 7, 1), (3, 13, 2), (4, 8, 1), (4, 13, 2)])
def test_certified_upper_never_exceeds_the_coefficient_sum(k, n, seed):
    # at q = 20 the interpolated form is above the coefficient sum, which
    # bounds |p| on every l_q ball
    p = steiner_poly(k, n, seed)
    u2 = min(flattening_upper_bound(p), p.coefficient_sum)
    assert interpolation_upper(20, (2, u2), ("inf", p.coefficient_sum), k) > p.coefficient_sum
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


def test_l1_ball_bound_values():
    p3 = HomogeneousPolynomial(n=7, k=3, coeffs={(1, 2, 3): 1.0, (4, 5, 6): -1.0})
    assert l1_ball_upper_bound(p3) == pytest.approx(1 / 6, rel=1e-14)
    repeated = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 1, 2): 1.0})
    # multiplicity (2,1): 2!·1!/3! = 1/3
    assert l1_ball_upper_bound(repeated) == pytest.approx(1 / 3, rel=1e-14)
    zero = HomogeneousPolynomial(n=3, k=3, coeffs={})
    assert l1_ball_upper_bound(zero) == 0.0


def test_l1_ball_bound_is_actually_an_upper_bound():
    rng = np.random.default_rng(17)
    p = random_steiner_polynomial(greedy_generate(8, 3, 2, seed=9), rng=rng)
    bound = l1_ball_upper_bound(p)
    for _ in range(200):
        mags = rng.dirichlet(np.ones(8))
        z = mags * np.exp(2j * np.pi * rng.random(8))
        assert np.sum(np.abs(z)) <= 1 + 1e-12
        assert abs(p.evaluate(z)) <= bound + 1e-12


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


def _column_order_gram(p):
    # reference: the unfolding as a dict of columns, and M M^* summed one
    # column at a time in ascending column order, each product in real parts
    kfact = math.factorial(p.k)
    columns = {}
    for key, c in p.coeffs.items():
        entry = c * (math.prod(math.factorial(key.count(x)) for x in set(key)) / kfact)
        for perm in set(itertools.permutations(key)):
            col = sum((j - 1) * p.n ** (p.k - 2 - m) for m, j in enumerate(perm[1:]))
            columns.setdefault(col, []).append((perm[0] - 1, entry))
    gram = np.zeros((p.n, p.n), dtype=complex)
    for col in sorted(columns):
        for i, a in columns[col]:
            for j, b in columns[col]:
                gram[i, j] += complex(a.real * b.real + a.imag * b.imag,
                                      a.imag * b.real - a.real * b.imag)
    return gram


def test_flattening_equals_the_column_order_gram():
    # same sums in the same order, so the same bits, on signed Steiner inputs
    # and on complex coefficients over 6 decades with repeated indices
    polys = [bounds._pipeline_inputs(k, n, 1)[1] for k, n in ((3, 7), (3, 13), (4, 9), (5, 9))]
    rng = np.random.default_rng(5)
    for _ in range(12):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        keys = list(itertools.combinations_with_replacement(range(1, n + 1), k))
        pick = rng.choice(len(keys), size=min(len(keys), 12), replace=False)
        polys.append(HomogeneousPolynomial(n, k, {
            keys[j]: complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-3, 3)
            for j in pick
        }))
    for p in polys:
        top = np.linalg.eigvalsh(_column_order_gram(p))[-1]
        assert flattening_upper_bound(p) == math.sqrt(max(top, 0.0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multilinear_lift_is_the_polarization(k):
    # the lift at the concatenated vectors against the sign-average formula,
    # on complex coefficients over 6 decades with repeated indices
    for seed in range(3):
        p = complex_poly(k, 5, seed)
        lift = multilinear_lift(p)
        assert (lift.n, lift.k) == (k * p.n, k)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(k, p.n)) + 1j * rng.normal(size=(k, p.n))
        scale = p.coefficient_sum * np.abs(v).sum(axis=1).prod()
        assert abs(lift.evaluate(v.ravel()) - polarize_evaluate(p, v)) <= 1e-14 * scale
        # on the diagonal the form is p
        assert abs(lift.evaluate(np.tile(v[0], k)) - p.evaluate(v[0])) <= 1e-14 * scale


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
            assert est.lower <= interpolation_upper(q, (2, u2), ("inf", uinf), 3) + 1e-9
        for q in (1.25, 1.5, 1.75):
            est = estimate_norm(p, q, restarts=6, seed=seed)
            assert est.lower <= interpolation_upper(q, (1, u1), (2, u2), 3) + 1e-9


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


# ------------------------------------------ second phase for 1 < q <= 2


def single_phase_ascent(p, q, *, restarts, max_iter, seed):
    """estimate_norm without its second phase: softplus-phase rows from
    _start_rows on the form that estimate_norm ascends, run to _ASCENT_TOL.
    Returns |p| at the best row, found and normalized as estimate_norm does."""
    q = Exponent.parse(q)
    qf = q.as_float()
    params = norms._start_rows(p.n, qf, restarts, seed, ())
    form = norms._in_sup_units(p, q)
    z, values, _, _ = norms._ascend(form, params, qf, max_iter, norms._ASCENT_TOL)
    best = z[int(np.argmax(values))]
    return abs(p.evaluate(best / float(np.linalg.norm(best, ord=qf))))


def estimate_and_single_phase(p, q, **kwargs):
    """estimate_norm's value and single_phase_ascent's on the same
    polynomial and arguments."""
    return estimate_norm(p, q, **kwargs).lower, single_phase_ascent(p, q, **kwargs)


# the polynomial each estimator hands to estimate_norm: p itself, and for
# multilinear_estimate its lift, so the multilinear cases compare values
# before the per-block rescale
ASCENDED_FORMS = pytest.mark.parametrize(
    "ascended", [lambda p: p, multilinear_lift], ids=["estimate_norm", "multilinear_estimate"]
)


def chaos_draw(n, seed):
    proc = RademacherProcess(greedy_generate(n, 3, 2, seed=seed))
    return proc.signed_polynomial(proc.draw_signs(stream(seed, "sup-signs")))


@pytest.mark.parametrize(
    "kind, k, n",
    [("D", 3, 7), ("D", 3, 13), ("D", 3, 25), ("D", 4, 7), ("chaos", 3, 13)]
    # capped cells: at n = 40, 800 iterations leave the q = 2 estimate about
    # 1e-4 short of its value at 4000, where the finish has the least room
    + [("D", 3, 40), ("chaos", 3, 40)],
)
def test_q2_estimate_is_at_least_the_single_phase_ascent(kind, k, n):
    if kind == "D":
        p = bounds._pipeline_inputs(k, n, seed=1)[1]
        kwargs = dict(restarts=16, max_iter=800, seed=1)  # a pipeline cell's ascent
    else:
        p = chaos_draw(n, seed=5)
        kwargs = dict(restarts=32, max_iter=2000, seed=5)  # sample_sup's ascent
    got, single = estimate_and_single_phase(p, 2, **kwargs)
    assert got >= single


def phased(p, seed):
    """p with each coefficient turned by its own random phase.  With real
    coefficients |p(conj z)| = |p(z)|, which hides a missing conjugation."""
    rng = np.random.default_rng(seed)
    turns = np.exp(2j * math.pi * rng.random(p.term_count))
    return HomogeneousPolynomial(p.n, p.k, dict(zip(p.coeffs, turns * list(p.coeffs.values()))))


@pytest.mark.parametrize("q", ["5/4", "3/2"])
@pytest.mark.parametrize(
    "kind, k, n", [("D", 3, 9), ("D", 3, 13), ("D", 3, 19), ("D", 4, 13), ("phased", 3, 13)]
)
@ASCENDED_FORMS
def test_low_q_estimate_is_at_least_the_single_phase_ascent(ascended, kind, k, n, q):
    # at k = 4, n = 13, q = 5/4 the estimate fell with beta = 1 and a 1e-4 handover
    p = bounds._pipeline_inputs(k, n, seed=1)[1]
    if kind == "phased":
        p = phased(p, seed=n)
    form = ascended(p)
    # a pipeline cell's ascent; half its restarts for the costlier multilinear form
    kwargs = dict(restarts=16 if form is p else 8, max_iter=800, seed=1)
    got, single = estimate_and_single_phase(form, q, **kwargs)
    assert got >= single


def test_low_q_handover_waits_past_a_saddle_plateau():
    # a c_sweep cell where a handover at q = 2's 1e-4 fell by 4.8 %: one restart
    # handed over on a saddle's plateau, and its power steps climbed into a
    # poorer basin than the softplus-phase ascent reaches
    seed = 1225710300
    p = bounds._pipeline_inputs(3, 22, seed)[1]
    kwargs = dict(restarts=16, max_iter=800, seed=seed)  # the cell's ascent
    got, single = estimate_and_single_phase(p, "3/2", **kwargs)
    assert got >= single


@ASCENDED_FORMS
def test_low_q_power_phase_stays_finite_near_q_1(ascended):
    # q' = 101 at q = 101/100: |b|^q' of an unscaled step underflows to 0
    p = bounds._pipeline_inputs(3, 13, seed=1)[1]
    kwargs = dict(restarts=8, max_iter=400, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, single = estimate_and_single_phase(ascended(p), "101/100", **kwargs)
        mul = multilinear_estimate(p, "101/100", **kwargs)
    assert got >= single
    assert mul.lower >= 1 / 6 * (1 - 1e-12)


def test_q2_ascent_reaches_exact_values():
    root = 20260826  # criterion 02's seeds
    assert abs(estimate_norm(pairs_poly(4), 2, restarts=8, seed=root).lower - 0.5) <= 1e-12
    for k in (2, 3, 4):
        got = estimate_norm(monomial_poly(k), 2, restarts=8, seed=root + k).lower
        assert abs(got - k ** (-k / 2)) <= 1e-12, k
    # the blocks of a k = 4 pipeline design share no pair; the sup is 1/16,
    # the value of a single block's monomial
    assert abs(bounds.lower_bound_D(4, 7, 2).norm_lower - 1 / 16) <= 1e-12


def test_q2_estimate_exceeds_an_exact_sup_by_a_few_ulps_at_most():
    # at k = 2 the flattening is the exact sup, and the rounded witness can
    # evaluate above it: the k = 2 chain of `steiner gen --n 6 --k 2 --t 1
    # --seed 1` and `poly rand --seed 1` gives 0.5000000000000002 against 0.5.
    # The estimate is reported as computed; its overshoot is rounding only
    chain = random_steiner_polynomial(greedy_generate(6, 2, 1, 1), 1)
    for p in (chain, pairs_poly(3), monomial_poly(2)):
        lower = estimate_norm(p, 2, seed=1).lower
        upper, method = certified_upper(p, 2)
        assert method == "flattening"
        assert -1e-12 <= lower - upper <= 4 * np.spacing(upper)


@pytest.mark.parametrize("q", ["5/4", "3/2", "7/4"])
def test_low_q_ascent_reaches_exact_values(q):
    # sup of z1...zk on the l_q ball is k^{-k/q}, at |z_j| = k^{-1/q}
    root = 20260826  # criterion 02's seeds
    for k in (3, 4):
        got = estimate_norm(monomial_poly(k), q, restarts=8, seed=root + k).lower
        assert abs(got - k ** (-k / Exponent.parse(q).as_float())) <= 1e-12, k


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("q", ["3/2", "2", "3", "inf"])
def test_pullback_is_the_gradient(q, blocks):
    # central differences of |f(_points(params))|^2 in the parameter rows, for
    # the Fano polynomial (1 block of 7 variables) and for its lift (3 blocks of 7)
    p = random_steiner_polynomial(fano_system(), rng=np.random.default_rng(21))
    if blocks == 3:
        p = multilinear_lift(p)
    assert p.n == 7 * blocks
    qf = Exponent.parse(q).as_float()
    width = p.n if qf == math.inf else 2 * p.n
    params = 1.7 * np.random.default_rng(22).normal(size=(3, width))

    def value(params):
        return np.abs(p.evaluate_batch(norms._points(params, qf)[0])) ** 2

    z, aux = norms._points(params, qf)
    vals, grads = p.gradient_batch(z)
    got = norms._pullback(2.0 * np.conj(vals)[:, None] * grads, z, aux, qf)
    h = 1e-6
    want = np.empty_like(params)
    for j in range(params.shape[1]):
        step = np.zeros_like(params)
        step[:, j] = h
        want[:, j] = (value(params + step) - value(params - step)) / (2 * h)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------- live-row ascent


def full_batch_ascent(p, params, qf, max_iter, tol):
    """The softplus-phase loop with every row stepped, evaluated and
    differentiated in every iteration; a converged row discards its step."""

    def value(params):
        return np.abs(p.evaluate_batch(norms._points(params, qf)[0])) ** 2

    def value_and_grad(params):
        z, aux = norms._points(params, qf)
        vals, grads = p.gradient_batch(z)
        g = 2.0 * np.conj(vals)[:, None] * grads
        return np.abs(vals) ** 2, norms._pullback(g, z, aux, qf)

    params = np.array(params, dtype=np.float64)
    values, grads = value_and_grad(params)
    eta = np.full(params.shape[0], 0.25)
    converged = np.zeros(params.shape[0], dtype=bool)
    iterations = 0
    while not converged.all() and iterations < max_iter:
        iterations += 1
        trial = params + eta[:, None] * grads
        trial_values = value(trial)
        for _ in range(norms._BACKTRACK_LIMIT):
            worse = ~converged & (trial_values < values)
            if not worse.any():
                break
            eta[worse] *= norms._STEP_SHRINK
            trial[worse] = params[worse] + eta[worse, None] * grads[worse]
            trial_values[worse] = value(trial[worse])
        up = ~converged & (trial_values >= values)
        converged |= trial_values - values <= tol * values
        params[up], values[up] = trial[up], trial_values[up]
        eta[up] = np.minimum(eta[up] * norms._STEP_GROW, 1e3)
        if not converged.all():
            values, grads = value_and_grad(params)
    return norms._points(params, qf)[0], values, iterations, converged


def full_batch_power_ascent(p, z, qf, max_iter):
    """The power phase with every row stepped and differentiated in every
    iteration; a stopped row discards its step."""
    z = np.array(z, dtype=np.complex128)
    f, df = p.gradient_batch(z)
    values = np.abs(f)
    converged = values == 0.0
    iterations = 0
    while not converged.all() and iterations < max_iter:
        iterations += 1
        w = norms._power_step(z, f, df, qf)
        fw, dfw = p.gradient_batch(w)
        up = ~converged & (np.abs(fw) > values)
        converged |= ~up
        z[up], f[up], values[up], df[up] = w[up], fw[up], np.abs(fw[up]), dfw[up]
    return z, values, iterations, converged


LIVE_ROW_LOOPS = (norms._ascend, norms._power_ascent)
FULL_BATCH_LOOPS = (full_batch_ascent, full_batch_power_ascent)


def run_with_loop(monkeypatch, loops, estimator, *args, **kwargs):
    """Run estimator on the ascent and power loops given.  Returns its
    result, the loops' (params, values, iterations, converged) for every
    phase (two for 1 < q <= 2, one otherwise) and the number of points
    sent to the gradient kernel."""
    rows, runs = [0], []
    kernel = kernels.poly_eval_grad_batch

    def counted(coef, idx, points):
        rows[0] += points.shape[0]
        return kernel(coef, idx, points)

    def recorded(loop):
        def run(*loop_args):
            runs.append(loop(*loop_args))
            return runs[-1]

        return run

    with monkeypatch.context() as m:
        m.setattr(kernels, "poly_eval_grad_batch", counted)
        m.setattr(norms, "_ascend", recorded(loops[0]))
        m.setattr(norms, "_power_ascent", recorded(loops[1]))
        result = estimator(*args, **kwargs)
    return result, runs, rows[0]


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
        got, got_runs, got_rows = run_with_loop(monkeypatch, LIVE_ROW_LOOPS, *args, **kwargs)
        want, want_runs, want_rows = run_with_loop(monkeypatch, FULL_BATCH_LOOPS, *args, **kwargs)
        assert np.array_equal(got.witness, want.witness)
        assert got.lower == want.lower
        assert got.iterations == want.iterations
        assert got.converged_restarts == want.converged_restarts
        # at q = 2 and q = 3/2 the power phase runs too, with iterations left to it
        assert len(got_runs) == len(want_runs) == (2 if q in ("2", "3/2") else 1)
        assert got_runs[-1][2] > 0
        # every restart ends each phase where it ended in the full-batch loop
        for got_run, want_run in zip(got_runs, want_runs):
            for got_part, want_part in zip(got_run, want_run):
                assert np.array_equal(got_part, want_part)
        # a converged restart is no longer differentiated
        if any(run[3].any() for run in got_runs):
            assert got_rows < want_rows
        else:
            assert got_rows == want_rows


class LosingEveryStep:
    """A stand-in form whose gradient kernel reads value 1 and gradient 1
    and whose evaluation kernel reads 1/2: |p|^2 falls from 1 to 1/4 at
    every trial point, so each step loses at every halving."""

    def gradient_batch(self, z):
        return np.ones(z.shape[0], dtype=complex), np.ones(z.shape, dtype=complex)

    def evaluate_batch(self, z):
        return np.full(z.shape[0], 0.5, dtype=complex)


@pytest.mark.parametrize("q", ["inf", "3/2", "2"])
def test_a_step_that_loses_at_every_halving_stops_the_restart(q):
    qf = Exponent.parse(q).as_float()
    params = norms._start_rows(5, qf, 4, 3, ())
    z, values, iterations, converged = norms._ascend(
        LosingEveryStep(), params, qf, 50, norms._ASCENT_TOL
    )
    assert iterations == 1
    assert converged.all()
    assert np.array_equal(z, norms._points(params, qf)[0])
    assert np.array_equal(values, np.ones(4))

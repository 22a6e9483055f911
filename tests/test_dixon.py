"""Layered operator tuples: structure, contractivity, commutation, weighted combinations."""

import itertools
import math

import dataclasses

import numpy as np
import pytest

from vnlab.dixon import (
    _layer_sizes,
    build_basis,
    build_tuple,
    certify,
    check_commuting,
    dixon_dimension,
    operator_norms,
    pte_coefficient,
    verify_report,
)
from vnlab.norms import estimate_norm, flattening_upper_bound
from vnlab.polynomials import HomogeneousPolynomial, random_steiner_polynomial
from vnlab.steiner import PartialSteinerSystem, fano_system, greedy_generate
from vnlab.util import stream


def make_tuple(n, k, seed):
    if (n, k) == (7, 3):
        sys_ = fano_system()
    else:
        sys_ = greedy_generate(n, k, 2, seed)
    p = random_steiner_polynomial(sys_, rng=np.random.default_rng(seed))
    return build_tuple(p)


def unit(basis, lab):
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index[lab]] = 1.0
    return v


def dense_ops(tup):
    # the dense T_l of the maps: entry value[l, c] at (target[l, c], c), sink dropped
    n, dim = tup.n, tup.basis.dimension
    out = np.zeros((n, dim + 1, dim + 1), dtype=complex)
    out[np.arange(n)[:, None], tup.target, np.arange(dim + 1)] = tup.value
    return out[:, :dim, :dim]


def corrupt_tuple(tup, seed=0):
    # negative control: move one f-layer entry of one operator to a wrong row,
    # which generically breaks commutation
    rng = stream(seed, "corrupt")
    f_rows = {tup.basis.index[lab] for lab in tup.basis.labels if lab[0] == "f"}
    for l in rng.permutation(tup.n):
        hits = [c for c in np.flatnonzero(tup.value[l]) if tup.target[l, c] in f_rows]
        if not hits:
            continue
        c = hits[int(rng.integers(0, len(hits)))]
        new_rows = sorted(f_rows - {tup.target[l, c]})
        target = tup.target.copy()
        target[l, c] = new_rows[int(rng.integers(0, len(new_rows)))]
        return dataclasses.replace(tup, target=target)
    raise ValueError("tuple has no f-layer entries to corrupt")


# ------------------------------------------------------------------ dimension


def test_dimension_closed_form():
    # independent recount: 2 + n + multisets of sizes 1..k-2
    import itertools

    for n, k in [(5, 3), (4, 4), (3, 3), (8, 4), (6, 5)]:
        count = 2 + n
        for m in range(1, k - 1):
            count += len(
                list(itertools.combinations_with_replacement(range(n), m))
            )
        assert dixon_dimension(n, k) == count
        assert build_basis(n, k).dimension == count
    with pytest.raises(ValueError):
        dixon_dimension(5, 2)
    with pytest.raises(ValueError):
        dixon_dimension(2, 3)


# ------------------------------------------------------------------ structure


def test_single_block_chain():
    # one signed block (1,2,3): follow e through the layers by hand
    p = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 2, 3): 1.0})
    tup = build_tuple(p)
    b = tup.basis
    T = dense_ops(tup)
    np.testing.assert_array_equal(T[2] @ unit(b, ("e",)), unit(b, ("t", (3,))))
    # pair {2,3} completes to point 1 with sign +1
    np.testing.assert_array_equal(T[1] @ unit(b, ("t", (3,))), unit(b, ("f", 1)))
    np.testing.assert_array_equal(T[0] @ unit(b, ("f", 1)), unit(b, ("g",)))
    # g is absorbing, f only feeds its own operator, repeated index dies
    assert not (T[0] @ unit(b, ("g",))).any()
    assert not (T[1] @ unit(b, ("f", 1))).any()
    assert not (T[2] @ unit(b, ("t", (3,)))).any()


def test_single_block_negative_sign():
    # the sign enters twice (coefficient and completion layer), so p(T)e
    # lands on +|J| g no matter how the blocks are signed
    p = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 2, 3): -1.0})
    tup = build_tuple(p)
    coeff, resid = pte_coefficient(tup)
    assert coeff == 1.0 + 0.0j
    assert resid == 0.0
    # the negative sign is visible one layer down: T_2 e -> t(2),
    # then T_3 t(2) = -f_1
    b = tup.basis
    T = dense_ops(tup)
    np.testing.assert_array_equal(T[2] @ (T[1] @ unit(b, ("e",))), -unit(b, ("f", 1)))


def test_monomial_count_identity():
    # p(T) e lands on card * g exactly, with zero leakage, for k in {3, 4}
    for n, k, seed in [(7, 3, 0), (9, 3, 1), (8, 4, 2), (10, 4, 3)]:
        tup = make_tuple(n, k, seed)
        coeff, resid = pte_coefficient(tup)
        assert coeff == complex(tup.polynomial.term_count)
        assert resid == 0.0


def test_polynomial_operator_is_rank_one():
    # the dense p(T), summed monomial by monomial, is |c| g e^* for the
    # certified coefficient c, which is why direct_value reads |c| off p(T)e
    for n, k, seed in [(7, 3, 4), (9, 3, 1), (8, 4, 2)]:
        tup = make_tuple(n, k, seed)
        dense = dense_ops(tup)
        m = np.zeros((tup.basis.dimension,) * 2, dtype=complex)
        for key, c in tup.polynomial.coeffs.items():
            prod = np.eye(tup.basis.dimension, dtype=complex)
            for j in key:
                prod = prod @ dense[j - 1]
            m += c * prod
        cert = certify(tup)
        assert cert.graded and cert.ok
        want = np.zeros_like(m)
        want[tup.basis.index[("g",)], tup.basis.index[("e",)]] = abs(cert.pte_coefficient)
        np.testing.assert_array_equal(m, want)
        assert abs(cert.pte_coefficient) == tup.polynomial.term_count


@pytest.mark.parametrize("n,k,seed", [(7, 3, 6), (10, 3, 5), (8, 4, 2), (7, 5, 0)])
def test_pte_coefficient_matches_dense_action(n, k, seed):
    # the index gathers against dense mat-vecs T_{j1} (... (T_{jk} e)), also
    # on corrupted tuples, where the order of the factors matters
    tup = make_tuple(n, k, seed)
    for t in (tup, corrupt_tuple(tup, seed=0), corrupt_tuple(tup, seed=1)):
        dense = dense_ops(t)
        v = np.zeros(t.basis.dimension, dtype=complex)
        for key, c in t.polynomial.coeffs.items():
            w = unit(t.basis, ("e",))
            for j in reversed(key):
                w = dense[j - 1] @ w
            v += c * w
        g = t.basis.index[("g",)]
        coeff, resid = pte_coefficient(t)
        assert coeff == v[g]
        v[g] = 0
        assert resid == pytest.approx(np.linalg.norm(v), rel=1e-15)


# -------------------------------------------------------------- contractivity


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (9, 3, 1), (8, 4, 2), (10, 4, 3)])
def test_operators_are_exact_contractions(n, k, seed):
    tup = make_tuple(n, k, seed)
    for v in operator_norms(tup):
        assert v == pytest.approx(1.0, abs=1e-10)


def _pairwise_commutator(tup):
    # reference: one dense product pair at a time
    worst = 0.0
    for a, b in itertools.combinations(dense_ops(tup), 2):
        worst = max(worst, float(np.abs(a @ b - b @ a).max()))
    return worst


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (12, 3, 2), (8, 4, 2), (10, 4, 1), (7, 5, 0)])
def test_check_commuting_matches_pairwise_products(n, k, seed):
    tup = make_tuple(n, k, seed)
    assert check_commuting(tup) == _pairwise_commutator(tup) == 0.0
    for corrupt_seed in range(3):
        bad = corrupt_tuple(tup, seed=corrupt_seed)
        assert check_commuting(bad) == _pairwise_commutator(bad) >= 1.0
    # random maps with no design behind them: entries in {0, +-1, +-i}, and
    # entries all 1 with no column sent to the sink, where a commutator entry
    # is nonzero only because two products land apart
    rng = np.random.default_rng(seed)
    dim = tup.basis.dimension
    for sink in (True, False):
        target = rng.integers(0, dim + sink, size=tup.target.shape)
        target[:, dim] = dim
        phases = rng.choice([1, -1, 1j, -1j], size=target.shape) if sink else 1
        value = np.where(target == dim, 0, phases)
        rand = dataclasses.replace(tup, target=target, value=value)
        assert check_commuting(rand) == _pairwise_commutator(rand) >= 1.0


def test_commutators_vanish_exactly():
    for n, k, seed in [(7, 3, 0), (10, 3, 5), (8, 4, 2)]:
        assert check_commuting(make_tuple(n, k, seed)) == 0.0


def test_corrupt_tuple_fails_commutation():
    tup = make_tuple(7, 3, 6)
    bad = corrupt_tuple(tup, seed=1)
    assert check_commuting(bad) > 1e-6


@pytest.mark.parametrize("n,k,seed", [(7, 3, 6), (10, 3, 5), (8, 4, 2)])
def test_corrupt_commutator_entry_is_at_least_one(n, k, seed):
    # commutator entries are integers, so a failing pair reports >= 1
    tup = make_tuple(n, k, seed)
    bad = corrupt_tuple(tup, seed=1)
    assert check_commuting(bad) >= 1.0
    assert certify(tup).ok
    assert not certify(bad).ok


@pytest.mark.parametrize("n,k,seed", [(9, 3, 1), (8, 4, 2), (9, 5, 3)])
def test_operator_norms_match_dense_svd(n, k, seed):
    tup = make_tuple(n, k, seed)
    got = operator_norms(tup)
    want = [np.linalg.norm(t, 2) for t in dense_ops(tup)]
    assert got == pytest.approx(want, rel=1e-12)
    assert got == [1.0] * n
    assert certify(tup).opnorm_max_dev == 0.0


def _label_scan_ops(tup):
    # reference: every basis label once per operator, with a completion map
    # from (k-1)-subsets to the missing point and the block's sign, written
    # into dense matrices
    basis, k = tup.basis, tup.k
    completion = {}
    for block in tup.polynomial.support():
        for x in block:
            completion[frozenset(block) - {x}] = (x, tup.polynomial.coeffs[block].real)
    ops = []
    for l in range(1, tup.n + 1):
        rows, cols, data = [basis.index[("t", (l,))]], [basis.index[("e",)]], [1.0]
        for lab in basis.labels:
            if lab[0] != "t":
                continue
            v = lab[1]
            if len(v) < k - 2:
                rows.append(basis.index[("t", tuple(sorted(v + (l,))))])
                cols.append(basis.index[lab])
                data.append(1.0)
            elif len(frozenset(v) | {l}) == k - 1 and frozenset(v) | {l} in completion:
                i, c = completion[frozenset(v) | {l}]
                rows.append(basis.index[("f", i)])
                cols.append(basis.index[lab])
                data.append(c)
        rows.append(basis.index[("g",)])
        cols.append(basis.index[("f", l)])
        data.append(1.0)
        op = np.zeros((basis.dimension,) * 2, dtype=complex)
        np.add.at(op, (rows, cols), data)
        ops.append(op)
    return ops


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (13, 3, 3), (8, 4, 2), (11, 4, 0), (9, 5, 3)])
def test_build_tuple_matches_label_scan(n, k, seed):
    tup = make_tuple(n, k, seed)
    dim = tup.basis.dimension
    assert tup.target.shape == tup.value.shape == (n, dim + 1)
    assert tup.value.dtype == np.complex128
    # outside the support of T_l, and at the sink, a column maps to the sink with 0
    absent = tup.value == 0
    assert absent[:, dim].all()
    np.testing.assert_array_equal(tup.target[absent], dim)
    np.testing.assert_array_equal(dense_ops(tup), np.array(_label_scan_ops(tup)))


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (8, 4, 2)])
def test_certify_rejects_ungraded_tuple(n, k, seed):
    # move the e -> t(1) entry of T_1 to e -> f_1, past the t-layers
    tup = make_tuple(n, k, seed)
    e = tup.basis.index[("e",)]
    assert tup.target[0, e] == tup.basis.index[("t", (1,))]
    target = tup.target.copy()
    target[0, e] = tup.basis.index[("f", 1)]
    cert = certify(dataclasses.replace(tup, target=target))
    assert certify(tup).graded
    assert not cert.graded
    assert not cert.ok


def test_build_rejects_bad_inputs():
    blocks = fano_system().blocks
    # non-unimodular signs
    bad_p = HomogeneousPolynomial(
        n=7, k=3, coeffs={b: 0.5 for b in blocks}
    )
    with pytest.raises(ValueError):
        build_tuple(bad_p)
    # complex phases are not signs
    bad_p2 = HomogeneousPolynomial(
        n=7, k=3, coeffs={b: 1.0j for b in blocks}
    )
    with pytest.raises(ValueError):
        build_tuple(bad_p2)
    # the construction needs n >= k >= 3
    for n, k in [(7, 2), (7, 1), (2, 3)]:
        with pytest.raises(ValueError, match="n >= k >= 3"):
            build_tuple(HomogeneousPolynomial(n=n, k=k, coeffs={(1,) * k: 1.0}))


def test_build_rejects_repeated_points():
    # z_1^2 z_2 is not squarefree: its block has a repeated point, so it
    # has no (k - 2)-subsets to complete
    p = HomogeneousPolynomial(n=5, k=3, coeffs={(1, 1, 2): 1.0, (3, 4, 5): -1.0})
    with pytest.raises(ValueError, match="repeated points"):
        build_tuple(p)


def test_build_rejects_pair_collisions():
    # valid at t=3 but two blocks share the pair {1,2}: the shift into the
    # f-layer would have norm sqrt(2), so construction must refuse
    sys_ = PartialSteinerSystem(
        n=6, k=4, t=3, blocks=((1, 2, 3, 4), (1, 2, 5, 6))
    )
    from vnlab.steiner import validate

    assert validate(sys_).valid  # the t=3 contract itself is satisfied
    p = HomogeneousPolynomial(
        n=6, k=4, coeffs={(1, 2, 3, 4): 1.0, (1, 2, 5, 6): 1.0}
    )
    with pytest.raises(ValueError):
        build_tuple(p)


# ------------------------------------------------------- weighted combinations


def _layer_edges(tup):
    return np.cumsum([0] + _layer_sizes(tup.n, tup.k))


def _weighted_ops(tup, weights):
    # dense W T_j: the entries landing in layer m + 1 scaled by w_m
    edges = _layer_edges(tup)
    diag = np.ones(tup.basis.dimension)
    for m, w in enumerate(weights):
        diag[edges[m + 1] : edges[m + 2]] = w
    return list(diag[:, None] * dense_ops(tup))


def _dense_combination_norm(ops, alpha):
    return np.linalg.norm(sum(a * t for a, t in zip(alpha, ops)), 2)


def _unit_alphas(n, rng, count):
    yield np.full(n, n**-0.5)
    yield np.eye(n)[0]
    for _ in range(count):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        yield a / np.linalg.norm(a)


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (13, 3, 2), (8, 4, 2), (10, 4, 1), (7, 5, 0)])
def test_weighted_tuple_is_a_certified_row_contraction(n, k, seed):
    # dense oracle for the layer-weight certificate: W T_j commute, every
    # unit combination is a contraction, and p(W T) e = prod w |J| g
    tup = make_tuple(n, k, seed)
    cert = certify(tup)
    assert cert.ok and cert.permutation
    ops = _weighted_ops(tup, cert.layer_weights)
    for a, b in itertools.combinations(ops, 2):
        assert np.abs(a @ b - b @ a).max() <= 1e-12
    rng = np.random.default_rng(seed)
    for alpha in _unit_alphas(n, rng, 30):
        assert _dense_combination_norm(ops, alpha) <= 1 + 1e-12
    e = unit(tup.basis, ("e",))
    pe = np.zeros_like(e)
    for key, c in tup.polynomial.coeffs.items():
        v = e
        for j in reversed(key):
            v = ops[j - 1] @ v
        pe += c * v
    want = cert.weight_product * tup.polynomial.term_count * unit(tup.basis, ("g",))
    np.testing.assert_allclose(pe, want, rtol=1e-12, atol=0)
    assert not certify(corrupt_tuple(tup, seed=seed)).ok


@pytest.mark.parametrize("n,k,seed", [(7, 3, 0), (9, 3, 1), (13, 3, 2), (8, 4, 2), (10, 4, 3)])
def test_weighted_tuple_is_not_a_row_contraction(n, k, seed):
    # the weights bound every unit combination of W T_j by 1, but not
    # sum_j (W T_j)(W T_j)^*: the f -> g layer keeps weight 1 and all n
    # operators map into g, so the dense row Gram has norm n
    tup = make_tuple(n, k, seed)
    ops = _weighted_ops(tup, certify(tup).layer_weights)
    gram = sum(t @ t.conj().T for t in ops)
    assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(n, rel=1e-12)


@pytest.mark.parametrize("n,k,seed", [(7, 3, 3), (12, 3, 1), (8, 4, 2), (9, 5, 3)])
def test_layer_weights_match_dense_stack_norms(n, k, seed):
    # w_m = 1 / min(||[A_1 ... A_n]||, ||[A_1; ...; A_n]||) per block, the
    # stack norms taken from the dense Grams sum A A^* and sum A^* A
    tup = make_tuple(n, k, seed)
    edges = _layer_edges(tup)
    dense = dense_ops(tup)
    want = []
    for m in range(k):
        blocks = [t[edges[m + 1] : edges[m + 2], edges[m] : edges[m + 1]] for t in dense]
        row = np.linalg.eigvalsh(sum(a @ a.conj().T for a in blocks)).max()
        col = np.linalg.eigvalsh(sum(a.conj().T @ a for a in blocks)).max()
        want.append(1 / math.sqrt(min(row, col)))
    assert certify(tup).layer_weights == pytest.approx(want, rel=1e-12)


def test_certify_rejects_non_permutation():
    # phases i on the e-entries and -i on the g-entries keep the tuple graded,
    # commuting, of unit norms and with p(T) e = |J| g, but its entries are no
    # longer +-1, so its commutators are no longer exact integers
    tup = make_tuple(7, 3, 1)
    e, g = tup.basis.index[("e",)], tup.basis.index[("g",)]
    col = np.arange(tup.basis.dimension + 1)
    value = tup.value * np.where(col == e, 1j, 1) * np.where(tup.target == g, -1j, 1)
    cert = certify(dataclasses.replace(tup, value=value))
    assert cert.graded and cert.commutator == 0 and cert.opnorm_max_dev == 0
    assert cert.pte_coefficient == tup.polynomial.term_count and cert.pte_residual == 0
    assert not cert.permutation and not cert.ok
    # two entries in one row of T_1 keep the grading but break the diagonal
    # row Gram that the layer weights are read from
    f_layer = [tup.basis.index[("f", x)] for x in range(1, tup.n + 1)]
    a, b = np.flatnonzero(np.isin(tup.target[0], f_layer))[:2]
    target = tup.target.copy()
    target[0, b] = target[0, a]
    cert = certify(dataclasses.replace(tup, target=target))
    assert cert.graded and not cert.permutation and not cert.ok
    assert certify(tup).permutation


def test_row_condition_single_block_exact():
    # sup over unit alpha of ||sum alpha_l T_l|| = max(1, 3! * sup|p|) at k=3;
    # for one block sup|p| = 3^{-3/2}, so the sup is 2/sqrt(3), attained at
    # the ascent witness; the weights bring it to 1
    p = HomogeneousPolynomial(n=3, k=3, coeffs={(1, 2, 3): 1.0})
    tup = build_tuple(p)
    w = estimate_norm(p, 2, seed=1).witness
    alpha = w / np.linalg.norm(w)
    value = _dense_combination_norm(dense_ops(tup), alpha)
    assert value == pytest.approx(2 / math.sqrt(3), abs=1e-6)
    weighted = _weighted_ops(tup, certify(tup).layer_weights)
    assert _dense_combination_norm(weighted, alpha) == pytest.approx(1.0, abs=1e-12)


def test_row_condition_matches_polynomial_norm_theory():
    # k=3 identity: sup_alpha ||sum alpha_l T_l|| = max(1, 6 sup|p|_2),
    # because the middle layer of the combination is the once-contracted
    # symmetric coefficient tensor and complex Hilbert polarization is exact
    tup = make_tuple(7, 3, 1007)
    est = estimate_norm(tup.polynomial, 2, restarts=24, seed=5)
    alpha = est.witness / np.linalg.norm(est.witness)
    value = _dense_combination_norm(dense_ops(tup), alpha)
    assert value == pytest.approx(max(1.0, 6 * est.lower), rel=1e-6)


@pytest.mark.parametrize("n,seed", [(7, 0), (9, 1), (13, 2)])
def test_row_value_is_dense_norm_at_k3(n, seed):
    # at k=3 the unweighted row value at the witness is at least
    # max(1, 6 |p(w)|): w^T M(w) w = 6 p(w) for the middle-layer block M(alpha);
    # the weighted tuple stays a contraction there
    tup = make_tuple(n, 3, seed)
    w = estimate_norm(tup.polynomial, 2, restarts=8, seed=seed).witness
    alpha = w / np.linalg.norm(w)
    value = _dense_combination_norm(dense_ops(tup), alpha)
    floor = max(1.0, 6 * abs(tup.polynomial.evaluate(alpha)))
    assert value >= floor * (1 - 1e-12)
    weighted = _weighted_ops(tup, certify(tup).layer_weights)
    assert _dense_combination_norm(weighted, alpha) <= 1 + 1e-12


@pytest.mark.parametrize("n,seed", [(6, 0), (8, 2), (10, 3)])
def test_row_value_at_k4_reaches_uniform_block(n, seed):
    # at uniform alpha the t_1 -> t_2 block B has B^*B = (1 - 1/n) I + 11^T / n,
    # so the unweighted row value is at least sqrt(2 - 1/n) > 1; the weight
    # 1/sqrt(2) on t_2 brings it under 1
    tup = make_tuple(n, 4, seed)
    alpha = np.full(n, n**-0.5)
    value = _dense_combination_norm(dense_ops(tup), alpha)
    assert value >= math.sqrt(2 - 1 / n) * (1 - 1e-12)
    cert = certify(tup)
    assert cert.layer_weights[1] == pytest.approx(2**-0.5, rel=1e-15)
    weighted = _weighted_ops(tup, cert.layer_weights)
    assert _dense_combination_norm(weighted, alpha) <= 1 + 1e-12


# -------------------------------------------------------------------- reports


def test_verify_report_contents():
    tup = make_tuple(7, 3, 4)
    rep = verify_report(tup)
    assert rep["dimension"] == 16
    assert rep["cardinality"] == 7
    assert rep["max_commutator"] == 0.0
    assert all(v == pytest.approx(1.0, abs=1e-10) for v in rep["op_norms"])
    assert rep["pTe_re"] == 7.0
    assert rep["pTe_im"] == 0.0
    assert rep["pTe_residual"] == 0.0
    assert rep["certified"] is True
    # k = 3: w = (1, 1 / (6 U), 1) with U the flattening bound
    assert rep["layer_weights"][0] == rep["layer_weights"][2] == 1.0
    want = 1 / (6 * flattening_upper_bound(tup.polynomial))
    assert rep["weight_product"] == pytest.approx(want, rel=1e-12)
    for gone in ("row_scale", "row_condition_value", "block_row_norm"):
        assert gone not in rep

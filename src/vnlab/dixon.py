"""Dixon tuples: commuting contractions built from a signed block family.

Given a polynomial p = sum_J c_J z_J with signs c_J = +-1 on squarefree
blocks J, no two of which share a pair of points, the construction
produces n commuting operators T_1, ..., T_n on the layered space
e -> t_1 -> ... -> t_{k-2} -> f -> g, each mapping every layer into the
next, such that p(T) = |J| g e^*, where |J| is the number of blocks.
Every T_l is a signed partial permutation (at most one entry +-1 in each
row and each column), stored as a partial map: T_l sends basis vector c
to value[l, c] times basis vector target[l, c].  The certificates
read the maps: integer commutators by index gathers, and from the entries
the grading, ||T_l||, p(T) e (so ||p(T)|| is its g-coefficient), and one
weight per layer that bounds every unit combination of the reweighted
tuple by 1, with no norm probe.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass

import numpy as np

from .polynomials import HomogeneousPolynomial
from .steiner import PartialSteinerSystem, validate


def _layer_sizes(n: int, k: int) -> list:
    """Sizes of the layers e, t_1, ..., t_{k-2}, f, g (t_m holds the m-multisets)."""
    return [1] + [math.comb(n + m - 1, m) for m in range(1, k - 1)] + [n, 1]


def dixon_dimension(n: int, k: int) -> int:
    """Dimension 2 + n + sum_{m=1}^{k-2} binom(n+m-1, m) of the layered space."""
    if k < 3 or n < k:
        raise ValueError(f"need n >= k >= 3, got n={n} k={k}")
    return sum(_layer_sizes(n, k))


@dataclass(frozen=True)
class DixonBasis:
    """Ordered basis: e, then m-tuples (m = 1..k-2, lexicographic), then f_i, then g."""

    n: int
    k: int
    labels: tuple
    index: dict

    @property
    def dimension(self) -> int:
        return len(self.labels)


def build_basis(n: int, k: int) -> DixonBasis:
    if k < 3 or n < k:
        raise ValueError(f"need n >= k >= 3, got n={n} k={k}")
    labels = [("e",)]
    for m in range(1, k - 1):
        for v in itertools.combinations_with_replacement(range(1, n + 1), m):
            labels.append(("t", v))
    labels.extend(("f", i) for i in range(1, n + 1))
    labels.append(("g",))
    index = {lab: pos for pos, lab in enumerate(labels)}
    assert len(labels) == dixon_dimension(n, k)
    return DixonBasis(n, k, tuple(labels), index)


@dataclass(frozen=True)
class DixonTuple:
    polynomial: HomogeneousPolynomial
    basis: DixonBasis
    # (n, dim + 1) maps: T_{l+1} e_c = value[l, c] e_{target[l, c]}.  Index dim is
    # a sink; columns outside the support of an operator map there with value 0
    target: np.ndarray
    value: np.ndarray

    @property
    def n(self) -> int:
        return self.polynomial.n

    @property
    def k(self) -> int:
        return self.polynomial.k


def build_tuple(p: HomogeneousPolynomial) -> DixonTuple:
    """Assemble the n operators for the signed block family of p, layer by layer.

    The monomials of p are the blocks and its coefficients their signs.
    T_l shifts each layer into the next: e -> t(l); t(v) -> t(v + l) between
    the multiset layers, the same for every p; t(B - {x, l}) -> c_B f_x for
    each block B containing l and each other point x of B; and f_l -> g.

    Requires n >= k >= 3, coefficients +-1, and squarefree monomials of
    which no two share a pair of points (a valid S_p(2, k, n), hence an
    S_p(k - 1, k, n)).  For k >= 4 a shared pair would give the shift into
    the f-layer a Gram matrix with an entry 2, so the operators would have
    norm sqrt(2) instead of 1.  At k = 3 pair uniqueness is t-uniqueness.
    """
    n, k = p.n, p.k
    basis = build_basis(n, k)
    for key, c in p.coeffs.items():
        if c.imag != 0.0 or c.real not in (1.0, -1.0):
            raise ValueError(f"coefficient at {key} must be +1 or -1, got {c}")
    result = validate(PartialSteinerSystem(n, k, 2, p.support()))
    if not result.valid:
        raise ValueError(f"monomials are not squarefree and pair-unique: {result}")

    index = basis.index
    dim = basis.dimension

    def t(v):
        return index[("t", tuple(sorted(v)))]

    # (operator, row, col, value) entries, starting with e -> t(l)
    entries = [(l, t((l,)), index[("e",)], 1.0) for l in range(1, n + 1)]
    for m in range(1, k - 2):
        for v in itertools.combinations_with_replacement(range(1, n + 1), m):
            entries.extend((l, t(v + (l,)), index[("t", v)], 1.0) for l in range(1, n + 1))
    for block, c in p.coeffs.items():
        for x, l in itertools.permutations(block, 2):
            entries.append((l, index[("f", x)], t(set(block) - {x, l}), c.real))
    entries.extend((l, index[("g",)], index[("f", l)], 1.0) for l in range(1, n + 1))
    op, row, col, val = (np.array(a) for a in zip(*entries))
    target = np.full((n, dim + 1), dim)
    value = np.zeros((n, dim + 1), dtype=np.complex128)
    target[op - 1, col], value[op - 1, col] = row, val
    return DixonTuple(p, basis, target, value)


def check_commuting(tup: DixonTuple) -> float:
    """Largest entry modulus of T_a T_b - T_b T_a over all pairs a, b.

    T_a T_b sends e_c to value[b, c] value[a, m] e_{target[a, m]} with
    m = target[b, c], so two index gathers give every product.  Column c of a
    commutator holds these two entries, or their difference where they meet.
    The operators have entries in {0, +1, -1}, so every commutator entry is
    an exact integer: the tuple commutes iff each is zero, and a failing pair
    reports a modulus >= 1, a lower bound on the commutator's norm.
    """
    ops = np.arange(tup.n)[:, None, None]
    pos = tup.target[ops, tup.target]  # pos[a, b, c] = target[a, target[b, c]]
    val = tup.value * tup.value[ops, tup.target]
    # where the products land apart, T_b T_a's entry is val[b, a], which the max reaches
    entry = np.where(pos == pos.transpose(1, 0, 2), val - val.transpose(1, 0, 2), val)
    return float(np.abs(entry).max(initial=0.0))


def _map_entries(tup: DixonTuple):
    """(operator, row, col, value) of every nonzero of T_1, ..., T_n."""
    op, col = np.nonzero(tup.value)
    return op, tup.target[op, col], col, tup.value[op, col]


def operator_norms(tup: DixonTuple) -> list:
    """||T_l|| as the largest row 2-norm of T_l, exact since T_l T_l^* is diagonal."""
    op, row, _, val = _map_entries(tup)
    n, dim = tup.n, tup.basis.dimension
    row_sq = np.bincount(op * dim + row, np.abs(val) ** 2, minlength=n * dim)
    return np.sqrt(row_sq.reshape(n, dim).max(axis=1)).tolist()


def pte_coefficient(tup: DixonTuple):
    """Coefficient of g in p(T) e and the norm of the off-g residual.

    Every monomial T_{j1} ... T_{jk} e (j1 <= ... <= jk) is followed by k
    index gathers into the maps, one per factor from the right, and one
    bincount sums the terms.
    """
    dim = tup.basis.dimension
    p = tup.polynomial
    factors = np.array(p.support(), dtype=np.intp).reshape(-1, p.k) - 1
    term = np.array(list(p.coeffs.values()), dtype=np.complex128)
    pos = np.full(p.term_count, tup.basis.index[("e",)])
    for factor in factors.T[::-1]:
        term *= tup.value[factor, pos]
        pos = tup.target[factor, pos]
    re, im = (np.bincount(pos, part, minlength=dim + 1)[:dim] for part in (term.real, term.imag))
    w = re + 1j * im
    g_pos = tup.basis.index[("g",)]
    coeff = complex(w[g_pos])
    w[g_pos] = 0.0
    return coeff, float(np.linalg.norm(w))


def _layer_weights(tup: DixonTuple, entries) -> list:
    """w_m = 1 / max(1, min(||[A_1 ... A_n]||, ||[A_1; ...; A_n]||)), m = 0, ..., k - 1.

    A_j is the block of T_j from layer m to layer m + 1.  Block m of
    sum_j alpha_j T_j is [A_1 ... A_n](alpha (x) I) = (alpha^T (x) I)[A_1; ...; A_n],
    so its norm is at most ||alpha|| times either stack norm.  For signed
    partial permutations the Grams sum_j A_j A_j^* and sum_j A_j^* A_j are
    diagonal, holding the entry count of each row and of each column, so
    each stack norm is the square root of the largest count: one bincount
    each.  With +-1 entries the floor 1 only acts on an empty block.
    """
    _, row, col, val = entries
    dim = tup.basis.dimension
    sq = np.abs(val) ** 2
    starts = np.cumsum([0] + _layer_sizes(tup.n, tup.k)[:-1])
    row_max = np.maximum.reduceat(np.bincount(row, sq, minlength=dim), starts)
    col_max = np.maximum.reduceat(np.bincount(col, sq, minlength=dim), starts)
    stack = np.sqrt(np.minimum(row_max[1:], col_max[:-1]))
    return (1.0 / np.maximum(stack, 1.0)).tolist()


# One home for the certificate tolerances: commutator entries, the
# deviation of each ||T_l|| from 1, and the coefficient and residual of p(T)e.
COMMUTATOR_TOL = 1e-12
OPNORM_TOL = 1e-10
ACTION_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """The exact certificates of a tuple, judged against the tolerances above.

    When graded, the degree-k p(T) maps e to the line of g and every other
    layer past g, so p(T) = c g e^* and ||p(T)|| = |c| for c = pte_coefficient.
    When every T_l is also a signed partial permutation (at most one entry
    +-1 in each row and each column), the layer weights certify the
    combination condition: with W = 1 on e and w_m on layer m + 1, the tuple
    W T_j commutes like T_j (W T_a W T_b = w_m w_{m+1} T_a T_b on layer m),
    every block of sum_j alpha_j W T_j has norm at most ||alpha||, and the
    blocks map orthogonal layers into orthogonal layers, so
    sup over ||alpha||_2 <= 1 of ||sum_j alpha_j W T_j|| <= 1, while
    p(W T) = weight_product * p(T).  That is not a row contraction: the
    f -> g layer keeps weight 1 and all n operators map into g, so
    ||sum_j (W T_j)(W T_j)^*|| = n, and no weight here bounds it.
    """

    commutator: float
    op_norms: list
    opnorm_max_dev: float
    pte_coefficient: complex
    pte_residual: float
    graded: bool
    permutation: bool
    layer_weights: list
    ok: bool

    @property
    def weight_product(self) -> float:
        return math.prod(self.layer_weights)


def certify(tup: DixonTuple) -> Certificate:
    """Check grading, signed partial permutations, commutation, unit norms and p(T) e = |J| g.

    The entries of the maps give the grading, the permutation check (a map
    holds at most one entry per column, so only rows are counted) and the
    layer weights; the other certificates read the maps themselves.
    """
    entries = _map_entries(tup)
    op, row, col, val = entries
    layer = np.repeat(np.arange(tup.k + 1), _layer_sizes(tup.n, tup.k))
    graded = bool(np.all(layer[row] == layer[col] + 1))
    permutation = bool(
        np.all((val == 1) | (val == -1))
        and np.bincount(op * tup.basis.dimension + row, minlength=1).max() <= 1
    )
    comm = check_commuting(tup)
    norms = operator_norms(tup)
    dev = max(abs(x - 1.0) for x in norms)
    coeff, residual = pte_coefficient(tup)
    ok = (
        graded
        and permutation
        and comm <= COMMUTATOR_TOL
        and dev <= OPNORM_TOL
        and residual <= ACTION_TOL
        and abs(coeff - tup.polynomial.term_count) <= ACTION_TOL
    )
    weights = _layer_weights(tup, entries)
    return Certificate(comm, norms, dev, coeff, residual, graded, permutation, weights, ok)


def verify_report(tup: DixonTuple) -> dict:
    """The record `vnlab dixon verify` emits, plus the certificate's op_norms and layer_weights."""
    cert = certify(tup)
    return {
        "built": True,
        "dimension": tup.basis.dimension,
        "cardinality": tup.polynomial.term_count,
        "max_commutator": cert.commutator,
        "opnorm_max_dev": cert.opnorm_max_dev,
        "pTe_re": cert.pte_coefficient.real,
        "pTe_im": cert.pte_coefficient.imag,
        "pTe_residual": cert.pte_residual,
        "weight_product": cert.weight_product,
        "certified": cert.ok,
        "op_norms": cert.op_norms,
        "layer_weights": cert.layer_weights,
    }

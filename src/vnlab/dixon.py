"""Dixon tuples: commuting contractions built from a signed block family.

Given a partial Steiner system with uniqueness level t = k - 1 and a sign
c_J = +-1 per block, the construction produces n commuting operators
T_1, ..., T_n on the layered space e -> t_1 -> ... -> t_{k-2} -> f -> g,
each mapping every layer into the next, such that the support polynomial
p applied to the tuple is p(T) = |J| g e^*, where |J| is the number of
blocks.  Every T_l is a signed partial permutation (at most one entry +-1
in each row and each column), stored column-compressed.  The certificates
read that structure: integer commutators from one stacked product, and
from one pass over the stacked entries the grading, ||T_l||, p(T) e by
index gathers (so ||p(T)|| is its g-coefficient), and one weight per layer
that makes the reweighted tuple a row contraction, with no norm probe.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .polynomials import HomogeneousPolynomial
from .steiner import PartialSteinerSystem, validate
from .util import stream


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
    system: PartialSteinerSystem
    polynomial: HomogeneousPolynomial
    basis: DixonBasis
    ops: tuple  # n sparse CSC matrices

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def k(self) -> int:
        return self.system.k


def build_tuple(system: PartialSteinerSystem, p: HomogeneousPolynomial) -> DixonTuple:
    """Assemble the n operators for a signed block family, layer by layer.

    T_l shifts each layer into the next: e -> t(l); t(v) -> t(v + l) between
    the multiset layers, the same for every p; t(B - {x, l}) -> c_B f_x for
    each block B containing l and each other point x of B; and f_l -> g.

    Requires a valid system with t = k - 1 whose blocks carry real signs +-1
    (exactly the support of p), and additionally pairwise-unique blocks: for
    k >= 4 a pair of points shared by two blocks would give the shift into
    the f-layer a Gram matrix with an entry 2, so the operators would have
    norm sqrt(2) instead of 1.  At k = 3 pair uniqueness is t-uniqueness.
    """
    n, k = system.n, system.k
    if k < 3:
        raise ValueError(f"construction requires k >= 3, got k={k}")
    if system.t != k - 1:
        raise ValueError(f"system must have uniqueness level t = k - 1, got t={system.t}")
    result = validate(system)
    if not result.valid:
        raise ValueError(f"system fails validation: {result}")
    if system.max_pair_multiplicity() > 1:
        raise ValueError(
            "blocks share a pair of points; operators would not be contractions"
        )
    if p.n != n or p.k != k:
        raise ValueError(f"polynomial shape ({p.n}, {p.k}) does not match system ({n}, {k})")
    support = set(p.coeffs.keys())
    blocks = set(system.blocks)
    if support != blocks:
        missing = blocks - support
        extra = support - blocks
        raise ValueError(f"sign map mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for key, c in p.coeffs.items():
        if c.imag != 0.0 or c.real not in (1.0, -1.0):
            raise ValueError(f"coefficient at {key} must be +1 or -1, got {c}")

    basis = build_basis(n, k)
    index = basis.index
    dim = basis.dimension

    def t(v):
        return index[("t", tuple(sorted(v)))]

    # (row, col, value) entries of T_l, starting with e -> t(l)
    entries = {l: [(t((l,)), index[("e",)], 1.0)] for l in range(1, n + 1)}
    for m in range(1, k - 2):
        for v in itertools.combinations_with_replacement(range(1, n + 1), m):
            for l in entries:
                entries[l].append((t(v + (l,)), index[("t", v)], 1.0))
    for block in system.blocks:
        c = p.coeffs[block].real
        for x, l in itertools.permutations(block, 2):
            entries[l].append((index[("f", x)], t(set(block) - {x, l}), c))
    ops = []
    for l, ent in entries.items():
        ent.append((index[("g",)], index[("f", l)], 1.0))
        rows, cols, data = zip(*ent)
        ops.append(
            sp.coo_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.complex128).tocsc()
        )
    return DixonTuple(system, p, basis, tuple(ops))


def check_commuting(tup: DixonTuple) -> float:
    """Largest entry modulus of T_a T_b - T_b T_a over all pairs a, b.

    Block (a, b) of the one product [T_1; ...; T_n] [T_1 ... T_n] is T_a T_b;
    moving each entry to the same place in block (b, a) gives the block-swapped
    product, and the difference holds every commutator.  The operators have
    entries in {0, +1, -1}, so every commutator entry is an exact integer: the
    tuple commutes iff each difference is zero, and a failing pair reports a
    modulus >= 1, which is also a lower bound on the commutator's operator norm.
    """
    dim = tup.basis.dimension
    prod = sp.vstack(tup.ops) @ sp.hstack(tup.ops, format="csc")
    c = prod.tocoo()
    row = c.col // dim * dim + c.row % dim
    col = c.row // dim * dim + c.col % dim
    swapped = sp.coo_matrix((c.data, (row, col)), shape=c.shape)
    return float(np.abs((prod - swapped).data).max(initial=0.0))


def _stacked_entries(tup: DixonTuple):
    """(operator, row, col, value) of every nonzero of T_1, ..., T_n, read in one COO pass."""
    stacked = sp.vstack(tup.ops).tocoo()  # T_l in rows l * dim, ..., (l + 1) * dim - 1
    nz = stacked.data != 0
    op, row = np.divmod(stacked.row[nz], tup.basis.dimension)
    return op, row, stacked.col[nz], stacked.data[nz]


def operator_norms(tup: DixonTuple, entries=None) -> list:
    """||T_l|| as the largest row 2-norm of T_l.

    Exact when no column of T_l has two nonzeros, since T_l T_l^* is then
    diagonal; certify checks that (and pte_coefficient refuses otherwise).
    """
    op, row, _, val = _stacked_entries(tup) if entries is None else entries
    n, dim = tup.n, tup.basis.dimension
    row_sq = np.bincount(op * dim + row, np.abs(val) ** 2, minlength=n * dim)
    return np.sqrt(row_sq.reshape(n, dim).max(axis=1)).tolist()


def pte_coefficient(tup: DixonTuple, entries=None):
    """Coefficient of g in p(T) e and the norm of the off-g residual.

    With at most one nonzero per column, T_l sends basis vector c to
    value[l, c] times basis vector target[l, c], or to 0 (a sink index past
    the basis).  Every monomial T_{j1} ... T_{jk} e (j1 <= ... <= jk) is
    followed by k index gathers, one per factor from the right, and one
    bincount sums the terms.
    """
    op, row, col, val = _stacked_entries(tup) if entries is None else entries
    n, dim = tup.n, tup.basis.dimension
    if np.bincount(op * dim + col, minlength=1).max() > 1:
        raise ValueError("operator has a column with two nonzero entries")
    target = np.full((n, dim + 1), dim)
    value = np.zeros((n, dim + 1), dtype=np.complex128)
    target[op, col] = row
    value[op, col] = val
    p = tup.polynomial
    factors = np.array(p.support(), dtype=np.intp).reshape(-1, p.k) - 1
    term = np.array(list(p.coeffs.values()), dtype=np.complex128)
    pos = np.full(p.term_count, tup.basis.index[("e",)])
    for factor in factors.T[::-1]:
        term *= value[factor, pos]
        pos = target[factor, pos]
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
    +-1 in each row and each column), the layer weights certify the row
    condition: with W = 1 on e and w_m on layer m + 1, the tuple W T_j
    commutes like T_j (W T_a W T_b = w_m w_{m+1} T_a T_b on layer m), every
    block of sum_j alpha_j W T_j has norm at most ||alpha||, and the blocks
    map orthogonal layers into orthogonal layers, so
    sup over unit alpha of ||sum_j alpha_j W T_j|| <= 1, while
    p(W T) = weight_product * p(T).
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

    One pass over the stacked operators gives the grading, the permutation
    check, ||T_l||, p(T) e and the layer weights; the commutators come from
    one stacked product.
    """
    entries = _stacked_entries(tup)
    op, row, col, val = entries
    dim = tup.basis.dimension
    layer = np.repeat(np.arange(tup.k + 1), _layer_sizes(tup.n, tup.k))
    graded = bool(np.all(layer[row] == layer[col] + 1))
    permutation = bool(
        np.all((val == 1) | (val == -1))
        and np.bincount(op * dim + row, minlength=1).max() <= 1
        and np.bincount(op * dim + col, minlength=1).max() <= 1
    )
    comm = check_commuting(tup)
    norms = operator_norms(tup, entries)
    dev = max(abs(x - 1.0) for x in norms)
    coeff, residual = pte_coefficient(tup, entries)
    ok = (
        graded
        and permutation
        and comm <= COMMUTATOR_TOL
        and dev <= OPNORM_TOL
        and residual <= ACTION_TOL
        and abs(coeff - tup.system.cardinality) <= ACTION_TOL
    )
    weights = _layer_weights(tup, entries)
    return Certificate(comm, norms, dev, coeff, residual, graded, permutation, weights, ok)


def corrupt_tuple(tup: DixonTuple, seed: int = 0) -> DixonTuple:
    """Negative control: move one f-layer entry of one operator to a wrong row.

    The returned tuple generically fails the commutation check, which is the
    point: it exercises the failure path of the certification.
    """
    rng = stream(seed, "corrupt")
    f_rows = {tup.basis.index[lab] for lab in tup.basis.labels if lab[0] == "f"}
    order = rng.permutation(len(tup.ops))
    for l in order:
        mat = tup.ops[l].tocoo()
        hits = [t for t in range(mat.nnz) if mat.row[t] in f_rows]
        if not hits:
            continue
        t = hits[int(rng.integers(0, len(hits)))]
        new_rows = sorted(f_rows - {mat.row[t]})
        mat.row[t] = new_rows[int(rng.integers(0, len(new_rows)))]
        ops = list(tup.ops)
        ops[l] = mat.tocsc()
        return DixonTuple(tup.system, tup.polynomial, tup.basis, tuple(ops))
    raise ValueError("tuple has no f-layer entries to corrupt")


def verify_report(tup: DixonTuple) -> dict:
    """The record `vnlab dixon verify` emits, plus the certificate's op_norms and layer_weights."""
    cert = certify(tup)
    return {
        "built": True,
        "dimension": tup.basis.dimension,
        "cardinality": tup.system.cardinality,
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

"""Dixon tuples: commuting contractions built from a signed block family.

Given a partial Steiner system with uniqueness level t = k - 1 and a sign
c_J = +-1 per block, the construction produces n commuting operators
T_1, ..., T_n on the layered space e -> t_1 -> ... -> t_{k-2} -> f -> g,
each mapping every layer into the next, such that the support polynomial
p applied to the tuple is p(T) = |J| g e^*, where |J| is the number of
blocks.  Matrices are stored column-compressed since every column has at
most one nonzero entry.  The certificates read the structure: integer
commutators from one stacked product, ||T_l|| from row norms, and ||p(T)||
as the g-coefficient of p(T) e once the grading is checked.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .norms import estimate_norm
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


def _row_norms_squared(t) -> np.ndarray:
    """Diagonal of T T^*, which is T T^* itself when no column has two nonzeros."""
    t = t.tocsc()
    if np.diff(t.indptr).max(initial=0) > 1:
        raise ValueError("operator has a column with two nonzero entries")
    return np.asarray(abs(t).power(2).sum(axis=1)).ravel()


def operator_norms(tup: DixonTuple) -> list:
    """Exact ||T_l||: T_l T_l^* is diagonal, so the norm is the largest row 2-norm."""
    return [math.sqrt(_row_norms_squared(t).max(initial=0.0)) for t in tup.ops]


def apply_polynomial(p: HomogeneousPolynomial, tup: DixonTuple, v: np.ndarray) -> np.ndarray:
    """p(T) v with monomials read as products T_{j1} ... T_{jk}, j1 <= ... <= jk."""
    v = np.asarray(v, dtype=np.complex128)
    acc = np.zeros_like(v)
    for key, c in p.coeffs.items():
        w = v
        for j in reversed(key):
            w = tup.ops[j - 1] @ w
        acc = acc + c * w
    return acc


def pte_coefficient(tup: DixonTuple):
    """Coefficient of g in p(T) e and the norm of the off-g residual."""
    dim = tup.basis.dimension
    e = np.zeros(dim, dtype=np.complex128)
    e[tup.basis.index[("e",)]] = 1.0
    w = apply_polynomial(tup.polynomial, tup, e)
    g_pos = tup.basis.index[("g",)]
    coeff = complex(w[g_pos])
    w[g_pos] = 0.0
    return coeff, float(np.linalg.norm(w))


def check_grading(tup: DixonTuple) -> bool:
    """Whether every nonzero of every T_l maps a layer-m basis vector into layer m + 1."""
    layer = np.repeat(np.arange(tup.k + 1), _layer_sizes(tup.n, tup.k))
    stacked = sp.vstack(tup.ops).tocoo()  # T_l in rows l * dim, ..., (l + 1) * dim - 1
    nz = stacked.data != 0
    rows = stacked.row[nz] % tup.basis.dimension
    return bool(np.all(layer[rows] == layer[stacked.col[nz]] + 1))


# One home for the certificate tolerances: commutator entries, the
# deviation of each ||T_l|| from 1, the coefficient and residual of p(T)e,
# and the excess of the row value over 1.
COMMUTATOR_TOL = 1e-12
OPNORM_TOL = 1e-10
ACTION_TOL = 1e-9
ROW_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """The exact certificates of a tuple, judged against the tolerances above.

    When graded, the degree-k p(T) maps e to the line of g and every other
    layer past g, so p(T) = c g e^* and ||p(T)|| = |c| for c = pte_coefficient.
    """

    commutator: float
    op_norms: list
    opnorm_max_dev: float
    pte_coefficient: complex
    pte_residual: float
    graded: bool
    ok: bool


def certify(tup: DixonTuple) -> Certificate:
    """Check grading, commutation, unit operator norms and p(T) e = |J| g."""
    comm = check_commuting(tup)
    norms = operator_norms(tup)
    dev = max(abs(x - 1.0) for x in norms)
    coeff, residual = pte_coefficient(tup)
    graded = check_grading(tup)
    ok = (
        graded
        and comm <= COMMUTATOR_TOL
        and dev <= OPNORM_TOL
        and residual <= ACTION_TOL
        and abs(coeff - tup.system.cardinality) <= ACTION_TOL
    )
    return Certificate(comm, norms, dev, coeff, residual, graded, ok)


@dataclass(frozen=True)
class RowConditionResult:
    """|| sum_j alpha_j s T_j || at the better of two unit alpha.

    value is a lower value of the sup over unit alpha: at k = 3 the witness
    candidate gives at least max(1, 6 |p(w)|), which is the sup when w
    attains ||p||_{B_2}; at k >= 4 the uniform candidate gives at least
    sqrt(2 - 1/n) from the t_1 -> t_2 block.  block_row_norm is the exact
    norm of the stacked row [T_1 ... T_n] times s, which upper-bounds the
    sup and is reported for reference.
    """

    value: float
    scale: float
    alpha: np.ndarray
    block_row_norm: float

    def satisfied(self) -> bool:
        return self.value <= 1.0 + ROW_TOL


def _combination_norm(tup: DixonTuple, alpha) -> float:
    """|| sum_j alpha_j T_j || as the largest norm of its layer-to-layer blocks.

    The combination maps each layer (e, the t-tuples of each size, f, g)
    into the next and the layers are mutually orthogonal, so its norm is
    the largest block norm; each block is small enough for a dense SVD.
    """
    a = sum(x * t for x, t in zip(alpha, tup.ops)).toarray()
    sizes = _layer_sizes(tup.n, tup.k)
    edges = np.cumsum([0] + sizes)
    return max(
        float(np.linalg.norm(a[edges[m + 1] : edges[m + 2], edges[m] : edges[m + 1]], 2))
        for m in range(len(sizes) - 1)
    )


def check_row_condition(tup: DixonTuple, scale: float, witness) -> RowConditionResult:
    """|| sum_j alpha_j (s T_j) || at alpha = w / ||w|| and at the uniform vector.

    w is a q = 2 ascent witness of the tuple's polynomial; the larger of the
    two values is reported, times the scale s.
    """
    n = tup.n
    gram = sum(_row_norms_squared(t) for t in tup.ops)
    block_row = math.sqrt(gram.max()) * scale
    candidates = [witness / np.linalg.norm(witness), np.full(n, n**-0.5)]
    value, alpha = max(
        ((_combination_norm(tup, alpha), alpha) for alpha in candidates), key=lambda c: c[0]
    )
    return RowConditionResult(value * scale, scale, alpha, block_row)


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


def verify_report(tup: DixonTuple, *, scale: float | None = None, seed: int = 0) -> dict:
    """The record `vnlab dixon verify` emits, plus the op_norms list of the certificate."""
    if scale is None:
        scale = (1.0 + tup.polynomial.coefficient_sum) ** -0.5
    cert = certify(tup)
    witness = estimate_norm(tup.polynomial, 2, seed=seed).witness
    row = check_row_condition(tup, scale, witness)
    return {
        "built": True,
        "dimension": tup.basis.dimension,
        "cardinality": tup.system.cardinality,
        "max_commutator": cert.commutator,
        "opnorm_max_dev": cert.opnorm_max_dev,
        "pTe_re": cert.pte_coefficient.real,
        "pTe_im": cert.pte_coefficient.imag,
        "pTe_residual": cert.pte_residual,
        "row_scale": scale,
        "row_condition_value": row.value,
        "block_row_norm": row.block_row_norm,
        "certified": cert.ok,
        "op_norms": cert.op_norms,
    }

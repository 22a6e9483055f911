"""Homogeneous polynomials in n complex variables with sparse supports.

The central objects are k-homogeneous polynomials whose monomials are
squarefree products indexed by the blocks of a partial Steiner system and
whose coefficients are unimodular signs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .steiner import PartialSteinerSystem
from .util import stream


@dataclass(frozen=True, eq=False)
class HomogeneousPolynomial:
    """k-homogeneous polynomial sum_J c_J z_J, monomials as 1-based index tuples.

    Monomial keys are nondecreasing tuples of length k with entries in
    [1, n]; exact zero coefficients are dropped on construction.
    """

    n: int
    k: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n} k={self.k}")
        clean = {}
        for key, val in self.coeffs.items():
            key = tuple(int(x) for x in key)
            if len(key) != self.k:
                raise ValueError(f"monomial {key} has degree {len(key)}, expected {self.k}")
            if any(not (1 <= x <= self.n) for x in key):
                raise ValueError(f"monomial {key} leaves the variable range [1, {self.n}]")
            if tuple(sorted(key)) != key:
                raise ValueError(f"monomial {key} is not nondecreasing")
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"non-finite coefficient at {key}")
            if val != 0:
                clean[key] = val
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    @cached_property
    def _idx0(self) -> np.ndarray:
        if not self.coeffs:
            return np.zeros((0, self.k), dtype=np.int64)
        return np.array(list(self.coeffs.keys()), dtype=np.int64) - 1

    @cached_property
    def _coef(self) -> np.ndarray:
        return np.array(list(self.coeffs.values()), dtype=np.complex128)

    @cached_property
    def _index(self) -> kernels.TermIndex:
        return kernels.TermIndex(self._idx0, self.n)

    @property
    def term_count(self) -> int:
        return len(self.coeffs)

    def support(self) -> tuple:
        """Monomial keys, sorted."""
        return tuple(self.coeffs.keys())

    @property
    def coefficient_sum(self) -> float:
        """sum_J |c_J|, a sup bound on |p| over every unit ball with |z_j| <= 1."""
        return float(np.abs(self._coef).sum())

    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=np.complex128)
        if z.shape != (self.n,):
            raise ValueError(f"point has shape {z.shape}, expected ({self.n},)")
        return complex(self.evaluate_batch(z[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points have shape {points.shape}, expected (B, {self.n})")
        return kernels.poly_eval_batch(self._coef, self._idx0, points, index=self._index)

    def gradient_batch(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points have shape {points.shape}, expected (B, {self.n})")
        return kernels.poly_eval_grad_batch(self._coef, self._idx0, points, index=self._index)

    def to_json(self) -> str:
        terms = [
            {"indices": list(key), "re": val.real, "im": val.imag}
            for key, val in self.coeffs.items()
        ]
        return json.dumps({"n": self.n, "k": self.k, "terms": terms}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HomogeneousPolynomial":
        try:
            data = json.loads(text)
            coeffs = {
                tuple(t["indices"]): complex(t["re"], t["im"]) for t in data["terms"]
            }
            return cls(int(data["n"]), int(data["k"]), coeffs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial payload: {exc}") from exc


def random_steiner_polynomial(system: PartialSteinerSystem, rng) -> HomogeneousPolynomial:
    """Random-sign polynomial sum_J eps_J z_J on the blocks of an S_p(k-1, k, n).

    A valid system with t <= k - 1 is one, since a t-unique family is
    t'-unique for every t' >= t.  Signs are independent uniform {-1, +1},
    drawn in canonical block order so the result is reproducible given the
    generator (or integer seed); they do not depend on t.
    """
    if system.t > system.k - 1:
        raise ValueError(f"support must have uniqueness level t <= k - 1, got t={system.t}")
    if not isinstance(rng, np.random.Generator):
        rng = stream(int(rng), "steiner-signs", system.n, system.k)
    signs = rng.integers(0, 2, size=len(system.blocks)) * 2 - 1
    coeffs = {block: complex(sign) for block, sign in zip(system.blocks, signs)}
    return HomogeneousPolynomial(system.n, system.k, coeffs)


def polarize_evaluate(p: HomogeneousPolynomial, vectors) -> complex:
    """Symmetric multilinear form of p evaluated at k vectors.

    Computed by sign averaging: (1 / (2^k k!)) * sum over eps in {-1,+1}^k
    of eps_1 ... eps_k * p(sum_j eps_j v_j).  Restricting all k vectors to a
    common z recovers p(z) exactly.
    """
    vecs = np.asarray(vectors, dtype=np.complex128)
    if vecs.shape != (p.k, p.n):
        raise ValueError(f"expected {p.k} vectors of length {p.n}, got shape {vecs.shape}")
    k = p.k
    signs = np.array(
        [[1 if (e >> j) & 1 == 0 else -1 for j in range(k)] for e in range(2**k)],
        dtype=np.float64,
    )
    vals = p.evaluate_batch(signs @ vecs)
    return complex((signs.prod(axis=1) * vals).sum() / (2**k * math.factorial(k)))

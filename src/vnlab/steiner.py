"""Partial Steiner systems S_p(t, k, n): validation, greedy generation, bounds.

A partial Steiner system is a family of k-element blocks of {1, ..., n} in
which every t-element subset is contained in at most one block.  These block
families index the supports of the sparse homogeneous polynomials used
throughout the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .util import stream

FANO_BLOCKS = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
)


@dataclass(frozen=True)
class PartialSteinerSystem:
    """Block family on {1..n} with the t-subset uniqueness contract.

    The constructor only canonicalizes (blocks sorted internally and
    globally); whether the uniqueness contract actually holds is the job
    of validate().
    """

    n: int
    k: int
    t: int
    blocks: tuple = field(default=())

    def __post_init__(self):
        if not (1 <= self.t <= self.k <= self.n):
            raise ValueError(f"need 1 <= t <= k <= n, got t={self.t} k={self.k} n={self.n}")
        canon = tuple(sorted(tuple(sorted(int(x) for x in b)) for b in self.blocks))
        object.__setattr__(self, "blocks", canon)

    @property
    def cardinality(self) -> int:
        return len(self.blocks)

    def point_degrees(self) -> np.ndarray:
        """Number of blocks through each point, indexed 0..n-1."""
        deg = np.zeros(self.n, dtype=np.int64)
        for b in self.blocks:
            for x in b:
                deg[x - 1] += 1
        return deg


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    violations: tuple  # (t_subset, block_a, block_b) triples
    structural_errors: tuple  # human-readable strings


def validate(system: PartialSteinerSystem) -> ValidationResult:
    """Check block shape and the t-subset uniqueness contract.

    Malformed blocks are reported as structural errors; every t-subset
    occurring in two distinct blocks is reported as a violation.
    """
    structural = []
    seen_blocks = set()
    good_blocks = []
    for b in system.blocks:
        if len(b) != system.k:
            structural.append(f"block {b} has size {len(b)}, expected {system.k}")
            continue
        if len(set(b)) != len(b):
            structural.append(f"block {b} has repeated points")
            continue
        if b[0] < 1 or b[-1] > system.n:
            structural.append(f"block {b} leaves the point range [1, {system.n}]")
            continue
        if b in seen_blocks:
            structural.append(f"block {b} listed twice")
            continue
        seen_blocks.add(b)
        good_blocks.append(b)

    owner = {}
    violations = []
    for b in good_blocks:
        for sub in itertools.combinations(b, system.t):
            if sub in owner and owner[sub] != b:
                violations.append((sub, owner[sub], b))
            else:
                owner[sub] = b
    return ValidationResult(
        valid=not structural and not violations,
        violations=tuple(violations),
        structural_errors=tuple(structural),
    )


def greedy_generate(n: int, k: int, t: int, rng) -> PartialSteinerSystem:
    """Random greedy packing: shuffle all k-subsets, accept first-fit.

    rng is a numpy Generator or an integer seed.  The result is
    deterministic given the seed and maximal: no remaining k-subset can be
    added without breaking t-subset uniqueness.
    """
    if not (1 <= t <= k <= n):
        raise ValueError(f"need 1 <= t <= k <= n, got t={t} k={k} n={n}")
    if not isinstance(rng, np.random.Generator):
        rng = stream(int(rng), "steiner-greedy", n, k, t)
    candidates = list(itertools.combinations(range(1, n + 1), k))
    rng.shuffle(candidates)
    occupied = set()
    accepted = []
    for cand in candidates:
        subs = list(itertools.combinations(cand, t))
        if any(s in occupied for s in subs):
            continue
        occupied.update(subs)
        accepted.append(cand)
    return PartialSteinerSystem(n, k, t, tuple(accepted))


def max_cardinality(n: int, k: int, t: int) -> Fraction:
    """Packing ceiling binom(n, t) / binom(k, t) as an exact rational."""
    if not (1 <= t <= k <= n):
        raise ValueError(f"need 1 <= t <= k <= n, got t={t} k={k} n={n}")
    return Fraction(math.comb(n, t), math.comb(k, t))


def fano_system() -> PartialSteinerSystem:
    """The 7-point, 7-block triple system with every pair covered once."""
    return PartialSteinerSystem(7, 3, 2, FANO_BLOCKS)


def dumps_system(system: PartialSteinerSystem) -> str:
    lines = [f"{system.n} {system.k} {system.t}"]
    lines.extend(" ".join(str(x) for x in b) for b in system.blocks)
    return "\n".join(lines) + "\n"


def loads_system(text: str) -> PartialSteinerSystem:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty system file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'n k t', got {lines[0]!r}")
    n, k, t = (int(x) for x in header)
    blocks = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
    return PartialSteinerSystem(n, k, t, blocks)

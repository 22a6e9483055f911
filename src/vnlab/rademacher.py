"""Random-sign processes indexed by ball points, and their increment geometry.

On the blocks J of a partial Steiner system with t <= k - 1 the process is
Y_z = (1/k) sum_J eps_J z_J with independent Rademacher signs eps_J.  The
module provides the closed-form L2 increment distance, Monte Carlo
cross-checks, an empirical Orlicz psi_2 norm (Young function exp(t^2) - 1),
and a sampled check of the Lipschitz domination of the increment distance by
the sup distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .norms import estimate_norm
from .polynomials import HomogeneousPolynomial
from .steiner import PartialSteinerSystem
from .util import stream

# psi_2 norm of a single Rademacher sign: E exp(1/c^2) - 1 = 1 at c = 1/sqrt(ln 2)
RADEMACHER_PSI2 = 1.0 / math.sqrt(math.log(2.0))

# absolute slack for d(z, z') <= ||z - z'||_inf in lipschitz_check
LIPSCHITZ_TOL = 1e-12

# two-sided sub-Gaussian corridor for an empirical psi_2 / L2 ratio, and the
# largest z-score of a Monte Carlo L2 increment against its closed form
PSI2_CORRIDOR = (0.4, 4.0)
MAX_ZSCORE = 3.0

# entries per chunk of random signs in _sign_sums: about 1.5 MB of int64 and
# complex scratch, however many draws and blocks
_SIGN_CHUNK = 1 << 16


@dataclass(frozen=True)
class RademacherProcess:
    """Sign process on the blocks of a partial Steiner system with t <= k - 1."""

    system: PartialSteinerSystem

    def __post_init__(self):
        if self.system.t > self.system.k - 1:
            raise ValueError(f"process support must have t <= k - 1, got t={self.system.t}")

    @property
    def k(self) -> int:
        return self.system.k

    @property
    def n(self) -> int:
        return self.system.n

    @cached_property
    def _idx0(self) -> np.ndarray:
        return np.array(self.system.blocks, dtype=np.int64).reshape(-1, self.k) - 1

    def draw_signs(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, size=len(self.system.blocks)) * 2 - 1

    def signed_polynomial(self, signs) -> HomogeneousPolynomial:
        """The normalized realization (1/k) sum eps_J z_J for given signs."""
        coeffs = {b: complex(s / self.k) for b, s in zip(self.system.blocks, signs)}
        return HomogeneousPolynomial(self.n, self.k, coeffs)

    def _increment(self, z, zp) -> np.ndarray:
        """z_J - z'_J for every block J, in block order."""
        products = []
        for point in (z, zp):
            point = np.asarray(point, dtype=np.complex128)
            if point.shape != (self.n,):
                raise ValueError(f"point has shape {point.shape}, expected ({self.n},)")
            products.append(point[self._idx0].prod(axis=1))
        return products[0] - products[1]


def _l2_norm(increment: np.ndarray, k: int) -> float:
    return float(np.sqrt((np.abs(increment) ** 2).sum()) / k)


def l2_distance(proc: RademacherProcess, z, zp) -> float:
    """Closed-form L2 increment (1/k) (sum_J |z_J - z'_J|^2)^{1/2}."""
    return _l2_norm(proc._increment(z, zp), proc.k)


def _sign_sums(rng: np.random.Generator, w: np.ndarray, draws: int) -> np.ndarray:
    """sum_j eps_j w_j for draws independent sign vectors eps, as (draws,) complex.

    The signs come from rng in chunks of whole rows of at most _SIGN_CHUNK
    entries (one row if a row is longer), so the memory does not grow with
    draws * len(w); rng.integers carries its stream on across calls, so the
    signs are those of one (draws, len(w)) draw.  Each row is summed by
    einsum's loop, in j order, so no value depends on the chunk size (a BLAS
    product, @, would: see kernels).
    """
    w = np.asarray(w, dtype=np.complex128)
    rows = max(1, _SIGN_CHUNK // max(1, len(w)))
    out = np.empty(draws, dtype=np.complex128)
    for start in range(0, draws, rows):
        stop = min(start + rows, draws)
        signs = rng.integers(0, 2, size=(stop - start, len(w))) * 2 - 1
        out[start:stop] = np.einsum("dj,j->d", signs.astype(np.complex128), w)
    return out


def mc_increment_std(proc: RademacherProcess, z, zp, draws: int, seed: int):
    """Monte Carlo root-mean-square of Y_z - Y_{z'} and a standard-error proxy.

    The increment is a mean-zero sign sum, so its RMS equals l2_distance;
    the proxy is the delta-method standard error of the RMS estimate, which
    needs draws >= 2.
    """
    if draws < 2:
        raise ValueError(f"draws must be >= 2 for a standard error, got {draws}")
    w = proc._increment(z, zp) / proc.k
    samples = np.abs(_sign_sums(stream(seed, "increment-mc"), w, draws)) ** 2
    mean_sq = samples.mean()
    rms = math.sqrt(mean_sq)
    if rms == 0.0:
        return 0.0, 0.0
    se = samples.std(ddof=1) / math.sqrt(draws) / (2.0 * rms)
    return float(rms), float(se)


def sample_sup(proc: RademacherProcess, seed: int, **norm_kwargs) -> float:
    """One realized sup over the Euclidean ball: draw signs, run the ascent."""
    signs = proc.draw_signs(stream(seed, "sup-signs"))
    p = proc.signed_polynomial(signs)
    norm_kwargs.setdefault("seed", seed)
    return estimate_norm(p, 2, **norm_kwargs).lower


@dataclass(frozen=True)
class OrliczEstimate:
    value: float
    unstable: bool


def _orlicz_gauge(abs_sq: np.ndarray, c: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.expm1(abs_sq / (c * c)).mean())


def _psi2_from_abs_sq(abs_sq: np.ndarray) -> float:
    """The c > 0 with mean(exp(abs_sq / c^2)) = 2, or 0 when abs_sq is 0.

    With u = 1/c^2 it is the root of h(u) = log mean exp(u abs_sq) - log 2.
    h is convex and increasing, and at u = log 2 / mean(abs_sq) Jensen's
    inequality gives h >= 0, so Newton's steps from there fall monotonically
    to the root; they stop once a step no longer lowers u.  h is evaluated
    with the largest exponent taken out (log-sum-exp).
    """
    mean = abs_sq.mean()
    if mean == 0.0:
        return 0.0
    u = math.log(2.0) / mean
    for _ in range(100):
        t = u * abs_sq
        top = t.max()
        w = np.exp(t - top)
        total = w.sum()
        h = top + math.log(total / abs_sq.size) - math.log(2.0)
        lower = u - h * total / (w @ abs_sq)
        if not lower < u:
            break
        u = lower
    return 1.0 / math.sqrt(u)


def psi2_norm_mc(sampler, samples: int, seed: int) -> OrliczEstimate:
    """Empirical psi_2 norm: smallest c with mean(exp(|Z|^2/c^2) - 1) <= 1.

    sampler(rng, size) must return a real or complex sample array; the
    gauge equation is solved to round-off (_psi2_from_abs_sq).  The estimate is
    flagged unstable when the empirical gauge at it differs grossly between
    the two halves of the sample (heavy tails making the exponential mean
    unreliable).  It needs samples >= 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = stream(seed, "orlicz-sampler")
    z = np.asarray(sampler(rng, samples))
    abs_sq = np.abs(z) ** 2
    if not abs_sq.any():
        return OrliczEstimate(0.0, False)
    value = _psi2_from_abs_sq(abs_sq)
    half = samples // 2
    unstable = False
    if half >= 1:
        g1 = _orlicz_gauge(abs_sq[:half], value)
        g2 = _orlicz_gauge(abs_sq[half:], value)
        unstable = not math.isfinite(g1) or not math.isfinite(g2) or abs(g1 - g2) > 0.5
    return OrliczEstimate(float(value), bool(unstable))


def ball_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point of the complex Euclidean unit ball in dimension n.

    Gaussian direction times radius u^{1/(2n)}; the exponent is 2n because
    the ball has 2n real dimensions.
    """
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g /= np.linalg.norm(g)
    return g * rng.uniform() ** (1.0 / (2 * n))


@dataclass(frozen=True)
class LipschitzReport:
    pairs: int
    max_ratio: float
    violations: int
    rows: tuple  # (lhs, rhs, ratio) per sampled pair
    psi2_l2_ratios: tuple  # empirical psi2/L2 comparability on a few increments
    psi2_unstable: int  # how many of those psi2 estimates psi2_norm_mc flagged unstable


def lipschitz_check(
    proc: RademacherProcess,
    pairs: int,
    seed: int,
    *,
    mc_pairs: int = 3,
    mc_draws: int = 20000,
) -> LipschitzReport:
    """Sampled check of d(z, z') <= ||z - z'||_inf on ball pairs (at least 1).

    The Lipschitz constant is 1 for a design with blocks and 0 for an empty
    one, whose pairs are all skipped; a violation is an excess over
    LIPSCHITZ_TOL.  Also reports the empirical psi_2 / L2 ratio of the
    increment on the first mc_pairs pairs (0 for none), which should sit
    inside PSI2_CORRIDOR, and how many of those estimates were unstable.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if mc_pairs < 0:
        raise ValueError(f"mc_pairs must be >= 0, got {mc_pairs}")
    lip = 1.0 if proc.system.blocks else 0.0
    rows = []
    violations = 0
    max_ratio = 0.0
    ratios_psi2 = []
    unstable = 0
    for i in range(pairs):
        z = ball_point(stream(seed, "lipschitz", i, 0), proc.n)
        zp = ball_point(stream(seed, "lipschitz", i, 1), proc.n)
        increment = proc._increment(z, zp)
        lhs = _l2_norm(increment, proc.k)
        rhs = lip * float(np.abs(z - zp).max())
        if rhs == 0.0:
            continue
        ratio = lhs / rhs
        rows.append((lhs, rhs, ratio))
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs + LIPSCHITZ_TOL:
            violations += 1
        if i < mc_pairs and lhs > 0.0:
            w = increment / proc.k
            est = psi2_norm_mc(
                lambda rng, size: _sign_sums(rng, w, size), mc_draws, seed + 7919 * i
            )
            ratios_psi2.append(est.value / lhs)
            unstable += est.unstable
    return LipschitzReport(
        pairs=len(rows),
        max_ratio=float(max_ratio),
        violations=violations,
        rows=tuple(rows),
        psi2_l2_ratios=tuple(ratios_psi2),
        psi2_unstable=unstable,
    )

"""Certified lower-bound pipelines for polynomial von Neumann-type constants.

D_{k}(n) compares ||p(T)|| against sup_{B_2} |p| over commuting tuples
subject to a joint condition on T = (T_1, ..., T_n); C_{k,q}(n) compares against
sup over the l_q ball subject to sum_j ||T_j||^q <= 1 (max at q = inf).
Each pipeline builds a random signed block family, certifies the operator
tuple, and emits one flat record combining measured values, certificates,
and reference growth exponents.  The record keeps the two kinds of sup-norm
number apart: norm_upper is the certified closed form certified_upper(p, q),
and norm_lower is the ascent's estimate (estimate_norm).

The D record carries two bound columns.  bound keeps the
(1 + U)^{-k/2} |J| / U form, which assumes a condition that is not
checked.  bound_certified divides ||p(W T)|| = prod_m w_m |J| by U for the
tuple reweighted by its certified layer weights (dixon.Certificate).  The
weights prove ||sum_j alpha_j W T_j|| <= 1 for every ||alpha||_2 <= 1.  They
do not prove a row contraction: ||sum_j (W T_j)(W T_j)^*|| is n on these
tuples.  Which of the two conditions D_k(n) needs is not settled here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .dixon import build_tuple, certify
from .norms import certified_upper, estimate_norm
from .polynomials import random_steiner_polynomial
from .steiner import greedy_generate
from .util import Exponent, stream


class CertificationError(RuntimeError):
    """A hard certificate (commutation, contraction, exact action) failed."""


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    residual_rms: float


def fit_power_law(points) -> ScalingFit:
    """Least-squares slope of log(value) against log(x) for (x, value) pairs."""
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 2:
        raise ValueError(f"power-law fit needs at least 2 points, got {len(pts)}")
    if any(x <= 0 or v <= 0 for x, v in pts):
        raise ValueError("power-law fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lx, lv, 1)
    resid = lv - (slope * lx + intercept)
    return ScalingFit(float(slope), float(intercept), float(np.sqrt((resid**2).mean())))


def monotone_inversions(values) -> int:
    vals = list(values)
    return sum(1 for a, b in zip(vals, vals[1:]) if b < a)


@dataclass(frozen=True)
class ReferenceExponents:
    """Growth exponents (exact rationals) bracketing the constants in n."""

    k: int
    q: Exponent
    classical_lower: Fraction | None
    classical_upper: Fraction | None
    improved_lower: Fraction | None
    improved_lower_log_power: Fraction | None
    d_upper: Fraction
    d_lower: Fraction | None
    d_lower_log_power: Fraction | None


def reference_exponents(k: int, q) -> ReferenceExponents:
    """Exponent table for C_{k,q}(n) (two-sided) and D_k(n) (upper, and lower at q=2)."""
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    q = Exponent.parse(q)
    half = Fraction(1, 2)
    if q.is_inf:
        classical_lower = classical_upper = None
        improved = Fraction(k - 2, 2)
        improved_log = Fraction(0)
        d_upper = (k - 1) * half
    else:
        qf = q.fraction
        if qf >= 2:
            classical_lower = Fraction(k, 2) - Fraction(k // 2 + 1, 2)
            classical_upper = Fraction(k - 2, 2)
            improved = Fraction(k - 2, 2)
            improved_log = Fraction(3) / qf
            d_upper = (k - 1) * (half + 1 / qf)
        else:
            inv_conj = 1 - 1 / qf  # 1/q' for the Hoelder conjugate
            classical_lower = (k - 1) * inv_conj - Fraction(k // 2, 2)
            classical_upper = (k - 2) * inv_conj
            improved = None
            improved_log = None
            d_upper = (k - 1) * (half + inv_conj)
    is_two = not q.is_inf and q.fraction == 2
    return ReferenceExponents(
        k=k,
        q=q,
        classical_lower=classical_lower,
        classical_upper=classical_upper,
        improved_lower=improved,
        improved_lower_log_power=improved_log,
        d_upper=d_upper,
        d_lower=Fraction(k - 1) if is_two else None,
        d_lower_log_power=Fraction(3 * (k + 2), 4) if is_two else None,
    )


@dataclass(frozen=True)
class BoundRecord:
    """One pipeline cell: construction data, certificates, and bound values."""

    kind: str
    k: int
    q: str
    n: int
    seed: int
    cardinality: int
    scale: float
    norm_lower: float
    norm_upper: float
    upper_coefficient_sum: float
    commutator_max: float
    opnorm_max_dev: float
    pte_value: float
    pte_residual: float
    bound: float
    bound_certified: float
    bound_estimate: float
    direct_value: float
    ref_upper_exponent: float
    ref_lower_exponent: float

    def to_record(self) -> dict:
        return asdict(self)


def _pipeline_inputs(k: int, n: int, seed: int):
    """Shared construction: a pair-unique greedy system S_p(2, k, n) and random signs.

    Pair uniqueness coincides with t = k - 1 at k = 3 and is strictly
    stronger for k >= 4, where build_tuple needs it to make the shift into
    the f-layer a partial isometry.
    """
    if k < 3 or n < k:
        raise ValueError(f"need n >= k >= 3, got n={n} k={k}")
    system = greedy_generate(n, k, 2, stream(seed, "pipeline-system", k, n))
    p = random_steiner_polynomial(system, stream(seed, "pipeline-signs", k, n))
    return system, p


def _lower_bound(
    kind: str, k: int, q: Exponent, n: int, seed: int, restarts: int, max_iter: int
) -> BoundRecord:
    """One pipeline cell: |J| over the certified upper U = certified_upper(p, q).

    The kinds differ only in the scale s of the tuple, in bound_certified
    and in the reference exponents.  D (q = 2) takes s = (1 + U)^{-1/2},
    which assumes a condition that is not checked, and bound_certified
    = prod_m w_m ||p(T)|| / U from the certificate's layer weights, which
    bound every unit combination of the tuple by 1 (not a row
    contraction; see the module docstring).  C takes s = n^{-1/q}, so
    sum_j ||s T_j||^q = 1 exactly (s = 1 at q = inf), and bound_certified
    = bound.  p(T) = c g e^* on the certified tuple, so ||p(T)|| = |c| = |J|
    and direct_value == bound.  bound_estimate divides
    by the ascent's lower value instead, an upper-biased quotient.  U is
    computed once per cell; the ascent feeds only norm_lower and
    bound_estimate.
    """
    system, p = _pipeline_inputs(k, n, seed)
    card = system.cardinality
    upper, _method = certified_upper(p, q)
    est = estimate_norm(p, q, restarts=restarts, max_iter=max_iter, seed=seed)
    cert = certify(build_tuple(p))
    if not cert.ok:
        raise CertificationError(
            f"certificate failed: graded {cert.graded}, commutator entry {cert.commutator}, "
            f"operator norm deviation {cert.opnorm_max_dev}, p(T)e = {cert.pte_coefficient} g "
            f"+ residual {cert.pte_residual}, expected {card} g exactly"
        )
    direct_norm = abs(cert.pte_coefficient)
    refs = reference_exponents(k, q)
    if kind == "D":
        scale = (1.0 + upper) ** -0.5
        ref_upper, ref_lower = refs.d_upper, refs.d_lower
    else:
        scale = float(n) ** (-1.0 / q.as_float())
        ref_upper, ref_lower = refs.classical_upper, refs.improved_lower
        if ref_upper is None:
            ref_upper = refs.improved_lower
        if ref_lower is None:
            ref_lower = refs.classical_lower
    bound = scale**k * card / upper if upper > 0 else math.inf
    return BoundRecord(
        kind=kind,
        k=k,
        q=str(q),
        n=n,
        seed=seed,
        cardinality=card,
        scale=scale,
        norm_lower=est.lower,
        norm_upper=upper,
        upper_coefficient_sum=p.coefficient_sum,
        commutator_max=cert.commutator,
        opnorm_max_dev=cert.opnorm_max_dev,
        pte_value=cert.pte_coefficient.real,
        pte_residual=cert.pte_residual,
        bound=bound,
        bound_certified=cert.weight_product * direct_norm / upper if kind == "D" else bound,
        bound_estimate=scale**k * card / est.lower if est.lower > 0 else math.inf,
        direct_value=scale**k * direct_norm / upper if upper > 0 else math.inf,
        ref_upper_exponent=float(ref_upper),
        ref_lower_exponent=float(ref_lower),
    )


def lower_bound_D(
    k: int, n: int, seed: int, *, norm_restarts: int = 16, norm_max_iter: int = 800
) -> BoundRecord:
    """One cell of the D pipeline at q = 2 (see _lower_bound).

    bound = (1 + U)^{-k/2} |J| / U; bound_certified is |J| / (6 U^2) at
    k = 3 and |J| / (2 U) at k = 4.
    """
    return _lower_bound("D", k, Exponent.parse(2), n, seed, norm_restarts, norm_max_iter)


def lower_bound_C(
    k: int, q, n: int, seed: int, *, norm_restarts: int = 16, norm_max_iter: int = 800
) -> BoundRecord:
    """One cell of the C pipeline at exponent q (see _lower_bound).

    bound = n^{-k/q} |J| / U, certified since the l_q constraint is exact.
    """
    return _lower_bound("C", k, Exponent.parse(q), n, seed, norm_restarts, norm_max_iter)


@dataclass(frozen=True)
class SweepResult:
    kind: str
    k: int
    q: str
    fit_column: str
    records: tuple
    medians: tuple  # (n, median of fit column)
    fit: ScalingFit
    inversions: int
    warnings: tuple

    def to_records(self) -> list:
        return [r.to_record() for r in self.records]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "q": self.q,
            "fit_column": self.fit_column,
            "medians": [{"n": n, "value": v} for n, v in self.medians],
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "residual_rms": self.fit.residual_rms,
            "inversions": self.inversions,
            "warnings": list(self.warnings),
        }


def _cell_seed(root_seed: int, n: int, index: int) -> int:
    return int(np.random.SeedSequence([int(root_seed), int(n), int(index)]).generate_state(1)[0])


def scaling_sweep(
    kind: str,
    k: int,
    q,
    n_values,
    seeds_per_n: int,
    *,
    seed: int = 0,
    fit_column: str | None = None,
    norm_restarts: int = 16,
    norm_max_iter: int = 800,
) -> SweepResult:
    """Run a pipeline over a grid of n with several seeds per n and fit growth.

    The fitted column defaults to bound for D (fit bound_certified for the
    column whose combination condition is certified) and to the
    estimate-denominator bound for C (no nontrivial certified upper exists
    at q = inf, so the certified column is flat by construction there).
    A cell that raises, for instance because a hard certificate fails, is
    excluded and reported in warnings with its exception type; the per-n
    median uses the surviving cells.  norm_restarts and norm_max_iter go to
    the norm ascent of every cell.
    """
    kind = kind.upper()
    if kind not in ("C", "D"):
        raise ValueError(f"kind must be 'C' or 'D', got {kind!r}")
    q = Exponent.parse(q)
    if kind == "D" and not (not q.is_inf and q.fraction == 2):
        raise ValueError("the D pipeline is anchored at q = 2")
    if fit_column is None:
        fit_column = "bound" if kind == "D" else "bound_estimate"
    if fit_column not in BoundRecord.__dataclass_fields__:
        raise ValueError(f"unknown fit column {fit_column!r}")
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValueError("n_values is empty: the grid has no n to run")
    if seeds_per_n < 1:
        raise ValueError("seeds_per_n must be >= 1")
    if norm_restarts < 1:
        raise ValueError(f"norm_restarts must be >= 1, got {norm_restarts}")
    if norm_max_iter < 1:
        raise ValueError(f"norm_max_iter must be >= 1, got {norm_max_iter}")
    if k < 3 or any(n < k for n in n_values):
        raise ValueError(f"need n >= k >= 3 on the whole grid, got k={k} n={n_values}")

    norm = {"norm_restarts": norm_restarts, "norm_max_iter": norm_max_iter}
    records = []
    warnings_list = []
    for n in n_values:
        for i in range(seeds_per_n):
            cell_seed = _cell_seed(seed, n, i)
            try:
                # module globals, so a tracer or a test can replace the pipelines
                if kind == "D":
                    records.append(lower_bound_D(k, n, cell_seed, **norm))
                else:
                    records.append(lower_bound_C(k, q, n, cell_seed, **norm))
            except Exception as exc:
                warnings_list.append(f"cell n={n} index={i} excluded: {type(exc).__name__}: {exc}")

    medians = []
    for n in n_values:
        vals = [
            getattr(r, fit_column)
            for r in records
            if r.n == n and math.isfinite(getattr(r, fit_column))
        ]
        if vals:
            medians.append((n, float(np.median(vals))))
        else:
            warnings_list.append(f"no surviving cells at n={n}")
    if len(medians) >= 2:
        fit = fit_power_law(medians)
    else:
        # a one-point grid has no growth rate; records and medians still stand
        fit = ScalingFit(math.nan, math.nan, math.nan)
        warnings_list.append("fewer than 2 grid medians: no slope fitted")
    return SweepResult(
        kind=kind,
        k=k,
        q=str(q),
        fit_column=fit_column,
        records=tuple(records),
        medians=tuple(medians),
        fit=fit,
        inversions=monotone_inversions(v for _, v in medians),
        warnings=tuple(warnings_list),
    )


"""Certified lower-bound pipelines for polynomial von Neumann-type constants.

D_{k}(n) compares ||p(T)|| against sup_{B_2} |p| over commuting tuples
subject to the joint row contraction condition; C_{k,q}(n) compares against
sup over the l_q ball subject to sum_j ||T_j||^q <= 1 (max at q = inf).
Each pipeline builds a random signed block family, certifies the operator
tuple, and emits one flat record combining measured values, certificates,
and reference growth exponents.

The D record carries two bound columns.  bound keeps the
(1 + U)^{-k/2} |J| / U form, which assumes a row condition that is not
checked.  bound_certified divides ||p(W T)|| = prod_m w_m |J| by U for the
tuple reweighted by its certified layer weights (dixon.Certificate), which
satisfies the row condition by proof.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .dixon import build_tuple, certify
from .norms import (
    estimate_norm,
    flattening_upper_bound,
    interpolation_upper,
    interpolation_upper_low,
)
from .polynomials import l1_ball_upper_bound, random_steiner_polynomial
from .steiner import greedy_generate
from .util import Exponent, stream


class CertificationError(RuntimeError):
    """A hard certificate (commutation, contraction, exact action) failed."""


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    residual_rms: float
    points: tuple

    def to_record(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual_rms": self.residual_rms,
        }


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
    return ScalingFit(
        float(slope), float(intercept), float(np.sqrt((resid**2).mean())), tuple(pts)
    )


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

    def to_record(self) -> dict:
        def fmt(x):
            return None if x is None else str(x)

        return {
            "k": self.k,
            "q": str(self.q),
            "classical_lower": fmt(self.classical_lower),
            "classical_upper": fmt(self.classical_upper),
            "improved_lower": fmt(self.improved_lower),
            "improved_lower_log_power": fmt(self.improved_lower_log_power),
            "d_upper": fmt(self.d_upper),
            "d_lower": fmt(self.d_lower),
            "d_lower_log_power": fmt(self.d_lower_log_power),
        }


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
    upper_flattening: float
    upper_coefficient_sum: float
    commutator_max: float
    opnorm_max_dev: float
    pte_value: float
    pte_residual: float
    bound: float
    bound_certified: float
    bound_estimate: float
    direct_norm: float
    direct_value: float
    ref_upper_exponent: float
    ref_lower_exponent: float

    def to_record(self) -> dict:
        return asdict(self)


def _certified_tuple(system, p):
    """Build the tuple and check the exact certificates, or raise."""
    tup = build_tuple(system, p)
    cert = certify(tup)
    if not cert.ok:
        raise CertificationError(
            f"certificate failed: graded {cert.graded}, commutator entry {cert.commutator}, "
            f"operator norm deviation {cert.opnorm_max_dev}, p(T)e = {cert.pte_coefficient} g "
            f"+ residual {cert.pte_residual}, expected {system.cardinality} g exactly"
        )
    return tup, cert


def _pipeline_inputs(k: int, n: int, seed: int):
    """Shared construction: pair-unique greedy system plus random signs.

    Pair uniqueness (t = 2 generation) coincides with t = k - 1 at k = 3 and
    is strictly stronger for k >= 4, where it is what makes the shift into
    the f-layer a partial isometry.
    """
    if k < 3 or n < k:
        raise ValueError(f"need n >= k >= 3, got n={n} k={k}")
    raw = greedy_generate(n, k, 2, stream(seed, "pipeline-system", k, n))
    system = raw.with_uniqueness(k - 1)
    p = random_steiner_polynomial(system, stream(seed, "pipeline-signs", k, n))
    return system, p


def lower_bound_D(
    k: int,
    n: int,
    seed: int,
    *,
    norm_restarts: int = 16,
    norm_max_iter: int = 800,
) -> BoundRecord:
    """One cell of the D pipeline at q = 2.

    The headline column is bound = (1 + U)^{-k/2} |J| / U with U the best
    certified Euclidean upper bound; it assumes the row condition for the
    scaled tuple, which is not checked.  direct_value replaces |J| by
    ||p(T)|| = |c| for the certified p(T) e = c g (p(T) = c g e^* on the
    graded tuple), so direct_value == bound on every certified cell.
    bound_certified = prod_m w_m ||p(T)|| / U uses the certificate's layer
    weights w_m instead of the scale: the reweighted tuple commutes and is a
    row contraction by proof, and p(W T) = prod_m w_m p(T).  At k = 3,
    prod_m w_m = 1 / (6 * flattening); at k = 4 it is 1/2.
    """
    system, p = _pipeline_inputs(k, n, seed)
    card = system.cardinality
    flat = flattening_upper_bound(p)
    est = estimate_norm(
        p,
        2,
        restarts=norm_restarts,
        max_iter=norm_max_iter,
        seed=seed,
        upper_bound=flat,
        upper_label="flattening",
    )
    upper = est.upper
    _, cert = _certified_tuple(system, p)
    scale = (1.0 + upper) ** -0.5
    bound = scale**k * card / upper
    bound_est = scale**k * card / est.lower if est.lower > 0 else math.inf
    direct_norm = abs(cert.pte_coefficient)
    refs = reference_exponents(k, 2)
    return BoundRecord(
        kind="D",
        k=k,
        q="2",
        n=n,
        seed=seed,
        cardinality=card,
        scale=scale,
        norm_lower=est.lower,
        norm_upper=upper,
        upper_flattening=flat,
        upper_coefficient_sum=p.coefficient_sum,
        commutator_max=cert.commutator,
        opnorm_max_dev=cert.opnorm_max_dev,
        pte_value=cert.pte_coefficient.real,
        pte_residual=cert.pte_residual,
        bound=bound,
        bound_certified=cert.weight_product * direct_norm / upper,
        bound_estimate=bound_est,
        direct_norm=direct_norm,
        direct_value=scale**k * direct_norm / upper,
        ref_upper_exponent=float(refs.d_upper),
        ref_lower_exponent=float(refs.d_lower),
    )


def lower_bound_C(
    k: int,
    q,
    n: int,
    seed: int,
    *,
    norm_restarts: int = 16,
    norm_max_iter: int = 800,
) -> BoundRecord:
    """One cell of the C pipeline at exponent q.

    The tuple is scaled by s = n^{-1/q} so sum_j ||s T_j||^q = 1 exactly
    (s = 1 and the plain contraction constraint at q = inf).  The certified
    denominator comes from closed-form or interpolated upper bounds; the
    estimate column divides by the ascent lower estimate instead, which
    makes it an upper-biased quotient and is labeled accordingly.
    """
    q = Exponent.parse(q)
    system, p = _pipeline_inputs(k, n, seed)
    card = system.cardinality
    flat = flattening_upper_bound(p)
    u2 = min(flat, p.coefficient_sum)
    est = estimate_norm(
        p, q, restarts=norm_restarts, max_iter=norm_max_iter, seed=seed
    )
    _, cert = _certified_tuple(system, p)
    if q.is_inf:
        scale = 1.0
        denom_cert = p.coefficient_sum
    else:
        qf = q.as_float()
        scale = float(n) ** (-1.0 / qf)
        if q.fraction == 2:
            denom_cert = u2
        elif q.fraction > 2:
            denom_cert = interpolation_upper(q, u2, p.coefficient_sum, k)
        elif q.fraction == 1:
            denom_cert = l1_ball_upper_bound(p)
        else:
            denom_cert = interpolation_upper_low(q, l1_ball_upper_bound(p), u2, k)
    bound_cert = scale**k * card / denom_cert if denom_cert > 0 else math.inf
    bound_est = scale**k * card / est.lower if est.lower > 0 else math.inf
    # p(T) = c g e^* on the certified tuple, so ||p(T)|| = |c| = |J|
    direct_norm = abs(cert.pte_coefficient)
    refs = reference_exponents(k, q)
    ref_lower = refs.improved_lower if refs.improved_lower is not None else refs.classical_lower
    return BoundRecord(
        kind="C",
        k=k,
        q=str(q),
        n=n,
        seed=seed,
        cardinality=card,
        scale=scale,
        norm_lower=est.lower,
        norm_upper=denom_cert,
        upper_flattening=flat,
        upper_coefficient_sum=p.coefficient_sum,
        commutator_max=cert.commutator,
        opnorm_max_dev=cert.opnorm_max_dev,
        pte_value=cert.pte_coefficient.real,
        pte_residual=cert.pte_residual,
        bound=bound_cert,
        bound_certified=bound_cert,
        bound_estimate=bound_est,
        direct_norm=direct_norm,
        direct_value=scale**k * direct_norm / denom_cert if denom_cert > 0 else math.inf,
        ref_upper_exponent=float(refs.classical_upper) if refs.classical_upper is not None else float(
            refs.improved_lower
        ),
        ref_lower_exponent=float(ref_lower),
    )


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
    column whose row condition is certified) and to the
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
    if seeds_per_n < 1:
        raise ValueError("seeds_per_n must be >= 1")
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
        fit = ScalingFit(math.nan, math.nan, math.nan, tuple(medians))
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


"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload drives vnlab through its public functions only.  A pass
ends with the report a user of the CLI would write out, and returns its
records, the (upper, lower) pair of every sup-norm estimate, and the result
of the output checks.  Identical inputs must give identical records, which
the records digest shows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from vnlab import cli, norms, rademacher, steiner
from vnlab.report import ExperimentReport, canonical_json
from vnlab.util import stream

# Output-check tolerances; the certificate tolerances match bounds.py.
COMMUTATOR_TOL = 1e-12
OPNORM_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# direct_value divides the power-iteration norm of the rank-one p(T), which
# can land a few ulps below the exact |J| that bound uses (28.999999999999996
# against 29); the shortfall is reported, and only a larger one fails.
DIRECT_REL_TOL = 1e-12
PSI2_CORRIDOR = (0.4, 4.0)
MAX_ZSCORE = 3.0
# The Monte Carlo z-score is |N(0, 1)| for a correct program, so it exceeds 3
# for about 0.27 % of inputs.  Its design, points and draws are therefore
# fixed rather than seeded: the check is deterministic, and a failure means
# the program changed.
MC_CHECK_SEED = 20260826


def derive_seed(seed: int, *path) -> int:
    """A 32-bit program seed drawn from the benchmark seed and a label path."""
    return int(stream(seed, "perfbench", *path).integers(0, 2**32))


@dataclass
class Checks:
    """Output checks of one pass: attempted and failed counts with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    direct_shortfall: float = 0.0  # largest (bound - direct_value) / bound seen

    def check(self, ok: bool, reason: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class PassResult:
    records: list
    gaps: list  # (certified upper, ascent lower) per sup-norm estimate
    checks: Checks

    @property
    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.records).encode("utf-8")).hexdigest()

    @property
    def ascent_gap(self) -> float:
        """Geometric mean of upper / lower over all norm estimates."""
        logs = [math.log(u / lo) for u, lo in self.gaps]
        return math.exp(sum(logs) / len(logs))


def check_bound_record(rec: dict, checks: Checks):
    """The certificate and ordering invariants every sweep record must meet."""
    where = f"{rec.get('kind')} k={rec.get('k')} q={rec.get('q')} n={rec.get('n')}"
    ok = (
        rec["commutator_max"] <= COMMUTATOR_TOL
        and rec["opnorm_max_dev"] <= OPNORM_TOL
        and rec["pte_value"] == rec["cardinality"]
        and rec["pte_residual"] <= RESIDUAL_TOL
        and rec["norm_lower"] <= rec["norm_upper"]
    )
    if rec["kind"] == "D":
        shortfall = (rec["bound"] - rec["direct_value"]) / rec["bound"]
        checks.direct_shortfall = max(checks.direct_shortfall, shortfall)
        ok = ok and shortfall <= DIRECT_REL_TOL
    checks.check(ok, f"record {where} fails an output check")


def check_sweep(rep, expected_cells: int, checks: Checks):
    for rec in rep.records:
        check_bound_record(rec, checks)
    for _ in range(expected_cells - len(rep.records)):
        checks.check(False, f"{rep.config.get('kind')} sweep lost a cell")
    checks.check(not rep.warnings, f"sweep warnings: {rep.warnings[:3]}")


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    k: int
    q: str
    n_list: tuple
    threads: int

    def config(self, root_seed: int) -> dict:
        # only the shape, the seed and the pool size: every tuning key keeps
        # its default
        return {
            "command": "bounds.sweep",
            "kind": self.kind,
            "k": self.k,
            "q": self.q,
            "n_list": " ".join(str(n) for n in self.n_list),
            "seeds": 1,
            "seed": root_seed,
            "threads": self.threads,
        }


class SweepWorkload:
    """One or more bounds.sweep configs run through vnlab.cli.execute."""

    def __init__(self, name: str, specs, warm_specs):
        self.name = name
        self.specs = tuple(specs)
        self.warm_specs = tuple(warm_specs)

    def inputs(self, seed: int) -> dict:
        return {"root_seed": derive_seed(seed, self.name)}

    def _run(self, specs, inputs) -> PassResult:
        records, gaps = [], []
        checks = Checks()
        for spec in specs:
            rep, _artifact, failed = cli.execute(spec.config(inputs["root_seed"]))
            rep.to_json()
            checks.check(not failed, f"execute reported a failed certification for {spec}")
            check_sweep(rep, len(spec.n_list), checks)
            records.extend(rep.records)
            gaps.extend((r["norm_upper"], r["norm_lower"]) for r in rep.records)
        return PassResult(records, gaps, checks)

    def warm(self, inputs):
        self._run(self.warm_specs, inputs)

    def run_pass(self, inputs) -> PassResult:
        return self._run(self.specs, inputs)


class ChaosWorkload:
    """Sups of the Rademacher chaos on one design, then its sub-Gaussian checks.

    sample_sup runs with its default 32 restarts, as a caller of the library
    gets it.  With that many restarts nearly every ascent runs to its
    iteration cap, so a pass does the same work whatever the seed; with 8
    restarts the work of 8 draws varies by about 14 % between seeds.
    """

    name = "chaos"

    def __init__(self, n: int, draws: int, lipschitz_pairs: int, mc_checks: int, mc_draws: int):
        self.n = n
        self.k = 3
        self.draws = draws
        self.lipschitz_pairs = lipschitz_pairs
        self.mc_checks = mc_checks
        self.mc_draws = mc_draws

    def inputs(self, seed: int) -> dict:
        return {
            "design_seed": derive_seed(seed, "chaos-design"),
            "sign_seeds": [derive_seed(seed, "chaos-signs", i) for i in range(self.draws)],
            "check_seed": derive_seed(seed, "chaos-checks"),
        }

    def warm(self, inputs):
        proc = rademacher.RademacherProcess(
            steiner.greedy_generate(7, self.k, self.k - 1, inputs["design_seed"])
        )
        rademacher.sample_sup(proc, inputs["sign_seeds"][0], restarts=2, max_iter=20)

    def run_pass(self, inputs) -> PassResult:
        checks = Checks()
        system = steiner.greedy_generate(self.n, self.k, self.k - 1, inputs["design_seed"])
        proc = rademacher.RademacherProcess(system)
        sups, gaps = [], []
        for sign_seed in inputs["sign_seeds"]:
            sup = rademacher.sample_sup(proc, sign_seed)
            # the polynomial sample_sup maximized, rebuilt from the same stream
            p = proc.signed_polynomial(proc.draw_signs(stream(sign_seed, "sup-signs")))
            upper = norms.flattening_upper_bound(p)
            checks.check(0.0 < sup <= upper, f"sup {sup} outside (0, {upper}]")
            sups.append(sup)
            gaps.append((upper, sup))

        deviations = np.asarray(sups) - np.mean(sups)
        psi2 = rademacher.psi2_norm_mc(
            lambda rng, size: deviations[:size], len(sups), inputs["check_seed"]
        )
        rms = float(np.sqrt((deviations**2).mean()))
        sup_ratio = psi2.value / rms if rms > 0 else math.nan
        lo, hi = PSI2_CORRIDOR
        checks.check(lo <= sup_ratio <= hi, f"sup psi2/L2 ratio {sup_ratio}")

        lip = rademacher.lipschitz_check(
            proc, self.lipschitz_pairs, inputs["check_seed"], mc_draws=self.mc_draws
        )
        for lhs, rhs, _ratio in lip.rows:
            checks.check(lhs <= rhs + 1e-12, f"Lipschitz violation {lhs} > {rhs}")
        checks.check(lip.violations == 0, f"{lip.violations} Lipschitz violations")
        for ratio in lip.psi2_l2_ratios:
            checks.check(lo <= ratio <= hi, f"increment psi2/L2 ratio {ratio}")

        records = [
            {"kind": "design", "n": system.n, "k": system.k, "blocks": system.cardinality},
            *({"kind": "sup", "value": s, "upper": u} for u, s in gaps),
            {"kind": "psi2_sup", "value": psi2.value, "ratio": sup_ratio},
            {
                "kind": "lipschitz",
                "pairs": lip.pairs,
                "max_ratio": lip.max_ratio,
                "violations": lip.violations,
                "psi2_l2_ratios": list(lip.psi2_l2_ratios),
            },
        ]
        mc_proc = rademacher.RademacherProcess(
            steiner.greedy_generate(self.n, self.k, self.k - 1, MC_CHECK_SEED)
        )
        for i in range(self.mc_checks):
            z = rademacher.ball_point(stream(MC_CHECK_SEED, "mc-check", i, 0), self.n)
            zp = rademacher.ball_point(stream(MC_CHECK_SEED, "mc-check", i, 1), self.n)
            closed = rademacher.l2_distance(mc_proc, z, zp)
            mc, se = rademacher.mc_increment_std(
                mc_proc, z, zp, self.mc_draws, MC_CHECK_SEED + i
            )
            zscore = abs(mc - closed) / se if se > 0 else 0.0
            checks.check(zscore <= MAX_ZSCORE, f"MC z-score {zscore}")
            records.append({"kind": "l2_mc", "zscore": zscore})

        report = ExperimentReport(
            command="rademacher.chaos",
            config={"n": self.n, "k": self.k, **inputs},
            input_hash="",
            records=records,
        )
        report.to_json()
        return PassResult(records, gaps, checks)


def make_workloads(tiny: bool = False) -> dict:
    """The named workloads at their stated size, or at a self-test size."""
    if tiny:
        d_specs = [SweepSpec("D", 3, "2", (7, 8), 1), SweepSpec("D", 4, "2", (6, 7), 1)]
        c_specs = [SweepSpec("C", 3, "inf", (7, 8), 2), SweepSpec("C", 3, "3/2", (7, 8), 2)]
        chaos = ChaosWorkload(n=9, draws=3, lipschitz_pairs=20, mc_checks=1, mc_draws=2000)
    else:
        d_specs = [
            SweepSpec("D", 3, "2", (7, 13, 19, 25), 1),
            SweepSpec("D", 4, "2", (6, 7), 1),
        ]
        c_specs = [
            SweepSpec("C", 3, "inf", tuple(range(7, 26, 2)), 2),
            SweepSpec("C", 3, "3/2", tuple(range(7, 26, 3)), 2),
        ]
        chaos = ChaosWorkload(
            n=25, draws=4, lipschitz_pairs=100, mc_checks=2, mc_draws=5000
        )
    warm = [SweepSpec("D", 3, "2", (7,), 1), SweepSpec("C", 3, "inf", (7,), 2)]
    return {
        "d_sweep": SweepWorkload("d_sweep", d_specs, warm[:1]),
        "c_sweep": SweepWorkload("c_sweep", c_specs, warm[1:]),
        "chaos": chaos,
    }

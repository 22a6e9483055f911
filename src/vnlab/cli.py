"""Command-line interface.

Subcommands: steiner gen | steiner validate | poly rand | norm |
dixon verify | rademacher check | bounds sweep | bench.  Global flags:
--seed (always explicit, default 0), --out, --format, --config.
A JSON config file supplies defaults; CLI flags override file values,
and a key that no option of the command reads is ignored.

Exit codes: 0 success, 1 invalid configuration, 2 validation or
certification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from . import bounds, dixon, norms, rademacher, steiner
from .polynomials import HomogeneousPolynomial, random_steiner_polynomial
from .report import ExperimentReport, content_hash
from .steiner import PartialSteinerSystem
from .util import Exponent

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "steiner.gen": {"seed": 0},
    "steiner.validate": {},
    "poly.rand": {"seed": 0},
    "norm": {
        "q": "2",
        "restarts": 32,
        "max_iter": 2000,
        "tol": 1e-10,
        "seed": 0,
        "flattening": True,
    },
    "dixon.verify": {"scale": None, "seed": 0},
    "rademacher.check": {
        "pairs": 200,
        "mc_pairs": 3,
        "mc_draws": 20000,
        "mc_checks": 3,
        "mc_check_draws": 100000,
        "seed": 0,
    },
    "bounds.sweep": {
        "kind": "D",
        "q": "2",
        "seeds": 5,
        "seed": 0,
        "norm_restarts": 16,
        "norm_max_iter": 800,
        "fit_column": None,
    },
    "bench": {"nvar": 25, "terms": 90, "batch": 32, "k": 3, "repeats": 5},
}


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_system(path: str) -> PartialSteinerSystem:
    return steiner.loads_system(_read_text(path))


def _require(cfg: dict, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"missing required option: {key}")


def _positive_int(cfg: dict, *keys):
    for key in keys:
        if cfg.get(key) is None:
            continue
        value = cfg[key]
        if not isinstance(value, int) or value < 1:
            raise ConfigError(f"option {key} must be a positive integer, got {value!r}")


def _handle_steiner_gen(cfg):
    _require(cfg, "n", "k", "t")
    _positive_int(cfg, "n", "k", "t")
    system = steiner.greedy_generate(cfg["n"], cfg["k"], cfg["t"], cfg["seed"])
    result = steiner.validate(system)
    record = {
        "n": system.n,
        "k": system.k,
        "t": system.t,
        "cardinality": system.cardinality,
        "ceiling": str(steiner.max_cardinality(system.n, system.k, system.t)),
        "valid": result.valid,
    }
    rep = ExperimentReport(
        command="steiner.gen",
        config=cfg,
        input_hash=content_hash(cfg),
        records=[record],
    )
    return rep, steiner.dumps_system(system), False


def _handle_steiner_validate(cfg):
    _require(cfg, "path")
    text = _read_text(cfg["path"])
    records = []
    failed = False
    try:
        system = steiner.loads_system(text)
    except ValueError as exc:
        records.append({"kind": "summary", "valid": False, "error": str(exc)})
        failed = True
        system = None
    if system is not None:
        result = steiner.validate(system)
        records.append(
            {
                "kind": "summary",
                "valid": result.valid,
                "n": system.n,
                "k": system.k,
                "t": system.t,
                "cardinality": system.cardinality,
                "violations": len(result.violations),
                "structural_errors": len(result.structural_errors),
            }
        )
        for sub, ba, bb in result.violations:
            records.append(
                {
                    "kind": "violation",
                    "t_subset": " ".join(map(str, sub)),
                    "block_a": " ".join(map(str, ba)),
                    "block_b": " ".join(map(str, bb)),
                }
            )
        for err in result.structural_errors:
            records.append({"kind": "structural", "error": err})
        failed = not result.valid
    rep = ExperimentReport(
        command="steiner.validate",
        config=cfg,
        input_hash=content_hash(cfg, text),
        records=records,
    )
    return rep, None, failed


def _handle_poly_rand(cfg):
    _require(cfg, "system")
    text = _read_text(cfg["system"])
    system = steiner.loads_system(text)
    p = random_steiner_polynomial(system, cfg["seed"])
    record = {"n": p.n, "k": p.k, "terms": p.term_count}
    rep = ExperimentReport(
        command="poly.rand",
        config=cfg,
        input_hash=content_hash(cfg, text),
        records=[record],
    )
    return rep, p.to_json() + "\n", False


def _handle_norm(cfg):
    _require(cfg, "poly")
    text = _read_text(cfg["poly"])
    p = HomogeneousPolynomial.from_json(text)
    q = Exponent.parse(cfg["q"])
    upper = None
    if cfg["flattening"] and not q.is_inf and q.fraction == 2:
        upper = norms.flattening_upper_bound(p)
    est = norms.estimate_norm(
        p,
        q,
        restarts=cfg["restarts"],
        max_iter=cfg["max_iter"],
        tol=cfg["tol"],
        seed=cfg["seed"],
        upper_bound=upper,
        upper_label="flattening",
    )
    rep = ExperimentReport(
        command="norm",
        config=cfg,
        input_hash=content_hash(cfg, text),
        records=[est.to_record()],
        summary={"witness": est.witness_json()},
    )
    return rep, None, False


def _handle_dixon_verify(cfg):
    _require(cfg, "poly")
    text = _read_text(cfg["poly"])
    p = HomogeneousPolynomial.from_json(text)
    system = PartialSteinerSystem(p.n, p.k, p.k - 1, tuple(p.coeffs.keys()))
    try:
        tup = dixon.build_tuple(system, p)
    except ValueError as exc:
        rep = ExperimentReport(
            command="dixon.verify",
            config=cfg,
            input_hash=content_hash(cfg, text),
            records=[{"built": False, "certified": False, "error": str(exc)}],
        )
        return rep, None, True
    data = dixon.verify_report(tup, scale=cfg["scale"], seed=cfg["seed"])
    record = {
        "built": True,
        "dimension": data["dimension"],
        "cardinality": data["cardinality"],
        "max_commutator": data["max_commutator"],
        "opnorm_max_dev": data["opnorm_max_dev"],
        "pTe_re": data["pTe_coefficient"]["re"],
        "pTe_im": data["pTe_coefficient"]["im"],
        "pTe_residual": data["pTe_residual"],
        "row_scale": data["row_scale"],
        "row_condition_value": data["row_condition_value"],
        "block_row_norm": data["block_row_norm"],
        "certified": data["certified"],
    }
    rep = ExperimentReport(
        command="dixon.verify",
        config=cfg,
        input_hash=content_hash(cfg, text),
        records=[record],
        summary={"op_norms": data["op_norms"]},
    )
    return rep, None, not data["certified"]


def _handle_rademacher_check(cfg):
    _require(cfg, "system")
    text = _read_text(cfg["system"])
    system = steiner.loads_system(text)
    try:
        proc = rademacher.RademacherProcess(system)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records = []
    lip = rademacher.lipschitz_check(
        proc,
        cfg["pairs"],
        cfg["seed"],
        mc_pairs=cfg["mc_pairs"],
        mc_draws=cfg["mc_draws"],
    )
    for lhs, rhs, ratio in lip.rows:
        records.append(
            {
                "kind": "lipschitz",
                "lhs": lhs,
                "rhs": rhs,
                "ratio": ratio,
                "ok": lhs <= rhs + 1e-12,
            }
        )
    for ratio in lip.psi2_l2_ratios:
        records.append(
            {
                "kind": "psi2_l2_ratio",
                "lhs": ratio,
                "rhs": 4.0,
                "ratio": ratio,
                "ok": 0.4 <= ratio <= 4.0,
            }
        )
    rng_pairs = range(cfg["mc_checks"])
    for i in rng_pairs:
        from .util import stream

        z = rademacher.ball_point(stream(cfg["seed"], "mc-check", i, 0), proc.n)
        zp = rademacher.ball_point(stream(cfg["seed"], "mc-check", i, 1), proc.n)
        closed = rademacher.l2_distance(proc, z, zp)
        mc, se = rademacher.mc_increment_std(
            proc, z, zp, cfg["mc_check_draws"], cfg["seed"] + i
        )
        zscore = abs(mc - closed) / se if se > 0 else 0.0
        records.append(
            {
                "kind": "l2_mc",
                "lhs": closed,
                "rhs": mc,
                "ratio": zscore,
                "ok": zscore <= 3.0,
            }
        )
    failed = any(not r["ok"] for r in records)
    rep = ExperimentReport(
        command="rademacher.check",
        config=cfg,
        input_hash=content_hash(cfg, text),
        records=records,
        summary={"max_lipschitz_ratio": lip.max_ratio, "violations": lip.violations},
    )
    return rep, None, failed


def _handle_bounds_sweep(cfg):
    if cfg.get("n_list"):
        n_values = [int(x) for x in str(cfg["n_list"]).replace(",", " ").split()]
    else:
        _require(cfg, "n_min", "n_max")
        step = cfg.get("n_step") or 1
        n_values = list(range(cfg["n_min"], cfg["n_max"] + 1, step))
    _require(cfg, "k")
    try:
        result = bounds.scaling_sweep(
            str(cfg["kind"]),
            cfg["k"],
            cfg["q"],
            n_values,
            cfg["seeds"],
            seed=cfg["seed"],
            fit_column=cfg["fit_column"],
            norm_restarts=cfg["norm_restarts"],
            norm_max_iter=cfg["norm_max_iter"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rep = ExperimentReport(
        command="bounds.sweep",
        config=cfg,
        input_hash=content_hash(cfg),
        records=result.to_records(),
        summary=result.summary(),
        warnings=list(result.warnings),
    )
    return rep, None, False


def _handle_bench(cfg):
    records = bench_mod.run_bench(
        nvar=cfg["nvar"],
        terms=cfg["terms"],
        batch=cfg["batch"],
        k=cfg["k"],
        repeats=cfg["repeats"],
    )
    rep = ExperimentReport(
        command="bench",
        config=cfg,
        input_hash=content_hash(cfg),
        records=records,
    )
    return rep, None, False


_HANDLERS = {
    "steiner.gen": _handle_steiner_gen,
    "steiner.validate": _handle_steiner_validate,
    "poly.rand": _handle_poly_rand,
    "norm": _handle_norm,
    "dixon.verify": _handle_dixon_verify,
    "rademacher.check": _handle_rademacher_check,
    "bounds.sweep": _handle_bounds_sweep,
    "bench": _handle_bench,
}


def execute(config: dict):
    """Run one command from a resolved configuration dict.

    Returns (report, artifact_text_or_None, certification_failed).
    """
    command = config.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command: {command!r}")
    merged = dict(_DEFAULTS.get(command, {}))
    merged.update({k: v for k, v in config.items() if v is not None})
    t0 = time.perf_counter()
    rep, artifact, failed = _HANDLERS[command](merged)
    rep.timing_seconds = time.perf_counter() - t0
    return rep, artifact, failed


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=str)
    common.add_argument("--format", choices=["json", "csv"], dest="fmt")
    common.add_argument("--config", type=str)

    parser = argparse.ArgumentParser(prog="vnlab", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    grp = top.add_parser("steiner", help="block family generation and validation")
    sub = grp.add_subparsers(dest="action", required=True)
    gen = sub.add_parser("gen", parents=[common])
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--t", type=int)
    val = sub.add_parser("validate", parents=[common])
    val.add_argument("path", nargs="?")

    grp = top.add_parser("poly", help="polynomial construction")
    sub = grp.add_subparsers(dest="action", required=True)
    rnd = sub.add_parser("rand", parents=[common])
    rnd.add_argument("--system", type=str)

    nrm = top.add_parser("norm", parents=[common], help="sup-norm bracket")
    nrm.add_argument("--poly", type=str)
    nrm.add_argument("--q", type=str)
    nrm.add_argument("--restarts", type=int)
    nrm.add_argument("--max-iter", type=int, dest="max_iter")
    nrm.add_argument("--tol", type=float)
    nrm.add_argument("--no-flattening", action="store_false", dest="flattening", default=None)

    grp = top.add_parser("dixon", help="operator tuple certification")
    sub = grp.add_subparsers(dest="action", required=True)
    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("--poly", type=str)
    ver.add_argument("--scale", type=float)

    grp = top.add_parser("rademacher", help="sign-process checks")
    sub = grp.add_subparsers(dest="action", required=True)
    chk = sub.add_parser("check", parents=[common])
    chk.add_argument("--system", type=str)
    chk.add_argument("--pairs", type=int)
    chk.add_argument("--mc-pairs", type=int, dest="mc_pairs")
    chk.add_argument("--mc-draws", type=int, dest="mc_draws")
    chk.add_argument("--mc-checks", type=int, dest="mc_checks")
    chk.add_argument("--mc-check-draws", type=int, dest="mc_check_draws")

    grp = top.add_parser("bounds", help="lower-bound pipelines")
    sub = grp.add_subparsers(dest="action", required=True)
    swp = sub.add_parser("sweep", parents=[common])
    swp.add_argument("--kind", choices=["C", "D", "c", "d"])
    swp.add_argument("--k", type=int)
    swp.add_argument("--q", type=str)
    swp.add_argument("--n-min", type=int, dest="n_min")
    swp.add_argument("--n-max", type=int, dest="n_max")
    swp.add_argument("--n-step", type=int, dest="n_step")
    swp.add_argument("--n-list", type=str, dest="n_list")
    swp.add_argument("--seeds", type=int)
    swp.add_argument("--norm-restarts", type=int, dest="norm_restarts")
    swp.add_argument("--norm-max-iter", type=int, dest="norm_max_iter")
    swp.add_argument("--fit-column", type=str, dest="fit_column")

    ben = top.add_parser("bench", parents=[common], help="kernel timings")
    ben.add_argument("--nvar", type=int)
    ben.add_argument("--terms", type=int)
    ben.add_argument("--batch", type=int)
    ben.add_argument("--k", type=int)
    ben.add_argument("--repeats", type=int)

    return parser


def _command_name(args) -> str:
    group = args.group
    action = getattr(args, "action", None)
    return f"{group}.{action}" if action else group


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    config = {}
    if args.config:
        try:
            loaded = json.loads(_read_text(args.config))
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: malformed config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(loaded, dict) or loaded.get("version") != 1:
            print("error: config file must be a JSON object with version 1", file=sys.stderr)
            return EXIT_CONFIG
        config.update({k: v for k, v in loaded.items() if k != "version"})

    skip = {"group", "action", "config", "out", "fmt"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        config[key] = value
    config["command"] = _command_name(args)
    if config.get("kind"):
        config["kind"] = str(config["kind"]).upper()
    config.setdefault("seed", 0)

    try:
        rep, artifact, failed = execute(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fmt = args.fmt or "json"
    if artifact is not None:
        payload = artifact
    elif fmt == "csv":
        payload = rep.to_csv()
    else:
        payload = rep.to_json()

    if args.out:
        try:
            Path(args.out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)

    return EXIT_CERTIFICATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

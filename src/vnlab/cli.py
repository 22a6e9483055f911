"""Command-line interface.

Subcommands: steiner gen | steiner validate | poly rand | norm |
dixon verify | rademacher check | bounds sweep.  Global flags:
--seed (always explicit, default 0), --out, --format, --config.
A JSON config file supplies values keyed by option name in underscore
form (--max-iter is max_iter), and CLI flags override file values.  A key
that is not an option of the command, or a value that is not an integer
for an integer option, exits 1.  The retired key threads is ignored: a
sweep runs one worker process per CPU in its affinity set.  A sweep's grid
is --n-list, or --n-min to --n-max in unit steps, and it fits the column
that its kind implies (scaling_sweep).  A report's input_hash covers the
config without its file paths and the texts of the files the command read,
so the same input at two paths hashes the same.

Exit codes: 0 success, 1 invalid configuration, 2 validation or
certification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from . import bounds, dixon, norms, rademacher, steiner
from .polynomials import HomogeneousPolynomial, random_steiner_polynomial
from .report import ExperimentReport, content_hash
from .util import stream

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3

# config key of a removed option, accepted and ignored: the sweep configs of
# perfbench/workloads.py still send it, and a sweep takes its worker count
# from the CPU affinity set (taskset -c 0 runs it in one process)
_RETIRED_KEYS = frozenset({"threads"})

# options that name an input file; the file's text is hashed instead of its path
_PATH_KEYS = frozenset({"path", "system", "poly"})


class ConfigError(ValueError):
    pass


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _require(cfg: dict, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"missing required option: {key}")


def _report(cfg, records, *inputs, **extra) -> ExperimentReport:
    """The command's report; its input hash covers cfg less its paths, and the input texts."""
    hashed = {k: v for k, v in cfg.items() if k not in _PATH_KEYS}
    return ExperimentReport(
        command=cfg["command"],
        config=cfg,
        input_hash=content_hash(hashed, *inputs),
        records=records,
        **extra,
    )


def _handle_steiner_gen(cfg):
    _require(cfg, "n", "k", "t")
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
    return _report(cfg, [record]), steiner.dumps_system(system), False


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
    return _report(cfg, records, text), None, failed


def _handle_poly_rand(cfg):
    _require(cfg, "system")
    text = _read_text(cfg["system"])
    system = steiner.loads_system(text)
    p = random_steiner_polynomial(system, cfg["seed"])
    record = {"n": p.n, "k": p.k, "terms": p.term_count}
    return _report(cfg, [record], text), p.to_json() + "\n", False


def _handle_norm(cfg):
    _require(cfg, "poly")
    text = _read_text(cfg["poly"])
    p = HomogeneousPolynomial.from_json(text)
    est = norms.estimate_norm(
        p, cfg["q"], restarts=cfg["restarts"], max_iter=cfg["max_iter"], seed=cfg["seed"]
    )
    upper, method_upper = norms.certified_upper(p, est.q)
    # the bracket: the ascent's estimate below, the certified closed form above
    record = {
        "q": str(est.q),
        "lower": est.lower,
        "upper": upper,
        "method_lower": "ascent",
        "method_upper": method_upper,
        "restarts": est.restarts,
        "iterations": est.iterations,
        "converged_restarts": est.converged_restarts,
    }
    witness = [{"re": z.real, "im": z.imag} for z in est.witness]
    return _report(cfg, [record], text, summary={"witness": witness}), None, False


def _handle_dixon_verify(cfg):
    _require(cfg, "poly")
    text = _read_text(cfg["poly"])
    p = HomogeneousPolynomial.from_json(text)
    try:
        tup = dixon.build_tuple(p)
    except ValueError as exc:
        record = {"built": False, "certified": False, "error": str(exc)}
        return _report(cfg, [record], text), None, True
    record = dixon.verify_report(tup)
    summary = {"op_norms": record.pop("op_norms"), "layer_weights": record.pop("layer_weights")}
    return _report(cfg, [record], text, summary=summary), None, not record["certified"]


def _check(kind, lhs, rhs, ratio, ok) -> dict:
    return {"kind": kind, "lhs": lhs, "rhs": rhs, "ratio": ratio, "ok": ok}


def _handle_rademacher_check(cfg):
    _require(cfg, "system")
    if cfg["mc_checks"] < 0:
        raise ConfigError(f"option mc_checks must be >= 0, got {cfg['mc_checks']!r}")
    text = _read_text(cfg["system"])
    system = steiner.loads_system(text)
    proc = rademacher.RademacherProcess(system)
    lip = rademacher.lipschitz_check(proc, cfg["pairs"], cfg["seed"], mc_draws=cfg["mc_draws"])
    records = [
        _check("lipschitz", lhs, rhs, ratio, lhs <= rhs + rademacher.LIPSCHITZ_TOL)
        for lhs, rhs, ratio in lip.rows
    ]
    lo, hi = rademacher.PSI2_CORRIDOR
    records += [
        _check("psi2_l2_ratio", ratio, hi, ratio, lo <= ratio <= hi)
        for ratio in lip.psi2_l2_ratios
    ]
    for i in range(cfg["mc_checks"]):
        z = rademacher.ball_point(stream(cfg["seed"], "mc-check", i, 0), proc.n)
        zp = rademacher.ball_point(stream(cfg["seed"], "mc-check", i, 1), proc.n)
        closed = rademacher.l2_distance(proc, z, zp)
        mc, se = rademacher.mc_increment_std(
            proc, z, zp, cfg["mc_check_draws"], cfg["seed"] + i
        )
        zscore = abs(mc - closed) / se if se > 0 else 0.0
        records.append(_check("l2_mc", closed, mc, zscore, zscore <= rademacher.MAX_ZSCORE))
    failed = any(not r["ok"] for r in records)
    summary = {
        "max_lipschitz_ratio": lip.max_ratio,
        "violations": lip.violations,
        "psi2_unstable": lip.psi2_unstable,
    }
    return _report(cfg, records, text, summary=summary), None, failed


def _handle_bounds_sweep(cfg):
    n_list = cfg.get("n_list")
    if n_list is not None and not isinstance(n_list, str):
        raise ConfigError(f"option n_list must be a string such as '7,9', got {n_list!r}")
    if n_list:
        n_values = [int(x) for x in n_list.replace(",", " ").split()]
    else:
        _require(cfg, "n_min", "n_max")
        n_values = list(range(cfg["n_min"], cfg["n_max"] + 1))
    _require(cfg, "k")
    result = bounds.scaling_sweep(
        str(cfg["kind"]),
        cfg["k"],
        cfg["q"],
        n_values,
        cfg["seeds"],
        seed=cfg["seed"],
        norm_restarts=cfg["norm_restarts"],
        norm_max_iter=cfg["norm_max_iter"],
    )
    rep = _report(
        cfg, result.to_records(), summary=result.summary(), warnings=list(result.warnings)
    )
    return rep, None, False


def _signature_defaults(fn, *names) -> dict:
    """The defaults fn declares for the named parameters."""
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


# Option specs besides an argparse type: a tuple of choices and this one.
_POSITIONAL = object()  # an optional positional argument

# Each command's options and defaults, declared once: the parser and the
# accepted config keys are built from this table, and a default that the
# called library function declares is read from its signature.
# command -> (handler, {option: spec}, defaults); an option without a default
# is unset unless given, and its handler requires or skips it.
_COMMANDS = {
    "steiner.gen": (_handle_steiner_gen, {"n": int, "k": int, "t": int}, {"seed": 0}),
    "steiner.validate": (_handle_steiner_validate, {"path": _POSITIONAL}, {}),
    "poly.rand": (_handle_poly_rand, {"system": str}, {"seed": 0}),
    "norm": (
        _handle_norm,
        {"poly": str, "q": str, "restarts": int, "max_iter": int},
        {"q": "2", **_signature_defaults(norms.estimate_norm, "restarts", "max_iter", "seed")},
    ),
    "dixon.verify": (_handle_dixon_verify, {"poly": str}, {"seed": 0}),
    "rademacher.check": (
        _handle_rademacher_check,
        {
            "system": str,
            "pairs": int,
            "mc_draws": int,
            "mc_checks": int,
            "mc_check_draws": int,
        },
        {
            "pairs": 200,
            **_signature_defaults(rademacher.lipschitz_check, "mc_draws"),
            "mc_checks": 3,
            "mc_check_draws": 100000,
            "seed": 0,
        },
    ),
    "bounds.sweep": (
        _handle_bounds_sweep,
        {
            "kind": ("C", "D", "c", "d"),
            "k": int,
            "q": str,
            "n_min": int,
            "n_max": int,
            "n_list": str,
            "seeds": int,
            "norm_restarts": int,
            "norm_max_iter": int,
        },
        {
            "kind": "D",
            "q": "2",
            "seeds": 5,
            **_signature_defaults(bounds.scaling_sweep, "seed", "norm_restarts", "norm_max_iter"),
        },
    ),
}

_GROUP_HELP = {
    "steiner": "block family generation and validation",
    "poly": "polynomial construction",
    "norm": "sup-norm bracket",
    "dixon": "operator tuple certification",
    "rademacher": "sign-process checks",
    "bounds": "lower-bound pipelines",
}


def execute(config: dict):
    """Run one command from a resolved configuration dict.

    Returns (report, artifact_text_or_None, certification_failed).
    """
    command = config.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command: {command!r}")
    handler, options, defaults = _COMMANDS[command]
    unknown = sorted(set(config) - set(options) - {"command", "seed"} - _RETIRED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    merged = dict(defaults)
    merged.update({k: v for k, v in config.items() if v is not None})
    for key in ("seed", *(name for name, spec in options.items() if spec is int)):
        value = merged.get(key)
        # bool is an int subclass, but a config file's true is not a count
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"option {key} must be an integer, got {value!r}")
    t0 = time.perf_counter()
    rep, artifact, failed = handler(merged)
    rep.timing_seconds = time.perf_counter() - t0
    return rep, artifact, failed


def _add_option(parser, name: str, spec):
    if spec is _POSITIONAL:
        parser.add_argument(name, nargs="?")
    elif isinstance(spec, tuple):
        parser.add_argument("--" + name.replace("_", "-"), choices=spec)
    else:
        parser.add_argument("--" + name.replace("_", "-"), type=spec)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=str)
    common.add_argument("--format", choices=["json", "csv"], dest="fmt")
    common.add_argument("--config", type=str)

    parser = argparse.ArgumentParser(prog="vnlab", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for command, (_handler, options, _defaults) in _COMMANDS.items():
        group, _, action = command.partition(".")
        if not action:
            sub = top.add_parser(group, parents=[common], help=_GROUP_HELP[group])
        else:
            if group not in actions:
                grp = top.add_parser(group, help=_GROUP_HELP[group])
                actions[group] = grp.add_subparsers(dest="action", required=True)
            sub = actions[group].add_parser(action, parents=[common])
        for name, spec in options.items():
            _add_option(sub, name, spec)
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

"""Report serialization guarantees and end-to-end command-line behavior."""

import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import rademacher
from vnlab.bounds import scaling_sweep
from vnlab.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    _build_parser,
    execute,
    main,
)
from vnlab.norms import certified_upper, estimate_norm
from vnlab.polynomials import HomogeneousPolynomial
from vnlab.report import (
    ExperimentReport,
    canonical_json,
    content_hash,
    fmt_real,
    records_csv,
)
from vnlab.steiner import loads_system


# -------------------------------------------------------------- report layer


def test_fmt_real_roundtrips_doubles():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, -2.5e17, 3 ** -1.5):
        assert float(fmt_real(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_real_roundtrip_property(x):
    assert float(fmt_real(x)) == x


def test_canonical_json_is_key_order_invariant():
    a = canonical_json({"b": 1.5, "a": [1, 2.25]})
    b = canonical_json({"a": [1, 2.25], "b": 1.5})
    assert a == b
    assert '"a":[1,2.25]' in a


def test_canonical_json_handles_complex_and_bool():
    text = canonical_json({"z": 1 + 2j, "ok": True, "none": None})
    data = json.loads(text)
    assert data["z"] == {"re": 1.0, "im": 2.0}
    assert data["ok"] is True
    assert data["none"] is None


def test_content_hash_sensitivity():
    assert content_hash({"a": 1}) == content_hash({"a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})
    assert content_hash("x", "y") != content_hash("xy")  # separator matters
    assert content_hash(b"q") == content_hash("q")


def test_records_csv_rfc4180_quoting():
    rows = [
        {"name": 'say "hi", twice', "x": 1.5, "flag": True, "gap": None},
        {"name": "line\nbreak", "x": 2.0, "flag": False, "gap": None},
    ]
    text = records_csv(rows)
    lines = text.split("\r\n")
    assert lines[0] == "name,x,flag,gap"
    assert lines[1] == '"say ""hi"", twice",1.5,true,'
    assert lines[2] == '"line\nbreak",2,false,'
    assert records_csv([]) == ""


def test_report_json_structure_and_records_bytes():
    rep = ExperimentReport(
        command="demo",
        config={"seed": 1},
        input_hash=content_hash({"seed": 1}),
        records=[{"v": 0.1}],
        summary={"n": 1},
    )
    body = json.loads(rep.to_json())
    assert body["version"] == 1
    assert body["command"] == "demo"
    assert body["records"] == [{"v": 0.1}]
    twin = ExperimentReport(
        command="demo2",
        config={"seed": 2},
        input_hash="other",
        records=[{"v": 0.1}],
    )
    assert rep.records_json() == twin.records_json()


# ------------------------------------------------------------------ CLI layer


def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_validate_chain(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    rc = run_cli(
        "steiner", "gen", "--n", "9", "--k", "3", "--t", "2",
        "--seed", "5", "--out", str(sys_path),
    )
    assert rc == EXIT_OK
    system = loads_system(sys_path.read_text())
    assert system.n == 9 and system.k == 3

    rc = run_cli("steiner", "validate", str(sys_path))
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["records"][0]["valid"] is True


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 3 2\n1 2 3\n1 2 4\n")
    rc = run_cli("steiner", "validate", str(bad))
    assert rc == EXIT_CERTIFICATION
    body = json.loads(capsys.readouterr().out)
    kinds = [r["kind"] for r in body["records"]]
    assert kinds[0] == "summary" and "violation" in kinds


def test_cli_poly_norm_chain(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    assert run_cli(
        "steiner", "gen", "--n", "7", "--k", "3", "--t", "2",
        "--out", str(sys_path),
    ) == EXIT_OK
    assert run_cli(
        "poly", "rand", "--system", str(sys_path), "--seed", "3",
        "--out", str(poly_path),
    ) == EXIT_OK
    p = HomogeneousPolynomial.from_json(poly_path.read_text())
    assert p.n == 7 and p.k == 3

    rc = run_cli("norm", "--poly", str(poly_path), "--q", "inf", "--restarts", "6")
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    rec = body["records"][0]
    assert rec["q"] == "inf"
    assert rec["lower"] <= rec["upper"] + 1e-9
    assert body["command"] == "norm"


def test_cli_norm_q2_reports_flattening(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    run_cli("steiner", "gen", "--n", "8", "--k", "3", "--t", "2", "--out", str(sys_path))
    run_cli("poly", "rand", "--system", str(sys_path), "--out", str(poly_path))
    rc = run_cli("norm", "--poly", str(poly_path), "--q", "2", "--restarts", "4")
    assert rc == EXIT_OK
    record = json.loads(capsys.readouterr().out)["records"][0]
    p = HomogeneousPolynomial.from_json(poly_path.read_text())
    assert (record["upper"], record["method_upper"]) == certified_upper(p, 2)
    assert record["method_upper"] == "flattening"


def test_cli_dixon_verify_pass_and_fail(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    run_cli("poly", "rand", "--system", str(sys_path), "--out", str(poly_path))
    rc = run_cli("dixon", "verify", "--poly", str(poly_path))
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    rec = body["records"][0]
    assert rec["certified"] is True
    assert rec["max_commutator"] == 0.0
    weights = body["summary"]["layer_weights"]
    assert len(weights) == 3
    assert rec["weight_product"] == math.prod(weights)

    # two blocks sharing a pair cannot be certified: exit code 2
    bad = HomogeneousPolynomial(
        n=6, k=4, coeffs={(1, 2, 3, 4): 1.0, (1, 2, 5, 6): 1.0}
    )
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(bad.to_json())
    rc = run_cli("dixon", "verify", "--poly", str(bad_path))
    assert rc == EXIT_CERTIFICATION
    body = json.loads(capsys.readouterr().out)
    assert body["records"][0]["certified"] is False


@pytest.mark.parametrize(
    "n,k,terms",
    [(3, 1, {(1,): 1.0, (2,): -1.0}), (2, 3, {(1, 1, 2): 1.0})],
    ids=["k1", "n_below_k"],
)
def test_cli_dixon_verify_outside_the_construction_fails_certification(
    n, k, terms, tmp_path, capsys
):
    # a polynomial the construction does not cover (it needs n >= k >= 3) is
    # a built: false record and exit 2, not a bad configuration
    path = tmp_path / "p.json"
    path.write_text(HomogeneousPolynomial(n=n, k=k, coeffs=terms).to_json())
    assert run_cli("dixon", "verify", "--poly", str(path)) == EXIT_CERTIFICATION
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["built"] is False and rec["certified"] is False
    assert "n >= k >= 3" in rec["error"]


def test_cli_rademacher_check_csv(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    rc = run_cli(
        "rademacher", "check", "--system", str(sys_path),
        "--pairs", "50", "--mc-pairs", "2", "--mc-draws", "4000",
        "--format", "csv",
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    header = out.split("\r\n")[0].split(",")
    for col in ("kind", "lhs", "rhs", "ratio", "ok"):
        assert col in header


def test_cli_rademacher_check_mc_check_flags(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    capsys.readouterr()
    rc = run_cli(
        "rademacher", "check", "--system", str(sys_path),
        "--pairs", "5", "--mc-pairs", "1", "--mc-draws", "500",
        "--mc-checks", "2", "--mc-check-draws", "700",
    )
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["config"]["mc_checks"] == 2
    assert body["config"]["mc_check_draws"] == 700
    assert sum(r["kind"] == "l2_mc" for r in body["records"]) == 2


def test_cli_rademacher_check_counts_unstable_psi2_estimates(tmp_path, capsys, monkeypatch):
    # every estimate flagged unstable, at its true value: the count sits in
    # the summary, not in the records, and it fails no check
    psi2_norm_mc = rademacher.psi2_norm_mc
    monkeypatch.setattr(
        rademacher, "psi2_norm_mc", lambda *args: replace(psi2_norm_mc(*args), unstable=True)
    )
    sys_path = tmp_path / "sys.txt"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    capsys.readouterr()
    rc = run_cli(
        "rademacher", "check", "--system", str(sys_path),
        "--pairs", "5", "--mc-pairs", "2", "--mc-checks", "0",
    )
    body = json.loads(capsys.readouterr().out)
    assert body["summary"]["psi2_unstable"] == 2
    assert all("psi2_unstable" not in r for r in body["records"])
    assert sum(r["kind"] == "psi2_l2_ratio" for r in body["records"]) == 2
    assert not any(r["kind"] == "l2_mc" for r in body["records"])
    assert rc == EXIT_OK


def test_cli_rademacher_check_on_a_design_without_blocks(tmp_path, capsys):
    # a t = k - 1 design with no blocks: the process is identically zero,
    # every Lipschitz pair is skipped and each MC check reads z-score 0
    sys_path = tmp_path / "empty.txt"
    sys_path.write_text("6 3 2\n")
    rc = run_cli(
        "rademacher", "check", "--system", str(sys_path),
        "--pairs", "20", "--mc-checks", "2", "--mc-check-draws", "500",
    )
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert not any(r["kind"] == "lipschitz" for r in body["records"])
    assert body["summary"]["violations"] == 0
    mc_rows = [r for r in body["records"] if r["kind"] == "l2_mc"]
    assert len(mc_rows) == 2
    assert all(r["ratio"] == 0.0 and r["ok"] for r in mc_rows)


def test_cli_bounds_sweep_json(capsys):
    rc = run_cli(
        "bounds", "sweep", "--kind", "C", "--q", "inf", "--k", "3",
        "--n-list", "7,9", "--seeds", "2", "--norm-restarts", "6",
    )
    assert rc == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert len(body["records"]) == 4
    assert body["summary"]["fit_column"] == "bound_estimate"
    assert math.isfinite(body["summary"]["slope"])


def readme_commands():
    """Every `vnlab ...` line of the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```")[0].replace("\\\n", " ")
        for line in body.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["vnlab"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    groups = {argv[0] for argv in commands}
    assert groups == {"steiner", "poly", "norm", "dixon", "rademacher", "bounds"}
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command rejected: vnlab {shlex.join(argv)}")


def test_cli_reproducible_records(tmp_path):
    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    run_cli("poly", "rand", "--system", str(sys_path), "--out", str(poly_path))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = run_cli(
            "norm", "--poly", str(poly_path), "--q", "2",
            "--restarts", "4", "--seed", "9", "--out", str(out),
        )
        assert rc == EXIT_OK
        outs.append(json.loads(out.read_text()))
    assert canonical_json(outs[0]["records"]) == canonical_json(outs[1]["records"])
    assert outs[0]["input_hash"] == outs[1]["input_hash"]


def test_input_hash_covers_file_content_not_path(tmp_path):
    _, text, _ = execute({"command": "steiner.gen", "n": 13, "k": 3, "t": 2, "seed": 1})
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "design.txt")
        paths[-1].write_text(text)
    # one byte changed: a space becomes a tab, which reads as the same design
    edited = tmp_path / "edited.txt"
    edited.write_text(text.replace(" ", "\t", 1))
    commands = [
        ("steiner.validate", "path", {}),
        ("poly.rand", "system", {"seed": 1}),
        (
            "rademacher.check",
            "system",
            {"pairs": 5, "mc_pairs": 1, "mc_draws": 200, "mc_checks": 1, "mc_check_draws": 200},
        ),
    ]
    for command, key, options in commands:
        reps = [execute({"command": command, key: str(p), **options})[0] for p in (*paths, edited)]
        assert reps[0].records == reps[1].records == reps[2].records, command
        assert reps[0].input_hash == reps[1].input_hash, command
        assert reps[2].input_hash != reps[0].input_hash, command


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "n": 8, "k": 3, "t": 2, "seed": 1}))
    rc = run_cli("steiner", "gen", "--config", str(cfg))
    assert rc == EXIT_OK
    from_file = capsys.readouterr().out
    rc = run_cli("steiner", "gen", "--config", str(cfg), "--seed", "2")
    assert rc == EXIT_OK
    overridden = capsys.readouterr().out
    assert from_file != overridden  # flag beats file
    rc = run_cli("steiner", "gen", "--config", str(cfg), "--seed", "1")
    assert capsys.readouterr().out == from_file  # explicit same seed agrees


def test_cli_config_requires_version(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "k": 3, "t": 2}))
    assert run_cli("steiner", "gen", "--config", str(cfg)) == EXIT_CONFIG


def test_cli_exit_codes(tmp_path, capsys):
    # missing required option
    assert run_cli("steiner", "gen", "--k", "3", "--t", "2") == EXIT_CONFIG
    # unknown flag value type
    assert run_cli("steiner", "gen", "--n", "0", "--k", "3", "--t", "2") == EXIT_CONFIG
    # unreadable input
    assert run_cli("steiner", "validate", str(tmp_path / "nope.txt")) == EXIT_IO
    # unwritable output location
    sys_path = tmp_path / "sys.txt"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    rc = run_cli(
        "steiner", "validate", str(sys_path),
        "--out", str(tmp_path / "missing-dir" / "x.json"),
    )
    assert rc == EXIT_IO
    # bad exponent string
    poly_path = tmp_path / "p.json"
    run_cli("poly", "rand", "--system", str(sys_path), "--out", str(poly_path))
    assert run_cli("norm", "--poly", str(poly_path), "--q", "zero") == EXIT_CONFIG
    # argparse-level failure (unknown subcommand)
    assert run_cli("frobnicate") == EXIT_CONFIG


SWEEP_ARGS = ("bounds", "sweep", "--kind", "C", "--q", "inf", "--k", "3", "--seeds", "1")


# counts that leave nothing to run, a negative Monte Carlo count, a Monte
# Carlo check without a standard error, or a finite exponent that overflows
# a float, exit 1 with an error that names the count or the exponent
@pytest.mark.parametrize("argv,name", [
    pytest.param(("norm", "--poly", "{poly}", "--restarts", "0"), "restarts", id="restarts-0"),
    pytest.param(("norm", "--poly", "{poly}", "--max-iter", "0"), "max_iter", id="max-iter-0"),
    pytest.param(
        (*SWEEP_ARGS, "--n-list", "7", "--norm-max-iter", "0"), "norm_max_iter",
        id="norm-max-iter-0",
    ),
    pytest.param(
        (*SWEEP_ARGS, "--n-list", "7", "--norm-restarts", "0"), "norm_restarts",
        id="norm-restarts-0",
    ),
    pytest.param((*SWEEP_ARGS, "--n-min", "9", "--n-max", "7"), "n_values", id="n-min-above-n-max"),
    pytest.param(
        (*SWEEP_ARGS, "--n-min", "7", "--n-max", "9", "--n-step", "-1"), "n_step",
        id="n-step-negative",
    ),
    pytest.param(
        ("rademacher", "check", "--system", "{system}", "--pairs", "5", "--mc-draws", "500",
         "--mc-check-draws", "1"),
        "draws",
        id="mc-check-draws-1",
    ),
    pytest.param(
        ("rademacher", "check", "--system", "{system}", "--pairs", "5", "--mc-draws", "0"),
        "samples",
        id="mc-draws-0",
    ),
    pytest.param(
        ("rademacher", "check", "--system", "{system}", "--pairs", "0"), "pairs", id="pairs-0"
    ),
    pytest.param(
        ("rademacher", "check", "--system", "{system}", "--pairs", "5", "--mc-checks", "-2"),
        "mc_checks",
        id="mc-checks-negative",
    ),
    pytest.param(
        ("rademacher", "check", "--system", "{system}", "--pairs", "5", "--mc-pairs", "-1"),
        "mc_pairs",
        id="mc-pairs-negative",
    ),
    pytest.param(("norm", "--poly", "{poly}", "--q", "1e400"), "exponent", id="q-1e400"),
])
def test_cli_rejects_counts_that_do_nothing(argv, name, tmp_path, capsys):
    paths = {"system": tmp_path / "sys.txt", "poly": tmp_path / "p.json"}
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(paths["system"]))
    run_cli("poly", "rand", "--system", str(paths["system"]), "--out", str(paths["poly"]))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(*(arg.format(**paths) for arg in argv))
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert name in err
    assert out == ""


def test_execute_rejects_unknown_config_key(tmp_path, capsys):
    cfg = {
        "command": "bounds.sweep", "kind": "C", "q": "inf", "k": 3,
        "n_list": "7", "seeds": 1, "norm_restart": 4,
    }
    with pytest.raises(ConfigError, match="norm_restart"):
        execute(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": 1, **cfg}))
    assert run_cli("bounds", "sweep", "--config", str(path)) == EXIT_CONFIG
    assert "norm_restart" in capsys.readouterr().err


# the keys of deleted options are unknown keys like any other
@pytest.mark.parametrize("command,key", [
    pytest.param("bounds.sweep", "row_trials", id="row_trials"),
    pytest.param("bounds.sweep", "row_restarts", id="row_restarts"),
    pytest.param("bounds.sweep", "row_iters", id="row_iters"),
    pytest.param("dixon.verify", "scale", id="dixon.verify-scale"),
    pytest.param("norm", "flattening", id="norm-flattening"),
    pytest.param("norm", "tol", id="norm-tol"),
])
def test_execute_rejects_deleted_keys(command, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=key):
        execute({"command": command, key: 2})
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"version": 1, key: 2}))
    assert run_cli(*command.split("."), "--config", str(path)) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_execute_rejects_deleted_bench_command():
    with pytest.raises(ConfigError, match="bench"):
        execute({"command": "bench"})


def test_cli_rejects_deleted_bench_command(capsys):
    assert run_cli("bench") == EXIT_CONFIG
    assert "bench" in capsys.readouterr().err


SWEEP = {
    "command": "bounds.sweep", "kind": "C", "q": "inf", "k": 3,
    "n_list": "7", "seeds": 1, "norm_restarts": 2, "norm_max_iter": 20,
}


@pytest.mark.parametrize("config,key", [pytest.param(SWEEP, "threads", id="threads")])
def test_execute_accepts_retired_keys(config, key, tmp_path):
    rep, _, failed = execute({**config, key: 2})
    assert not failed
    assert len(rep.records) == 1
    assert rep.config[key] == 2


def test_cli_defaults_come_from_callee_signatures(tmp_path, capsys):
    sys_path = tmp_path / "sys.txt"
    poly_path = tmp_path / "p.json"
    run_cli("steiner", "gen", "--n", "7", "--k", "3", "--t", "2", "--out", str(sys_path))
    run_cli("poly", "rand", "--system", str(sys_path), "--out", str(poly_path))
    capsys.readouterr()

    def signature_default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert run_cli("norm", "--poly", str(poly_path), "--q", "inf") == EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    for name in ("restarts", "max_iter", "seed"):
        assert config[name] == signature_default(estimate_norm, name), name

    rc = run_cli(
        "bounds", "sweep", "--kind", "C", "--q", "inf", "--k", "3",
        "--n-list", "7", "--seeds", "1",
    )
    assert rc == EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    for name in ("norm_restarts", "norm_max_iter", "fit_column"):
        assert config[name] == signature_default(scaling_sweep, name), name


def test_runs_without_scipy(tmp_path):
    # NumPy is the only runtime dependency: with a None entry in sys.modules
    # every import of scipy raises, yet every module imports and one D cell,
    # one C cell at q = 3/2 and `vnlab norm` run
    import vnlab

    script = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import vnlab
for info in pkgutil.iter_modules(vnlab.__path__):
    importlib.import_module("vnlab." + info.name)
from vnlab import bounds, cli
d = bounds.lower_bound_D(3, 7, 1, norm_restarts=2, norm_max_iter=100)
c = bounds.lower_bound_C(3, "3/2", 7, 1, norm_restarts=2, norm_max_iter=100)
assert d.commutator_max == c.commutator_max == 0.0 and d.pte_value == d.cardinality > 0
out = sys.argv[1]
assert cli.main(["steiner", "gen", "--n", "7", "--k", "3", "--t", "2",
                 "--out", out + "/d.txt"]) == 0
assert cli.main(["poly", "rand", "--system", out + "/d.txt", "--out", out + "/p.json"]) == 0
assert cli.main(["norm", "--poly", out + "/p.json", "--q", "2", "--restarts", "2",
                 "--out", out + "/norm.json"]) == 0
"""
    src = str(Path(vnlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "norm.json").read_text())["records"][0]
    assert record["method_upper"] == "flattening" and record["lower"] > 0

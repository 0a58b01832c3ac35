import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from setuptools.config.pyprojecttoml import read_configuration

from pottsglass import __version__, cli, core, exact, montecarlo as mc
from pottsglass.experiment import ExperimentSpec, ValidationError


def run(args):
    """The exit code of ``cli.main``, including argparse's exit 2 on a malformed argv."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def header_spec(path):
    """The spec dict embedded in an output file: a CSV's ``# spec:`` line or a JSON file's ``meta``."""
    text = Path(path).read_text()
    if text.startswith("{"):
        return json.loads(text)["meta"]["spec"]
    return json.loads(next(line[len("# spec: "):] for line in text.splitlines() if line.startswith("# spec: ")))


def spec_of(args):
    """The spec that ``cli.main(args)`` runs."""
    return ExperimentSpec(**vars(cli.build_parser().parse_args(args)))


def test_pyproject_version_is_the_package_version():
    # setuptools reads the version from pottsglass.__version__, as a build does (its own TOML reader: Python 3.10)
    config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["version"] == __version__


def test_readme_commands_parse_and_validate():
    # every example line of the README parses and validates; nothing is computed
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^pottsglass (.+)$", text, flags=re.M)
    parser = cli.build_parser()
    specs = [ExperimentSpec(**vars(parser.parse_args(shlex.split(line)))) for line in lines]
    for spec in specs:
        spec.validate()
    assert sorted(spec.command for spec in specs) == sorted(cli._HANDLERS)


SMOKE_COMMANDS = [
    ["thresholds", "--kappa-max", "10"],
    ["exact-free-energy", "--kappa", "2", "--n", "4", "--beta", "0.5", "--replicas", "3", "--sector", "balanced"],
    ["second-moment", "--kappa", "2", "--n", "2,4", "--beta", "1.0"],
    ["uncentered-ratio", "--kappa", "2", "--n", "2,4", "--beta", "1.0"],
    ["rate-gap", "--kappa", "3", "--beta", "1.0", "--delta", "0.02"],
    ["kl-check", "--trials", "500"],
    ["ldp-check", "--kappa", "2", "--n", "4,8,16"],
    ["shell-count", "--kappa", "2", "--n", "4,8"],
    ["gauge-check", "--n", "4", "--beta", "1.0", "--trials", "10"],
    ["moment-check", "--n", "4", "--beta", "0.5", "--m", "1,2", "--replicas", "8"],
    ["tail-bound", "--n", "4", "--beta", "0.5", "--epsilon", "0.25",
     "--replicas", "3", "--sweeps", "60", "--burn-in", "20", "--thinning", "2"],
    ["mc-free-energy", "--kappa", "2", "--n", "4", "--beta-max", "0.5",
     "--n-grid", "8", "--sector", "all", "--sweeps", "100", "--burn-in", "30"],
]


@pytest.mark.parametrize("args", SMOKE_COMMANDS, ids=lambda a: a[0])
def test_subcommands_write_parseable_csv(args, tmp_path):
    out = str(tmp_path / "out.csv")
    assert run(args + ["--out", out]) == 0
    header, rows = read_rows(out)
    assert header and rows
    assert header_spec(out) == json.loads(spec_of(args).to_json())
    assert header_spec(out)["command"] == args[0]


def test_stdout_when_no_sink(capsys, monkeypatch):
    monkeypatch.delenv("POTTSGLASS_OUTDIR", raising=False)
    assert run(["thresholds", "--kappa-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "kappa,beta_kappa" in out
    assert run(["gauge-check", "--n", "4", "--beta", "1.0", "--trials", "3"]) == 0
    assert capsys.readouterr().out.startswith("# pottsglass")


def test_parser_is_built_once_and_reused(tmp_path):
    cli._parser.cache_clear()
    commands = [["thresholds", "--kappa-max", "6"], SMOKE_COMMANDS[1], ["gauge-check", "--n", "4", "--trials", "5"],
                ["thresholds", "--kappa-max", "6"]]
    for k, args in enumerate(commands):
        assert run(args + ["--out", str(tmp_path / f"seq{k}.csv")]) == 0
    assert cli._parser.cache_info().misses == 1  # one build_parser call for every main call
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for k, args in enumerate(commands):
        alone = tmp_path / f"alone{k}.csv"
        subprocess.run([sys.executable, "-m", "pottsglass.cli", *args, "--out", str(alone)], env=env, check=True,
                       capture_output=True)
        assert (tmp_path / f"seq{k}.csv").read_bytes() == alone.read_bytes()


def test_cli_imports_no_scipy_and_no_process_pool():
    # a fresh interpreter: importing the CLI loads neither scipy nor concurrent.futures, and preloads the two numpy
    # submodules that numpy would otherwise load inside the first command
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import json, sys, pottsglass.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                                       text=True).stdout)
    assert [m for m in loaded if m.startswith("scipy") or m.startswith("concurrent.futures")] == []
    assert {"numpy.random", "numpy.ma"} <= set(loaded)


def test_fmt_python_and_numpy_floats_print_alike():
    for value in (0.1, -2.5e-300, 1e17, math.inf, -math.inf, math.nan, 0.0, -0.0):
        assert cli._fmt(value) == cli._fmt(np.float64(value)) == f"{value:.17g}"
    assert cli._fmt(np.float32(0.1)) == f"{float(np.float32(0.1)):.17g}"
    assert [cli._fmt(v) for v in (True, False, 3, np.int64(-4), None, "x")] == ["true", "false", "3", "-4", "None", "x"]


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POTTSGLASS_OUTDIR", str(tmp_path))
    assert run(["thresholds", "--kappa-max", "5"]) == 0
    assert (tmp_path / "thresholds.csv").exists()


INVALID_COMMANDS = {
    "indivisible-balanced": ["exact-free-energy", "--kappa", "2", "--n", "5", "--sector", "balanced"],
    "nan-beta": ["second-moment", "--n", "3", "--beta", "nan"],
    "nan-in-beta-list": ["second-moment", "--n", "3", "--beta", "1,nan"],
    "nan-ladder": ["tail-bound", "--beta", "1", "--ladder", "0,nan"],
    "nan-epsilon": ["tail-bound", "--epsilon", "nan"],
    "nan-delta": ["rate-gap", "--delta", "nan"],
    "nan-beta-max": ["mc-free-energy", "--beta-max", "nan"],
    "negative-beta-max": ["mc-free-energy", "--n", "6", "--beta-max", "-1"],
    "negative-ladder-rung": ["tail-bound", "--ladder=-1,1"],
    "negative-epsilon": ["tail-bound", "--epsilon", "-0.5"],
    "one-replica": ["exact-free-energy", "--replicas", "1"],
    "tail-zero-replicas": ["tail-bound", "--n", "4", "--replicas", "0"],
    "zero-workers": ["exact-free-energy", "--n", "3", "--workers", "0"],
    "kappa-one": ["second-moment", "--kappa", "1", "--n", "3"],
    "negative-beta": ["second-moment", "--n", "3", "--beta=-1"],
    "zero-size": ["second-moment", "--n", "0"],
    "short-grid": ["mc-free-energy", "--n-grid", "3"],
    "inf-beta-uncentered": ["uncentered-ratio", "--n", "3", "--beta", "inf"],
    "inf-beta-second-moment": ["second-moment", "--n", "3", "--beta", "inf"],
    "inf-beta-exact": ["exact-free-energy", "--n", "3", "--beta", "inf", "--replicas", "2"],
    "inf-beta-max": ["mc-free-energy", "--n", "3", "--beta-max", "inf", "--n-grid", "8"],
    "inf-beta-rate-gap": ["rate-gap", "--kappa", "3", "--beta", "inf"],
    "tail-zero-sweeps": ["tail-bound", "--sweeps", "0"],
    "mc-zero-sweeps": ["mc-free-energy", "--sweeps", "0"],
    "mc-one-sweep": ["mc-free-energy", "--sweeps", "1"],
    "zero-thinning": ["tail-bound", "--thinning", "0"],
    "negative-burn-in": ["tail-bound", "--burn-in", "-3"],
    "zero-moment": ["moment-check", "--m", "0"],
    "even-moment-one-replica": ["moment-check", "--n", "4", "--m", "2", "--replicas", "1"],
    "ladder-top-not-beta": ["tail-bound", "--beta", "4", "--ladder", "0,1,2"],
    "one-rung-ladder": ["tail-bound", "--beta", "1", "--ladder", "1"],
    # rung 256 of a ladder would run the chain of the next ladder's rung 0
    "ladder-257-rungs": ["tail-bound", "--n", "2", "--beta", "1", "--ladder", ",".join(["1"] * 257),
                         "--replicas", "2", "--sweeps", "1", "--burn-in", "0"],
    "grid-257-points": ["mc-free-energy", "--n", "3", "--n-grid", "257", "--sweeps", "2", "--burn-in", "0"],
    "ladder-without-finite-beta": ["tail-bound", "--n", "4", "--beta", "inf", "--ladder", "0,1",
                                   "--epsilon", "0.25", "--replicas", "2"],
    "ladder-with-an-infinite-beta": ["tail-bound", "--n", "6", "--beta", "1,inf", "--ladder", "0,1",
                                     "--replicas", "2", "--sweeps", "50", "--burn-in", "10"],
    "gauge-two-sizes": ["gauge-check", "--n", "4,6", "--trials", "3"],
    "gauge-two-betas": ["gauge-check", "--n", "4", "--beta", "1,2", "--trials", "3"],
    "cap-on-thresholds": ["thresholds", "--cap", "5"],
    "abbreviated-flag": ["thresholds", "--kappa", "5"],
    "kl-negative-trials": ["kl-check", "--trials", "-5"],
    "gauge-negative-trials": ["gauge-check", "--n", "4", "--trials", "-2"],
    "thresholds-small-kappa-max": ["thresholds", "--kappa-max", "2"],
    "negative-seed": ["thresholds", "--seed", "-1"],
    "seed-past-64-bits": ["thresholds", "--seed", "18446744073709551617"],
    "moment-over-cap": ["moment-check", "--n", "4", "--cap", "2"],
    "gauge-over-cap": ["gauge-check", "--n", "4", "--cap", "2"],
    "tail-inf-beta-over-cap": ["tail-bound", "--n", "4", "--beta", "inf", "--cap", "2"],
    "rate-gap-zero-delta": ["rate-gap", "--delta", "0"],
    "rate-gap-delta-above-max-gap": ["rate-gap", "--kappa", "3", "--delta", "0.5"],
    "second-moment-indivisible-size": ["second-moment", "--kappa", "3", "--n", "3,4"],
    "ldp-indivisible-size": ["ldp-check", "--kappa", "2", "--n", "4,6"],
    "shell-count-indivisible-size": ["shell-count", "--kappa", "3", "--n", "6,7"],
    # the 'all'-sector row recursion: keys past int64 ((n + 1)^kappa = 4^32), and more (s, r) pairs than the cap
    "uncentered-keys-past-int64": ["uncentered-ratio", "--kappa", "32", "--n", "3"],
    "uncentered-over-cap": ["uncentered-ratio", "--kappa", "3", "--n", "9", "--cap", "1000"],
    # the balanced row recursion's (s, r) pairs: 70 against --cap, and 20,514,250 against DEFAULT_CAP
    "uncentered-balanced-over-cap": ["uncentered-ratio", "--kappa", "3", "--n", "9", "--sector", "balanced",
                                     "--cap", "1"],
    "second-moment-over-cap": ["second-moment", "--kappa", "3", "--n", "369"],
    # 25,200 pairs, but (3^20 + 1) / 2 column sums of 20 entries each, 34,867,844,020 entries against DEFAULT_CAP
    "second-moment-column-sums-over-cap": ["second-moment", "--kappa", "20", "--n", "40"],
    "shell-count-column-sums-over-cap": ["shell-count", "--kappa", "20", "--n", "40"],
    # C(18, 5)^5 = 4.6e19 bounds the table count, past 2^53; and 1,809,258,660 norm entries gathered past plane 2
    "shell-count-count-past-2-53": ["shell-count", "--kappa", "6", "--n", "78"],
    "shell-count-work-over-cap": ["shell-count", "--kappa", "5", "--n", "75"],
}


@pytest.mark.parametrize("args", INVALID_COMMANDS.values(), ids=INVALID_COMMANDS.keys())
def test_validation_failure_exits_2(args, tmp_path):
    assert run(args + ["--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


# Defaults of every subcommand, as v0.1.4 wrote them into the spec header.
DEFAULT_SPECS = {
    "thresholds": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "thresholds", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "exact-free-energy": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "exact-free-energy", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "balanced", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "second-moment": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "second-moment", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [3, 6, 9], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "uncentered-ratio": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "uncentered-ratio", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [3, 6, 9], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "rate-gap": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "rate-gap", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "kl-check": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "kl-check", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 10000}',
    "ldp-check": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "ldp-check", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [9, 18, 27, 36], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "shell-count": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "shell-count", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6, 9, 12], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "gauge-check": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "gauge-check", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "moment-check": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 1000, "cap": 20000000, "command": "moment-check", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [1, 2, 4], "n": [4, 8], "n_grid": 13, "replicas": 200, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
    "tail-bound": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 500, "cap": 20000000, "command": "tail-bound", "delta": 0.01, "epsilon": [0.25, 0.5], "fmt": "csv", "kappa": 2, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [8], "n_grid": 13, "replicas": 64, "sector": "all", "seed": 0, "sweeps": 2000, "thinning": 4, "trials": 1000}',
    "mc-free-energy": '{"beta": [1.0], "beta_max": 1.0, "burn_in": 500, "cap": 20000000, "command": "mc-free-energy", "delta": 0.01, "epsilon": [], "fmt": "csv", "kappa": 3, "kappa_max": 100, "kind": "centered", "ladder": [], "moments": [], "n": [6], "n_grid": 13, "replicas": 8, "sector": "balanced", "seed": 0, "sweeps": 2000, "thinning": 10, "trials": 1000}',
}


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_subcommand_defaults(command):
    args = cli.build_parser().parse_args([command])
    assert ExperimentSpec(**vars(args)).to_json() == DEFAULT_SPECS[command]


_FLOAT_FLAGS = ("--beta", "--delta", "--beta-max", "--epsilon")
_LIST_FLAGS = ("--n", "--beta", "--epsilon", "--m", "--ladder")
_NON_ENUMERATING = ("thresholds", "second-moment", "rate-gap", "kl-check", "ldp-check", "shell-count")


@st.composite
def _invalid_argv(draw):
    """A cheap smoke command with exactly one change that must be rejected before compute."""
    argv = list(draw(st.sampled_from(SMOKE_COMMANDS)))
    command, flags = argv[0], argv[1::2]  # every smoke flag takes one value
    single = [f for f in flags if f not in _LIST_FLAGS or (command, f) in
              (("gauge-check", "--n"), ("gauge-check", "--beta"))]
    changes = ["second-value", "unknown-flag"]
    changes += ["nan"] if any(f in _FLOAT_FLAGS for f in flags) else []
    changes += ["negative-size"] if "--n" in flags else []
    changes += ["zero-sweeps"] if "--sweeps" in flags else []
    changes += ["cap"] if command in _NON_ENUMERATING else []
    change = draw(st.sampled_from(changes))
    if change == "second-value":
        i = argv.index(draw(st.sampled_from(single))) + 1
        argv[i] += "," + argv[i]
    elif change == "unknown-flag":
        argv.append(draw(st.sampled_from(["--bogus", "--verbose", "--rep", "--kappa-maximum"])))
    elif change == "nan":
        argv[argv.index(draw(st.sampled_from([f for f in flags if f in _FLOAT_FLAGS]))) + 1] = "nan"
    elif change == "negative-size":
        argv[argv.index("--n") + 1] = str(draw(st.integers(-64, -1)))
    elif change == "zero-sweeps":
        argv[argv.index("--sweeps") + 1] = "0"
    else:
        argv += ["--cap", str(draw(st.integers(1, 10 ** 9)))]
    return argv


@given(_invalid_argv())
def test_invalid_argv_exits_2_without_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        assert run(argv + ["--out", out]) == 2
        assert not os.path.exists(out)


@pytest.mark.parametrize("name", ["second-moment-indivisible-size", "ldp-indivisible-size",
                                  "shell-count-indivisible-size"])
def test_indivisible_size_rejected_before_any_row(name, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran before validation")

    for engine in ("_log_second_moment_ratio", "ldp_log_probability", "shell_histogram"):
        monkeypatch.setattr(exact, engine, refuse)
    assert run(INVALID_COMMANDS[name] + ["--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_list_fields_become_tuples():
    spec = ExperimentSpec(command="tail-bound", n=8, beta=[1, 2], ladder=None, epsilon=0.5, moments=[2.0])
    assert (spec.n, spec.beta, spec.ladder, spec.epsilon, spec.moments) == ((8,), (1.0, 2.0), (), (0.5,), (2,))
    assert [type(b) for b in spec.beta] == [float, float]
    with pytest.raises(TypeError):
        ExperimentSpec(command="tail-bound", n=8.0)  # a lone size must be an int


def test_numpy_scalars_are_single_values():
    spec = ExperimentSpec(command="thresholds", n=np.int64(6), beta=np.float32(1.0), epsilon=np.float64(0.5))
    assert (spec.n, spec.beta, spec.epsilon) == ((6,), (1.0,), (0.5,))
    assert [type(v) for v in spec.n + spec.beta + spec.epsilon] == [int, float, float]
    assert ExperimentSpec(command="thresholds", n=np.array(6), beta=np.array(1.0)) == ExperimentSpec(
        command="thresholds", n=6, beta=1.0)
    with pytest.raises(TypeError):
        ExperimentSpec(command="thresholds", n=np.float64(6.0))  # a lone size must be an integer


def test_empty_moments_validated_as_run():
    # moment-check runs orders (1, 2) when a spec gives none, so one replica is invalid
    with pytest.raises(ValidationError):
        ExperimentSpec(command="moment-check", n=(4,), replicas=1).validate()
    ExperimentSpec(command="moment-check", n=(4,), replicas=1, moments=(1,)).validate()


def test_tail_bound_runs_the_all_sector():
    # tail-bound has no --sector option; a spec read from JSON must not name another sector
    with pytest.raises(ValidationError, match="'all' sector"):
        ExperimentSpec(command="tail-bound", n=(4,), sector="balanced").validate()
    ExperimentSpec(command="tail-bound", n=(4,)).validate()


def test_balanced_row_recursion_and_table_count_refused_at_validation(tmp_path):
    # keys past int64 ((n / kappa + 1)^kappa = 2^64), and a table count bounded only past 2^53 (15^14): each
    # refused before it is built; 12! tables are counted exactly
    for command in ("second-moment", "uncentered-ratio"):
        with pytest.raises(ValidationError, match=r"2\^64 values, past int64"):
            ExperimentSpec(command=command, kappa=64, n=(64,), sector="balanced").validate()
    with pytest.raises(ValidationError, match=r"15\^14 bounds the table count, past 2\^53"):
        ExperimentSpec(command="shell-count", kappa=15, n=(15,)).validate()
    assert run(["shell-count", "--kappa", "12", "--n", "12", "--out", str(tmp_path / "x.csv")]) == 0
    assert "\n12,1,479001600," in (tmp_path / "x.csv").read_text()


def test_prevalidated_cap_exits_2(tmp_path):
    # caps are checked before any computation, so this is a validation failure
    code = run(["exact-free-energy", "--kappa", "2", "--n", "8", "--sector", "all",
                "--replicas", "2", "--cap", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_moment_check_draws_each_replica_once_per_size_and_beta(monkeypatch):
    spec = ExperimentSpec(command="moment-check", n=(4, 6), beta=(0.5, math.inf), moments=(1, 2, 3, 4),
                          replicas=5, seed=3)
    expected = []
    for n in spec.n:
        for beta in spec.beta:
            for m in spec.moments:
                est = exact.magnetization_moment_exact(n, beta, m, replicas=spec.replicas, seed=spec.seed)
                expected.append([m, n, beta, est.value, est.stderr, est.bound, est.satisfied])
    draw = core._standard_normal  # the one draw route: map_replicas and from_seed both call it
    calls = []

    def counted(n, seed, streams):
        calls.extend((n, seed, stream) for stream in streams)
        return draw(n, seed, streams)

    monkeypatch.setattr(core, "_standard_normal", counted)
    _, rows = cli.rows_for_spec(spec)
    assert rows == expected
    assert len(calls) == len(spec.n) * len(spec.beta) * spec.replicas


def test_computation_cap_exits_1(tmp_path, monkeypatch):
    argv = ["uncentered-ratio", "--kappa", "3", "--n", "20", "--beta", "0.5", "--cap", "1000",
            "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2  # the spec knows the row recursion's C(26, 6) pairs exceed the cap
    # the engine keeps its own check for library callers; a cap met while computing exits 1
    monkeypatch.setattr(ExperimentSpec, "validate", lambda spec: None)
    assert run(argv) == 1
    assert not (tmp_path / "x.csv").exists()


def test_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["second-moment", "--kappa", "3", "--n", "3,6", "--beta", "0.7", "--seed", "5"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def assert_worker_count_invariant(base, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(base + ["--workers", "1", "--out", a]) == 0
    assert run(base + ["--workers", "2", "--out", b]) == 0
    ra = open(a).read().replace('"workers": 1', "")
    rb = open(b).read().replace('"workers": 2', "")
    assert ra == rb


def test_worker_count_invariance(tmp_path):
    for base in (["exact-free-energy", "--kappa", "2", "--n", "4", "--beta", "0.9",
                  "--replicas", "4", "--sector", "balanced", "--seed", "7"],
                 ["exact-free-energy", "--kappa", "4", "--n", "8", "--sector", "all", "--beta", "1.1",
                  "--replicas", "4", "--seed", "3"]):  # color-orbit multiplicities up to 24
        assert_worker_count_invariant(base, tmp_path)


@pytest.mark.parametrize("base", [
    ["tail-bound", "--n", "4", "--beta", "0.5", "--epsilon", "0.25,0.5", "--replicas", "3",
     "--sweeps", "40", "--burn-in", "10", "--thinning", "2", "--seed", "7"],
    ["moment-check", "--n", "4", "--beta", "0.5", "--m", "1,2,4", "--replicas", "5", "--seed", "7"],
    ["gauge-check", "--n", "4", "--beta", "1.0", "--trials", "7", "--seed", "7"],
    # replica counts that do not divide evenly into stacks (of 4 replicas at n = 12)
    pytest.param(["gauge-check", "--n", "12", "--beta", "1.0", "--trials", "13", "--seed", "7"],
                 id="gauge-check-uneven-stacks"),
    pytest.param(["exact-free-energy", "--kappa", "2", "--n", "12", "--beta", "0.9", "--replicas", "11",
                  "--sector", "all", "--seed", "7"], id="exact-free-energy-uneven-stacks"),
], ids=lambda a: a[0])
def test_replica_loop_worker_count_invariance(base, tmp_path):
    assert_worker_count_invariant(base, tmp_path)


@pytest.mark.parametrize("args", [
    ["second-moment", "--kappa", "3", "--n", "9", "--beta", "40"],
    ["uncentered-ratio", "--kappa", "2", "--n", "6", "--beta", "50"],
], ids=lambda a: a[0])
def test_overflowing_ratio_prints_inf(args, tmp_path):
    out = str(tmp_path / "r.csv")
    assert run(args + ["--out", out]) == 0
    _, [row] = read_rows(out)
    assert row["ratio"] == "inf"
    if "log_ratio" in row:
        assert math.isfinite(float(row["log_ratio"]))
    else:  # the floor e^3125 overflows too; the comparison is made on the logs
        assert row["lower_bound"] == "inf"
        assert row["exceeds_bound"] == "true"


def test_rate_gap_writes_one_row_per_beta(tmp_path):
    one, two = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    base = ["rate-gap", "--kappa", "3", "--delta", "0.02"]
    assert run(base + ["--beta", "1.0", "--out", one]) == 0
    assert run(base + ["--beta", "1.0,0.5", "--out", two]) == 0
    _, [row] = read_rows(one)
    _, rows = read_rows(two)
    assert [r["beta"] for r in rows] == ["1", "0.5"]
    assert rows[0] == row


# kl-check's row at --trials 3000 as v0.1.10 wrote it, per seed
KL_CHECK_ROWS = {
    0: "3000,3000,3000,0,1.5737370136160744e-14",
    1: "3000,3000,3000,0,7.8530098864933257e-15",
    2: "3000,3000,3000,0,6.462463112355733e-12",
    3: "3000,3000,3000,0,1.8068764572834018e-13",
}


@pytest.mark.parametrize("seed", sorted(KL_CHECK_ROWS))
def test_kl_check_rows_pinned(seed, tmp_path):
    out = str(tmp_path / "kl.csv")
    assert run(["kl-check", "--trials", "3000", "--seed", str(seed), "--out", out]) == 0
    with open(out) as fh:
        assert fh.read().splitlines()[-1] == KL_CHECK_ROWS[seed]


def test_kl_check_across_chunks(tmp_path):
    # three chunks of draws, the last with a single trial
    out = str(tmp_path / "kl.csv")
    trials = 2 * cli._KL_CHUNK + 1
    assert run(["kl-check", "--trials", str(trials), "--out", out]) == 0
    _, [row] = read_rows(out)
    assert [int(row[c]) for c in ("trials", "checked", "holds", "violations")] == [trials] * 3 + [0]


def test_round_trip_from_embedded_spec(tmp_path):
    out = str(tmp_path / "roundtrip.csv")
    assert run(["uncentered-ratio", "--kappa", "2", "--n", "2,4,6", "--beta", "0.8",
                "--seed", "3", "--out", out]) == 0
    spec = ExperimentSpec(**header_spec(out))  # the header alone reproduces the file
    columns, rows = cli.rows_for_spec(spec)
    assert cli.render_output(spec, columns, rows) == open(out).read()


def test_json_format(tmp_path):
    out = str(tmp_path / "out.json")
    args = ["thresholds", "--kappa-max", "60", "--format", "json", "--out", out]
    assert run(args) == 0
    payload = json.load(open(out))
    assert payload["meta"]["tool"] == "pottsglass"
    assert payload["meta"]["spec"] == json.loads(spec_of(args).to_json())
    assert payload["meta"]["spec"]["command"] == "thresholds"
    row56 = [r for r in payload["rows"] if r["kappa"] == 56]
    assert row56 and row56[0]["breaks_at_zero_temp"] is True


def test_threshold_table_contents(tmp_path):
    out = str(tmp_path / "th.csv")
    assert run(["thresholds", "--kappa-max", "60", "--out", out]) == 0
    _, rows = read_rows(out)
    by_kappa = {int(r["kappa"]): r for r in rows}
    assert by_kappa[56]["breaks_at_zero_temp"] == "true"
    assert by_kappa[55]["breaks_at_zero_temp"] == "false"
    assert float(by_kappa[3]["beta_kappa"]) == pytest.approx(math.sqrt(6 * math.log(2)), abs=1e-12)
    assert by_kappa[3]["branch"] == "second-moment"
    assert by_kappa[10]["branch"] == "ferro-reduction"
    # floats re-parse losslessly at 17 significant digits
    assert float(by_kappa[3]["ew90_critical"]) == 4 * math.log(2)


def test_gauge_check_prints_max_pair_sum(tmp_path, capsys):
    out = str(tmp_path / "gc.csv")
    assert run(["gauge-check", "--n", "5", "--beta", "1.0", "--trials", "25", "--out", out]) == 0
    stderr = capsys.readouterr().err
    line = [l for l in stderr.splitlines() if l.startswith("max |pair sum|")][0]
    assert float(line.split("=")[1]) <= 1e-12
    _, rows = read_rows(out)
    assert len(rows) == 25
    assert all(abs(float(r["pair_sum"])) <= 1e-12 for r in rows)


def test_tail_bound_prints_ladder_swap_rates(tmp_path, capsys):
    n, betas, replicas, burn_in, sweeps, seed = 4, (0.0, 1.0, 2.0), 3, 10, 30, 5
    base = ["tail-bound", "--n", str(n), "--beta", "2", "--epsilon", "0.25",
            "--ladder", "0,1,2", "--replicas", str(replicas), "--sweeps", str(sweeps),
            "--burn-in", str(burn_in), "--thinning", "2", "--seed", str(seed)]
    lines = []
    for workers in ("1", "2"):
        assert run(base + ["--workers", workers, "--out", str(tmp_path / f"t{workers}.csv")]) == 0
        err = capsys.readouterr().err
        lines.append([l for l in err.splitlines() if l.startswith("ladder swap acceptance")])
    assert lines[0] == lines[1] and len(lines[0]) == 1
    rates = [float(v) for v in lines[0][0].rsplit("=", 1)[1].split()]
    # oracle: the same ladders run by hand, their counters summed over replicas
    attempts = accepts = 0
    for r in range(replicas):
        g = core.CouplingMatrix.from_seed(n, seed, r)
        ladder = mc.TemperingLadder.start(g, 2, betas, "all", seed, ladder_id=r)
        mc.run_sweeps(ladder, g, burn_in + sweeps)
        attempts, accepts = attempts + ladder.swap_attempts, accepts + ladder.swap_accepts
    assert rates == pytest.approx(accepts / attempts, abs=5e-5)
    assert attempts.tolist() == [replicas * (burn_in + sweeps)] * 2


def test_mc_free_energy_prints_ladder_swap_rates(tmp_path, capsys):
    argv = ["--kappa", "3", "--n", "6", "--beta-max", "2", "--n-grid", "9", "--sweeps", "40", "--burn-in", "10",
            "--seed", "3"]
    assert run(["mc-free-energy", *argv, "--out", str(tmp_path / "ti.csv")]) == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("ladder swap acceptance")]
    assert lines and lines[0].startswith("ladder swap acceptance (n=6, beta_max=2) = ")
    rates = [float(v) for v in lines[0].rsplit("=", 1)[1].split()]
    # oracle: the record of the same run, whose grid is the ladder
    res = mc.free_energy_ti(core.CouplingMatrix.from_seed(6, 3, 0), 3, 2.0, 9, "balanced", seed=3, sweeps=40,
                            burn_in=10)
    assert len(lines) == 1 and rates == pytest.approx(res.swap_rates, abs=5e-5) and len(rates) == 8


def test_moment_check_rows(tmp_path):
    out = str(tmp_path / "mm.csv")
    assert run(["moment-check", "--n", "4", "--beta", "0.0", "--m", "1,2",
                "--replicas", "4", "--out", out]) == 0
    _, rows = read_rows(out)
    odd = [r for r in rows if r["m"] == "1"][0]
    assert float(odd["estimate"]) == 0.0
    even = [r for r in rows if r["m"] == "2"][0]
    assert float(even["estimate"]) == pytest.approx(1 / 16, abs=1e-12)
    assert even["satisfied"] == "true"


@pytest.mark.parametrize("args", [
    ["tail-bound", "--n", "4", "--beta", "0.5", "--epsilon", "0.25",
     "--replicas", "2", "--sweeps", "40", "--burn-in", "10", "--thinning", "2"],
    ["mc-free-energy", "--kappa", "2", "--n", "4", "--beta-max", "0.5",
     "--n-grid", "8", "--sector", "all", "--sweeps", "40", "--burn-in", "10"],
], ids=lambda a: a[0])
def test_flagged_is_json_boolean(args, tmp_path):
    out = str(tmp_path / "out.json")
    assert run(args + ["--format", "json", "--out", out]) == 0
    rows = json.load(open(out))["rows"]
    assert rows and all(isinstance(r["flagged"], bool) for r in rows)


def test_beta_inf_accepted(tmp_path):
    out = str(tmp_path / "tail.csv")
    assert run(["tail-bound", "--n", "4", "--beta", "inf", "--epsilon", "0.5",
                "--replicas", "3", "--out", out]) == 0
    _, rows = read_rows(out)
    assert rows[0]["beta"] == "inf"


_INT = st.integers(-10 ** 6, 10 ** 6)
_FLOAT = st.floats()  # NaN and both infinities included


def _specs(ints, floats):
    def tuples(elems):
        return st.lists(elems, max_size=4).map(tuple)

    return st.builds(
        ExperimentSpec,
        command=st.sampled_from(sorted(cli._HANDLERS)),
        kappa=ints, n=tuples(ints), beta=tuples(floats),
        sector=st.sampled_from(["all", "balanced", "fixed"]), kind=st.sampled_from(["raw", "centered"]),
        seed=st.integers(0, 2 ** 64 - 1), replicas=ints, sweeps=ints, burn_in=ints, thinning=ints,
        ladder=tuples(floats), epsilon=tuples(floats), moments=tuples(ints), delta=floats,
        trials=ints, n_grid=ints, beta_max=floats, kappa_max=ints, cap=ints, workers=ints,
        out=st.none() | st.text(max_size=8), fmt=st.sampled_from(["csv", "json"]),
    )


@given(_specs(_INT, st.floats(allow_nan=False)))
def test_spec_json_round_trip(spec):
    assert ExperimentSpec(**json.loads(spec.to_json())) == replace(spec, out=None, workers=1)


@given(_specs(_INT, _FLOAT))
def test_validate_raises_only_validation_error(spec):
    try:
        spec.validate()
    except ValidationError:
        pass

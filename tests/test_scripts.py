"""Each experiment script runs end to end at its smallest sizes."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from pottsglass.core import EnumerationCapError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys) -> list[str]:
    """Run ``scripts/<name>`` as ``__main__`` with ``args``; return its stdout lines."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_tail_bound_study(monkeypatch, capsys):
    # n = 4 is exact at every beta; n = 14 runs chains at beta = 1 and 3 (with a ladder) and is exact at inf
    lines = run_script("tail_bound_study.py", ["--sizes", "4,14", "--betas", "1,3,inf", "--epsilons", "0.5",
                                               "--replicas", "1"], monkeypatch, capsys)
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[1], row[6]) for row in rows] == [
        ("4", "1.0", "exact"), ("4", "3.0", "exact"), ("4", "inf", "exact"),
        ("14", "1.0", "mc"), ("14", "3.0", "mc"), ("14", "inf", "exact"),
    ]
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0
        assert float(row[5]) == pytest.approx(2 * math.exp(-0.25 * int(row[0])), abs=1e-6)


def test_color_symmetry_scan(monkeypatch, capsys):
    lines = run_script("color_symmetry_scan.py", ["--replicas", "2", "--sizes3", "3,4", "--sizes2", "4,5"],
                       monkeypatch, capsys)
    rows = [line.split() for line in lines[1:] if line and line[0] == " " and not line.startswith("  kappa")]
    assert [row[0] for row in rows] == ["3"] * 6 + ["2"] * 6
    assert all(row[6] == "inf" for row in rows[:6])  # no closed-form ceiling at kappa = 3
    assert [float(row[6]) for row in rows[6:]] == pytest.approx([2 * math.exp(-0.0625 * n) for n in (4, 5)] * 3,
                                                                abs=1e-4)
    assert sum(line.startswith("  kappa=") for line in lines) == 6  # one fitted rate per (kappa, beta)


def test_color_symmetry_scan_passes_its_cap(monkeypatch, capsys):
    with pytest.raises(EnumerationCapError):  # kappa = 3, n = 4 has 81 states
        run_script("color_symmetry_scan.py", ["--replicas", "2", "--sizes3", "3,4", "--cap", "80"], monkeypatch, capsys)


def test_free_energy_trend(monkeypatch, capsys):
    lines = run_script("free_energy_trend.py", ["--sizes", "3,6", "--replicas", "2"], monkeypatch, capsys)
    rows = [line.split() for line in lines[3:]]
    assert [row[0] for row in rows] == ["3", "6"]
    for row in rows:  # sampled ratio, exact ratio, Paley-Zygmund floor, sampled fraction with Z >= E Z / 2
        sampled, ratio, floor, above = map(float, row[6:])
        assert all(math.isfinite(v) for v in (sampled, ratio, floor, above))
        assert floor == pytest.approx(0.25 / ratio, rel=1e-5) and 0.0 <= above <= 1.0


def test_threshold_table(monkeypatch, capsys, tmp_path):
    out = tmp_path / "thresholds.csv"
    lines = run_script("threshold_table.py", ["--kappa-max", "4", "--out", str(out)], monkeypatch, capsys)
    assert lines[0] == f"wrote {out}"
    assert [line.split(",")[0] for line in out.read_text().splitlines()[-2:]] == ["3", "4"]
    assert lines[1].startswith("zero-temperature breaking first certified at kappa = ")


def test_second_moment_threshold(monkeypatch, capsys):
    # --seconds 0 stops each kappa at its fourth size; kappa = 4 has one branch, kappa = 3 two
    from pottsglass import exact, rate

    lines = run_script("second_moment_threshold.py", ["--kappas", "3,4", "--fractions", "1.1", "--seconds", "0"],
                       monkeypatch, capsys)
    for kappa in (3, 4):
        start = 2 + lines.index(next(line for line in lines if line.startswith(f"kappa={kappa}:")))
        th = rate.high_temperature_threshold(kappa)
        betas = [1.1 * th.second_moment_branch] + [1.1 * th.ferro_branch] * (kappa == 3)
        rows = [line.split() for line in lines[start:start + 4]]
        assert [int(row[0]) for row in rows] == [2 * kappa, 3 * kappa, 4 * kappa, 5 * kappa]
        for row in rows:
            want = [exact._log_second_moment_ratio(int(row[0]), beta, kappa) for beta in betas]
            assert [float(v) for v in row[2:]] == pytest.approx(want, rel=1e-5)
    assert lines[-6:] == ["kappa=3 second-moment: b > 0 first at 1.1 x the branch",
                          "kappa=3 second-moment: b > 0.01 first at 1.1 x the branch",
                          "kappa=3 ferro: b > 0 first at 1.1 x the branch",
                          "kappa=3 ferro: b > 0.01 first at 1.1 x the branch",
                          "kappa=4 both: b > 0 first at 1.1 x the branch",
                          "kappa=4 both: b > 0.01 first at 1.1 x the branch"]

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adrlab.cli import main


def run_cli(args):
    return main(list(args))


@pytest.mark.parametrize("cmd", ["dispersion-map", "wavepacket", "pks"])
def test_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default" in out


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["dispersion-map", "--no-such-flag", "1"])
    assert exc.value.code == 2


def test_dispersion_map_small(tmp_path, capsys):
    args = ["dispersion-map", "--scheme", "implicit-oucs3-lele", "--n", "51",
            "--node", "25", "--kh-points", "5", "--nc-points", "3",
            "--nc-min", "0.1", "--nc-max", "0.3", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    assert "stability boundary" in out
    path = tmp_path / "dispersion_implicit-oucs3-lele.csv"
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# scheme=implicit-oucs3-lele")
    assert len(lines) == 2 + 5 * 3
    # determinism: identical flags -> byte-identical output
    run_cli(args)
    assert path.read_text() == text


def test_dispersion_map_single_point(tmp_path):
    assert run_cli(["dispersion-map", "--n", "51", "--node", "25",
                    "--kh-min", "0.5", "--kh-max", "0.5", "--kh-points", "1",
                    "--nc-min", "0.1", "--nc-max", "0.1", "--nc-points", "1",
                    "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dispersion_explicit-oucs3-cd2.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def test_wavepacket_t0_snapshot_matches_initial(tmp_path, capsys):
    assert run_cli(["wavepacket", "--n", "101", "--t-end", "0",
                    "--gamma", "50", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "q_wave_energy=0" in out
    snap = tmp_path / "explicit-oucs3-cd2_50_101_0.csv"
    rows = snap.read_text().strip().split("\n")[1:]
    x = np.array([float(r.split(",")[0]) for r in rows])
    u = np.array([float(r.split(",")[1]) for r in rows])
    h = 0.1
    k0 = 0.5 / h
    want = np.exp(-50 * x**2) * np.cos(k0 * x)
    assert np.max(np.abs(u - want)) < 1e-11
    assert (tmp_path / "spectrum_explicit-oucs3-cd2_50_101.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wavepacket_instability_exits_three(tmp_path, capsys):
    code = run_cli(["wavepacket", "--n", "101", "--c", "50", "--t-end", "3",
                    "--gamma", "50", "--out", str(tmp_path)])
    assert code == 3
    assert "step" in capsys.readouterr().err


def test_pks_t0_echoes_initial_condition(tmp_path, capsys):
    assert run_cli(["pks", "--variant", "explicit-oucs3-cd2", "--n", "16",
                    "--t-end", "0", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "pks_explicit-oucs3-cd2_16.csv").read_text().strip().split("\n")[1:]
    first = rows[0].split(",")
    x, y, rho, c = (float(v) for v in first)
    assert rho == pytest.approx(1000 * np.exp(-100 * (x**2 + y**2)), rel=1e-12)
    assert c == pytest.approx(500 * np.exp(-50 * (x**2 + y**2)), rel=1e-12)
    assert (tmp_path / "pks_explicit-oucs3-cd2_16_meta.json").exists()
    assert (tmp_path / "pks_explicit-oucs3-cd2_16_radial.csv").exists()


def test_pks_short_explicit_run(tmp_path, capsys):
    assert run_cli(["pks", "--variant", "explicit-oucs3-cd2", "--n", "32",
                    "--dt", "1e-8", "--t-end", "2e-7", "--log-every", "10",
                    "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "min_rho=" in out and "mass=" in out


def test_pks_positivity_failure_exits_three(tmp_path, capsys):
    code = run_cli(["pks", "--variant", "imex-nccd", "--n", "32",
                    "--dt", "1e-5", "--t-end", "1e-4", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 51\nnode = 25\nkh-points = 4\nnc-points = 2\n"
                       "nc-min = 0.1\nnc-max = 0.2\n# comment\n")
    assert run_cli(["dispersion-map", "--config", str(cfgfile),
                    "--kh-points", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dispersion_explicit-oucs3-cd2.csv").read_text().strip().split("\n")
    # config sets 4 kh points, the flag overrides to 3; nc stays 2
    assert len(lines) == 2 + 3 * 2


def test_config_unknown_key_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["dispersion-map", "--config", str(cfgfile)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--pe", "nan"), ("--pe", "-0.01"), ("--da", "inf"),
    ("--nc-min", "0"), ("--nc-min", "-0.1"), ("--nc-max", "nan"), ("--nc-max", "0.01"),
    ("--kh-min", "-0.1"), ("--kh-max", "3.2"), ("--kh-max", "inf"),
    ("--n", "6"), ("--node", "1"), ("--node", "51"),
    ("--kh-points", "0"), ("--nc-points", "0"),
])
def test_dispersion_map_rejects_bad_input(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["dispersion-map", "--n", "51", "--node", "25", "--kh-points", "3",
                    "--nc-points", "2", flag, value, "--out", str(out)])
    assert code == 2
    assert not out.exists()  # refused before any CSV is written
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag,value,why", [
    ("wavepacket", "--lam", "nan", "lam must be finite"),
    ("wavepacket", "--c", "inf", "c must be finite"),
    ("wavepacket", "--nu", "inf", "nu must be finite"),
    ("wavepacket", "--snapshots", "nan", "snapshot time must be finite"),
    ("wavepacket", "--gamma", "inf", "gamma must be positive and finite"),
    ("wavepacket", "--half-length", "inf", "L finite"),
    ("pks", "--chi", "inf", "chi must be positive and finite"),
    ("pks", "--dt", "inf", "dt must be > 0 and finite"),
])
def test_non_finite_physical_input_exits_two(cmd, flag, value, why, tmp_path, capsys):
    out = tmp_path / "out"
    size = {"wavepacket": ["--n", "101", "--dt", "0.01", "--t-end", "0.02"],
            "pks": ["--n", "16", "--t-end", "2e-8"]}[cmd]
    assert run_cli([cmd, *size, flag, value, "--out", str(out)]) == 2
    assert not out.exists()  # refused before any step or file
    assert why in capsys.readouterr().err


def test_wavepacket_t_end_off_the_step_grid_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["wavepacket", "--n", "201", "--t-end", "0.015", "--dt", "0.01",
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert "whole number of steps" in capsys.readouterr().err


@pytest.mark.parametrize("t_end,dt,why", [("1.5e-8", "1e-8", "whole number of steps"),
                                          ("1e-7", "0", "dt must be > 0")])
def test_pks_t_end_off_the_step_grid_exits_two(t_end, dt, why, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["pks", "--n", "16", "--dt", dt, "--t-end", t_end,
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert why in capsys.readouterr().err


def test_pks_imex_default_dt_runs(tmp_path, capsys):
    assert run_cli(["pks", "--variant", "imex-nccd", "--n", "16", "--t-end", "1e-7",
                    "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "pks_imex-nccd_16_meta.json").read_text())
    assert meta["dt"] == 1e-8
    assert meta["diagnostics"][-1]["min_rho"] >= 0.0


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_threads_cap_applied_after_parse_and_config(tmp_path, monkeypatch, capsys):
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    small = ["dispersion-map", "--n", "21", "--node", "10", "--kh-points", "2",
             "--nc-points", "1", "--out", str(tmp_path)]
    assert run_cli(small + ["--threads=2"]) == 0
    assert [os.environ[v] for v in _THREAD_VARS] == ["2"] * 3
    cfgfile = tmp_path / "threads.cfg"
    cfgfile.write_text("threads = 3\n")
    assert run_cli(small + ["--config", str(cfgfile)]) == 0
    assert [os.environ[v] for v in _THREAD_VARS] == ["3"] * 3
    assert run_cli(small + ["--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded():
    # the thread cap is set after parsing; it reaches BLAS only because
    # numpy is first imported by the command handlers
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import sys, adrlab.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

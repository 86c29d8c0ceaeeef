import ast
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adrlab import NumericalError
from adrlab.adr1d import AdrConfig, AdrInstabilityError
from adrlab.cli import main
from adrlab.linalg import LinearSolveError
from adrlab.pks2d import EdgeReconstructionError, NonFiniteError, PositivityError
from adrlab.spectral import NonFiniteSampleError
from adrlab.wavepacket import WavePacketConfig, exact_solution


SCHEMES = ["explicit-oucs3-cd2", "implicit-oucs3-lele", "imex-oucs3-lele", "imex-nccd"]


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


def _exact_error(out: str) -> str:
    """The text after ``exact_error:`` on the one stdout line that holds it."""
    (line,) = [line for line in out.splitlines() if line.startswith("exact_error:")]
    return line.removeprefix("exact_error:").strip()


def test_wavepacket_prints_the_error_of_its_t_end_snapshot(tmp_path, capsys):
    # the printed errors are those of the written t_end CSV against
    # exact_solution; its 12 digits leave them equal to ~1e-11 here
    assert run_cli(["wavepacket", "--n", "201", "--t-end", "0.2", "--out", str(tmp_path)]) == 0
    printed = dict(f.split("=") for f in _exact_error(capsys.readouterr().out).split())
    cfg = WavePacketConfig(50.0, 0.0, 0.5, 5.0, 201)
    exact = exact_solution(cfg, AdrConfig(0.1, 1e-4, -1.0, 0.01, cfg.grid()), 0.2).values
    u = np.loadtxt(tmp_path / "explicit-oucs3-cd2_50_201_0.2.csv", delimiter=",",
                   skiprows=1)[:, 1]
    want = {"l2_rel": np.linalg.norm(u - exact) / np.linalg.norm(exact),
            "max_rel": np.max(np.abs(u - exact)) / np.max(np.abs(exact))}
    assert printed.keys() == want.keys()
    for key, value in want.items():
        assert abs(float(printed[key]) - value) <= 1e-9 * value, key


def test_wavepacket_too_wide_for_the_exact_solution_still_exits_zero(tmp_path, capsys):
    # at gamma = 0.1 the packet is not negligible at the domain ends, so the
    # free-space solution does not hold; the run itself is valid (a window
    # of 1 e-fold keeps the q-wave window inside the domain)
    cfg = WavePacketConfig(0.1, 0.0, 0.5, 5.0, 101)
    with pytest.raises(ValueError, match="packet too wide .* at t = 0"):
        exact_solution(cfg, AdrConfig(0.1, 1e-4, -1.0, 0.01, cfg.grid()), 0.02)
    assert run_cli(["wavepacket", "--gamma", "0.1", "--qwindow-efolds", "1", "--n", "101",
                    "--t-end", "0.02", "--out", str(tmp_path)]) == 0
    assert _exact_error(capsys.readouterr().out).startswith("not available")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "explicit-oucs3-cd2_0.1_101_0.02.csv", "spectrum_explicit-oucs3-cd2_0.1_101.csv"]


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


def test_pks_records_each_time_as_whole_steps(tmp_path, capsys):
    # t = k dt, not a sum of k dt's (which ends at 1.999999999999991e-06)
    assert run_cli(["pks", "--n", "16", "--dt", "1e-8", "--t-end", "2e-6", "--log-every", "50",
                    "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "pks_explicit-oucs3-cd2_16_meta.json").read_text())
    assert [d["t"] for d in meta["diagnostics"]] == [k * 1e-8 for k in (0, 50, 100, 150, 200)]
    assert meta["diagnostics"][-1]["t"] == 2e-6


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


def test_config_value_of_the_wrong_type_names_its_flag(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("n = x\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["dispersion-map", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,key,flag", [("dispersion-map", "scheme", "--scheme"),
                                          ("wavepacket", "scheme", "--scheme"),
                                          ("pks", "variant", "--variant")])
def test_config_value_outside_the_choices_names_its_flag(cmd, key, flag, tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = bogus\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([cmd, "--config", str(cfgfile), "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


SMALL_MAP = ["dispersion-map", "--n", "51", "--node", "25", "--kh-points", "3", "--nc-points", "2"]


@pytest.mark.parametrize("where", ["config", "command line"])
def test_an_abbreviated_flag_exits_two_wherever_it_is_set(where, tmp_path, capsys):
    # a config key is a whole flag name, and so is a flag on the command line
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sch = imex-nccd\n")
    extra = ["--config", str(cfgfile)] if where == "config" else ["--sch", "imex-nccd"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(SMALL_MAP + extra + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sch" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_config_value_is_its_flags_value(tmp_path, capsys):
    # the line is the one token --da=-0.02, so the minus sign cannot start a flag
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("da = -0.02\n")
    assert run_cli(SMALL_MAP + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "dispersion_explicit-oucs3-cd2.csv").read_text().splitlines()[0]
    assert ",da=-0.02," in header


def test_a_config_key_reads_underscores_as_dashes(tmp_path, capsys):
    maps = []
    for key in ("kh_points", "kh-points"):
        cfgfile, out = tmp_path / f"{key}.cfg", tmp_path / key
        cfgfile.write_text(f"{key} = 4\n")
        assert run_cli(["dispersion-map", "--n", "51", "--node", "25", "--nc-points", "2",
                        "--config", str(cfgfile), "--out", str(out)]) == 0
        maps.append((out / "dispersion_explicit-oucs3-cd2.csv").read_text())
    assert maps[0] == maps[1] and len(maps[0].splitlines()) == 2 + 4 * 2


def test_a_config_line_naming_another_config_is_not_followed(tmp_path, capsys):
    (tmp_path / "other.cfg").write_text("n = x\n")   # exits 2 if it were read
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"config = {tmp_path / 'other.cfg'}\nkh-points = 4\n")
    assert run_cli(SMALL_MAP + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    # the command line's --kh-points 3 wins over the config's 4
    lines = (tmp_path / "dispersion_explicit-oucs3-cd2.csv").read_text().splitlines()
    assert len(lines) == 2 + 3 * 2


def test_an_unknown_config_key_is_named(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(SMALL_MAP + ["--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nonsense=1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--pe", "nan"), ("--pe", "-0.01"), ("--da", "inf"),
    ("--nc-min", "0"), ("--nc-min", "-0.1"), ("--nc-max", "nan"), ("--nc-max", "0.01"),
    ("--kh-min", "-0.1"), ("--kh-max", "3.2"), ("--kh-max", "inf"),
    ("--n", "6"), ("--node", "1"), ("--node", "51"),
    ("--kh-points", "0"), ("--nc-points", "0"), ("--kh-max", "0"),
])
def test_dispersion_map_rejects_bad_input(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["dispersion-map", "--n", "51", "--node", "25", "--kh-points", "3",
                    "--nc-points", "2", flag, value, "--out", str(out)])
    assert code == 2
    assert not out.exists()  # refused before any CSV is written
    err = capsys.readouterr().err
    assert "error:" in err and flag in err  # the message names the flag


@pytest.mark.parametrize("cmd,flag,value,why", [
    ("wavepacket", "--lam", "nan", "lam must be finite"),
    ("wavepacket", "--c", "inf", "c must be finite"),
    ("wavepacket", "--nu", "inf", "nu must be finite"),
    ("wavepacket", "--snapshots", "nan", "snapshot time must be finite"),
    ("wavepacket", "--snapshots", "abc", "--snapshots must be comma-separated times"),
    ("wavepacket", "--snapshots", "-1", "snapshot time -1 is outside the run from t = 0 to 0.02"),
    ("wavepacket", "--snapshots", "5", "snapshot time 5 is outside the run from t = 0 to 0.02"),
    ("wavepacket", "--gamma", "1e-300", "q-wave window empty: its bound x = -"),
    ("wavepacket", "--qwindow-efolds", "1e300", "not right of the domain's left end x = -5"),
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
    assert not out.exists()  # refused before any file is written
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-3", "0"])
def test_wavepacket_rejects_bad_qwindow_efolds(value, tmp_path, capsys):
    # refused up front: nan would surface later as an empty q-wave window
    # blamed on t, and a negative margin would run
    out = tmp_path / "out"
    assert run_cli(["wavepacket", "--n", "101", "--dt", "0.01", "--t-end", "0.02",
                    "--qwindow-efolds", value, "--out", str(out)]) == 2
    assert not out.exists()
    assert "--qwindow-efolds must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--gamma", "1e-300"), ("--qwindow-efolds", "1e300")])
def test_wavepacket_refuses_an_empty_q_wave_window_before_it_steps(flag, value, tmp_path,
                                                                   capsys, monkeypatch):
    from adrlab import adr1d

    def no_step(self, state):
        raise AssertionError("stepped before the q-wave window was checked")

    monkeypatch.setattr(adr1d.Stepper, "step", no_step)
    out = tmp_path / "out"
    assert run_cli(["wavepacket", "--n", "101", "--dt", "0.01", "--t-end", "0.02",
                    flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: q-wave window empty: its bound x = " in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "0", "1", "4", "5", "6"])
def test_wavepacket_too_few_nodes_exits_two(n, tmp_path, capsys):
    # the 7-node minimum is the grid's own check, the one the packet
    # config runs too, and runs before h divides by n - 1
    out = tmp_path / "out"
    assert run_cli(["wavepacket", "--n", n, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: n_points must be >= 7\n"


@pytest.mark.parametrize("argv", [
    ["dispersion-map", "--n", "51", "--node", "25", "--kh-points", "3", "--nc-points", "2"],
    ["wavepacket", "--n", "101", "--dt", "0.01", "--t-end", "0.02"],
    ["pks", "--n", "16", "--t-end", "2e-8"],
])
def test_an_out_that_cannot_be_created_exits_two(argv, tmp_path):
    # a directory below a regular file: os.makedirs raises NotADirectoryError
    (tmp_path / "file").write_text("")
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    proc = subprocess.run([sys.executable, "-m", "adrlab.cli", *argv,
                           "--out", str(tmp_path / "file" / "sub")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_pks_refuses_an_out_that_cannot_be_created_before_it_steps(tmp_path, capsys,
                                                                   monkeypatch):
    from adrlab import pks2d

    def no_step(self, state):
        raise AssertionError("stepped before --out was created")

    monkeypatch.setattr(pks2d.PksStepper, "step", no_step)
    (tmp_path / "file").write_text("")
    assert run_cli(["pks", "--n", "16", "--t-end", "1e-6",
                    "--out", str(tmp_path / "file" / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pks_help_names_each_variants_velocity_stencil(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option: no wrap inside a variant id
    with pytest.raises(SystemExit):
        run_cli(["pks", "--help"])
    out = capsys.readouterr().out
    assert "explicit-oucs3-cd2: Heun, c's velocity by CD2, not OUCS3" in out
    assert "imex-nccd: IMEX, c's velocity by NCCD" in out


@pytest.mark.parametrize("scheme", ["implicit-oucs3-lele", "imex-oucs3-lele", "imex-nccd"])
def test_wavepacket_da_two_exits_three(scheme, tmp_path, capsys):
    # Da = lam dt = 2 makes 1 - Da/2 vanish: the implicit stage eliminates
    # u through that factor, so it refuses the input
    assert run_cli(["wavepacket", "--scheme", scheme, "--n", "101", "--dt", "0.01",
                    "--t-end", "0.02", "--lam", "200", "--out", str(tmp_path)]) == 3
    assert "needs 1 - Da/2 != 0" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("da", ["2", "-2"])
def test_dispersion_map_da_two(da, scheme, tmp_path, capsys):
    # Da = 2 puts the pole 1 - Da/2 = 0 of the implicit stage at kh = 0, and
    # Da = -2 the zero 1 + Da/2 = 0 of G (no phase, no V_g): the three schemes
    # that treat the reaction implicitly fail numerically before any CSV is
    # written; the explicit scheme has neither and writes its map
    out = tmp_path / "out"
    code = run_cli(["dispersion-map", "--scheme", scheme, f"--da={da}", "--n", "41",
                    "--node", "20", "--kh-points", "4", "--nc-points", "4", "--out", str(out)])
    if scheme == "explicit-oucs3-cd2":
        assert code == 0
        rows = np.loadtxt(out / f"dispersion_{scheme}.csv", delimiter=",", skiprows=2)
        assert rows.shape == (16, 5) and np.all(np.isfinite(rows))
    else:
        assert code == 3
        assert not out.exists()
        assert "non-finite G ratio, V_g or phase error at kh = 0, N_c = 0.025" in (
            capsys.readouterr().err)


def _map_values(lo, hi):
    # mostly from the accepted range, sometimes any float at all
    return st.integers(0, 7).flatmap(lambda i: st.floats() if i == 0 else st.floats(lo, hi))


def _map_range(lo, hi):
    return st.tuples(_map_values(lo, hi), _map_values(lo, hi)).map(sorted)


@settings(max_examples=60, deadline=None)
@example(scheme="imex-nccd", pe=0.01, da=2.0, kh=(0.0, np.pi), nc=(0.025, 1.6), points=(4, 4))
@example(scheme="explicit-oucs3-cd2", pe=1e300, da=-0.01, kh=(0.0, np.pi), nc=(0.025, 1.6),
         points=(4, 4))
@given(scheme=st.sampled_from(SCHEMES), pe=_map_values(0.0, 2.0), da=_map_values(-3.0, 3.0),
       kh=_map_range(0.0, np.pi), nc=_map_range(1e-3, 3.0),
       points=st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_dispersion_map_writes_only_finite_values(scheme, pe, da, kh, nc, points):
    # any input either is refused (2), fails numerically (3) or gives a CSV
    # whose every value is finite (0), and never escapes as a traceback
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["dispersion-map", "--scheme", scheme, f"--pe={pe!r}", f"--da={da!r}",
                "--n", "41", "--node", "20", f"--kh-min={kh[0]!r}", f"--kh-max={kh[1]!r}",
                f"--nc-min={nc[0]!r}", f"--nc-max={nc[1]!r}", f"--kh-points={points[0]}",
                f"--nc-points={points[1]}", "--out", tmp]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        if code == 0:
            rows = np.loadtxt(os.path.join(tmp, f"dispersion_{scheme}.csv"), delimiter=",",
                              skiprows=2, ndmin=2)
            assert rows.shape == (points[0] * points[1], 5) and np.all(np.isfinite(rows))


def _exits_cleanly(argv):
    """Run argv with a fresh --out: exit 0 (every CSV value finite), 2 or
    3, and never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli([*argv, "--out", tmp])
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        for name in os.listdir(tmp) if code == 0 else ():
            if name.endswith(".csv"):
                rows = np.loadtxt(os.path.join(tmp, name), delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(rows)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # unstable draws overflow, then exit 3
@settings(max_examples=60, deadline=None)
@example(scheme="imex-nccd", n=41, half=1e-200, dt=0.01, steps=10, gamma=50.0, k0h=0.5,
         c=0.1, nu=1e-4, lam=-1.0)  # h**2 underflows to 0
@example(scheme="imex-nccd", n=41, half=1e156, dt=0.01, steps=1, gamma=50.0, k0h=0.5, c=0.1,
         nu=1e-4, lam=-1.0)  # h**2 overflows
@example(scheme="imex-nccd", n=1, half=5.0, dt=0.01, steps=1, gamma=50.0, k0h=0.5, c=0.1,
         nu=1e-4, lam=-1.0)  # h = 2 L/(n - 1) divides by 0
@given(scheme=st.sampled_from(SCHEMES), n=st.integers(0, 41), half=_map_values(0.5, 5.0),
       dt=_map_values(1e-4, 0.05), steps=st.integers(0, 3), gamma=_map_values(1.0, 400.0),
       k0h=_map_values(0.0, np.pi), c=_map_values(0.0, 2.0), nu=_map_values(0.0, 0.1),
       lam=_map_values(-3.0, 3.0))
def test_wavepacket_writes_only_finite_values(scheme, n, half, dt, steps, gamma, k0h, c, nu,
                                              lam):
    _exits_cleanly(["wavepacket", "--scheme", scheme, "--n", str(n), f"--half-length={half!r}",
                    f"--dt={dt!r}", f"--t-end={steps * dt!r}", f"--gamma={gamma!r}",
                    f"--k0h={k0h!r}", f"--c={c!r}", f"--nu={nu!r}", f"--lam={lam!r}",
                    f"--snapshots={dt!r}"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # unstable draws overflow, then exit 3
@settings(max_examples=60, deadline=None)
@example(variant="imex-nccd", n=0, dt=1e-8, steps=1, chi=30.0, theta=1.0, log_every=1)  # h = 1/n
@given(variant=st.sampled_from(["explicit-oucs3-cd2", "imex-nccd"]), n=st.integers(0, 12),
       dt=_map_values(1e-9, 1e-5), steps=st.integers(0, 3), chi=_map_values(0.0, 60.0),
       theta=_map_values(1.0, 2.0), log_every=st.integers(0, 3))
def test_pks_writes_only_finite_values(variant, n, dt, steps, chi, theta, log_every):
    _exits_cleanly(["pks", "--variant", variant, "--n", str(n), f"--dt={dt!r}",
                    f"--t-end={steps * dt!r}", f"--chi={chi!r}", f"--theta={theta!r}",
                    "--log-every", str(log_every)])


def test_pks_negative_edge_reconstruction_exits_three(tmp_path, capsys, monkeypatch):
    from adrlab import pks2d

    def broken_slopes(rho, mesh, theta, work):  # a limiter that lets every edge value go negative
        return 1e3 * np.ones_like(rho), np.zeros_like(rho)

    monkeypatch.setattr(pks2d, "adaptive_slopes", broken_slopes)
    assert run_cli(["pks", "--n", "16", "--t-end", "1e-8", "--out", str(tmp_path)]) == 3
    assert "negative edge reconstruction" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["0", "-5"])
def test_pks_log_every_below_one_exits_two(value, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["pks", "--n", "16", "--t-end", "1e-8", "--log-every", value,
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert "--log-every" in capsys.readouterr().err


def test_pks_imex_default_dt_runs(tmp_path, capsys):
    assert run_cli(["pks", "--variant", "imex-nccd", "--n", "16", "--t-end", "1e-7",
                    "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "pks_imex-nccd_16_meta.json").read_text())
    assert meta["dt"] == 1e-8
    assert meta["diagnostics"][-1]["min_rho"] >= 0.0


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_main_pins_blas_to_one_thread_and_refuses_threads(tmp_path, monkeypatch, capsys):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "2")
    small = ["dispersion-map", "--n", "21", "--node", "10", "--kh-points", "2",
             "--nc-points", "1", "--out", str(tmp_path)]
    assert run_cli(small) == 0
    assert [os.environ[v] for v in _THREAD_VARS] == ["1"] * 3
    cfgfile = tmp_path / "threads.cfg"
    cfgfile.write_text("threads = 2\n")
    for extra in (["--threads", "2"], ["--threads=2"], ["--config", str(cfgfile)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(small + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--threads" in err


@pytest.mark.parametrize("argv", [
    ["pks", "--variant", "imex-nccd", "--n", "200", "--dt", "1e-8", "--t-end", "2e-7"],
    ["wavepacket", "--scheme", "imex-nccd", "--t-end", "1"],
], ids=["pks", "wavepacket"])
def test_outputs_do_not_depend_on_the_blas_thread_count(argv, tmp_path):
    # products that BLAS splits over two threads move the last digits of these
    # runs' fields; the CLI runs BLAS on one thread whatever the environment says
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"),
                   **dict.fromkeys(_THREAD_VARS, threads))
        proc = subprocess.run([sys.executable, "-m", "adrlab.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, check=True)
        outputs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


def test_cli_import_leaves_numpy_unloaded():
    # main pins BLAS to one thread after parsing; the pin reaches BLAS only
    # because numpy is first imported by the command handlers
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import sys, adrlab.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _fresh_run(code: str, tmp_path):
    """Exit code and sorted module names of a fresh interpreter that runs
    `code` and then prints sys.modules as its last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    script = ("import json, sys\nrc = 0\n" + code
              + "\nprint(json.dumps(sorted(sys.modules)))\nsys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _main_call(*argv) -> str:
    return f"from adrlab.cli import main\nrc = main({list(argv) + ['--out', 'out']!r})"


def test_wavepacket_run_leaves_scipy_integrate_unloaded(tmp_path):
    # the exact solution is a closed form; no command needs quadrature
    rc, mods = _fresh_run(_main_call("wavepacket", "--n", "101", "--t-end", "0.02"), tmp_path)
    assert rc == 0
    assert "scipy.integrate" not in mods


@pytest.mark.parametrize("code", [
    _main_call("pks", "--variant", "explicit-oucs3-cd2", "--n", "16", "--t-end", "1e-8"),
    "import adrlab.pks2d",
    _main_call("dispersion-map", "--scheme", "imex-nccd", "--n", "21", "--node", "10",
               "--kh-points", "3", "--nc-points", "2"),
    _main_call("pks", "--variant", "imex-nccd", "--n", "16", "--t-end", "1e-8"),
    "import adrlab.spectral",
] + [_main_call("wavepacket", "--scheme", s, "--n", "101", "--t-end", "0.02") for s in SCHEMES],
    ids=["explicit-pks-run", "import-pks2d", "dispersion-map-run", "imex-pks-run",
         "import-spectral"] + [f"wavepacket-{s}-run" for s in SCHEMES])
def test_explicit_pks_loads_no_scipy(code, tmp_path):
    # every command runs on NumPy alone, the 1D steppers' solves included
    rc, mods = _fresh_run(code, tmp_path)
    assert rc == 0
    assert [m for m in mods if m == "scipy" or m.startswith("scipy.")] == []


def test_no_program_module_imports_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                       "adrlab")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                mods = ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                found += [(name, m) for m in mods if m.split(".")[0] == "scipy"]
    assert found == []


def test_imex_pks_run_loads_nccd_operators_on_demand(tmp_path):
    rc, mods = _fresh_run(_main_call("pks", "--variant", "imex-nccd", "--n", "16",
                                     "--t-end", "1e-8"), tmp_path)
    assert rc == 0
    assert "adrlab.operators" in mods


@pytest.mark.parametrize("cls", [LinearSolveError, AdrInstabilityError, PositivityError,
                                 NonFiniteError, EdgeReconstructionError,
                                 NonFiniteSampleError],
                         ids=lambda cls: cls.__name__)
def test_numerical_errors_share_one_base(cls):
    assert issubclass(cls, NumericalError) and not issubclass(cls, ValueError)

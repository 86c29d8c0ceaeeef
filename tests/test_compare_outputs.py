import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write(d: Path, name: str, text: str) -> None:
    d.mkdir(parents=True, exist_ok=True)
    (d / name).write_text(text)


def test_reports_identical_and_per_column_differences(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        write(d, "same.csv", "# scheme=x\nkh,g\n0.5,1\n")
    write(a, "moved.csv", "x,u\n0,2\n1,-4\n")
    write(b, "moved.csv", "x,u\n0,2\n1,-4.000000000004\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "same.csv: byte-identical" in out
    assert "moved.csv: max|d|/max|col|: x 0, u 1e-12; max|d|/|a|: x 0, u 1e-12" in out
    write(b, "moved.csv", "x,u\n0,2\n1,-4\n")
    assert compare_outputs.main([str(a), str(b)]) == 0


def test_per_value_measure_shows_a_small_value_that_moved(tmp_path, capsys):
    # beside its column's maximum the move of 1e-6 is 1e-9; of its own size, 1e-3;
    # where A is 0 the per-value measure is the absolute difference
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "f.csv", "u,v\n1,0\n1e-6,2\n")
    write(b, "f.csv", "u,v\n1,3e-20\n1.001e-6,2\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert ("f.csv: max|d|/max|col|: u 1e-09, v 1.5e-20; max|d|/|a|: u 0.001, v 3e-20"
            in capsys.readouterr().out)


@pytest.mark.parametrize("text_b,why", [
    ("x,v\n0,2\n", "header"),
    ("x,u\n0,2\n1,3\n", "row count"),
])
def test_structural_differences_and_missing_files_fail(tmp_path, capsys, text_b, why):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "f.csv", "x,u\n0,2\n")
    write(b, "f.csv", text_b)
    write(a, "only_a.csv", "x\n1\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert why in out
    assert "only_a.csv: only in" in out


def test_reports_metadata_numeric_leaves(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    meta = '{"variant": "%s", "mesh": {"nx": 8}, "diagnostics": [%s]}\n'
    sample = '{"t": %s, "mass": %s}'
    write(a, "run_meta.json", meta % ("x", ", ".join([sample % (0, 2.0), sample % (1, -4.0)])))
    write(b, "run_meta.json", meta % ("x", ", ".join([sample % (0, 2.0),
                                                       sample % (1, -4.000000000004)])))
    write(a, "same_meta.json", '{"dt": 1e-08}\n')
    write(b, "same_meta.json", '{"dt": 1e-08}\n')
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "same_meta.json: byte-identical" in out
    assert ("run_meta.json: max|d|/max|col|: mesh.nx 0, diagnostics.t 0, diagnostics.mass 1e-12; "
            "max|d|/|a|: mesh.nx 0, diagnostics.t 0, diagnostics.mass 1e-12") in out
    write(b, "run_meta.json", meta % ("y", ", ".join([sample % (0, 2.0), sample % (1, -4.0)])))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "run_meta.json: non-numeric values differ: variant" in capsys.readouterr().out
    write(b, "run_meta.json", meta % ("x", sample % (0, 2.0)))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "run_meta.json: keys or list lengths differ" in capsys.readouterr().out


def test_reports_the_stdout_lines_that_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a / "run", "stdout.txt", "t=1 mass=2\nwrote ./x.csv\n")
    write(b / "run", "stdout.txt", "t=1 mass=2\nwrote ./x.csv\n")
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert "stdout.txt: byte-identical" in capsys.readouterr().out
    write(b / "run", "stdout.txt", "t=1 mass=3\nwrote ./x.csv\nextra\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "stdout.txt: lines differ: 1, 3" in capsys.readouterr().out


def test_reports_the_stderr_lines_that_differ(tmp_path, capsys):
    # a refused run's exit code and message, compared as its stdout is
    a, b = tmp_path / "a", tmp_path / "b"
    write(a / "refused", "stderr.txt", "exit 2\nerror: n_points must be >= 7\n")
    write(b / "refused", "stderr.txt", "exit 2\nerror: n_points must be >= 7\n")
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert "refused/stderr.txt: byte-identical" in capsys.readouterr().out
    write(b / "refused", "stderr.txt", "exit 1\nTraceback (most recent call last):\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "refused/stderr.txt: lines differ: 1, 2" in capsys.readouterr().out

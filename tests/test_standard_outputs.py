import importlib.util
import shutil
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


standard_outputs, compare_outputs = _tool("standard_outputs"), _tool("compare_outputs")

TINY = [
    ("map", ["dispersion-map", "--n", "51", "--node", "25", "--kh-points", "4",
             "--nc-points", "3"], None),
    ("map_config", ["dispersion-map"], "n = 51\nnode = 25\nkh-points = 3\nnc-points = 2\n"),
    ("pks", ["pks", "--n", "8", "--t-end", "2e-8"], None),
]

TINY_REFUSED = [
    ("refused_map", ["dispersion-map", "--n", "6"], None),
    ("refused_pks", ["pks", "--n", "8", "--out", "run.cfg/sub"], "t-end = 1e-8\n"),
    ("refused_config", ["dispersion-map", "--n", "51", "--node", "25"], "nonsense = 1\n"),
]


def test_two_exports_of_one_tree_give_identical_outputs(tmp_path, capsys):
    trees = [tmp_path / side for side in ("a", "b")]
    for tree in trees:
        shutil.copytree(_ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        standard_outputs.run(tree, tmp_path / f"out_{tree.name}", TINY, TINY_REFUSED)
    out = tmp_path / "out_a"
    assert (out / "map" / "stdout.txt").read_text().endswith(
        "wrote ./dispersion_explicit-oucs3-cd2.csv\n")
    rows = (out / "map_config" / "dispersion_explicit-oucs3-cd2.csv").read_text().splitlines()
    assert len(rows) == 2 + 3 * 2   # the config's kh and nc points
    assert (out / "pks" / "pks_explicit-oucs3-cd2_8_meta.json").exists()
    assert compare_outputs.main([str(out), str(tmp_path / "out_b")]) == 0
    # the refused runs went on past their failures and kept exit code and message
    assert (out / "refused_map" / "stderr.txt").read_text() == "exit 2\nerror: --n must be >= 7\n"
    assert (out / "refused_pks" / "stderr.txt").read_text() == (
        "exit 2\nerror: [Errno 20] Not a directory: 'run.cfg/sub'\n")
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 2 + 2 + 4 + 3 * 2
    assert all(ln.endswith("byte-identical") for ln in report)


def test_a_failing_run_stops_the_set(tmp_path):
    shutil.copytree(_ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with pytest.raises(RuntimeError, match="bad exited 2: error: --n must be >= 7"):
        standard_outputs.run(tmp_path, tmp_path / "out",
                             [("bad", ["dispersion-map", "--n", "5"], None)])



def test_the_refused_config_run_names_its_key(tmp_path):
    refused = [r for r in standard_outputs.REFUSED if r[0] == "refused_map_config_key"]
    standard_outputs.run(_ROOT, tmp_path / "out", [], refused)
    err = (tmp_path / "out" / "refused_map_config_key" / "stderr.txt").read_text()
    assert err.startswith("exit 2\n") and err.endswith(
        "error: unrecognized arguments: --nonsense=1\n")


def test_the_refused_q_window_run_names_its_bound(tmp_path):
    refused = [r for r in standard_outputs.REFUSED if r[0] == "refused_wavepacket_qwindow"]
    standard_outputs.run(_ROOT, tmp_path / "out", [], refused)
    run = tmp_path / "out" / "refused_wavepacket_qwindow"
    assert (run / "stderr.txt").read_text() == (
        "exit 2\nerror: q-wave window empty: its bound x = -6e+150 is not right of the "
        "domain's left end x = -5\n")
    assert sorted(p.name for p in run.iterdir()) == ["stderr.txt", "stdout.txt"]

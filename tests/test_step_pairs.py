import importlib.util
import json
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_pairs", _ROOT / "tools" / "step_pairs.py")
step_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_pairs)


def test_two_copies_of_one_tree(tmp_path):
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        shutil.copytree(_ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "pairs.json"
    assert step_pairs.main([*map(str, trees), "--meshes", "8,12", "--pairs", "2",
                            "--steps", "2", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    schemes = ("explicit-oucs3-cd2", "implicit-oucs3-lele", "imex-oucs3-lele", "imex-nccd")
    writes = ["write:pks-snapshot@8", "write:pks-snapshot@12", "write:map-imex-nccd",
              "write:wavepacket-snapshot@1001"]
    assert sorted(results) == sorted([f"{v}@{n}" for v in ("explicit-oucs3-cd2", "imex-nccd")
                                      for n in (8, 12)]
                                     + [f"adr1d:{s}@1001" for s in schemes] + writes)
    for key, metrics in results.items():
        assert sorted(metrics) == (["write_ms"] if key in writes else ["setup_ms", "step_ms"])
        for m in metrics.values():
            assert m["pairs"] == len(m["parent"]) == len(m["change"]) == len(m["ratio"]) == 2
            assert all(p > 0 and c > 0 for p, c in zip(m["parent"], m["change"]))
            assert m["ratio"] == [c / p for p, c in zip(m["parent"], m["change"])]
            assert m["change_wins"] == sum(r < 1 for r in m["ratio"])

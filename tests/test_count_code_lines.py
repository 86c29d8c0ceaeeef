import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import numpy as np  # a comment after code


# a comment alone
def f(x):
    """Docstring."""
    s = """a string that is not a docstring,
    so both lines count"""
    return np.sum(x,
                  axis=0)


class C:
    """Class docstring."""

    x = 1
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, def, s (2 lines), return (2 lines), class, x
    assert count_code_lines.count(SOURCE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text('"""Only a docstring."""\n')
    assert count_code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "c.py")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["8", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["0", str(tmp_path / "c.py")],
        ["9", "total"],
    ]

"""Every function, class and method of `src/adrlab` has a caller in `src/adrlab`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "adrlab"


def _referenced(node):
    """The name a node refers to: a name, an attribute, or a string constant
    (a ``globals()`` lookup); None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def unreached(package: Path) -> list:
    """``module.name`` of each top-level function or class and each
    non-dunder method of the package's modules that nothing in the package
    refers to (`_referenced`) outside its own body."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    defs = []  # (module, qualified name, node)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(mod, f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    refs = [(mod, node.lineno, ref) for mod, tree in trees.items()
            for node in ast.walk(tree) if (ref := _referenced(node)) is not None]
    return [f"{mod}.{name}" for mod, name, node in defs
            if not any(ref == node.name
                       and not (m == mod and node.lineno <= line <= node.end_lineno)
                       for m, line, ref in refs)]


def test_every_definition_in_src_has_a_caller():
    assert unreached(SRC) == []


def test_scan_flags_an_uncalled_function_and_follows_a_string_lookup(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def uncalled():\n    return looked_up()\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def looked_up():\n    return 1\n\n\n"
        "class Kernel:\n    def __call__(self):\n        return 2\n\n"
        "    def unused(self):\n        return 3\n\n\n"
        "def main():\n    return globals()['looked_up']() + Kernel()()\n\n\n"
        "main()\n")
    assert unreached(tmp_path) == ["mod.uncalled", "mod.recursive", "mod.Kernel.unused"]

"""Every module-level name in ``src/docgraph`` is reached: some line of
``src/``, ``bench/`` or ``tests/`` other than its definition mentions it.

The probe is textual, so a mention in a comment or docstring counts too; it
catches a constant, function or class that nothing reads any more. Dunders
and the backward rules that ``autodiff._rule`` registers by op name are
exempt, as nothing calls them by their own name.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "docgraph"
SEARCHED = ("src", "bench", "tests")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_rule(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_rule"
               for d in getattr(node, "decorator_list", ()))


def module_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and assigned name
    in ``path``, less the exempt ones."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not _is_rule(node):
                found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def mentions() -> dict[str, set[tuple[Path, int]]]:
    """Each word of every Python file under ``SEARCHED`` -> (file, line) pairs."""
    where = defaultdict(set)
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in WORD.findall(line):
                    where[word].add((path, lineno))
    return where


def test_every_module_level_name_is_mentioned_elsewhere():
    where = mentions()
    unreached = [f"{path.relative_to(ROOT)}:{line} {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name, line in module_names(path)
                 if not where[name] - {(path, line)}]
    assert unreached == []


def test_the_probe_finds_a_name_nothing_mentions(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import x\n\nKEPT = 1\nLOST = KEPT\n\n\n@_rule('op')\ndef _op_bwd(e):\n"
                      "    return e\n\n__all__ = []\n", encoding="utf-8")
    assert module_names(module) == [("KEPT", 3), ("LOST", 4)]

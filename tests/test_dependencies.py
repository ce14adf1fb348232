"""numpy is the only runtime dependency: every import under ``src/``, at
module level or inside a function, names the standard library, numpy or
toxiclass itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "toxiclass"}


def import_roots(tree):
    """(line, top-level package) of each absolute import in ``tree``; a
    relative import stays inside toxiclass and yields nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_roots_of_each_import_form():
    tree = ast.parse("import os.path, scipy.sparse as sp\nfrom .layers import LSTM\n"
                     "def f():\n    from hypothesis import given\n")
    assert list(import_roots(tree)) == [(1, "os"), (1, "scipy"), (4, "hypothesis")]


def test_src_imports_only_stdlib_numpy_and_toxiclass():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    foreign = [f"{path.relative_to(SRC)}:{line}: {root}"
               for path in paths
               for line, root in import_roots(ast.parse(path.read_bytes(), str(path)))
               if root not in ALLOWED]
    assert foreign == []

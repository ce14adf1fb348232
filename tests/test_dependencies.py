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



def package_modules(tree):
    """Each toxiclass module that an import in ``tree`` names, by its first
    part below the package, written relative to a module at the top level."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "toxiclass" and not module.startswith("toxiclass."):
                    continue
                module = module[len("toxiclass."):]
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("toxiclass."))


def test_package_modules_of_each_import_form():
    tree = ast.parse("from .corpus import encode\nfrom . import models, cli\n"
                     "from .neural.layers import LSTM\nimport toxiclass.metrics, os\n"
                     "from toxiclass import config\nfrom toxiclass.embedding import x\n"
                     "from numpy import ndarray\n")
    assert sorted(package_modules(tree)) == ["cli", "config", "corpus", "embedding",
                                             "metrics", "models", "neural"]


def test_explainer_imports_only_corpus_and_errors():
    """The explainer reaches a model only through the ``predict`` it is
    given: it imports no package module but ``corpus`` and ``errors``."""
    path = SRC / "toxiclass" / "explain.py"
    assert set(package_modules(ast.parse(path.read_bytes(), str(path)))) \
        <= {"corpus", "errors"}

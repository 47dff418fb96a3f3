"""Every name a module of the ``arn`` package imports is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arn"


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that it never reads.

    A name is read when it occurs as a ``Name`` node anywhere, which covers
    the root of an attribute chain such as ``np.zeros``, or when it is listed
    in ``__all__`` (a re-export). ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .tensor import Tensor, no_grad\n"
              "__all__ = ['no_grad']\n"
              "def f(x: Tensor):\n"
              "    return np.zeros(os.path.sep.count('/'))\n")
    assert unused_imports(source) == ["math (line 2)"]

"""Every name a module of the ``arn`` package imports is used in it, every
name it defines is read by program code, every name its documentation
refers to exists, and the package needs numpy alone."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arn"
# the program code: the package, its scripts and the benchmark
READERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


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


def defined_names(source: str) -> dict:
    """Top-level functions, classes and assigned names of ``source``, dunders
    excepted, each with its line."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def read_names(source: str) -> set:
    """Names ``source`` reads: loaded ``Name`` nodes, attribute names (so
    ``tensor.attention`` reads ``attention``) and string constants, since
    ``perfbench/tracing.py`` binds its wrappers by name. A definition or an
    assignment is not a read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_names(modules: dict, readers: list) -> list:
    """``module: name (line n)`` for every name defined by the sources in
    ``modules`` (module name -> source) that no source in ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return sorted(f"{module}: {name} (line {line})"
                  for module, source in modules.items()
                  for name, line in defined_names(source).items() if name not in read)


def test_every_package_name_has_a_program_reader():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for d in READERS for p in sorted(d.rglob("*.py"))]
    assert unread_names(modules, readers) == []


def test_name_checker_counts_only_reads():
    lib = ("import numpy as np\n"
           "LIMIT = 3\n"
           "UNUSED: int = 4\n"
           "__version__ = '1'\n"
           "class Box:\n"
           "    def method(self): pass\n"
           "def helper(x): return x\n"
           "def wrapped(): pass\n"
           "def called(): return np.zeros(LIMIT)\n")
    user = ("from lib import Box\n"
            "import lib\n"
            "SPANS = {'lib': ('wrapped',)}\n"
            "lib.called()\n"
            "box = Box()\n")
    assert unread_names({"lib.py": lib}, [lib, user]) == [
        "lib.py: UNUSED (line 3)", "lib.py: helper (line 7)"]


def test_cli_loads_no_scipy():
    # in a fresh interpreter, so that no test's import of scipy counts;
    # scipy serves the tests, perfbench and the demo-data script only
    code = ("import sys, arn.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout.strip() == "[]", run.stdout


# a backticked span that starts with a name of the package, with or without
# ``arn.``, and may go on with a call's arguments: ``model.param_shapes``,
# `arn.tensor.attention(x, ...)`, ``training.BlockReader.read``
SPAN = re.compile(r"`+([^`]+?)`+")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
REFERENCE = re.compile(rf"(?:arn\.)?(?:{'|'.join(MODULES)})\.\w+(?:\.\w+)?")


def unresolved_references(text: str) -> list:
    """The package references at the start of ``text``'s backticked spans
    that name nothing in the package, each once, in order."""
    missing = []
    for span in SPAN.finditer(text):
        ref = REFERENCE.match(span[1])
        if ref is None or ref[0] in missing:
            continue
        module, *attrs = ref[0].removeprefix("arn.").split(".")
        obj = importlib.import_module(f"arn.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(ref[0])
    return missing


def test_doc_references_resolve():
    docs = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]
    assert [f"{path.name}: {ref}" for path in docs
            for ref in unresolved_references(path.read_text())] == []


def test_reference_checker_flags_only_missing_names():
    text = ("`model.enhance`, ``arn.tensor.attention(x, w)``, `training.BlockReader.read`,\n"
            "`model.layer_table`, ``arn.model.gone(x)``, `tensor.Tensor.nope`, "
            "`model.layer_table`, `np.zeros`, `arn.model`, ``'block1.'``")
    assert unresolved_references(text) == [
        "model.layer_table", "arn.model.gone", "tensor.Tensor.nope"]

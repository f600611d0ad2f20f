"""The benchmark's calls into eskin still resolve.

``perfbench/workloads.py`` reaches the program through ``from eskin...
import`` names and through attributes of the eskin modules it imports
(``pipeline.train_single``, ``cli.main`` ...), so a rename in eskin would
break the benchmark without failing any other test. The workloads file is
parsed with ``ast``; nothing under perfbench is imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _resolve(module: str, name: str):
    """``module.name``, as ``from module import name`` finds it: an
    attribute, or else a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def benchmark_uses() -> list[tuple[str, str]]:
    """(module, name) for every eskin name the workloads import, and every
    attribute they read of an imported eskin module, in file order."""
    tree = ast.parse(WORKLOADS.read_text())
    uses, modules = [], {}   # modules: local name -> eskin module path
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eskin"):
            for alias in node.names:
                uses.append((node.module, alias.name))
                path = f"{node.module}.{alias.name}"
                if _is_module(path):
                    modules[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            uses.append((modules[node.value.id], node.attr))
    return list(dict.fromkeys(uses))


def _is_module(path: str) -> bool:
    try:
        importlib.import_module(path)
    except ModuleNotFoundError:
        return False
    return True


USES = benchmark_uses()


def test_the_workloads_use_the_pipeline():
    # the parse finds the calls the benchmark times, so the test below is not vacuous
    assert {("eskin.pipeline", "train_single"), ("eskin.cli", "main")} <= set(USES)


@pytest.mark.parametrize("module, name", USES, ids=[f"{m}.{n}" for m, n in USES])
def test_every_name_resolves(module, name):
    assert _resolve(module, name) is not None

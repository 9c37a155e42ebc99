"""The top-level `mtesim` namespace exports what the CLI, the demos and the
tests import from it, and nothing else."""

import ast
import pkgutil
from pathlib import Path

import mtesim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(mtesim.__file__).resolve().parent
USERS = [PACKAGE / "cli.py", *sorted((ROOT / "demos").glob("*.py")),
         *sorted((ROOT / "tests").glob("*.py"))]


def names_imported_from_top_level(path):
    """Names bound by `from mtesim import ...`, or in the package by
    `from . import ...`, leaving out submodules."""
    submodules = {info.name for info in pkgutil.iter_modules(mtesim.__path__)}
    in_package = path.parent == PACKAGE
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                (node.module == "mtesim" and node.level == 0)
                or (in_package and node.module is None and node.level == 1)):
            names.update(alias.name for alias in node.names if alias.name not in submodules)
    return names


def test_all_is_what_the_cli_demos_and_tests_import():
    used = set().union(*map(names_imported_from_top_level, USERS))
    assert len(set(mtesim.__all__)) == len(mtesim.__all__)
    assert sorted(mtesim.__all__) == sorted(used)

"""The package's public surface."""

import ast
from pathlib import Path
from types import ModuleType

import ellcover as ec


def test_star_import_exports_every_public_name_and_no_module():
    names: dict = {}
    exec("from ellcover import *", names)
    del names["__builtins__"]
    assert sorted(names) == ec.__all__
    assert {"BudgetExceeded", "Poly", "count_constrained", "exhaustive_distribution",
            "growth_check", "run_checks", "theoretical_distribution"} <= set(names)
    assert not any(name.startswith("_") or isinstance(value, ModuleType)
                   for name, value in names.items())
    assert len(names) == 78


def test_no_module_holds_an_assert_statement():
    # python -O strips an assert, and the CLI would turn a failing one into a
    # traceback with exit code 1: a broken invariant raises CrossCheckMismatch
    found = []
    for path in sorted(Path(ec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(Path(ec.__file__).parent.glob("*.py"))) >= 13
    assert found == []

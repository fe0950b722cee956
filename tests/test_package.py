"""The package's public surface."""

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

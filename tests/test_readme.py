"""Each backticked ``module.name`` in the README names something in the
package, so a refactor that moves a name fails here instead of leaving the
README stale."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import tasklens

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(tasklens.__path__)}


def references() -> list[str]:
    """The README's backticked dotted names whose first part is a module of
    the package, ``tasklens.`` dropped."""
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`",
                       README.read_text(encoding="utf-8"))
    names = [name.removeprefix("tasklens.") for name in names]
    return sorted({name for name in names if name.split(".")[0] in MODULES})


def test_readme_names_resolve():
    found = references()
    assert "edits.Verdict" in found  # the pattern finds the README's names
    missing = []
    for name in found:
        module, *path = name.split(".")
        try:
            reduce(getattr, path, importlib.import_module(f"tasklens.{module}"))
        except AttributeError:
            missing.append(name)
    assert not missing

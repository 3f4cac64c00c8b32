"""README's library sketch and module paragraph cite names that exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import finslercheck

README = Path(__file__).resolve().parent.parent / "README.md"


def cited_names():
    """The dotted names in backticks, and the names the sketch imports, from
    the library sketch through the module paragraph."""
    text = README.read_text()
    section = text[text.index("## Library sketch") : text.index("Sampling conventions:")]
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)", section))
    for module, imported in re.findall(r"from finslercheck(?:\.(\w+))? import ([\w, ]+)", section):
        names |= {f"{module}.{n.strip()}" if module else n.strip() for n in imported.split(",")}
    return names


def test_readme_names_resolve():
    modules = {
        m.name: importlib.import_module(f"finslercheck.{m.name}")
        for m in pkgutil.iter_modules(finslercheck.__path__)
    }
    names = cited_names()
    assert {
        "metrics.bundle_of",
        "checks.Run",
        "geodesics.integrate_geodesics",
        "projective.flag_curvature",
    } <= names
    for dotted in sorted(names):
        head, *rest = dotted.split(".")
        # a module of the package, or a name one of them (or the package) defines
        owners = [m for m in (finslercheck, *modules.values()) if hasattr(m, head)]
        assert head in modules or owners, dotted
        obj = modules[head] if head in modules else getattr(owners[0], head)
        for part in rest:
            assert hasattr(obj, part), dotted
            obj = getattr(obj, part)

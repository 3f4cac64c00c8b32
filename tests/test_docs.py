"""README's library sketch and module paragraph cite names that exist, its check
table lists the checks with their default tolerances, and its params table lists
the checks' params with their defaults."""

import importlib
import pkgutil
import re
from pathlib import Path

import finslercheck
from finslercheck.checks import CHECK_NAMES, CHECKS, DEFAULT_TOLERANCES

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


def test_readme_check_table_matches_the_check_table():
    # one row per check, its tolerance the table's default ("exact" is 0); the
    # curvature row also gives the default of its second record, curvature_pde
    text = README.read_text()
    start = text.index("Available checks and default tolerances:")
    table = text[start : text.index("`curvature_pde` is a tolerance key")]
    rows = re.findall(r"^\| `(\w+)` \|.*\| ([^|]+) \|$", table, re.MULTILINE)
    assert sorted(name for name, _ in rows) == CHECK_NAMES
    for name, cell in rows:
        value, *extra = cell.split(", ")
        assert (0.0 if value == "exact" else float(value)) == CHECKS[name][1], name
        for entry in extra:
            key, tol = entry.split()
            assert float(tol) == DEFAULT_TOLERANCES[key.strip("`")], name


def test_readme_params_table_matches_the_declared_params():
    # one row per declared param of CHECKS: its default ("none" is None) and what
    # it must be, so the docs cannot drift from the table
    text = README.read_text()
    start = text.index("The checks that take params")
    table = text[start : text.index("`lambda` is the hypothesised")]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", table, re.MULTILINE)
    declared = {
        (check, param): (default, what)
        for check, entry in CHECKS.items()
        for param, (default, _, _, what) in entry[3].items()
    }
    assert sorted((check, param) for check, param, _, _ in rows) == sorted(declared)
    for check, param, default, what in rows:
        want_default, want_what = declared[check, param]
        assert (None if default == "none" else float(default)) == want_default, (check, param)
        assert what == want_what, (check, param)

"""README's library sketch and module paragraph cite names that exist, its check
table lists the checks with their default tolerances, its params table lists
the checks' params with their defaults, and its config table lists every other
key the config reader declares."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import finslercheck
from finslercheck.checks import CHECK_NAMES, CHECKS, DEFAULT_TOLERANCES, REQUIRED
from finslercheck.cli import CHECK_ENTRY, CONFIG, METRIC_FORMS
from finslercheck.metrics import builtin_names, builtin_params

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


def declared_config_keys():
    """dotted path -> (default, what) of every key a config's tables declare, a
    check's params aside (the params table has them).  The tolerances of all
    checks share the row ``tolerances.<check>``; a builtin's params are tested by
    the metric, so their ``what`` is None."""

    def walk(table, path):
        for key, (default, kind, _, what) in table.items():
            yield f"{path}{key}", (default, what)
            if isinstance(kind, dict):
                yield from walk(kind, f"{path}{key}.")

    keys = dict(walk(CONFIG, ""))
    for form in METRIC_FORMS.values():
        keys.update(walk(form, "metric."))
    keys.update(walk(CHECK_ENTRY, "checks[i]."))
    for name in builtin_names():
        keys.update({f"metric.params.{key}": (default, None) for key, default in builtin_params(name).items()})
    tolerances = {keys.pop(f"tolerances.{name}") for name in DEFAULT_TOLERANCES}
    assert {what for _, what in tolerances} == {"finite and >= 0"}
    keys["tolerances.<check>"] = ("the check's", "finite and >= 0")
    return keys


def test_readme_config_table_matches_the_declared_tables():
    # one row per declared key: its default ("required", "none", a JSON value in
    # backticks, or the check's tolerance) and what it must be
    text = README.read_text()
    start = text.index("these are all the keys")
    table = text[start : text.index("Any other key, a missing required key")]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|$", table, re.MULTILINE)
    declared = declared_config_keys()
    assert sorted(path for path, _, _ in rows) == sorted(declared)
    for path, default, what in rows:
        want_default, want_what = declared[path]
        if default == "required":
            assert want_default is REQUIRED, path
        elif default == "none":
            assert want_default is None, path
        elif default.startswith("`"):
            assert json.loads(default.strip("`")) == want_default, path
        else:
            assert default == want_default, path
        assert want_what is None or what == want_what, path

"""Config-driven batch runner.

A config is one JSON document:

    {
      "metric": {"name": "funk"}
                | {"name": "bryant", "params": {"alpha": 0.5235987755982988}}
                | {"family": {"f": "1/sqrt(1+t)", "g": "1/(1-r^2)",
                              "h": "1/(1-r^2)", "baseline": "abs_corrected",
                              "domain_radius": 1.0,
                              "quad": {"abs_tol": 1e-12, "max_depth": 40}}}
                | {"general": {"F": "sqrt(2*y1^2 + y2^2)"}},
      "dimension": 2,
      "sampling": {"count": 500, "seed": 7},
      "checks": ["symmetry", {"name": "curvature", "params": {"lambda": -0.25}}],
      "tolerances": {"symmetry": 1e-9}
    }

Exit codes: 0 all checks pass, 1 at least one failed, 2 config or parse
error.  Checks run in declared order and the report reduction is an
ordered fold over sample index, so identical configs produce
byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

from .checks import CHECK_NAMES, DEFAULT_TOLERANCES, ConfigError, Run, _suggest, run_check
from .expr import ParseError
from .family import FamilyError, ProjectiveFamilySpec, build_projective_metric
from .metrics import GeneralMetric, builtin, builtin_names, builtin_params
from .report import Report, to_json, to_text
from .sampling import SampleSpec, sample_domain


_KINDS = {dict: "an object", numbers.Integral: "an integer", numbers.Real: "a number", str: "a string"}


def _entry(cfg: dict, key, kind, default, path: str = "", valid=None, what=None):
    """cfg[key] (default when absent).  A bool, a value of another kind or one that
    ``valid`` refuses is a config error that says what it must be (``what``)."""
    value = cfg.get(key, default)
    wrong = isinstance(value, bool) or not isinstance(value, kind)
    if key in cfg and (wrong or not (valid is None or valid(value))):
        raise ConfigError(f"'{path}{key}' must be {what or _KINDS[kind]}, got {value!r}")
    return value


# (valid, what) of an entry that not every value of its kind may take
_POSITIVE = (lambda r: r > 0.0, "positive")  # inf passes, NaN fails
# an infinite tolerance passes vacuously, and inf or NaN cannot be written as JSON
_TOLERANCE = (lambda t: math.isfinite(t) and t >= 0.0, "finite and >= 0")
_TWO_NUMBERS = (lambda w: len(w) == 2 and all(type(c) in (int, float) for c in w), "a list of two numbers")


def _build_metric(cfg: dict, dimension: int):
    metric_cfg = cfg.get("metric")
    if isinstance(metric_cfg, str):
        metric_cfg = {"name": metric_cfg}
    if not isinstance(metric_cfg, dict):
        raise ConfigError("config needs a 'metric' entry (name, family, or general)")
    if "name" in metric_cfg:
        name = metric_cfg["name"]
        if name not in builtin_names():
            raise ConfigError(f"unknown metric '{name}'{_suggest(name, builtin_names())}")
        params = _entry(metric_cfg, "params", dict, {}, "metric.")
        for key in params:
            if key not in builtin_params(name):
                hint = _suggest(key, builtin_params(name))
                raise ConfigError(f"unknown parameter 'metric.params.{key}' of metric '{name}'{hint}")
        try:
            return builtin(name, **params)
        except ValueError as err:
            raise ConfigError(f"bad parameters for metric '{name}': {err}") from err
    if "family" in metric_cfg:
        fam = _entry(metric_cfg, "family", dict, None, "metric.")
        if "f" not in fam:
            raise ConfigError("family config is missing 'f'")
        f, g, h = (_entry(fam, k, str, d, "metric.family.") for k, d in (("f", None), ("g", "0"), ("h", None)))
        quad = _entry(fam, "quad", dict, {}, "metric.family.")
        abs_tol = _entry(quad, "abs_tol", numbers.Real, 1e-12, "metric.family.quad.")
        max_depth = _entry(quad, "max_depth", numbers.Integral, 40, "metric.family.quad.")
        radius = float(_entry(fam, "domain_radius", numbers.Real, 1.0, "metric.family.", *_POSITIVE))
        try:
            spec = ProjectiveFamilySpec(
                f=f,
                g=g,
                baseline=fam.get("baseline", "plain"),
                h=h,
                abs_tol=float(abs_tol),
                max_depth=int(max_depth),
                domain_radius=radius,
            )
            return build_projective_metric(spec)
        except (FamilyError, ParseError) as err:
            raise ConfigError(f"bad family config: {err}") from err
    if "general" in metric_cfg:
        gen = _entry(metric_cfg, "general", dict, None, "metric.")
        if "F" not in gen:
            raise ConfigError("general config is missing 'F'")
        formula = _entry(gen, "F", str, None, "metric.general.")
        name = _entry(gen, "name", str, "general", "metric.general.")
        radius = float(_entry(gen, "domain_radius", numbers.Real, math.inf, "metric.general.", *_POSITIVE))
        try:
            return GeneralMetric.from_expression(formula, dimension, name=name, domain_radius=radius)
        except ParseError as err:
            raise ConfigError(f"bad general metric formula: {err}") from err
    raise ConfigError("metric entry must contain 'name', 'family', or 'general'")


def _normalize_checks(cfg: dict) -> list[tuple[str, dict]]:
    raw = cfg.get("checks")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'checks' list")
    out = []
    for i, item in enumerate(raw):
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict) and "name" in item:
            name, params = item["name"], dict(_entry(item, "params", dict, {}, f"checks[{i}]."))
        else:
            raise ConfigError(f"bad check entry: {item!r}")
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check '{name}'{_suggest(name, CHECK_NAMES)}")
        out.append((name, params))
    return out


def run_config(
    path: str,
    seed_override: int | None = None,
    samples_override: int | None = None,
    dump_dir: str | None = None,
) -> tuple[Report | None, int]:
    """Execute a config file; returns (report, exit code)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return None, 2
    except json.JSONDecodeError as err:
        print(f"error: config is not valid JSON: {err}", file=sys.stderr)
        return None, 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError(f"'config' must be an object, got {type(cfg).__name__}")
        dimension = _entry(cfg, "dimension", numbers.Integral, 2)
        metric = _build_metric(cfg, dimension)
        checks = _normalize_checks(cfg)
        sampling_cfg = _entry(cfg, "sampling", dict, {})
        count = _entry(sampling_cfg, "count", numbers.Integral, 100, "sampling.")
        seed = _entry(sampling_cfg, "seed", numbers.Integral, 0, "sampling.")
        count = count if samples_override is None else samples_override
        seed = seed if seed_override is None else seed_override
        spec = SampleSpec.for_metric(
            n=dimension,
            count=count,
            seed=seed,
            domain_radius=metric.domain_radius,
            r_range=_entry(sampling_cfg, "r_range", list, None, "sampling.", *_TWO_NUMBERS),
            u_range=_entry(sampling_cfg, "u_range", list, None, "sampling.", *_TWO_NUMBERS),
        )
        raw = _entry(cfg, "tolerances", dict, {})
        for name in raw:
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(
                    f"unknown check '{name}' in tolerances{_suggest(name, DEFAULT_TOLERANCES)}"
                )
        tolerances = {k: float(_entry(raw, k, numbers.Real, None, "tolerances.", *_TOLERANCE)) for k in raw}
        samples = sample_domain(spec)
        report = Report(metric=metric.name, dimension=dimension, seed=seed, count=count)
        run = Run(metric, samples, tolerances, dump_dir, tuple(name for name, _ in checks))
        for name, params in checks:
            report.records.extend(run_check(name, run, params))
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return None, 2
    return report, 0 if report.overall_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslercheck",
        description="Verify spherically symmetric Finsler metrics numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the checks in a JSON config file")
    verify.add_argument("config", help="path to the JSON config")
    verify.add_argument("--json", action="store_true", help="emit the machine report only")
    verify.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    verify.add_argument("--samples", type=int, default=None, help="override the sample count")
    verify.add_argument(
        "--dump-geodesics",
        metavar="DIR",
        default=None,
        help="write integrated geodesics as CSV files into DIR",
    )
    args = parser.parse_args(argv)
    report, code = run_config(
        args.config,
        seed_override=args.seed,
        samples_override=args.samples,
        dump_dir=args.dump_geodesics,
    )
    if report is not None:
        sys.stdout.write(to_json(report) if args.json else to_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

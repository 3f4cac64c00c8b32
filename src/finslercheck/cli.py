"""Config-driven batch runner.

A config is one JSON document, such as those in ``configs/``.  Each JSON object
in it is read against one of the tables below, which declare every key it may
hold (README's config table lists them).

Exit codes: 0 all checks pass, 1 at least one failed, 2 config or parse
error, 3 an internal error (any other exception, one ``internal error:`` line
on stderr; ``run_config`` raises it to a library caller).  Checks run in
declared order and the report reduction is an ordered fold over sample
index, so identical configs produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .checks import CHECKS, DEFAULT_TOLERANCES, REQUIRED, ConfigError, Run, _suggest, read_object, run_check
from .expr import ParseError
from .family import FamilyError, ProjectiveFamilySpec, build_projective_metric
from .metrics import GeneralMetric, builtin, builtin_names, builtin_params
from .report import Report, to_json, to_text
from .sampling import DIMENSIONS, SampleSpec, sample_domain

# The tables ``checks.read_object`` reads a config's objects against: key -> (default,
# type, test, what the value must be).  A value that a library object tests
# (``SampleSpec``, ``ProjectiveFamilySpec``, a builtin's factory) is tested there only.
_POSITIVE = (float, lambda r: r > 0.0, "positive")  # a domain radius may be inf, not NaN
_RANGE = (
    None,
    list,
    lambda w: len(w) == 2 and all(type(c) in (int, float) and abs(c) <= sys.float_info.max for c in w),
    "a list of two numbers",
)
_QUAD = {"abs_tol": (1e-12, float, None, "finite and > 0"), "max_depth": (40, int, None, "an integer >= 1")}
_FAMILY = {
    "f": (REQUIRED, str, None, "a formula in t"),
    "g": ("0", str, None, "a formula in r"),
    "h": (None, str, None, "a formula in r"),
    "baseline": ("plain", str, None, "plain or abs_corrected"),
    "domain_radius": (1.0, *_POSITIVE),
    "quad": ({}, _QUAD, None, "an object"),
}
_GENERAL = {
    "F": (REQUIRED, str, None, "a formula in x1..xn, y1..yn"),
    "name": ("general", str, None, "a string"),
    "domain_radius": (math.inf, *_POSITIVE),
}
# a metric object's form is the first of these keys that it holds
METRIC_FORMS = {
    "name": {"name": (REQUIRED, str, None, "a builtin's name"), "params": ({}, dict, None, "an object")},
    "family": {"family": (REQUIRED, _FAMILY, None, "an object")},
    "general": {"general": (REQUIRED, _GENERAL, None, "an object")},
}
CHECK_ENTRY = {"name": (REQUIRED, str, None, "a check name"), "params": ({}, dict, None, "an object")}
_SAMPLING = {
    "count": (100, int, None, "an integer >= 1"),
    "seed": (0, int, None, "an integer in [0, 2^64)"),
    "r_range": _RANGE,
    "u_range": _RANGE,
}
# an infinite tolerance passes vacuously, and inf or NaN cannot be written as JSON
_TOLERANCE = (float, lambda t: math.isfinite(t) and t >= 0.0, "finite and >= 0")
_CHECK_LIST = (list, lambda c: c and all(isinstance(e, (str, dict)) for e in c), "a nonempty list of checks")
CONFIG = {
    "metric": (REQUIRED, (str, dict), None, "a builtin metric name or an object"),
    "dimension": (2, int, DIMENSIONS.__contains__, "an integer from 2 to 4"),
    "sampling": ({}, _SAMPLING, None, "an object"),
    "checks": (REQUIRED, *_CHECK_LIST),
    "tolerances": ({}, {k: (tol, *_TOLERANCE) for k, tol in DEFAULT_TOLERANCES.items()}, None, "an object"),
}


def build_metric(cfg):
    """The metric of ``cfg``, a parsed config, which is read whole: a bad entry anywhere
    in it is a ``ConfigError``."""
    return _metric(read_object(cfg, CONFIG, ""))


def _metric(top: dict):
    metric = {"name": top["metric"]} if isinstance(top["metric"], str) else top["metric"]
    form = next((key for key in METRIC_FORMS if key in metric), None)
    if form is None:
        raise ConfigError("metric entry must contain 'name', 'family', or 'general'")
    entry = read_object(metric, METRIC_FORMS[form], "metric")
    if form == "name":
        name = entry["name"]
        if name not in builtin_names():
            raise ConfigError(f"unknown metric '{name}'{_suggest(name, builtin_names())}")
        declared = {key: (default, object, None, None) for key, default in builtin_params(name).items()}
        params = read_object(entry["params"], declared, "metric.params")
        try:
            return builtin(name, **params)
        except ValueError as err:
            raise ConfigError(f"bad parameters for metric '{name}': {err}") from err
    if form == "family":  # its keys and those of its quad are the spec's fields
        quad = entry["family"].pop("quad")
        try:
            return build_projective_metric(ProjectiveFamilySpec(**entry["family"], **quad))
        except (FamilyError, ParseError) as err:
            raise ConfigError(f"bad family config: {err}") from err
    general = entry["general"]  # F, and the keyword arguments name and domain_radius
    try:
        return GeneralMetric.from_expression(general.pop("F"), top["dimension"], **general)
    except ParseError as err:
        raise ConfigError(f"bad general metric formula: {err}") from err


def _checks(entries: list) -> list[tuple[str, dict]]:
    """(name, params) of each check entry, all read before any check runs, so that a
    bad param is refused under its entry's path (``run_check`` reads them again)."""
    out = []
    for i, item in enumerate(entries):
        entry = read_object({"name": item} if isinstance(item, str) else item, CHECK_ENTRY, f"checks[{i}]")
        name = entry["name"]
        if name not in CHECKS:
            raise ConfigError(f"unknown check '{name}'{_suggest(name, CHECKS)}")
        out.append((name, read_object(entry["params"], CHECKS[name][3], f"checks[{i}].params")))
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
    except json.JSONDecodeError as err:
        print(f"error: config is not valid JSON: {err}", file=sys.stderr)
        return None, 2
    except (OSError, ValueError) as err:  # ValueError: an integer of more digits than int() reads
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return None, 2
    try:
        top = read_object(cfg, CONFIG, "")
        metric = _metric(top)
        checks = _checks(top["checks"])
        sampling, dimension = top["sampling"], top["dimension"]
        count = sampling["count"] if samples_override is None else samples_override
        seed = sampling["seed"] if seed_override is None else seed_override
        spec = SampleSpec.for_metric(
            dimension, count, seed, metric.domain_radius, sampling["r_range"], sampling["u_range"]
        )
        report = Report(metric=metric.name, dimension=dimension, seed=seed, count=count)
        run = Run(metric, sample_domain(spec), top["tolerances"], dump_dir, tuple(name for name, _ in checks))
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
    try:
        report, code = run_config(
            args.config,
            seed_override=args.seed,
            samples_override=args.samples,
            dump_dir=args.dump_geodesics,
        )
        if report is not None:
            sys.stdout.write(to_json(report) if args.json else to_text(report))
    except Exception as err:  # a fault of the program: exit 1 must mean a failed record
        print(f"internal error: {err!r}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())

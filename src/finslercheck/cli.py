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
import difflib
import json
import math
import sys

from .checks import CHECK_NAMES, DEFAULT_TOLERANCES, ConfigError, Run, run_check
from .expr import ParseError
from .family import FamilyError, ProjectiveFamilySpec, build_projective_metric
from .metrics import GeneralMetric, builtin, builtin_names
from .report import Report, to_json, to_text
from .sampling import SampleSpec, sample_domain


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


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
        try:
            return builtin(name, **metric_cfg.get("params", {}))
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad parameters for metric '{name}': {err}") from err
    if "family" in metric_cfg:
        fam = dict(metric_cfg["family"])
        quad = fam.pop("quad", {})
        try:
            spec = ProjectiveFamilySpec(
                f=fam["f"],
                g=fam.get("g", "0"),
                baseline=fam.get("baseline", "plain"),
                h=fam.get("h"),
                abs_tol=float(quad.get("abs_tol", 1e-12)),
                max_depth=int(quad.get("max_depth", 40)),
                domain_radius=float(fam.get("domain_radius", 1.0)),
            )
            return build_projective_metric(spec)
        except KeyError as err:
            raise ConfigError(f"family config is missing {err}") from err
        except (FamilyError, ParseError) as err:
            raise ConfigError(f"bad family config: {err}") from err
    if "general" in metric_cfg:
        gen = metric_cfg["general"]
        try:
            radius = gen.get("domain_radius")
            return GeneralMetric.from_expression(
                gen["F"],
                dimension,
                name=gen.get("name", "general"),
                domain_radius=float(radius) if radius is not None else math.inf,
            )
        except KeyError as err:
            raise ConfigError(f"general config is missing {err}") from err
        except ParseError as err:
            raise ConfigError(f"bad general metric formula: {err}") from err
    raise ConfigError("metric entry must contain 'name', 'family', or 'general'")


def _normalize_checks(cfg: dict) -> list[tuple[str, dict]]:
    raw = cfg.get("checks")
    if not raw:
        raise ConfigError("config needs a nonempty 'checks' list")
    out = []
    for item in raw:
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict) and "name" in item:
            name, params = item["name"], dict(item.get("params", {}))
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
        dimension = int(cfg.get("dimension", 2))
        metric = _build_metric(cfg, dimension)
        checks = _normalize_checks(cfg)
        sampling_cfg = cfg.get("sampling", {})
        count = samples_override if samples_override is not None else int(sampling_cfg.get("count", 100))
        seed = seed_override if seed_override is not None else int(sampling_cfg.get("seed", 0))
        spec = SampleSpec.for_metric(
            n=dimension,
            count=count,
            seed=seed,
            domain_radius=metric.domain_radius,
            r_range=sampling_cfg.get("r_range"),
            u_range=sampling_cfg.get("u_range"),
        )
        tolerances = {str(k): float(v) for k, v in cfg.get("tolerances", {}).items()}
        for name in tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(
                    f"unknown check '{name}' in tolerances{_suggest(name, DEFAULT_TOLERANCES)}"
                )
        samples = sample_domain(spec)
        report = Report(metric=metric.name, dimension=dimension, seed=seed, count=count)
        run = Run(metric, samples, tolerances, dump_dir)
        for name, params in checks:
            report.records.extend(run_check(name, metric, samples, params, tolerances, run=run))
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

"""Structured verification reports.

The machine form is JSON written by a small local emitter so float
formatting is pinned to 17 significant digits and key order is insertion
order: identical configs must produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    check: str
    metric: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_x: list[float] | None = None
    worst_y: list[float] | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    metric: str
    dimension: int
    seed: int
    count: int
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


_encode_string = json.JSONEncoder(ensure_ascii=False).encode  # escapes control characters too


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in report: {value}")
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_emit(item) for item in value]) + "]"
    if isinstance(value, dict):
        return "{" + ",".join([f"{_encode_string(str(k))}:{_emit(v)}" for k, v in value.items()]) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in report")


def _record_payload(r: CheckRecord) -> dict:
    return {
        "check": r.check,
        "metric": r.metric,
        "samples": r.samples,
        "max_residual": r.max_residual,
        "tolerance": r.tolerance,
        "worst_x": r.worst_x,
        "worst_y": r.worst_y,
        "pass": r.passed,
        "detail": r.detail,
    }


def to_json(report: Report) -> str:
    payload = {
        "metric": report.metric,
        "dimension": report.dimension,
        "seed": report.seed,
        "count": report.count,
        "overall_pass": report.overall_pass,
        "records": [_record_payload(r) for r in report.records],
    }
    return _emit(payload) + "\n"


def to_text(report: Report) -> str:
    lines = [
        f"metric: {report.metric}   n={report.dimension}   "
        f"samples={report.count}   seed={report.seed}",
        "",
    ]
    name_w = max([len(r.check) for r in report.records] + [5])
    header = f"{'check':<{name_w}}  {'max residual':>13}  {'tolerance':>10}  result"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.records:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.check:<{name_w}}  {r.max_residual:>13.3e}  {r.tolerance:>10.1e}  {status}"
        )
        for key, value in r.detail.items():
            if isinstance(value, float):
                lines.append(f"{'':<{name_w}}    {key} = {value:.6g}")
            elif isinstance(value, str):
                lines.append(f"{'':<{name_w}}    {key} = {value}")
        if not r.passed and r.worst_x is not None:
            pt = ", ".join(f"{c:.6g}" for c in r.worst_x)
            dr = ", ".join(f"{c:.6g}" for c in r.worst_y)
            lines.append(f"{'':<{name_w}}    worst at x = ({pt}), y = ({dr})")
    lines.append("-" * len(header))
    lines.append("overall: " + ("pass" if report.overall_pass else "FAIL"))
    return "\n".join(lines) + "\n"

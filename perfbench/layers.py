"""The program's layers as the tracer sees them, and the per-layer metrics.

Each layer is one finslercheck module.  ``targets`` lists the public calls
wrapped in each; ``per_layer_metrics`` turns one traced verify pass into
the named metrics.  Which end-to-end figure each should move:

    jets.mul_us.m3o2, jets.compose_us.m3o2   verify_s, geodesic_battery
    jets.mul_us.m4o3                         verify_s, geodesic_battery (small share)
    jets.mul_us.m8o3, jets.compose_us.m8o3   verify_s, ambient_tensor_n4
    expr.evaluate_us.integrand,
    family.profile_jet_us                    verify_s, family_reconstruction
    metrics.*_us                             verify_s where the workload calls them
    metrics.phi_jet_calls, _distinct_ratio   verify_s, family_reconstruction and
                                             ambient_tensor_n4
    projective.*_us, symmetry.killing_*_us   verify_s, ambient_tensor_n4
    geodesics.*                              verify_s, geodesic_battery
    checks.<check>_s / _self_s               the workload's verify_s (for the four
                                             checks every workload runs; trace.json
                                             holds every check)
    sampling.sample_domain_s                 setup_s, every workload
    report.to_json_s, cli.overhead_s         verify_s

A per-call figure comes from the traced verify pass when the workload makes
that call.  When it does not (no geodesics in family_reconstruction, no
8-variable jets in geodesic_battery, ...), a probe makes a few of those
calls on the workload's own metric and samples -- or, for the family-only
layers, on the family template's metric -- under a tracer of its own, and
the result lists the metric under ``probed``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracer import Stat, Target, Tracer

# Checks every workload runs, so their times exist on each of them.
COMMON_CHECKS = ("symmetry", "rapcsak", "curvature", "convexity")

JET_SHAPES = {"m3o2": (3, 2), "m4o3": (4, 3), "m8o3": (8, 3)}

# per-call metric -> (stat name, unit scale)
PER_CALL = {
    "jets.mul_us.m3o2": ("jets.mul.m3o2", 1e6),
    "jets.compose_us.m3o2": ("jets.sqrt.m3o2", 1e6),
    "jets.mul_us.m4o3": ("jets.mul.m4o3", 1e6),
    "jets.mul_us.m8o3": ("jets.mul.m8o3", 1e6),
    "jets.compose_us.m8o3": ("jets.sqrt.m8o3", 1e6),
    "expr.evaluate_us.integrand": ("expr.evaluate.integrand", 1e6),
    "family.profile_jet_us": ("family.profile_jet", 1e6),
    "metrics.phi_jet_us": ("metrics.phi_jet", 1e6),
    "metrics.ambient_jet_us": ("metrics.ambient_jet", 1e6),
    "metrics.fundamental_tensor_us": ("metrics.fundamental_tensor", 1e6),
    "projective.flag_curvature_us": ("projective.flag_curvature", 1e6),
    "projective.rapcsak_us": ("projective.rapcsak_residual", 1e6),
    "symmetry.killing_tensor_us": ("symmetry.killing_tensor_max_residual", 1e6),
    "geodesics.spray_us": ("geodesics.spray_general", 1e6),
    "geodesics.integrate_s": ("geodesics.integrate_geodesic", 1.0),
}

PROBE_REPEAT = 40  # jet kernel calls per probed shape
PROBE_POINTS = 3  # sample points per probed layer call
PROBE_GEODESIC_STEPS = 4


def _shape_name(prefix: str, jet) -> str:
    return f"{prefix}.m{jet.nvars}o{jet.order}"


def targets(tracer: Tracer) -> list[Target]:
    """The calls wrapped in each layer; spans for all but the hottest leaves."""
    from finslercheck import checks, expr, family, geodesics, jets, metrics, projective
    from finslercheck import report, sampling, symmetry

    Jet = jets.Jet

    def jet_mul(a, b):
        return _shape_name("jets.mul", a) if isinstance(b, Jet) else None

    def jet_sqrt(a):
        return _shape_name("jets.sqrt", a) if isinstance(a, Jet) else None

    def evaluate(node, bindings, nvars=None, order=None):
        if not bindings:
            return "expr.evaluate.const"
        first = next(iter(bindings.values()))
        # 2-variable (r, v) jets only arise in the family's quadrature integrand
        return "expr.evaluate.integrand" if first.nvars == 2 else f"expr.evaluate.m{first.nvars}"

    def phi_jet(metric, r, u, v, order=2):
        tracer.remember("metrics.phi_jet", (id(metric), r, u, v, order))
        return "metrics.phi_jet"

    def integrated(path, metric, x0, y0, horizon, steps):
        tracer.count("geodesics.steps_requested", steps)
        tracer.count("geodesics.steps_completed", len(path.times) - 1)

    def named(name):
        return lambda *args, **kwargs: name

    return [
        Target(Jet, "__mul__", jet_mul, span=False),
        Target(jets, "sqrt", jet_sqrt, span=False),
        Target(expr, "evaluate", evaluate, span=False),
        Target(metrics.SphericalMetric, "phi_jet", phi_jet),
        Target(metrics.SphericalMetric, "ambient_jet", named("metrics.ambient_jet")),
        Target(metrics, "fundamental_tensor", named("metrics.fundamental_tensor")),
        Target(family.FamilyProfile, "jet", named("family.profile_jet")),
        Target(symmetry, "killing_tensor_max_residual", named("symmetry.killing_tensor_max_residual")),
        Target(projective, "flag_curvature", named("projective.flag_curvature")),
        Target(projective, "rapcsak_residual", named("projective.rapcsak_residual")),
        Target(geodesics, "spray_general", named("geodesics.spray_general")),
        Target(
            geodesics, "integrate_geodesic", named("geodesics.integrate_geodesic"), observe=integrated
        ),
        Target(checks, "run_check", lambda name, *args, **kwargs: f"checks.{name}"),
        Target(sampling, "sample_domain", named("sampling.sample_domain")),
        Target(report, "to_json", named("report.to_json")),
    ]


@dataclass
class ProbeKit:
    """Inputs for the probes, built before any tracer is active."""

    metric: object
    samples: list
    family_metric: object
    family_samples: list
    jets: dict

    @classmethod
    def build(cls, cfg: dict, metric, family_cfg: dict, family_metric=None) -> "ProbeKit":
        from workloads import build_metric, sample_spec
        from finslercheck.sampling import sample_domain

        samples = sample_domain(sample_spec(cfg, metric.domain_radius, count=PROBE_POINTS))
        if family_metric is None:
            family_metric = build_metric(family_cfg)
        family_samples = sample_domain(
            sample_spec(family_cfg, family_metric.domain_radius, count=PROBE_POINTS)
        )
        kit_jets = {}
        for label, (nvars, order) in JET_SHAPES.items():
            if nvars == 3:
                s = samples[0]
                kit_jets[label] = metric.phi_jet(s.r, s.u, s.v, order)
            else:
                s = sample_domain(sample_spec(cfg, metric.domain_radius, count=1, n=nvars // 2))[0]
                kit_jets[label] = metric.ambient_jet(s.x, s.y, order)
        return cls(metric, samples, family_metric, family_samples, kit_jets)


def _probe(stat: str, kit: ProbeKit) -> None:
    """A few of the calls behind ``stat``, through the (wrapped) public names."""
    from finslercheck import geodesics, jets, metrics, projective, symmetry

    m = kit.metric
    per_sample = {
        "metrics.phi_jet": lambda s: m.phi_jet(s.r, s.u, s.v, 2),
        "metrics.ambient_jet": lambda s: m.ambient_jet(s.x, s.y, 3),
        "metrics.fundamental_tensor": lambda s: metrics.fundamental_tensor(m, s.x, s.y),
        "projective.flag_curvature": lambda s: projective.flag_curvature(m, s.r, s.u, s.v),
        "projective.rapcsak_residual": lambda s: projective.rapcsak_residual(m, s.x, s.y),
        "symmetry.killing_tensor_max_residual": (
            lambda s: symmetry.killing_tensor_max_residual(m, s.x, s.y)
        ),
        "geodesics.spray_general": lambda s: geodesics.spray_general(m, s.x, s.y),
    }
    if stat.startswith("jets."):
        _, op, shape = stat.split(".")
        jet = kit.jets[shape]
        for _ in range(PROBE_REPEAT):
            jet * jet if op == "mul" else jets.sqrt(jet)
    elif stat in ("family.profile_jet", "expr.evaluate.integrand"):
        for s in kit.family_samples:
            kit.family_metric.phi_jet(s.r, s.u, s.v, 2)
    elif stat == "geodesics.integrate_geodesic":
        s = kit.samples[0]
        horizon = geodesics.safe_horizon(m, s.x, s.y, 0.5)
        geodesics.integrate_geodesic(m, s.x, s.y, horizon, PROBE_GEODESIC_STEPS)
    else:
        for s in kit.samples:
            per_sample[stat](s)


def run_probes(traced: Tracer, kit: ProbeKit, run_id: str) -> dict[str, Tracer]:
    """One tracer per per-call stat the traced pass never reached."""
    probes = {}
    for stat, _ in PER_CALL.values():
        if stat in traced.stats:
            continue
        tracer = Tracer(f"{run_id}:probe:{stat}")
        with tracer.active(targets(tracer), "finslercheck"):
            _probe(stat, kit)
        probes[stat] = tracer
    return probes


def per_layer_metrics(
    traced: Tracer,
    probes: dict[str, Tracer],
    verify_traced_s: float,
    verify_untraced: list[float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); per-call figures fall back to probes."""
    out: dict[str, tuple[float, str]] = {}
    for metric, (stat, scale) in PER_CALL.items():
        s = probes.get(stat, traced).stats[stat]
        out[metric] = (s.total_s / s.calls * scale, "us" if scale == 1e6 else "s")
    out["jets.mul_calls"] = (
        float(sum(s.calls for n, s in traced.stats.items() if n.startswith("jets.mul."))),
        "count",
    )
    phi = traced.stats.get("metrics.phi_jet", Stat())
    distinct = len(traced.keys.get("metrics.phi_jet", ()))
    out["metrics.phi_jet_calls"] = (float(phi.calls), "count")
    out["metrics.phi_jet_distinct_ratio"] = (distinct / phi.calls if phi.calls else 1.0, "ratio")
    geo = probes.get("geodesics.integrate_geodesic", traced).counters
    out["geodesics.steps_completed_ratio"] = (
        geo["geodesics.steps_completed"] / geo["geodesics.steps_requested"],
        "ratio",
    )
    check_total = sum(s.total_s for n, s in traced.stats.items() if n.startswith("checks."))
    for check in COMMON_CHECKS:
        s = traced.stats[f"checks.{check}"]
        out[f"checks.{check}_s"] = (s.total_s, "s")
        out[f"checks.{check}_self_s"] = (s.self_s, "s")
    out["sampling.sample_domain_s"] = (traced.stats["sampling.sample_domain"].total_s, "s")
    out["report.to_json_s"] = (traced.stats["report.to_json"].total_s, "s")
    out["cli.overhead_s"] = (verify_traced_s - check_total, "s")
    out["trace.overhead_s"] = (verify_traced_s - statistics.median(verify_untraced), "s")
    return out

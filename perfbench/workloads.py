"""Workload definitions: each is a config generated from a checked-in template.

Nothing here imports finslercheck at module level, so the set-up probe can
import this file before it starts its clock.

Why these three:

* ``geodesic_battery`` runs every check type on the funk metric; most of
  its time is sequential scalar spray evaluations inside ``geodesics``
  (3-variable order-2 profile jets).  It never touches ``family``.
* ``family_reconstruction`` spends nearly all its time in the adaptive
  quadrature of ``expr``-evaluated integrand jets, and its checks recompute
  the same profile jets: it is where sharing one derivative bundle across
  checks pays.  No geodesics, no 8-variable jets.
* ``ambient_tensor_n4`` is dominated by order-3 ambient jets in 8 variables
  plus many cheap per-sample profile checks: batching over samples or a
  faster jet product shows here, a gain confined to geodesics or quadrature
  does not.

Sizes are per config; ``run.py`` verifies eight configs per run.  A
``geodesic_battery`` or ``ambient_tensor_n4`` pass takes about 1 s, so each
config is verified three or four times in a run and its median pass counts,
which steadies the figure against the host's drift.  A
``family_reconstruction`` sample costs from 0.06 to 0.4 s depending on
where it falls, so its passes are larger (about 3.5 s) and mostly run once:
there, distinct samples steady the figure more than repeats do.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEMPLATES = ROOT / "configs"

BRYANT_CHECKS = [
    "symmetry",
    "symmetry_tensor",
    "cartan",
    "fundamental_ad",
    "det_g",
    "rapcsak",
    {"name": "curvature", "params": {"lambda": 1.0}},
    "convexity",
]


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    dimension: int
    samples: dict  # size name -> sample count
    expected_lambda: float
    checks: list | None = None  # None keeps the template's list
    geodesics: dict | None = None  # size name -> (count, steps)

    def config(self, seed: int, size: str) -> dict:
        """The generated config: template metric, pinned size, the given seed."""
        with open(TEMPLATES / self.template) as fh:
            cfg = json.load(fh)
        cfg["dimension"] = self.dimension
        cfg["sampling"] = dict(cfg.get("sampling", {}), count=self.samples[size], seed=seed)
        checks = copy.deepcopy(self.checks if self.checks is not None else cfg["checks"])
        if self.geodesics is not None:
            count, steps = self.geodesics[size]
            for i, item in enumerate(checks):
                name = item if isinstance(item, str) else item["name"]
                if name == "geodesics":
                    checks[i] = {"name": "geodesics", "params": {"count": count, "steps": steps}}
        cfg["checks"] = checks
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "geodesic_battery",
            "funk_full.json",
            2,
            {"full": 50, "tiny": 12},
            -0.25,
            geodesics={"full": (2, 400), "tiny": (2, 8)},
        ),
        Workload(
            "family_reconstruction",
            "family_funk_reconstruction.json",
            2,
            {"full": 36, "tiny": 4},
            -0.25,
        ),
        Workload(
            "ambient_tensor_n4",
            "bryant_curvature.json",
            4,
            {"full": 200, "tiny": 12},
            1.0,
            checks=BRYANT_CHECKS,
        ),
    )
}

# The anisotropic general metric must fail its symmetry check (exit 1).
NEGATIVE_CONTROL = TEMPLATES / "anisotropic_rejection.json"

# The family template supplies the family-only layers' probes on workloads
# that never build a family metric.
FAMILY_TEMPLATE = "family_reconstruction"


def build_metric(cfg: dict):
    """The config's metric through the public constructors (builtin or family)."""
    from finslercheck import builtin
    from finslercheck.family import ProjectiveFamilySpec, build_projective_metric

    spec = cfg["metric"]
    if "name" in spec:
        return builtin(spec["name"], **spec.get("params", {}))
    fam = dict(spec["family"])
    quad = fam.pop("quad", {})
    return build_projective_metric(
        ProjectiveFamilySpec(
            f=fam["f"],
            g=fam.get("g", "0"),
            baseline=fam.get("baseline", "plain"),
            h=fam.get("h"),
            abs_tol=float(quad.get("abs_tol", 1e-12)),
            max_depth=int(quad.get("max_depth", 40)),
            domain_radius=float(fam.get("domain_radius", 1.0)),
        )
    )


def sample_spec(cfg: dict, domain_radius: float, count: int | None = None, n: int | None = None):
    """The config's sampling plan, optionally with another count or dimension."""
    from finslercheck.sampling import SampleSpec

    sampling = cfg["sampling"]
    return SampleSpec.for_metric(
        n=n if n is not None else cfg["dimension"],
        count=count if count is not None else sampling["count"],
        seed=sampling["seed"],
        domain_radius=domain_radius,
        r_range=sampling.get("r_range"),
        u_range=sampling.get("u_range"),
    )

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import finslercheck
from finslercheck.metrics import builtin
from finslercheck.sampling import SampleSpec, sample_domain

settings.register_profile("suite", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("suite")


BALL_METRICS = ("klein", "funk", "berwald")
CLASSIC_METRICS = ("klein", "funk", "berwald", "spherical", "bryant")


def make_metric(name, **params):
    if name == "bryant" and not params:
        params = {"alpha": np.pi / 6}
    return builtin(name, **params)


@pytest.fixture(scope="session")
def metrics_zoo():
    zoo = {name: make_metric(name) for name in ("euclidean",) + CLASSIC_METRICS}
    return zoo


_SAMPLE_CACHE = {}


def samples_for(metric, n=2, count=60, seed=7):
    key = (metric.name, tuple(sorted(metric.params.items())), n, count, seed)
    if key not in _SAMPLE_CACHE:
        spec = SampleSpec.for_metric(n=n, count=count, seed=seed, domain_radius=metric.domain_radius)
        _SAMPLE_CACHE[key] = sample_domain(spec)
    return _SAMPLE_CACHE[key]


def same_pair(a, b):
    """Do the one-pair samples a and b hold the same point and direction, bit for bit?"""
    return a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def invariants_bundle(metric, r, u, v):
    """The one-row profile bundle at the invariants (r, u, v) alone (n = 0), built
    as ``projective.flag_curvature`` builds it."""
    from finslercheck.metrics import ProfileBundle

    empty, invariants = np.zeros((1, 0)), tuple(np.array([w], dtype=float) for w in (r, u, v))
    return ProfileBundle._of_columns(empty, empty, invariants, metric.phi_jets(*invariants))


def child_env(**extra):
    """Environment for a child interpreter that must import this same finslercheck.

    The child inherits the parent's environment with the directory holding the
    imported package first on PYTHONPATH, so it finds the copy under test
    whether that came from an install or from PYTHONPATH, relative or absolute,
    and whatever the working directory.  ``extra`` is set on top.
    """
    env = dict(os.environ)
    root = str(Path(finslercheck.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env

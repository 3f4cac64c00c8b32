"""Set-up time of one workload in a fresh interpreter.

Times ``import finslercheck``, building the config's metric (formula
parsing and the family precheck included) and ``sample_domain`` under a
``reference.HostClock``; prints one JSON object with the set-up time in
normalised seconds (``setup_s``) and in wall seconds (``setup_wall_s``).
``run.py`` starts it several times per run:

    python3 perfbench/setup_probe.py CONFIG.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports no finslercheck code)
from reference import HostClock  # noqa: E402  (imports nothing outside the standard library)

with open(sys.argv[1]) as fh:
    cfg = json.load(fh)

with HostClock() as clock:
    import finslercheck  # noqa: E402,F401
    from finslercheck.sampling import sample_domain  # noqa: E402

    metric = workloads.build_metric(cfg)
    sample_domain(workloads.sample_spec(cfg, metric.domain_radius))
print(json.dumps({"setup_s": clock.norm_s, "setup_wall_s": clock.wall_s}))

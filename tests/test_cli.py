import copy
import json
import math
import os

import numpy as np
import pytest
from conftest import child_env
from hypothesis import HealthCheck, given, settings, strategies as st

from finslercheck.checks import CHECKS
from finslercheck.cli import CONFIG, METRIC_FORMS, main, run_config
from finslercheck.expr import MAX_NESTING
from finslercheck.metrics import MIN_RADIUS
from finslercheck.report import to_json
from finslercheck.sampling import SampleSpec, sample_domain


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def funk_config(**overrides):
    cfg = {
        "metric": {"name": "funk"},
        "dimension": 2,
        "sampling": {"count": 40, "seed": 7},
        "checks": [
            "symmetry",
            "rapcsak",
            {"name": "curvature", "params": {"lambda": -0.25}},
        ],
    }
    cfg.update(overrides)
    return cfg


def family_metric(**entries):
    """The overrides that make funk_config's metric the family funk, with entries added."""
    family = {"f": "1/sqrt(1+t)", "g": "1/(1-r^2)", "h": "1/(1-r^2)", "baseline": "abs_corrected"}
    return {"metric": {"family": dict(family, **entries)}, "checks": ["homogeneity"]}


class TestRunConfig:
    def test_passing_run_exit_zero(self, tmp_path):
        report, code = run_config(write_config(tmp_path, funk_config()))
        assert code == 0
        assert report.overall_pass
        assert [r.check for r in report.records] == ["symmetry", "rapcsak", "curvature", "curvature_pde"]

    def test_funk_battery_at_full_scale(self, tmp_path):
        cfg = funk_config(sampling={"count": 500, "seed": 7})
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0
        assert report.count == 500 and report.seed == 7

    def test_wrong_lambda_exit_one_with_worst_point(self, tmp_path):
        cfg = funk_config()
        cfg["checks"] = [{"name": "curvature", "params": {"lambda": 0.0}}]
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 1
        record = report.records[0]
        assert not record.passed
        assert record.worst_x is not None and record.worst_y is not None
        assert np.linalg.norm(record.worst_x) < 1.0

    def test_unknown_metric_exit_two(self, tmp_path, capsys):
        report, code = run_config(write_config(tmp_path, funk_config(metric={"name": "fnuk"})))
        assert report is None and code == 2
        assert "funk" in capsys.readouterr().err

    def test_unknown_check_exit_two(self, tmp_path, capsys):
        cfg = funk_config()
        cfg["checks"] = ["rapcsack"]
        report, code = run_config(write_config(tmp_path, cfg))
        assert report is None and code == 2
        assert "rapcsak" in capsys.readouterr().err

    def test_curvature_pde_is_a_tolerance_not_a_check(self, tmp_path, capsys):
        # the curvature check's second record: refused as a check, never
        # offered for a typo, but accepted (and read) as a tolerance key
        for name in ("curvature_pde", "curvature_pd"):
            report, code = run_config(write_config(tmp_path, funk_config(checks=[name])))
            assert report is None and code == 2
            err = capsys.readouterr().err
            assert f"unknown check '{name}'" in err
            assert "'curvature_pde'?" not in err
        report, code = run_config(write_config(tmp_path, funk_config(tolerances={"curvature_pde": 1e-8})))
        assert code == 0 and report.records[-1].check == "curvature_pde"
        report, code = run_config(write_config(tmp_path, funk_config(tolerances={"curvature_pde": 1e-300})))
        assert code == 1 and not report.records[-1].passed

    def test_missing_file_exit_two(self, capsys):
        report, code = run_config("/nonexistent/config.json")
        assert report is None and code == 2
        capsys.readouterr()

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        report, code = run_config(str(path))
        assert report is None and code == 2
        capsys.readouterr()

    def test_count_zero_exit_two(self, tmp_path, capsys):
        cfg = funk_config(sampling={"count": 0, "seed": 7})
        report, code = run_config(write_config(tmp_path, cfg))
        assert report is None and code == 2
        capsys.readouterr()

    def test_metric_shorthand_string(self, tmp_path):
        cfg = funk_config(metric="funk")
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0 and report.metric == "funk"

    def test_bryant_params(self, tmp_path):
        cfg = funk_config(metric={"name": "bryant", "params": {"alpha": math.pi / 6}})
        cfg["checks"] = [{"name": "curvature", "params": {"lambda": 1.0}}]
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0

    def test_bryant_bad_alpha_exit_two(self, tmp_path, capsys):
        cfg = funk_config(metric={"name": "bryant", "params": {"alpha": 2.0}})
        report, code = run_config(write_config(tmp_path, cfg))
        assert report is None and code == 2
        capsys.readouterr()

    def test_family_metric_config(self, tmp_path):
        cfg = {
            "metric": {
                "family": {
                    "f": "1/sqrt(1+t)",
                    "g": "1/(1-r^2)",
                    "h": "1/(1-r^2)",
                    "baseline": "abs_corrected",
                }
            },
            "dimension": 2,
            "sampling": {"count": 15, "seed": 11},
            "checks": ["homogeneity", "projective_pde"],
        }
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0, to_json(report)

    def test_general_metric_symmetry_failure(self, tmp_path):
        cfg = {
            "metric": {"general": {"F": "sqrt(2*y1^2 + y2^2)", "name": "aniso"}},
            "dimension": 2,
            "sampling": {"count": 20, "seed": 5},
            "checks": ["symmetry"],
        }
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 1
        assert report.records[0].max_residual > 0.1

    def test_profile_check_on_general_metric_exit_two(self, tmp_path, capsys):
        cfg = {
            "metric": {"general": {"F": "sqrt(2*y1^2 + y2^2)"}},
            "dimension": 2,
            "sampling": {"count": 5, "seed": 5},
            "checks": ["curvature"],
        }
        report, code = run_config(write_config(tmp_path, cfg))
        assert report is None and code == 2
        capsys.readouterr()

    def test_tolerance_override_flips_result(self, tmp_path):
        cfg = funk_config(checks=["reversibility"])
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 1  # funk is not reversible
        cfg["tolerances"] = {"reversibility": 1e9}
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_tolerance_exit_two(self, tmp_path, capsys, value):
        # an infinite tolerance would pass the check vacuously, and a NaN one
        # would reach the JSON report; json writes and reads them as Infinity and NaN
        cfg = funk_config(checks=[{"name": "curvature", "params": {"lambda": 5.0}}])
        cfg["tolerances"] = {"curvature": value, "curvature_pde": 1e-8}
        path = write_config(tmp_path, cfg)
        report, code = run_config(path)
        assert report is None and code == 2
        assert f"'tolerances.curvature' must be finite and >= 0, got {value!r}" in capsys.readouterr().err
        assert main(["verify", path, "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "'tolerances.curvature'" in out.err

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"tolerances": None}, "'tolerances'"),
            ({"tolerances": []}, "'tolerances'"),
            ({"sampling": None}, "'sampling'"),
            ({"tolerances": {"symmetry": True}}, "'tolerances.symmetry'"),
            ({"tolerances": {"symmetry": "1e-9"}}, "'tolerances.symmetry'"),
            ({"dimension": 2.5}, "'dimension'"),
            ({"dimension": "3"}, "'dimension'"),
            ({"sampling": {"count": True}}, "'sampling.count'"),
            ({"sampling": {"count": 10, "seed": 1.5}}, "'sampling.seed'"),
            ({"checks": "symmetry"}, "'checks'"),
            ([funk_config()], "'config'"),  # a list stands for the whole config
            ({"metric": {"family": None}}, "'metric.family'"),
            ({"metric": {"general": None}}, "'metric.general'"),
            ({"sampling": {"count": 5, "r_range": 5}}, "'sampling.r_range'"),
            ({"sampling": {"count": 5, "u_range": 5}}, "'sampling.u_range'"),
            ({"checks": ["symmetry", {"name": "curvature", "params": None}]}, "'checks[1].params'"),
            ({"checks": [{"name": "curvature", "params": [1]}]}, "'checks[0].params'"),
            # a missing or unparsable formula, a bad check entry, a misspelt tolerance key;
            # an id names a case whose message changed, so that the case keeps its name
            pytest.param(
                {"metric": {"family": {"g": "0"}}},
                "missing key 'metric.family.f', which must be a formula in t",
                id="overrides17-family config is missing 'f'",
            ),
            ({"metric": {"family": {"f": "1/(1+t"}}}, "bad family config: expected ')'"),
            pytest.param(
                {"metric": {"general": {"name": "aniso"}}},
                "missing key 'metric.general.F', which must be a formula in x1..xn, y1..yn",
                id="overrides19-general config is missing 'F'",
            ),
            ({"metric": {"general": {"F": "sqrt(y1^2 +)"}}}, "bad general metric formula: unexpected token ')'"),
            pytest.param(
                {"checks": ["symmetry", 3]},
                "'checks' must be a nonempty list of checks, got ['symmetry', 3]",
                id="overrides21-bad check entry: 3",
            ),
            pytest.param(
                {"tolerances": {"symetry": 1e-9}},
                "unknown key 'tolerances.symetry' (did you mean 'symmetry'?)",
                id="overrides22-unknown check 'symetry' in tolerances (did you mean 'symmetry'?)",
            ),
            # a string lambda crashed in numpy; true ran as 1.0 and reached the report
            pytest.param(
                {"checks": [{"name": "curvature", "params": {"lambda": "-0.25"}}]},
                "'checks[0].params.lambda' must be a finite number, got '-0.25'",
                id="overrides23-curvature param 'lambda'",
            ),
            pytest.param(
                {"checks": [{"name": "curvature", "params": {"lambda": True}}]},
                "'checks[0].params.lambda' must be a finite number, got True",
                id="overrides24-curvature param 'lambda'",
            ),
            pytest.param(
                {"checks": [{"name": "curvature", "params": {"lambda": math.nan}}]},
                "'checks[0].params.lambda' must be a finite number, got nan",
                id="overrides25-curvature param 'lambda'",
            ),
            # an infinite abs_tol converged every sample on one panel, and the
            # projectivity checks then failed (exit 1)
            (family_metric(quad={"abs_tol": math.inf}), "quadrature abs_tol must be finite and positive, got inf"),
            (family_metric(quad={"abs_tol": math.nan}), "quadrature abs_tol must be finite and positive, got nan"),
            (family_metric(quad={"abs_tol": True}), "'metric.family.quad.abs_tol'"),
            (family_metric(quad={"abs_tol": "1e-12"}), "'metric.family.quad.abs_tol'"),
            (family_metric(quad={"max_depth": 40.9}), "'metric.family.quad.max_depth'"),
            (family_metric(domain_radius="1"), "'metric.family.domain_radius'"),
            ({"metric": {"general": {"F": "sqrt(y1^2 + y2^2)", "domain_radius": True}}}, "'metric.general.domain_radius'"),
            # a formula that is not a string crashed (exit 1); a general name 7 reached the report
            ({"metric": {"family": {"f": 1}}}, "'metric.family.f'"),
            (family_metric(g=0), "'metric.family.g'"),
            (family_metric(h=["1/(1-r^2)"]), "'metric.family.h'"),
            ({"metric": {"general": {"F": 7}}}, "'metric.general.F'"),
            ({"metric": {"general": {"F": "sqrt(y1^2 + y2^2)", "name": 7}}}, "'metric.general.name'"),
            # builtin params: true ran as alpha = 1, "0.5" as 0.5, a misspelt or
            # unknown name was ignored
            ({"metric": {"name": "bryant", "params": {"alpha": True}}}, "bryant parameter alpha must be a number"),
            ({"metric": {"name": "bryant", "params": {"alpha": "0.5"}}}, "bryant parameter alpha must be a number"),
            pytest.param(
                {"metric": {"name": "bryant", "params": {"alpah": 0.5}}},
                "unknown key 'metric.params.alpah' (did you mean 'alpha'?)",
                id="overrides40-unknown parameter 'metric.params.alpah' of metric 'bryant' (did you mean 'alpha'?)",
            ),
            pytest.param(
                {"metric": {"name": "funk", "params": {"alpha": 0.5}}},
                "unknown key 'metric.params.alpha'",
                id="overrides41-unknown parameter 'metric.params.alpha' of metric 'funk'",
            ),
            ({"metric": {"name": "funk", "params": [0.5]}}, "'metric.params'"),
            # an h under the plain baseline added h(r)|v| without a word; a radius of 0,
            # below 0 or NaN failed the build without naming its key; an r_range
            # reaching the domain radius sampled points outside it, and every check failed (exit 1)
            (family_metric(baseline="plain"), "plain baseline takes no h formula"),
            (family_metric(domain_radius=0), "'metric.family.domain_radius' must be positive, got 0"),
            (family_metric(domain_radius=-1.0), "'metric.family.domain_radius' must be positive, got -1.0"),
            (family_metric(domain_radius=math.nan), "'metric.family.domain_radius' must be positive, got nan"),
            (
                {"metric": {"general": {"F": "sqrt(y1^2 + y2^2)", "domain_radius": 0.0}}},
                "'metric.general.domain_radius' must be positive, got 0.0",
            ),
            (
                {"metric": {"general": {"F": "sqrt(y1^2 + y2^2)", "domain_radius": math.nan}}},
                "'metric.general.domain_radius' must be positive, got nan",
            ),
            (
                {"sampling": {"count": 5, "seed": 7, "r_range": [0.05, 1.5]}},
                "r_range [0.05, 1.5] must end below the domain radius 1.0",
            ),
            (
                {"sampling": {"count": 5, "seed": 7, "r_range": [0.5, 1.0]}},
                "r_range [0.5, 1.0] must end below the domain radius 1.0",
            ),
        ],
    )
    def test_malformed_config_type_exit_two(self, tmp_path, capsys, overrides, key):
        # each once crashed (exit 1), ran with a coerced value, or read a string as a list
        payload = overrides if isinstance(overrides, list) else funk_config(**overrides)
        path = write_config(tmp_path, payload)
        assert run_config(path) == (None, 2)
        assert key in capsys.readouterr().err
        assert main(["verify", path, "--json"]) == 2

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # each ran as if the key were absent: curvature tested no lambda and read
            # "constant", bryant ran at alpha = 0, the sample count stayed 100
            (
                {"checks": [{"name": "curvature", "parms": {"lambda": 3.0}}]},
                "unknown key 'checks[0].parms' (did you mean 'params'?)",
            ),
            (
                {"metric": {"name": "bryant", "parms": {"alpha": 0.5}}},
                "unknown key 'metric.parms' (did you mean 'params'?)",
            ),
            ({"sampling": {"cuont": 5}}, "unknown key 'sampling.cuont' (did you mean 'count'?)"),
            ({"tolerence": {"symmetry": 1e-9}}, "unknown key 'tolerence' (did you mean 'tolerances'?)"),
            (
                family_metric(quad={"abs_tl": 1e-9}),
                "unknown key 'metric.family.quad.abs_tl' (did you mean 'abs_tol'?)",
            ),
            # a key of another metric form was ignored
            ({"metric": {"name": "funk", "general": {"F": "sqrt(y1^2 + y2^2)"}}}, "unknown key 'metric.general'"),
        ],
    )
    def test_undeclared_keys_exit_two(self, tmp_path, capsys, overrides, message):
        assert run_config(write_config(tmp_path, funk_config(**overrides))) == (None, 2)
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dimension", [0, 5, 10**400])
    def test_dimension_is_refused_before_the_metric_is_built(self, tmp_path, capsys, dimension):
        # a general metric was built first and reported "unknown variable 'y1'" at 0
        cfg = funk_config(metric={"general": {"F": "sqrt(y1^2+y2^2)"}}, dimension=dimension)
        assert run_config(write_config(tmp_path, cfg)) == (None, 2)
        assert capsys.readouterr().err.startswith("error: 'dimension' must be an integer from 2 to 4, got ")

    def test_unreadably_long_integer_exit_two(self, tmp_path, capsys):
        # json refuses an integer of more than 4300 digits with a ValueError, which
        # ended in a traceback (exit 1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(funk_config()).replace('"count": 40', '"count": ' + "1" * 5000))
        assert run_config(str(path)) == (None, 2)
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ") and err.count("\n") == 1

    def test_config_without_metric_exit_two(self, tmp_path, capsys):
        cfg = funk_config()
        del cfg["metric"]
        assert run_config(write_config(tmp_path, cfg)) == (None, 2)
        assert "missing key 'metric', which must be a builtin metric name or an object" in capsys.readouterr().err

    def test_sampling_ranges_from_config(self, tmp_path):
        cfg = funk_config(
            sampling={"count": 25, "seed": 7, "r_range": [0.4, 0.6], "u_range": [0.5, 1.5]}
        )
        cfg["checks"] = ["symmetry"]
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0
        r = np.linalg.norm(report.records[0].worst_x)
        assert 0.4 <= r <= 0.6

    @pytest.mark.parametrize("n", [3, 4])
    def test_r_range_at_the_minimum_radius_runs(self, tmp_path, n):
        # r = |x| of a sample scaled to radius 0.05 can round an ulp under MIN_RADIUS
        # (24 of these 200 samples at n = 3); that is no reason to refuse the config
        sampling = {"count": 200, "seed": 7, "r_range": [0.05, 0.05]}
        spec = SampleSpec.for_metric(n=n, count=200, seed=7, r_range=sampling["r_range"])
        assert (sample_domain(spec).r < MIN_RADIUS).any()
        cfg = {"metric": {"name": "funk"}, "dimension": n, "sampling": sampling}
        cfg["checks"] = ["rapcsak", "projective_pde", "curvature"]
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0 and len(report.records) == 4

    def test_bad_sampling_range_exit_two(self, tmp_path, capsys):
        cfg = funk_config(sampling={"count": 5, "seed": 7, "r_range": [0.001, 0.5]})
        report, code = run_config(write_config(tmp_path, cfg))
        assert report is None and code == 2
        capsys.readouterr()

    def test_overrides_change_sampling(self, tmp_path):
        path = write_config(tmp_path, funk_config())
        base, _ = run_config(path)
        reseeded, _ = run_config(path, seed_override=99)
        resized, _ = run_config(path, samples_override=10)
        assert base.seed == 7 and reseeded.seed == 99
        assert resized.count == 10
        assert base.records[0].worst_x != reseeded.records[0].worst_x


class TestMain:
    def test_human_output_and_exit_code(self, tmp_path, capsys):
        code = main(["verify", write_config(tmp_path, funk_config())])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out
        assert "symmetry" in out

    def test_json_output_byte_identical_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, funk_config())
        assert main(["verify", path, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", path, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["overall_pass"] is True
        assert payload["records"][0]["check"] == "symmetry"

    @pytest.mark.parametrize(
        "metric,check,name",
        [
            ({"general": {"F": "sqrt(y1^2 + y2^2)", "name": "tab\there"}}, "symmetry", "tab\there"),
            # the tokenizer skips the tab, and the family's name keeps it
            (
                family_metric(f="1/sqrt(1+\tt)")["metric"],
                "homogeneity",
                "family(f=1/sqrt(1+\tt), g=1/(1-r^2), h=1/(1-r^2))",
            ),
        ],
    )
    def test_json_report_escapes_control_characters(self, tmp_path, capsys, metric, check, name):
        # a tab in a string reached the report raw, which JSON forbids
        path = write_config(tmp_path, funk_config(metric=metric, checks=[check]))
        assert main(["verify", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert "\t" not in out
        payload = json.loads(out)
        assert payload["metric"] == name and payload["records"][0]["metric"] == name

    def test_seed_flag_changes_report(self, tmp_path, capsys):
        path = write_config(tmp_path, funk_config())
        main(["verify", path, "--json"])
        a = capsys.readouterr().out
        main(["verify", path, "--json", "--seed", "99"])
        b = capsys.readouterr().out
        assert a != b

    def test_json_byte_identical_across_processes(self, tmp_path):
        import subprocess
        import sys

        path = write_config(tmp_path, funk_config(sampling={"count": 20, "seed": 7}))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "finslercheck", "verify", path, "--json"],
                capture_output=True,
                check=True,
                env=child_env(),
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_dump_geodesics(self, tmp_path, capsys):
        cfg = funk_config(checks=[{"name": "geodesics", "params": {"count": 2, "steps": 60}}])
        out_dir = tmp_path / "paths"
        code = main(["verify", write_config(tmp_path, cfg), "--dump-geodesics", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["funk_geodesic000.csv", "funk_geodesic001.csv"]
        lines = (out_dir / files[0]).read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,y1,y2"
        assert len(lines) == 62


# goldens of configs written here rather than shipped under configs/: Bryant at
# n = 4 with perfbench's ambient_tensor_n4 checks pins the order-3 ambient
# bundle's blocks and the tensor Killing terms of six rotation fields
INLINE_GOLDEN_CONFIGS = {
    "bryant_n4_ambient": {
        "metric": {"name": "bryant", "params": {"alpha": math.pi / 6}},
        "dimension": 4,
        "sampling": {"count": 200, "seed": 7},
        "checks": [
            "symmetry",
            "symmetry_tensor",
            "cartan",
            "fundamental_ad",
            "det_g",
            "rapcsak",
            {"name": "curvature", "params": {"lambda": 1.0}},
            "convexity",
        ],
    },
}


# the shipped configs/<name>.json whose reports are goldens
CONFIG_GOLDENS = ("anisotropic_rejection", "bryant_curvature", "family_funk_reconstruction", "funk_full")


def golden_config_path(name, tmp_path) -> str:
    """The config whose --json report is tests/golden/<name>.json (an inline one
    written under tmp_path)."""
    if name in INLINE_GOLDEN_CONFIGS:
        return write_config(tmp_path, INLINE_GOLDEN_CONFIGS[name])
    return os.path.join(REPO, "configs", f"{name}.json")


@pytest.mark.parametrize("name", list(CONFIG_GOLDENS) + sorted(INLINE_GOLDEN_CONFIGS))
def test_json_report_matches_golden(name, capsys, tmp_path):
    # tests/golden holds each config's report as committed; a change that moves
    # a bit regenerates it (tests/regen_goldens.py) and says so
    code = main(["verify", golden_config_path(name, tmp_path), "--json"])
    with open(os.path.join(REPO, "tests", "golden", f"{name}.json")) as fh:
        golden = fh.read()
    assert capsys.readouterr().out == golden
    assert code == (0 if json.loads(golden)["overall_pass"] else 1)


# golden name -> (metric entry, dimension); a golden's files are named
# <golden name>_geodesic00i.csv, the dumped ones <metric name>_geodesic00i.csv.
# berwald divides by w and spherical takes sqrt(u^2 (1 + r^2) - v^2), so
# together they pin every jet operation a profile stage makes.
GEODESIC_GOLDEN_METRICS = {
    "funk": ({"name": "funk"}, 2),
    "bryant": ({"name": "bryant", "params": {"alpha": math.pi / 6}}, 3),
    "klein": ({"name": "klein"}, 2),
    "berwald": ({"name": "berwald"}, 2),
    "berwald_n3": ({"name": "berwald"}, 3),
    "spherical": ({"name": "spherical"}, 2),
}


def geodesic_golden_config(name) -> dict:
    """The config whose --dump-geodesics CSVs are the golden ``name``'s: 2 paths x 60 steps."""
    metric, dimension = GEODESIC_GOLDEN_METRICS[name]
    return {
        "metric": metric,
        "dimension": dimension,
        "sampling": {"count": 2, "seed": 7},
        "checks": [{"name": "geodesics", "params": {"count": 2, "steps": 60}}],
    }


@pytest.mark.parametrize("name", sorted(GEODESIC_GOLDEN_METRICS))
def test_dumped_geodesics_match_golden(name, tmp_path):
    # tests/golden/geodesics holds the --dump-geodesics CSVs of 2 paths x 60
    # steps byte for byte: any change to a stage's arithmetic moves a digit
    out_dir = tmp_path / "paths"
    _, code = run_config(write_config(tmp_path, geodesic_golden_config(name)), dump_dir=str(out_dir))
    assert code == 0
    golden_dir = os.path.join(REPO, "tests", "golden", "geodesics")
    dumped = [f"{GEODESIC_GOLDEN_METRICS[name][0]['name']}_geodesic{i:03d}.csv" for i in range(2)]
    assert sorted(os.listdir(out_dir)) == dumped
    for i, f in enumerate(dumped):
        with open(os.path.join(golden_dir, f"{name}_geodesic{i:03d}.csv"), "rb") as fh:
            assert (out_dir / f).read_bytes() == fh.read(), f


def numeric_keys():
    """The dotted path of every key the config tables declare as a number (a check's
    params under the check's name), of bryant's alpha, which the metric tests, and
    of the two range lists."""

    def walk(table, path):
        for key, (_, kind, _, _) in table.items():
            if isinstance(kind, dict):
                yield from walk(kind, f"{path}{key}.")
            elif kind in (int, float):
                yield path + key

    yield from walk(CONFIG, "")
    for form in METRIC_FORMS.values():
        yield from walk(form, "metric.")
    for name, entry in CHECKS.items():
        yield from walk(entry[3], f"{name}.")
    yield from ("metric.params.alpha", "sampling.r_range", "sampling.u_range")


# the metric entry of a config that holds a key under each of these paths
METRIC_OF = {
    "metric.family": family_metric()["metric"],
    "metric.family.quad": family_metric()["metric"],
    "metric.general": {"general": {"F": "sqrt(y1^2 + y2^2)"}},
    "metric.params": {"name": "bryant", "params": {}},
}


def config_with(path, value):
    """A config with the key at ``path`` set to ``value`` (a check's param runs that
    check alone), and the path the error must name."""
    head, _, key = path.rpartition(".")
    if head in CHECKS:
        return funk_config(checks=[{"name": head, "params": {key: value}}]), f"checks[0].params.{key}"
    cfg = funk_config(metric=copy.deepcopy(METRIC_OF.get(head, {"name": "funk"})))
    node = cfg
    for part in head.split(".") if head else ():
        node = node.setdefault(part, {})
    node[key] = [0.1, value] if key.endswith("_range") else value
    return cfg, path


@pytest.mark.parametrize("path", sorted(numeric_keys()))
def test_integer_too_large_for_a_float_exit_two(tmp_path, capsys, path):
    # a 401-digit horizon, lambda or tolerance ended in an OverflowError
    # traceback (exit 1); a count or steps reached int * float later
    cfg, named = config_with(path, 10**400)
    assert run_config(write_config(tmp_path, cfg)) == (None, 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"'{named}'" if named != "metric.params.alpha" else "bryant parameter alpha") in err


def shrunk(name):
    """The shipped config ``name`` with at most 8 samples, and geodesics of 2 paths x 8 steps."""
    with open(os.path.join(REPO, "configs", f"{name}.json")) as fh:
        cfg = json.load(fh)
    cfg["sampling"]["count"] = min(cfg["sampling"]["count"], 8)
    for entry in cfg["checks"]:
        if isinstance(entry, dict) and entry["name"] == "geodesics":
            entry["params"].update(count=2, steps=8)
    return cfg


SHIPPED = {
    name: shrunk(name)
    for name in ("anisotropic_rejection", "bryant_curvature", "family_funk_reconstruction", "funk_full")
}

# no large finite number: a valid count or steps of 10^9 would allocate gigabytes
JSON_VALUES = ["text", [], {}, True, None, math.nan, math.inf, -math.inf, -1, 0, 0.5, 10**400]


def slots(node, path=()):
    """The path of every object key and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from slots(value, path + (key,))


def bad_formulas(formula):
    """The six formulas around ``formula`` that once crashed verify or named no formula:
    200 nested parentheses, 1000 unary minuses, a sum of 1500 terms, an exponent tower
    past the float range, and the exponents 1e400 and NaN."""
    wrapped = f"({formula})"
    return [
        "(" * 200 + formula + ")" * 200,
        "-" * 1000 + wrapped,
        " + ".join([wrapped] * 1500),
        wrapped + "^2" * 11,
        wrapped + "^1e400",
        wrapped + "^(1e400-1e400)",
    ]


def formula_paths(cfg):
    """The path of every formula (f, g, h or F) in ``cfg``."""
    return [p for p in slots(cfg) if p[-1] in ("f", "g", "h", "F") and p[-2] in ("family", "general")]


@st.composite
def mutated_configs(draw):
    """A shipped config, shrunk, with one key dropped, misspelt or added, or one
    value replaced; or one of its formulas replaced by a bad formula around it or
    nested to a random depth."""
    cfg = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    formulas = formula_paths(cfg)
    mutation = draw(st.sampled_from(["drop", "misspell", "add", "replace"] + ["formula"] * bool(formulas)))
    paths = [p for p in slots(cfg) if mutation in ("drop", "replace") or isinstance(p[-1], str)]
    *head, key = draw(st.sampled_from(formulas if mutation == "formula" else paths))
    parent = cfg
    for part in head:
        parent = parent[part]
    if mutation == "formula":
        formula, depth = parent[key], draw(st.integers(0, 2 * MAX_NESTING))
        nested = ["(" * depth + formula + ")" * depth, "abs(" * depth + formula + ")" * depth]
        nested.append("-" * depth + f"({formula})")
        parent[key] = draw(st.sampled_from(bad_formulas(formula) + nested))
    elif mutation == "drop":
        del parent[key]
    elif mutation == "misspell":
        i = draw(st.integers(0, len(key) - 1))
        parent[key[:i] + key[i + 1 :] if draw(st.booleans()) else key[:i] + key[i] + key[i:]] = parent.pop(key)
    elif mutation == "add":
        parent["junk"] = draw(st.sampled_from(JSON_VALUES))
    else:
        parent[key] = draw(st.sampled_from(JSON_VALUES))
    return cfg


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_configs())
def test_mutated_shipped_configs_exit_cleanly(tmp_path, capsys, cfg):
    # whatever one mutation does, verify raises nothing: it runs (exit 1 exactly
    # when a record failed) or refuses the config with one error line (exit 2)
    report, code = run_config(write_config(tmp_path, cfg))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert report is None and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and code == (0 if report.overall_pass else 1)


@pytest.mark.parametrize("kind", range(6))
@pytest.mark.parametrize(
    "name, key", [("family_funk_reconstruction", "f"), ("family_funk_reconstruction", "g"),
                  ("family_funk_reconstruction", "h"), ("anisotropic_rejection", "F")]
)
def test_bad_formula_exit_two(tmp_path, capsys, name, key, kind):
    # each ended in a RecursionError or OverflowError traceback with exit 1, or
    # (NaN) in an error that named no formula
    cfg = copy.deepcopy(SHIPPED[name])
    form = cfg["metric"]["family" if key in "fgh" else "general"]
    form[key] = bad_formulas(form[key])[kind]
    assert main(["verify", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(f" in formula {key}\n")


def test_sum_of_300_terms_runs(tmp_path):
    cfg = copy.deepcopy(SHIPPED["anisotropic_rejection"])
    cfg["metric"]["general"]["F"] = " + ".join(["sqrt(2*y1^2 + y2^2)"] * 300)
    report, code = run_config(write_config(tmp_path, cfg))
    shipped, _ = run_config(write_config(tmp_path, SHIPPED["anisotropic_rejection"], "shipped.json"))
    assert code == 1 and [r.passed for r in report.records] == [r.passed for r in shipped.records]


def test_internal_error_exit_three(tmp_path, capsys, monkeypatch):
    # an exception that is neither a config error nor an evaluation error is a fault
    # of the program: one line and exit 3, so that exit 1 means a failed record
    def broken(run, tol, params):
        raise RuntimeError("broken runner")

    monkeypatch.setitem(CHECKS, "symmetry", (broken,) + CHECKS["symmetry"][1:])
    path = write_config(tmp_path, funk_config())
    with pytest.raises(RuntimeError):  # a library caller gets the exception itself
        run_config(path)
    assert main(["verify", path]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: RuntimeError('broken runner')\n"

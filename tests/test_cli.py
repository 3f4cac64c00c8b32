import json
import math
import os

import numpy as np
import pytest
from conftest import child_env

from finslercheck.cli import main, run_config
from finslercheck.report import to_json


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
        assert "tolerance 'curvature' must be finite and >= 0" in capsys.readouterr().err
        assert main(["verify", path, "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "tolerance 'curvature'" in out.err

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
            # a missing or unparsable formula, a bad check entry, a misspelt tolerance key
            ({"metric": {"family": {"g": "0"}}}, "family config is missing 'f'"),
            ({"metric": {"family": {"f": "1/(1+t"}}}, "bad family config: expected ')'"),
            ({"metric": {"general": {"name": "aniso"}}}, "general config is missing 'F'"),
            ({"metric": {"general": {"F": "sqrt(y1^2 +)"}}}, "bad general metric formula: unexpected token ')'"),
            ({"checks": ["symmetry", 3]}, "bad check entry: 3"),
            ({"tolerances": {"symetry": 1e-9}}, "unknown check 'symetry' in tolerances (did you mean 'symmetry'?)"),
            # a string lambda crashed in numpy; true ran as 1.0 and reached the report
            ({"checks": [{"name": "curvature", "params": {"lambda": "-0.25"}}]}, "curvature param 'lambda'"),
            ({"checks": [{"name": "curvature", "params": {"lambda": True}}]}, "curvature param 'lambda'"),
            ({"checks": [{"name": "curvature", "params": {"lambda": math.nan}}]}, "curvature param 'lambda'"),
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
            (
                {"metric": {"name": "bryant", "params": {"alpah": 0.5}}},
                "unknown parameter 'metric.params.alpah' of metric 'bryant' (did you mean 'alpha'?)",
            ),
            ({"metric": {"name": "funk", "params": {"alpha": 0.5}}}, "unknown parameter 'metric.params.alpha' of metric 'funk'"),
            ({"metric": {"name": "funk", "params": [0.5]}}, "'metric.params'"),
        ],
    )
    def test_malformed_config_type_exit_two(self, tmp_path, capsys, overrides, key):
        # each once crashed (exit 1), ran with a coerced value, or read a string as a list
        payload = overrides if isinstance(overrides, list) else funk_config(**overrides)
        path = write_config(tmp_path, payload)
        assert run_config(path) == (None, 2)
        assert key in capsys.readouterr().err
        assert main(["verify", path, "--json"]) == 2

    def test_config_without_metric_exit_two(self, tmp_path, capsys):
        cfg = funk_config()
        del cfg["metric"]
        assert run_config(write_config(tmp_path, cfg)) == (None, 2)
        assert "config needs a 'metric' entry (name, family, or general)" in capsys.readouterr().err

    def test_sampling_ranges_from_config(self, tmp_path):
        cfg = funk_config(
            sampling={"count": 25, "seed": 7, "r_range": [0.4, 0.6], "u_range": [0.5, 1.5]}
        )
        cfg["checks"] = ["symmetry"]
        report, code = run_config(write_config(tmp_path, cfg))
        assert code == 0
        r = np.linalg.norm(report.records[0].worst_x)
        assert 0.4 <= r <= 0.6

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


@pytest.mark.parametrize(
    "name", ["anisotropic_rejection", "bryant_curvature", "family_funk_reconstruction", "funk_full"]
)
def test_json_report_matches_golden(name, capsys):
    # tests/golden holds each config's report as committed; a change that moves
    # a bit regenerates it and says so
    code = main(["verify", os.path.join(REPO, "configs", f"{name}.json"), "--json"])
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


@pytest.mark.parametrize("name", sorted(GEODESIC_GOLDEN_METRICS))
def test_dumped_geodesics_match_golden(name, tmp_path):
    # tests/golden/geodesics holds the --dump-geodesics CSVs of 2 paths x 60
    # steps byte for byte: any change to a stage's arithmetic moves a digit
    metric, dimension = GEODESIC_GOLDEN_METRICS[name]
    cfg = {
        "metric": metric,
        "dimension": dimension,
        "sampling": {"count": 2, "seed": 7},
        "checks": [{"name": "geodesics", "params": {"count": 2, "steps": 60}}],
    }
    out_dir = tmp_path / "paths"
    _, code = run_config(write_config(tmp_path, cfg), dump_dir=str(out_dir))
    assert code == 0
    golden_dir = os.path.join(REPO, "tests", "golden", "geodesics")
    dumped = [f"{metric['name']}_geodesic{i:03d}.csv" for i in range(2)]
    assert sorted(os.listdir(out_dir)) == dumped
    for i, f in enumerate(dumped):
        with open(os.path.join(golden_dir, f"{name}_geodesic{i:03d}.csv"), "rb") as fh:
            assert (out_dir / f).read_bytes() == fh.read(), f

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mongebde
from mongebde.cli import run
from mongebde.config import (
    MAX_RESOLUTION,
    JobConfig,
    load_config_file,
    parse_pairs,
    parse_range,
)
from mongebde.emit import curves_csv, scene_svg
from mongebde.errors import UsageError
from mongebde.poly import parse_poly
from mongebde.sweep import Scene

GOLDENS = "goldens"


class TestConfig:
    def test_exactly_one_source(self):
        with pytest.raises(UsageError):
            JobConfig(command="classify")
        with pytest.raises(UsageError):
            JobConfig(command="classify", surface="y^2", table2="Pi_c2")

    def test_window_validation(self):
        with pytest.raises(UsageError):
            JobConfig(command="classify", surface="y^2", window=(1, -1, 0, 1))

    def test_non_finite_values_rejected(self):
        inf = float("inf")
        for kwargs in (
            {"window": (-inf, 0, 0, 1)},
            {"t_range": (float("nan"), 0.1)},
            {"u_range": (0, inf)},
            {"params": (inf, 0)},
        ):
            with pytest.raises(UsageError):
                JobConfig(command="sweep", table2="Pi_c2", **kwargs)

    def test_resolution_bounded(self):
        # Rejected while the config is built, before any grid is allocated.
        JobConfig(command="flecnodal", table2="Pi_c2", resolution=MAX_RESOLUTION)
        with pytest.raises(UsageError, match="exceeds the maximum"):
            JobConfig(command="flecnodal", table2="Pi_c2", resolution=MAX_RESOLUTION + 1)

    def test_parse_helpers(self):
        assert parse_pairs(["alpha=1/2"])["alpha"] == 0.5
        assert parse_range("-0.1:0.2") == (-0.1, 0.2)
        with pytest.raises(UsageError):
            parse_range("0.1")

    def test_flat_config_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("surface = y^2 + x^3  # stable cusp\nresolution = 64\n")
        data = load_config_file(str(cfg))
        assert data == {"surface": "y^2 + x^3", "resolution": "64"}

    def test_json_config_file(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text('{"surface": "y^2 + x^3", "window": "-1,1,-1,1"}')
        assert load_config_file(str(cfg))["surface"] == "y^2 + x^3"

    def test_repeated_keys_build_lists(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("moduli = alpha=1\nmoduli = beta=2\n")
        assert load_config_file(str(cfg))["moduli"] == ["alpha=1", "beta=2"]


class TestEmit:
    def test_csv_round_trips_floats(self):
        branch = np.array([[0.1, -0.30000000000000004], [1 / 3, 2e-17]])
        text = curves_csv([("p", [branch])])
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        back = np.array([[float(x), float(y)] for _, _, x, y in rows])
        assert np.array_equal(back, branch)

    def test_svg_minimal_elements(self):
        scene = Scene(
            params=(0, 0),
            window=(-1, 1, -1, 1),
            parabolic=None,
            flecnodal=None,
            gauss_cusps=[(0.1, 0.2)],
            butterflies=[],
        )
        svg = scene_svg(scene)
        assert svg.startswith("<svg ")
        assert "<circle" in svg and "A4" in svg


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["classify"]) == 2
        assert run(["classify", "--surface", "y^2", "--table2", "Pi_c2"]) == 2

    def test_classify_ok(self, tmp_path, capsys):
        code = run(["classify", "--table2", "Pi_c2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["stratum"] == "Π_{c,2}"
        assert report["codimension"] == 3

    def test_classify_unresolved(self, capsys):
        assert run(["classify", "--surface", "y^2"]) == 3

    def test_zero_denominator_is_usage_error(self, capsys):
        assert run(["classify", "--surface", "1/0*x^2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_range_is_usage_error(self, capsys):
        assert run(["sweep", "--table2", "Pi_c2", "--t=-inf:0.1", "--grid", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_resolution_is_usage_error(self, capsys):
        assert run(["flecnodal", "--table2", "Pi_c2", "--resolution", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["flecnodal", "--table2", "Pi_c2", "--params=1e400,0", "--resolution", "16"],
            ["sweep", "--table2", "Pi_c2", "--t=0:1e300", "--grid", "2"],
            ["portrait", "--table2", "Pi_c2", "--params=1e400,0"],
        ],
    )
    def test_huge_finite_parameters_are_usage_errors(self, argv):
        # A separate interpreter, as a user runs it: the sweep's float
        # evaluation overflows (a RuntimeWarning) before a coefficient
        # leaves the float range, and only the exit code and the final
        # line are in question here.
        src = os.path.dirname(os.path.dirname(mongebde.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "mongebde.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")

    def test_elliptic_surface_has_empty_flecnodal_curve(self, tmp_path, capsys):
        # x^2 + y^2 has no asymptotic directions: its flecnodal eliminant
        # vanishes identically, which gives an empty curve, not an error.
        out = tmp_path / "p"
        argv = ["--surface", "x^2+y^2", "--resolution", "16"]
        assert run(["portrait", *argv, "--out", str(out)]) == 0
        assert (out / "scene.svg").exists()
        assert run(["flecnodal", *argv]) == 0

    def test_verify_locus_pass_and_fail(self, capsys):
        base = ["verify-locus", "--table2", "Pi_v3", "--locus"]
        assert run(base + ["108*t + -40*u^3 + -3*u^4"]) == 0
        assert run(base + ["t + -1*u"]) == 4

    def test_golden_check_passes(self, capsys):
        assert run(["golden-check", "--goldens", GOLDENS]) == 0

    def test_golden_perturbation_detected(self, tmp_path, capsys):
        shutil.copytree(GOLDENS, tmp_path / "g")
        exact = json.loads((tmp_path / "g" / "exact.json").read_text())
        key = "parabolic/Pi_c2"
        exact[key] = exact[key].replace("20", "21", 1)
        (tmp_path / "g" / "exact.json").write_text(json.dumps(exact))
        assert run(["golden-check", "--goldens", str(tmp_path / "g")]) == 4
        assert key in capsys.readouterr().out.split("FAIL ")[1]

    def test_golden_tiny_traced_perturbation_tolerated(self, tmp_path, capsys):
        shutil.copytree(GOLDENS, tmp_path / "g")
        traced = json.loads((tmp_path / "g" / "traced.json").read_text())
        name = "gauss_cusps/Pi_c2@t=-1/20"
        traced[name]["value"][0][1] += 1e-12
        (tmp_path / "g" / "traced.json").write_text(json.dumps(traced))
        assert run(["golden-check", "--goldens", str(tmp_path / "g")]) == 0


class TestArtifacts:
    def test_parabolic_artifacts_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run(["parabolic", "--surface", "y^2+x^3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert parse_poly(report["polynomial"]).same_poly(parse_poly("x"))
        assert (out / "curves.csv").read_text().startswith("curve,branch_id,x,y")
        assert (out / "scene.svg").read_text().startswith("<svg ")

    def test_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                [
                    "flecnodal",
                    "--table2",
                    "Pi_c2",
                    "--params=-1/20,0",
                    "--out",
                    str(out),
                ]
            )
            outs.append(out)
        for fname in ("report.json", "curves.csv", "scene.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_file_drives_command(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("surface = y^2+x^3\nout = %s\n" % (tmp_path / "o"))
        assert run(["parabolic", "--config", str(cfg)]) == 0
        assert (tmp_path / "o" / "curves.csv").exists()

    def test_unreadable_config(self, capsys):
        assert run(["classify", "--config", "/nonexistent/file.cfg"]) == 2

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magbeam
from magbeam import cli
from magbeam.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    InputError,
    _parse_grid_axis,
    _parse_range,
    main,
)
from magbeam.config import default_config_path

DATA_DIR = default_config_path().parent


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency, and importing it is slow
    src = str(Path(magbeam.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, magbeam, magbeam.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from dataclasses import replace
import numpy as np
from magbeam import cli
from magbeam.beam import Wrench, centerline
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import invert_controls, solve_tip_pose
from magbeam.geomag import FieldCalibration
flags = ["--ke", "0.009", "--kb", "4.03"]
assert cli.main(["simulate", "--theta1", "60", "--theta2", "0", *flags]) == 0
assert cli.main(["sweep", "--theta1", "0:30:180", "--theta2", "0", *flags]) == 0
cfg = load_config(default_config_path())
params = replace(cfg.params, stiffness_scale=0.009)
cal = FieldCalibration(4.03)
target = solve_tip_pose(params, cfg.pair_template.with_angles(0.8, 0.2), cfg.source,
                        cal, cfg.settings, cfg.mode).tip.position
inv = invert_controls(target, params, cfg.pair_template, cfg.source, cal,
                      cfg.settings, cfg.mode)
assert inv.position_error <= cfg.settings.position_tolerance
assert np.isfinite(centerline(params, Wrench(np.array([0.0, 0.01, 0.0]), np.zeros(3)),
                              50)).all()
print("runs without scipy")
"""


def test_runtime_needs_no_scipy():
    # scipy is only a test dependency: the CLI, the inverse and the
    # centerline run with it blocked
    src = str(Path(magbeam.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("runs without scipy")


class TestParsers:
    def test_range_single_value(self):
        assert _parse_range("45") == pytest.approx([45.0])

    def test_range_inclusive(self):
        vals = _parse_range("0:12:180")
        assert len(vals) == 16
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(180.0)

    def test_range_bad(self):
        # the huge counts are rejected before any sample is allocated
        for text in ("0:12", "a:b:c", "nan", "0:nan:180", "0:1:inf",
                     "0:1e-9:180", "-1e308:1:1e308"):
            with pytest.raises(InputError):
                _parse_range(text)

    def test_grid_axis(self):
        vals = _parse_grid_axis("3.5:4.5:5")
        assert vals == pytest.approx(np.linspace(3.5, 4.5, 5))
        assert len(_parse_grid_axis("1:2")) == 25

    def test_grid_axis_bad(self):
        for text in ("2:1:5", "1", "nan:2:5", "1:inf:5", "1:2:inf",
                     "1:2:100000000"):
            with pytest.raises(InputError):
                _parse_grid_axis(text)

    def test_point_count_capped(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 10)
        assert main(["sweep", "--theta1", "0:1:3", "--theta2", "0:1:3"]) == EXIT_INPUT
        assert main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                     "--ke", "0.009:0.018:4", "--kb", "3.5:4.5:4"]) == EXIT_INPUT


class TestSimulate:
    def test_antiparallel_zero_deflection(self, capsys):
        rc = main(["simulate", "--theta1", "180", "--theta2", "0",
                   "--ke", "0.009", "--kb", "4.03"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "deflection_mm: 0.0000" in out
        assert "converged: True" in out

    def test_report_round_trips(self, tmp_path, capsys):
        rpt = tmp_path / "run.json"
        rc = main(["simulate", "--theta1", "60", "--ke", "0.009",
                   "--kb", "4.03", "--out", str(rpt)])
        assert rc == EXIT_OK
        doc = json.loads(rpt.read_text())
        assert doc["results"]["converged"] is True
        assert doc["results"]["theta1_deg"] == 60.0
        assert "version" in doc and "wall_time_s" in doc
        # config echo matches the bundled file byte for byte after parsing
        assert doc["inputs"] == json.loads(default_config_path().read_text())

    @pytest.mark.parametrize("args", [
        ["--theta1", "inf", "--ke", "0.009"],
        ["--theta1", "nan", "--ke", "0.009"],
        ["--theta1", "0", "--theta2", "inf", "--ke", "0.009"],
        ["--theta1", "0", "--theta2", "nan", "--ke", "0.009"],
        ["--theta1", "30", "--ke", "inf"],
    ], ids=["theta1-inf", "theta1-nan", "theta2-inf", "theta2-nan", "ke-inf"])
    def test_nonfinite_angle_is_not_a_crash(self, capsys, args):
        rc = main(["simulate", "--kb", "4.03", *args])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exit_2(self):
        rc = main(["simulate", "--theta1", "0", "--config", "/nonexistent.json"])
        assert rc == EXIT_INPUT


class TestSweep:
    def test_sixteen_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--theta1", "0:12:180", "--theta2", "0",
                   "--ke", "0.009", "--kb", "4.03", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert rows[0]["theta1_deg"] == "0.0"
        assert rows[-1]["theta1_deg"] == "180.0"
        assert all(r["converged"] == "True" for r in rows)
        # antiparallel row is the straight configuration
        last = rows[-1]
        assert float(last["x_mm"]) == pytest.approx(150.0, abs=1e-6)
        assert float(last["y_mm"]) == pytest.approx(0.0, abs=1e-6)

    def test_csv_feeds_validate(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--theta1", "0:30:180", "--theta2", "0",
                   "--ke", "0.009", "--kb", "4.03", "--out", str(out)])
        assert rc == EXIT_OK
        rc = main(["validate", "--data", str(out), "--ke", "0.009",
                   "--kb", "4.03"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # self-consistency: max error at solver-tolerance scale
        assert doc["results"]["metrics"]["max_abs_error_mm"] <= 0.01
        assert doc["results"]["metrics"]["r_squared"] >= 0.999

    def test_grid_is_one_batch_with_or_without_warm_start(self, tmp_path):
        csvs = []
        for extra in ([], ["--no-warm-start"]):
            out = tmp_path / f"sweep{len(csvs)}.csv"
            rc = main(["sweep", "--theta1", "0:15:180", "--theta2", "0:40:120",
                       "--ke", "0.009", "--kb", "4.03", "--out", str(out), *extra])
            assert rc == EXIT_OK
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == 1 + 13 * 4

    def test_stdout_default(self, capsys):
        rc = main(["sweep", "--theta1", "0", "--theta2", "0",
                   "--ke", "0.009", "--kb", "4.03"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("theta1_deg,theta2_deg,x_mm")
        assert len(lines) == 2


@pytest.mark.parametrize("command", [
    ["calibrate", "--ke", "0.009:0.012:3", "--kb", "3.9:4.2:3"],
    ["validate", "--ke", "0.009", "--kb", "4.03"],
], ids=["calibrate", "validate"])
def test_one_record_exit_2(tmp_path, capsys, command):
    f = tmp_path / "one.csv"
    f.write_text("theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n0,0,150.0,0.2,\n")
    rc = main([*command, "--data", str(f)])
    assert rc == EXIT_INPUT
    assert "need at least two records" in capsys.readouterr().err


class TestCalibrate:
    def test_small_grid_json(self, tmp_path):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   "--ke", "0.009:0.012:3", "--kb", "3.9:4.2:3",
                   "--threads", "2", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        res = doc["results"]
        assert 0.009 <= res["ke_star"] <= 0.012
        assert 3.9 <= res["kb_star"] <= 4.2
        assert len(doc["results"]["grid"]["surface_mm"]) == 9
        assert res["records"] == 16
        for key in ("max_abs_error_mm", "mean_abs_error_mm", "std_error_mm",
                    "r_squared"):
            assert key in res["metrics"]

    def test_surface_csv(self, tmp_path):
        surf = tmp_path / "surface.csv"
        rc = main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   "--ke", "0.009:0.009:1", "--kb", "4.03:4.03:1",
                   "--out", str(tmp_path / "cal.json"), "--surface", str(surf)])
        assert rc == EXIT_OK
        with open(surf, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["max_abs_error_mm"]) < 1.0

    def test_empty_data_exit_2(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("theta1_deg,x_mm,y_mm\n")
        rc = main(["calibrate", "--data", str(f), "--ke", "0.009:0.009:1",
                   "--kb", "4:4:1"])
        assert rc == EXIT_INPUT

    def test_notch_flags_must_pair(self, tmp_path):
        rc = main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   "--ke", "0.009:0.009:1", "--kb", "4:4:1",
                   "--notch-slope", "8.2"])
        assert rc == EXIT_INPUT


class TestValidate:
    def test_plot_written(self, tmp_path):
        out = tmp_path / "val.json"
        svg = tmp_path / "val.svg"
        rc = main(["validate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   "--ke", "0.009", "--kb", "4.03",
                   "--out", str(out), "--plot", str(svg)])
        assert rc == EXIT_OK
        assert svg.read_text().startswith("<svg")
        doc = json.loads(out.read_text())
        assert len(doc["results"]["records"]) == 16


class TestWorkspace:
    def test_schedule_ellipse(self, tmp_path):
        out = tmp_path / "ws.json"
        rc = main(["workspace", "--schedule",
                   str(DATA_DIR / "elliptical-schedule.csv"),
                   "--ke", "0.009", "--kb", "4.03", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        ell = doc["results"]["ellipse"]
        assert ell["semi_axes_mm"][0] >= ell["semi_axes_mm"][1] > 0
        assert len(doc["results"]["points_mm"]) == 24
        st = doc["results"]["stats"]
        assert st["max_deflection_y_mm"] > 0
        assert st["max_deflection_z_mm"] > 0

    def test_biplanar_tracks(self, tmp_path):
        t = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        y = 8.0 * np.cos(t)
        z = 5.0 * np.sin(t)
        x = np.full_like(t, 149.0)
        top = tmp_path / "top.csv"
        side = tmp_path / "side.csv"
        with open(top, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x_mm", "y_mm"])
            w.writerows(np.column_stack([x, y]))
        with open(side, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x_mm", "z_mm"])
            w.writerows(np.column_stack([x, z]))
        out = tmp_path / "ws.json"
        svg = tmp_path / "ws.svg"
        rc = main(["workspace", "--top", str(top), "--side", str(side),
                   "--out", str(out), "--plot", str(svg)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        ell = doc["results"]["ellipse"]
        assert ell["semi_axes_mm"][0] == pytest.approx(8.0, abs=1e-6)
        assert ell["semi_axes_mm"][1] == pytest.approx(5.0, abs=1e-6)
        assert ell["rms_mm"] <= 1e-6
        assert svg.exists()

    def test_missing_inputs_exit_2(self):
        rc = main(["workspace"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("flag, text", [
        ("--schedule", "theta1_deg,theta2_deg\n0,0\n10,abc\n"),
        ("--top", "x_mm,y_mm\n149,0\n149,x\n"),
        ("--top", "index,x_mm,y_mm\n0,149,0\nfoo,149,1\n"),
    ], ids=["schedule", "track", "track-index"])
    def test_bad_csv_cell_exit_2(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        side = tmp_path / "side.csv"
        side.write_text("x_mm,z_mm\n149,0\n149,1\n")
        args = [flag, str(bad)] + (["--side", str(side)] if flag == "--top" else [])
        assert main(["workspace"] + args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{bad}:3" in err
        assert "Traceback" not in err

    def test_collinear_track_exit_3(self, tmp_path):
        top = tmp_path / "top.csv"
        side = tmp_path / "side.csv"
        top.write_text("x_mm,y_mm\n" + "".join(
            f"149.0,{v}\n" for v in range(8)))
        side.write_text("x_mm,z_mm\n" + "149.0,0.0\n" * 8)
        rc = main(["workspace", "--top", str(top), "--side", str(side)])
        assert rc == EXIT_NUMERIC

import argparse
import codecs
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import magbeam
from magbeam import cli, equilibrium, inverse
from magbeam.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    InputError,
    _parse_grid_axis,
    _parse_range,
    main,
)
from magbeam.beam import BeamFormulation
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import solve_tip_pose
from magbeam.geomag import FieldCalibration, RingPairConfig
from magbeam.inverse import invert_controls

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
from magbeam.equilibrium import solve_tip_pose
from magbeam.geomag import FieldCalibration
from magbeam.inverse import invert_controls
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
        for text, count, last in [
            ("0:12:180", 16, 180.0), ("0:1:180", 181, 180.0), ("0:0.1:0.3", 4, 0.3),
            ("10:-5:0", 3, 0.0),
            # a stop that the step does not reach is not overshot
            ("0:10:25", 3, 20.0), ("0:7:20", 3, 14.0), ("0:10:29.9", 3, 20.0),
        ]:
            vals = _parse_range(text)
            assert len(vals) == count, text
            assert vals[0] == float(text.split(":")[0]) and vals[-1] == pytest.approx(last)

    def test_range_bad(self):
        # the huge counts are rejected before any sample is allocated
        for text in ("0:12", "a:b:c", "nan", "0:nan:180", "0:1:inf",
                     "0:1e-9:180", "-1e308:1:1e308",
                     # a zero step, or one that points away from stop
                     "0:0:10", "10:1:0", "0:-1:10"):
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

    def test_grid_axis_of_one_value(self):
        assert _parse_grid_axis("3.5:4.5:1").tolist() == [3.5]

    @pytest.mark.parametrize("n", [1, 3])
    def test_grid_axis_span_that_overflows_rejected(self, n):
        # linspace over such a span overflows to inf and NaN, with a
        # RuntimeWarning, whatever the number of values
        with pytest.raises(InputError, match="bad grid axis"):
            _parse_grid_axis(f"-1e308:1e308:{n}")

    def test_point_count_capped(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 10)
        assert main(["sweep", "--theta1", "0:1:3", "--theta2", "0:1:3"]) == EXIT_INPUT
        assert main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                     "--ke", "0.009:0.018:4", "--kb", "3.5:4.5:4"]) == EXIT_INPUT


def test_option_strings_per_subcommand():
    # every flag each subcommand takes, so that no flag is added or lost
    common = {"-h", "--help", "--config", "--beam-mode"}
    expected = {
        "simulate": {"--theta1", "--theta2", "--ke", "--kb", "--out"},
        "sweep": {"--theta1", "--theta2", "--zip", "--ke", "--kb", "--out", "--report"},
        "calibrate": {"--data", "--ke", "--kb", "--out", "--surface", "--notch-slope",
                      "--notch-offset", "--threads"},
        "validate": {"--data", "--ke", "--kb", "--out", "--plot", "--notch-slope",
                     "--notch-offset"},
        "workspace": {"--schedule", "--top", "--side", "--ke", "--kb", "--out", "--plot"},
        "invert": {"--targets", "--ke", "--kb", "--out"},
    }
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {o for a in parser._actions for o in a.option_strings} == {
        "-h", "--help", "--version"}
    assert set(sub.choices) == set(expected)
    for name, flags in expected.items():
        got = {o for a in sub.choices[name]._actions for o in a.option_strings}
        assert got == common | flags, name


PARSER_BUILDS = """
import argparse
builds = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    builds.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import magbeam.cli
print(len(builds))
magbeam.cli.main(["--version"])
"""


def test_import_builds_no_parser():
    # the parser is built by the first main() call, not at import
    src = str(Path(magbeam.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", PARSER_BUILDS], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    builds, version = out.stdout.split()
    assert builds == "0" and version == magbeam.__version__


def test_shared_parser_keeps_no_state(tmp_path, capsys):
    # main() reuses one parser: a grid sweep after a zipped one and a
    # --version gives the bytes it gives on a parser of its own
    flags = ["--ke", "0.009", "--kb", "4.03"]
    grid = ["sweep", "--theta1", "0:45:180", "--theta2", "0:90:180", *flags]
    cli._parser.cache_clear()
    assert main([*grid, "--out", str(tmp_path / "alone.csv")]) == EXIT_OK
    assert main(["sweep", "--theta1", "0:90:180", "--theta2", "0:90:180", "--zip",
                 *flags, "--out", str(tmp_path / "zip.csv")]) == EXIT_OK
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == magbeam.__version__
    assert main(["sweep", *flags]) == EXIT_INPUT  # --theta1 is required
    assert main([*grid, "--out", str(tmp_path / "after.csv")]) == EXIT_OK
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    assert len((tmp_path / "zip.csv").read_bytes().splitlines()) == 1 + 3
    assert len((tmp_path / "after.csv").read_bytes().splitlines()) == 1 + 5 * 3
    assert cli._parser.cache_info().misses == 1


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


def test_separated_rings_through_the_config(tmp_path, capsys):
    # a config with separation_mm > 0 runs the two-ring kernel end to end;
    # simulate and sweep agree with solve_tip_pose on the same pair
    doc = json.loads((DATA_DIR / "demonstrator.json").read_text())
    doc["tip_magnets"]["separation_mm"] = 5
    config = tmp_path / "separated.json"
    config.write_text(json.dumps(doc))
    cfg = load_config(default_config_path())
    params = replace(cfg.params, stiffness_scale=0.009)
    mag = cfg.pair_template.magnet_1.moment_magnitude
    flags = ["--config", str(config), "--ke", "0.009", "--kb", "4.03"]

    def solve(theta1_deg):
        pair = RingPairConfig.from_angles(mag, math.radians(theta1_deg), 0.0, separation=5e-3)
        return solve_tip_pose(params, pair, cfg.source, FieldCalibration(4.03),
                              cfg.settings, cfg.mode)

    report = tmp_path / "simulate.json"
    assert main(["simulate", "--theta1", "60", *flags, "--out", str(report)]) == EXIT_OK
    capsys.readouterr()
    res = solve(60.0)
    results = json.loads(report.read_text())["results"]
    assert results["tip_mm"] == (res.tip.position * 1e3).tolist()
    assert results["iterations"] == res.iterations == 4
    assert results["tip_mm"] == pytest.approx([150.0, -6.91, 11.81], abs=5e-3)

    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--theta1", "0:45:180", *flags, "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        tip = solve(float(row["theta1_deg"])).tip.position * 1e3
        assert [float(row[k]) for k in ("x_mm", "y_mm", "z_mm")] == pytest.approx(
            tip, abs=cfg.settings.position_tolerance * 1e3)


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

    def test_no_warm_start_flag_is_an_input_error(self, tmp_path):
        # the retired --no-warm-start is an unknown option, for grids and
        # for --zip, and writes no file
        for zipped, theta2, rows in (([], "0:40:120", 13 * 4), (["--zip"], "0:10:120", 13)):
            out = tmp_path / f"sweep{len(zipped)}.csv"
            args = ["sweep", "--theta1", "0:15:180", "--theta2", theta2, *zipped,
                    "--ke", "0.009", "--kb", "4.03", "--out", str(out)]
            assert main([*args, "--no-warm-start"]) == EXIT_INPUT
            assert not out.exists()
            assert main(args) == EXIT_OK
            assert len(out.read_bytes().splitlines()) == 1 + rows

    def test_stdout_default(self, capsys):
        rc = main(["sweep", "--theta1", "0", "--theta2", "0",
                   "--ke", "0.009", "--kb", "4.03"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("theta1_deg,theta2_deg,x_mm")
        assert len(lines) == 2

    @pytest.mark.parametrize("extra", [["--theta2", "0"], ["--theta2", "10:-5:0", "--zip"]],
                             ids=["grid", "zip"])
    def test_failed_rows(self, tmp_path, capsys, extra):
        # on so soft a body only the antiparallel point (180, 0) deg solves
        report = tmp_path / "sweep.json"
        rc = main(["sweep", "--theta1", "0:90:180", *extra, "--ke", "1e-6",
                   "--kb", "4.03", "--report", str(report)])
        assert rc == EXIT_NUMERIC
        t2 = ["0.0"] * 3 if "--zip" not in extra else ["10.0", "5.0", "0.0"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta1_deg,theta2_deg,x_mm,y_mm,z_mm,converged"
        assert lines[1:3] == [f"0.0,{t2[0]},,,,False", f"90.0,{t2[1]},,,,False"]
        row = lines[3].split(",")
        assert row[:2] == ["180.0", "0.0"] and row[-1] == "True"
        assert float(row[2]) == pytest.approx(150.0, abs=1e-6)
        results = json.loads(report.read_text())["results"]
        assert (results["points"], results["failed"]) == (3, 2)

    def test_unconverged_rows_keep_tips(self, tmp_path, capsys):
        # an unconverged solve raises nothing: its row keeps the last iterate
        doc = json.loads((DATA_DIR / "demonstrator.json").read_text())
        doc["solver"]["max_iterations"] = 1
        config = tmp_path / "one-iteration.json"
        config.write_text(json.dumps(doc))
        rc = main(["sweep", "--config", str(config), "--theta1", "30:30:60",
                   "--ke", "0.009", "--kb", "4.03"])
        assert rc == EXIT_NUMERIC
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [r[-1] for r in rows] == ["False", "False"]
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:5])


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


# a file the CSV or JSON readers cannot decode or parse: byte 0xFF on line 3,
# or a quoted cell on line 3 longer than the csv module's field size limit
UNREADABLE = {
    "not-utf8": (b"theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n0,0,150,0,\n1\xff,0,150,1,\n",
                 "not UTF-8 text"),
    "oversized-cell": (b"theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n0,0,150,0,\n\""
                       + b"x" * 200_000 + b"\",0,150,1,\n", "field larger than field limit"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("command", [
    ["calibrate", "--ke", "0.009:0.012:2", "--kb", "3.9:4.2:2", "--data"],
    ["validate", "--ke", "0.009", "--kb", "4.03", "--data"],
    ["workspace", "--schedule"],
], ids=["calibrate", "validate", "workspace"])
def test_unreadable_csv_exit_2(tmp_path, capsys, command, kind):
    data, message = UNREADABLE[kind]
    f = tmp_path / "bad.csv"
    f.write_bytes(data)
    assert main([*command, str(f)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {f}:3: {message}")
    assert "Traceback" not in err


# a data row on line 3 with one cell more than its header, as a decimal comma
# makes of 0,9 mm: the reader must not answer the row from its first cells
@pytest.mark.parametrize("command, text", [
    (["invert", "--ke", "0.009", "--kb", "4.03", "--targets"],
     "x_mm,y_mm,z_mm\n150,0,0\n150,0,0,9\n"),
    (["calibrate", "--ke", "0.009:0.012:2", "--kb", "3.9:4.2:2", "--data"],
     "theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n0,0,150,0,\n10,0,149,5,0,9\n"),
    (["workspace", "--schedule"], "theta1_deg,theta2_deg\n0,0\n10,20,30\n"),
], ids=["invert", "calibrate", "workspace"])
def test_extra_csv_cells_exit_2(tmp_path, capsys, command, text):
    f = tmp_path / "extra.csv"
    f.write_text(text)
    assert main([*command, str(f)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {f}:3: more cells than the header\n"


def test_sweep_range_away_from_stop_exit_2(capsys):
    # a step that points away from stop computes nothing and exits 2
    assert main(["sweep", "--theta1", "180:1:0", "--kb", "4.03"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "180:1:0" in err
    assert "Traceback" not in err


def test_zipped_sweep_of_unequal_lengths_exit_2(capsys):
    assert main(["sweep", "--theta1", "0:1:2", "--theta2", "0", "--zip",
                 "--kb", "4.03"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: zipped sweep needs equal-length sequences\n"


def test_config_not_utf8_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_bytes(b'{"robot": "\xff"}')
    assert main(["simulate", "--theta1", "10", "--config", str(f)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: not UTF-8 text")
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("axes", [["--ke=-0.01:0.01:3", "--kb", "3.5:4.5:3"],
                                      ["--ke", "0.009:0.018:3", "--kb=-4.5:4.5:3"]],
                             ids=["ke", "kb"])
    def test_nonpositive_grid_exit_2(self, capsys, axes):
        rc = main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   *axes])
        assert rc == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and "must be finite and > 0" in err

    def test_every_cell_diverged_exit_3(self, tmp_path, capsys):
        # one iteration from the straight tip converges no record anywhere
        doc = json.loads((DATA_DIR / "demonstrator.json").read_text())
        doc["solver"]["max_iterations"] = 1
        config = tmp_path / "one-iteration.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv"),
                   "--ke", "0.009:0.012:2", "--kb", "3.9:4.2:2", "--config", str(config),
                   "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == "error: every grid cell diverged\n"
        assert not out.exists()

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


def _strict_json(text: str):
    """``text`` parsed as strict JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in a report")
    return json.loads(text, parse_constant=reject)


SCHEDULE = str(DATA_DIR / "elliptical-schedule.csv")
PLANAR = str(DATA_DIR / "planar-sweep-digitized.csv")
OVERRIDES = ["--ke", "0.012", "--kb", "4.03", "--beam-mode", "corrected"]


@pytest.mark.parametrize("command, ke", [
    (["simulate", "--theta1", "60", *OVERRIDES, "--out"], 0.012),
    (["sweep", "--theta1", "0:60:180", *OVERRIDES, "--out", "{tmp}/s.csv", "--report"],
     0.012),
    (["calibrate", "--data", PLANAR, "--ke", "0.009:0.012:2", "--kb", "4:4.1:2",
      "--beam-mode", "corrected", "--out"], 0.009),
    (["validate", "--data", PLANAR, *OVERRIDES, "--out"], 0.012),
    (["workspace", "--schedule", SCHEDULE, *OVERRIDES, "--out"], 0.012),
], ids=["simulate", "sweep", "calibrate", "validate", "workspace"])
def test_report_names_the_model_that_ran(tmp_path, capsys, command, ke):
    # the echoed inputs carry the --ke and --beam-mode overrides (calibrate
    # searches its own ke grid and keeps the config's), the results the kb
    report = tmp_path / "report.json"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
    assert main([*argv, str(report)]) == EXIT_OK
    doc = _strict_json(report.read_text())
    expected = json.loads(default_config_path().read_text())
    expected["robot"]["ke"] = ke
    expected["beam_mode"] = "corrected"
    assert doc["inputs"] == expected
    if command[0] != "calibrate":
        assert doc["results"]["kb"] == 4.03
    if command[0] == "simulate":  # and the model that ran is the one named
        cfg = load_config(default_config_path())
        res = solve_tip_pose(replace(cfg.params, stiffness_scale=ke),
                             cfg.pair_template.with_angles(math.radians(60), 0.0),
                             cfg.source, FieldCalibration(4.03), cfg.settings,
                             BeamFormulation.CORRECTED)
        assert doc["results"]["tip_mm"] == (res.tip.position * 1e3).tolist()


def test_reports_write_non_finite_numbers_as_null(tmp_path, capsys):
    # a cell whose solves fail scores +inf in the error surface, and records
    # that all sit at one position give R^2 = -inf: both are written as null
    assert main(["calibrate", "--data", PLANAR, "--ke", "1e-6:0.009:2",
                 "--kb", "4.03:4.03:1"]) == EXIT_OK
    surface = _strict_json(capsys.readouterr().out)["results"]["grid"]["surface_mm"]
    assert surface[0] is None and math.isfinite(surface[1])
    data = tmp_path / "same.csv"
    data.write_text("theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n0,0,149,1,\n0,0,149,1,\n")
    assert main(["validate", "--data", str(data), "--ke", "0.009", "--kb", "4.03"]) == EXIT_OK
    metrics = _strict_json(capsys.readouterr().out)["results"]["metrics"]
    assert metrics["r_squared"] is None and math.isfinite(metrics["max_abs_error_mm"])


@pytest.mark.parametrize("command, failed", [
    (["validate", "--data", str(DATA_DIR / "planar-sweep-digitized.csv")], 15),
    (["workspace", "--schedule", str(DATA_DIR / "elliptical-schedule.csv")], 24),
], ids=["validate", "workspace"])
def test_failed_forward_solves_exit_3(capsys, command, failed):
    rc = main([*command, "--ke", "1e-6", "--kb", "4.03"])
    assert rc == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {failed} forward solves failed\n"  # and no traceback


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

    @pytest.mark.parametrize("tracks", [["--top", "t.csv", "--side", "s.csv"],
                                        ["--top", "t.csv"], ["--side", "s.csv"]],
                             ids=["both", "top", "side"])
    def test_schedule_with_tracks_exit_2(self, capsys, tracks):
        # the tracks would be ignored, so the pair is refused before any file is read
        rc = main(["workspace", "--schedule", SCHEDULE, *tracks])
        assert rc == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: give either --schedule or --top and --side, not both\n"

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

    @pytest.mark.parametrize("flag", ["--schedule", "--top", "--side"])
    @pytest.mark.parametrize("kind", ["empty", "missing-column", "no-rows"])
    def test_bad_csv_table_exit_2(self, tmp_path, capsys, flag, kind):
        first, second = {"--schedule": ("theta1_deg", "theta2_deg"),
                         "--top": ("x_mm", "y_mm"), "--side": ("x_mm", "z_mm")}[flag]
        bad = tmp_path / "bad.csv"
        bad.write_text({"empty": "", "missing-column": f"{first}\n0\n",
                        "no-rows": f"{first},{second}\n"}[kind])
        top = tmp_path / "top.csv"
        top.write_text("x_mm,y_mm\n149,0\n149,1\n")
        side = tmp_path / "side.csv"
        side.write_text("x_mm,z_mm\n149,0\n149,1\n")
        args = {"--schedule": ["--schedule", bad], "--top": ["--top", bad, "--side", side],
                "--side": ["--top", top, "--side", bad]}[flag]
        assert main(["workspace", *map(str, args)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == {"empty": f"error: {bad}: empty CSV\n",
                       "missing-column": f"error: {bad}: missing columns ['{second}']\n",
                       "no-rows": f"error: {bad}: no data rows\n"}[kind]

    def test_collinear_track_exit_3(self, tmp_path):
        top = tmp_path / "top.csv"
        side = tmp_path / "side.csv"
        top.write_text("x_mm,y_mm\n" + "".join(
            f"149.0,{v}\n" for v in range(8)))
        side.write_text("x_mm,z_mm\n" + "149.0,0.0\n" * 8)
        rc = main(["workspace", "--top", str(top), "--side", str(side)])
        assert rc == EXIT_NUMERIC


INVERT_FLAGS = ["--ke", "0.009", "--kb", "4.03"]
# an in-plane target within reach, the straight tip, a point out of reach and
# one 1.3 mm off the plane x = L that holds every tip, so out of reach [mm]
TARGETS = "x_mm,y_mm,z_mm\n150,-4.2,9.1\n150,0,0\n130,25,30\n148.7,-4.2,9.1\n"


# every CSV input of the command line, each read from a copy of a file that
# it accepts, those under DATA_DIR by name; a track is an ellipse of 24 points
_ELLIPSE = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
CSV_INPUTS = {
    "calibrate": (["calibrate", "--ke", "0.009:0.012:2", "--kb", "3.9:4.2:2",
                   "--data", "{planar-sweep-digitized.csv}"], {}),
    "validate": (["validate", "--ke", "0.009", "--kb", "4.03",
                  "--data", "{planar-sweep-digitized.csv}"], {}),
    "workspace-schedule": (["workspace", "--ke", "0.009", "--kb", "4.03",
                            "--schedule", "{elliptical-schedule.csv}"], {}),
    "workspace-tracks": (["workspace", "--top", "{top.csv}", "--side", "{side.csv}"], {
        "top.csv": "x_mm,y_mm\n" + "".join(f"149,{8 * math.cos(t)}\n" for t in _ELLIPSE),
        "side.csv": "x_mm,z_mm\n" + "".join(f"149,{5 * math.sin(t)}\n" for t in _ELLIPSE)}),
    "invert": (["invert", *INVERT_FLAGS, "--targets", "{targets.csv}"],
               {"targets.csv": TARGETS}),
}


@pytest.mark.parametrize("case", sorted(CSV_INPUTS) + ["invert-stdin"])
def test_csv_with_a_byte_order_mark(tmp_path, capsys, monkeypatch, case):
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark: each input
    # read with one answers as the same input without
    args, texts = CSV_INPUTS["invert" if case == "invert-stdin" else case]
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        files = {}
        for arg in args:
            if arg.startswith("{"):
                name = arg[1:-1]
                data = (texts[name].encode() if name in texts
                        else (DATA_DIR / name).read_bytes())
                files[arg] = tmp_path / f"{len(bom)}-{name}"
                files[arg].write_bytes(bom + data)
        if case == "invert-stdin":
            lines = files.pop("{targets.csv}").read_bytes().splitlines(keepends=True)
            monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=iter(lines)))
            files["{targets.csv}"] = "-"
        assert main([str(files.get(a, a)) for a in args]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        if out.startswith("{"):  # a report: all but its wall time
            out = json.loads(out)
            del out["wall_time_s"]
        outputs.append(out)
    assert outputs[1] == outputs[0]


class TestInvert:
    def _model(self):
        cfg = load_config(default_config_path())
        return (replace(cfg.params, stiffness_scale=0.009), cfg.pair_template, cfg.source,
                FieldCalibration(4.03), cfg.settings, cfg.mode)

    def test_rows_are_the_library_answers(self, tmp_path):
        targets, out = tmp_path / "targets.csv", tmp_path / "answers.csv"
        targets.write_text(TARGETS)
        assert main(["invert", "--targets", str(targets), *INVERT_FLAGS,
                     "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["within_reach"] for r in rows] == ["True", "True", "False", "False"]
        model = self._model()
        for line, row in zip(TARGETS.splitlines()[1:], rows):
            mm = [float(v) for v in line.split(",")]
            inv = invert_controls(np.array(mm) * 1e-3, *model)
            tip_mm = (inv.result.tip.position * 1e3).tolist()
            assert [float(row[k]) for k in ("x_mm", "y_mm", "z_mm")] == mm
            assert [float(row[k]) for k in ("theta1_deg", "theta2_deg")] == [
                math.degrees(a) for a in inv.q]
            assert [float(row[f"tip_{k}_mm"]) for k in "xyz"] == tip_mm
            assert float(row["error_mm"]) == inv.position_error * 1e3
            assert row["within_reach"] == str(inv.within_reach)
            assert int(row["basin_count"]) == inv.basin_count
            assert row["converged"] == "True"

    def test_one_grid_for_all_targets(self, tmp_path, monkeypatch, capsys):
        # the targets share one model, so the grid and the axis row beside it
        # are solved for the first only; every target then makes its final solve
        batches = []
        solve_batch = equilibrium._solve_batch
        monkeypatch.setattr(equilibrium, "_solve_batch",
                            lambda *a: batches.append(len(a[5])) or solve_batch(*a))
        targets = tmp_path / "targets.csv"
        targets.write_text(TARGETS)
        assert main(["invert", "--targets", str(targets), *INVERT_FLAGS]) == EXIT_OK
        assert batches == [24 * 24, 48, 1, 1, 1, 1]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4

    def test_stdin_rows_answered_as_read(self, monkeypatch, capsys):
        # each answer is written before the next target is read
        lines = TARGETS.encode().splitlines(keepends=True)
        written = []

        def stdin():
            for line in lines:
                written.append(len(capsys.readouterr().out.splitlines()))
                yield line

        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=stdin()))
        assert main(["invert", "--targets", "-", *INVERT_FLAGS]) == EXIT_OK
        # before the header, the first target and the second no answer is
        # out; before each later target, the answer to the one before it
        assert written == [0, 0, 2, 1, 1]
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("x_mm,y_mm\n150,0\n", "missing columns ['z_mm']"),
        ("x_mm,y_mm,z_mm\n", "no data rows"),
        ("x_mm,y_mm,z_mm\n150,0,nan\n", "2: bad value for z_mm: 'nan'"),
        ("x_mm,y_mm,z_mm\n150,0,0\n150,\xff,0\n", "3: not UTF-8 text"),
    ], ids=["empty", "missing-column", "no-rows", "bad-cell", "not-utf8"])
    def test_bad_targets_exit_2(self, tmp_path, capsys, text, message):
        targets = tmp_path / "targets.csv"
        targets.write_bytes(text.encode("latin-1"))
        out = tmp_path / "answers.csv"
        assert main(["invert", "--targets", str(targets), *INVERT_FLAGS,
                     "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {targets}") and message in err
        # a bad row after good ones leaves the good ones' answers written
        assert out.exists() is (message == "3: not UTF-8 text")

    def test_far_target_answered_at_the_defaults(self, tmp_path, capsys):
        # at k_b 1 most grid cells fail; a target 1e203 mm away ties every
        # converged cell, and its answer is one of them, converged
        targets = tmp_path / "targets.csv"
        targets.write_text("x_mm,y_mm,z_mm\n150,1e203,0\n")
        assert main(["invert", "--targets", str(targets)]) == EXIT_OK
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert (row["within_reach"], row["converged"]) == ("False", "True")

    def test_unconverged_answer_exit_3(self, tmp_path, capsys, monkeypatch):
        # the answer's solve starts at the winner's fixed point, so it
        # converges at once; restarted at the straight tip with one iteration
        # it stops unconverged away from there: its row is still written,
        # flagged, and the exit is 3
        solve = inverse.solve_tip_pose
        monkeypatch.setattr(
            inverse, "solve_tip_pose",
            lambda params, pair, source, cal, settings, mode: solve(
                params, pair, source, cal, replace(settings, initial_tip=None), mode))
        doc = json.loads(default_config_path().read_text(encoding="utf-8"))
        doc["solver"]["max_iterations"] = 1
        config, targets = tmp_path / "one-step.json", tmp_path / "targets.csv"
        config.write_text(json.dumps(doc))
        targets.write_text(TARGETS)
        assert main(["invert", "--targets", str(targets), *INVERT_FLAGS,
                     "--config", str(config)]) == EXIT_NUMERIC
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["converged"] for r in rows] == ["False", "True", "False", "False"]

"""Acceptance suite.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so the suite doubles as a human-readable checklist.
"""
import csv
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from magbeam.beam import BeamFormulation, Wrench, centerline, tip_pose_from_wrench
from magbeam.calibration import (
    CalibrationGrid,
    ExperimentRecord,
    grid_search_calibrate,
    load_experiment_csv,
)
from magbeam.cli import main
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import solve_tip_pose, sweep
from magbeam.geomag import (
    DipoleSource,
    FieldCalibration,
    RingPairConfig,
    dipole_field,
)
from magbeam.workspace import fit_ellipse, nearest_ellipse_points

DATA_DIR = default_config_path().parent
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def _verdict(capsys, label, ok, detail=""):
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def demo():
    return load_config(default_config_path())


def test_criterion_1_field_gradient_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    src = DipoleSource(moment=rng.normal(size=3) * 50.0,
                       position=rng.normal(size=3) * 0.05)
    worst_fd = 0.0
    worst_sym = 0.0
    worst_tr = 0.0
    h = 1e-7
    for _ in range(100):
        p = src.position + rng.uniform(0.05, 0.4) * _unit(rng.normal(size=3))
        sample = dipole_field(src, p)
        G = sample.gradient
        fd = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            fd[:, j] = (dipole_field(src, p + dp).B
                        - dipole_field(src, p - dp).B) / (2 * h)
        scale = np.linalg.norm(G)
        worst_fd = max(worst_fd, np.linalg.norm(fd - G) / scale)
        worst_sym = max(worst_sym, np.linalg.norm(G - G.T) / scale)
        worst_tr = max(worst_tr, abs(np.trace(G)) / scale)
    dt = time.perf_counter() - t0
    ok = worst_fd <= 1e-5 and worst_sym <= 1e-9 and worst_tr <= 1e-9 and dt < 1.0
    _verdict(capsys, "criterion 1 field gradient oracle", ok,
             f"fd={worst_fd:.2e} sym={worst_sym:.2e} tr={worst_tr:.2e} t={dt:.2f}s")


def _unit(v):
    return v / np.linalg.norm(v)


def test_criterion_2_beam_closed_forms(capsys, demo):
    t0 = time.perf_counter()
    params = replace(demo.params, stiffness_scale=0.009)
    L = params.length
    ei = params.bending_stiffness
    M, F = 2e-6, 5e-5
    errs = []

    pose = tip_pose_from_wrench(params, Wrench(np.zeros(3), M * E3),
                                BeamFormulation.CORRECTED)
    errs.append(abs((pose.position[1] - M * L**2 / (2 * ei)) / (M * L**2 / (2 * ei))))
    pose = tip_pose_from_wrench(params, Wrench(F * E2, np.zeros(3)),
                                BeamFormulation.CORRECTED)
    errs.append(abs((pose.position[1] - F * L**3 / (3 * ei)) / (F * L**3 / (3 * ei))))
    pose = tip_pose_from_wrench(params, Wrench(F * E2, np.zeros(3)),
                                BeamFormulation.LEGACY)
    errs.append(abs((pose.position[1] - F * L**3 / (6 * ei)) / (F * L**3 / (6 * ei))))

    w = Wrench(F * E2 - 2e-5 * E3, M * E3)
    pts = centerline(params, w, 2000)
    pose = tip_pose_from_wrench(params, w, BeamFormulation.CORRECTED)
    endpoint_err = np.linalg.norm(pts[-1] - pose.position) / L
    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-12 and endpoint_err <= 1e-6 and dt < 1.0
    _verdict(capsys, "criterion 2 beam closed forms", ok,
             f"closed-form={max(errs):.2e} centerline={endpoint_err:.2e}L t={dt:.2f}s")


def test_criterion_3_equilibrium_invariants(capsys, demo):
    t0 = time.perf_counter()
    params = replace(demo.params, stiffness_scale=0.009)
    cal = FieldCalibration(4.03)
    mode = demo.mode
    tol = 2 * demo.settings.position_tolerance
    moment = demo.pair_template.magnet_1.moment_magnitude

    def solve(pair):
        return solve_tip_pose(params, pair, demo.source, cal,
                              demo.settings, mode)

    checks = {}
    r = solve(RingPairConfig.from_angles(moment, 1.3 + math.pi, 1.3, 0.0))
    checks["antiparallel"] = float(np.linalg.norm(r.tip.position - params.straight_tip))

    a = solve(demo.pair_template.with_angles(0.8, -0.2))
    b = solve(demo.pair_template.with_angles(0.8 + 2 * math.pi,
                                             -0.2 - 2 * math.pi))
    checks["periodicity"] = float(np.linalg.norm(a.tip.position - b.tip.position))

    c = solve(demo.pair_template.with_angles(-0.8, 0.2))
    mirrored = a.tip.position * np.array([1.0, -1.0, 1.0])
    checks["mirror"] = float(np.linalg.norm(c.tip.position - mirrored))

    t1, t2 = 0.7, 1.9
    d = solve(RingPairConfig.from_angles(moment, t1, t2, 0.0))
    summed = 2 * moment * math.cos((t1 - t2) / 2)
    from magbeam.geomag import RingMagnet
    single = RingPairConfig(RingMagnet(abs(summed), (t1 + t2) / 2),
                            RingMagnet(0.0, 0.0), 0.0)
    e = solve(single)
    checks["superposition"] = float(np.linalg.norm(d.tip.position - e.tip.position))

    dt = time.perf_counter() - t0
    worst = max(checks.values())
    ok = worst <= tol and dt < 10.0
    _verdict(capsys, "criterion 3 equilibrium invariants", ok,
             " ".join(f"{k}={v:.1e}" for k, v in checks.items()) + f" t={dt:.1f}s")


def _synth_records(demo, ke, kb, noise_m, seed):
    params = replace(demo.params, stiffness_scale=ke)
    t1 = np.radians(np.arange(0.0, 181.0, 12.0))
    pts = sweep(params, demo.pair_template, demo.source, FieldCalibration(kb),
                demo.settings, BeamFormulation.LEGACY, t1, [0.0])
    rng = np.random.default_rng(seed)
    recs = []
    for pt in pts:
        p = pt.result.tip.position + rng.uniform(-noise_m, noise_m, 3)
        recs.append(ExperimentRecord(pt.q[0], pt.q[1], p))
    return recs


def test_criterion_4_calibration_recovery(capsys, demo):
    t0 = time.perf_counter()
    grid = CalibrationGrid()
    ke_step = float(np.diff(grid.ke_values)[0])
    kb_step = float(np.diff(grid.kb_values)[0])

    recs = _synth_records(demo, 0.012, 4.0, 0.0, 0)
    clean = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source, grid, demo.settings,
                                  BeamFormulation.LEGACY, threads=4)
    exact = (abs(clean.ke_star - 0.012) < 1e-12
             and abs(clean.kb_star - 4.0) < 1e-12)

    recs = _synth_records(demo, 0.012, 4.0, 0.5e-3, 2)
    noisy = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source, grid, demo.settings,
                                  BeamFormulation.LEGACY, threads=4)
    cells_ke = abs(noisy.ke_star - 0.012) / ke_step
    cells_kb = abs(noisy.kb_star - 4.0) / kb_step
    within_one = cells_ke <= 1.0 + 1e-9 and cells_kb <= 1.0 + 1e-9

    dt = time.perf_counter() - t0
    ok = exact and within_one and dt < 120.0
    _verdict(capsys, "criterion 4 calibration recovery", ok,
             f"clean=({clean.ke_star:.5f},{clean.kb_star:.4f}) "
             f"noisy cells=({cells_ke:.1f},{cells_kb:.1f}) seed=2 t={dt:.0f}s")


def test_criterion_5_shipped_dataset_calibration(capsys, demo):
    t0 = time.perf_counter()
    recs = load_experiment_csv(DATA_DIR / "planar-sweep-digitized.csv")
    grid = CalibrationGrid()
    ke_step = float(np.diff(grid.ke_values)[0])
    kb_step = float(np.diff(grid.kb_values)[0])

    outcomes = {}
    for mode in (BeamFormulation.LEGACY, BeamFormulation.CORRECTED):
        res = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                    demo.source, grid, demo.settings, mode,
                                    threads=4)
        m = res.metrics_at_optimum
        outcomes[mode.value] = {
            "ke": res.ke_star, "kb": res.kb_star,
            "cells": (abs(res.ke_star - 0.009) / ke_step,
                      abs(res.kb_star - 4.03) / kb_step),
            "max_mm": m.max_abs_error * 1e3,
            "mae_mm": m.mean_abs_error * 1e3,
        }

    def meets(o):
        return (o["cells"][0] <= 2.0 + 1e-9 and o["cells"][1] <= 2.0 + 1e-9
                and o["max_mm"] <= 6.0 and o["mae_mm"] <= 2.5)

    dt = time.perf_counter() - t0
    ok = any(meets(o) for o in outcomes.values())
    detail = "; ".join(
        f"{k}: ke={o['ke']:.5f} kb={o['kb']:.3f} "
        f"cells=({o['cells'][0]:.1f},{o['cells'][1]:.1f}) "
        f"max={o['max_mm']:.2f}mm mae={o['mae_mm']:.2f}mm"
        for k, o in outcomes.items()
    )
    _verdict(capsys, "criterion 5 shipped dataset calibration", ok,
             detail + f" t={dt:.0f}s")


def test_criterion_6_sweep_deflection_envelope(capsys, demo):
    t0 = time.perf_counter()
    params = replace(demo.params, stiffness_scale=0.009)
    cal = FieldCalibration(4.03)
    t1 = np.radians(np.arange(0.0, 180.5, 1.0))
    pts = sweep(params, demo.pair_template, demo.source, cal,
                demo.settings, demo.mode, t1, [0.0])
    defl = np.array([
        np.linalg.norm(pt.result.tip.position - params.straight_tip)
        for pt in pts
    ])
    max_mm = float(defl.max()) * 1e3
    arg_deg = float(np.degrees(t1[int(np.argmax(defl))]))
    dt = time.perf_counter() - t0
    ok = 28.8 <= max_mm <= 38.8 and dt < 10.0
    _verdict(capsys, "criterion 6 sweep deflection envelope", ok,
             f"max={max_mm:.1f}mm at theta1={arg_deg:.0f}deg, "
             f"band [28.8, 38.8]mm, t={dt:.1f}s")


def test_criterion_7_ellipse_fitting(capsys, demo):
    t0 = time.perf_counter()
    # noiseless recovery
    center = np.array([0.002, -0.001])
    a, b, ang = 0.011, 0.006, 0.35
    t = np.linspace(0.0, 2 * math.pi, 36, endpoint=False)
    R = np.array([[math.cos(ang), -math.sin(ang)],
                  [math.sin(ang), math.cos(ang)]])
    pts = center + (R @ np.vstack([a * np.cos(t), b * np.sin(t)])).T
    fit = fit_ellipse(pts)
    rec_err = max(
        np.linalg.norm(fit.center - center) / a,
        abs(fit.semi_axes[0] - a) / a,
        abs(fit.semi_axes[1] - b) / b,
        abs(fit.orientation - ang),
    )

    # distances vs brute-force parametric search, 1000 random cases
    rng = np.random.default_rng(23)
    worst_d = 0.0
    for _ in range(10):
        q = rng.uniform(-0.03, 0.03, size=(100, 2))
        d = nearest_ellipse_points(center, (a, b), ang, q)
        tg = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        bnd = center + (R @ np.vstack([a * np.cos(tg), b * np.sin(tg)])).T
        for k in range(100):
            def dist(s, pk=q[k]):
                p = center + R @ np.array([a * math.cos(s), b * math.sin(s)])
                return float(np.linalg.norm(p - pk))
            j = int(np.argmin(np.hypot(*(bnd - q[k]).T)))
            res = minimize_scalar(dist, bounds=(tg[j] - 0.01, tg[j] + 0.01),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            worst_d = max(worst_d, abs(d[k] - res.fun))

    # model-generated elliptical actuation loop
    params = replace(demo.params, stiffness_scale=0.009)
    phi = np.radians(np.arange(0.0, 360.0, 15.0))
    loop = sweep(params, demo.pair_template, demo.source,
                 FieldCalibration(4.03), demo.settings, demo.mode,
                 phi, phi, zipped=True)
    tips = np.array([pt.result.tip.position for pt in loop])
    loop_fit = fit_ellipse(tips[:, 1:3])
    mean_defl = float(np.mean(np.hypot(tips[:, 1], tips[:, 2])))
    rms_frac = loop_fit.rms_distance / mean_defl

    dt = time.perf_counter() - t0
    ok = rec_err <= 1e-6 and worst_d <= 1e-6 and rms_frac <= 0.20 and dt < 30.0
    _verdict(capsys, "criterion 7 ellipse fitting", ok,
             f"recovery={rec_err:.1e} dist={worst_d:.1e}m "
             f"loop rms/mean={rms_frac:.3f} t={dt:.0f}s")


def test_criterion_8_end_to_end_pipeline(capsys, tmp_path):
    t0 = time.perf_counter()
    data = str(DATA_DIR / "planar-sweep-digitized.csv")
    cal_json = tmp_path / "cal.json"
    val_json = tmp_path / "val.json"
    ws_json = tmp_path / "ws.json"

    rc1 = main(["calibrate", "--data", data,
                "--ke", "0.009:0.018:7", "--kb", "3.5:4.5:9",
                "--threads", "4", "--out", str(cal_json)])
    cal_doc = json.loads(cal_json.read_text())
    ke = cal_doc["results"]["ke_star"]
    kb = cal_doc["results"]["kb_star"]

    rc2 = main(["validate", "--data", data, "--ke", str(ke), "--kb", str(kb),
                "--out", str(val_json)])
    val_doc = json.loads(val_json.read_text())

    rc3 = main(["workspace", "--schedule",
                str(DATA_DIR / "elliptical-schedule.csv"),
                "--ke", str(ke), "--kb", str(kb), "--out", str(ws_json)])
    ws_doc = json.loads(ws_json.read_text())

    # round trips: validate reproduces the calibration metrics, the
    # workspace point count matches the schedule
    m_cal = cal_doc["results"]["metrics"]
    m_val = val_doc["results"]["metrics"]
    metrics_match = all(
        abs(m_cal[k] - m_val[k]) <= 0.02 for k in m_cal
    )
    with open(DATA_DIR / "elliptical-schedule.csv", newline="") as fh:
        n_sched = sum(1 for _ in csv.DictReader(fh))
    counts_match = len(ws_doc["results"]["points_mm"]) == n_sched

    dt = time.perf_counter() - t0
    ok = (rc1 == 0 and rc2 == 0 and rc3 == 0
          and metrics_match and counts_match and dt < 180.0)
    _verdict(capsys, "criterion 8 end-to-end pipeline", ok,
             f"exit codes=({rc1},{rc2},{rc3}) ke={ke:.5f} kb={kb:.3f} "
             f"metrics_match={metrics_match} t={dt:.0f}s")

"""Per-call microbenchmarks of single layers, run with tracing off.

The geomag, beam and equilibrium probes replay poses the traced run
actually visited. The calibration, workspace and config probes time
fixed-size calls on the shipped demonstrator inputs, which have the same
layout and size as every seeded input.
"""
from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from magbeam.beam import tip_pose_from_wrench
from magbeam.calibration import CalibrationGrid, grid_search_calibrate, load_experiment_csv
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import solve_tip_pose, sweep
from magbeam.geomag import FieldCalibration, calibrated_field, ring_dipole_moment, tip_wrench
from magbeam.workspace import fit_ellipse

from workloads import KB, KE, SHIPPED_CSV, SHIPPED_SCHEDULE

CASES = 32  # visited solves replayed per probe


def per_call(fn, reps: int) -> float:
    """Mean seconds per call over ``reps`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def visited_cases(spans) -> list[tuple[dict, object, np.ndarray | None]]:
    """Evenly spaced converged solves of the traced run, each with the tip
    of the solve before it on the same thread (the warm-start seed)."""
    sig = inspect.signature(solve_tip_pose)
    by_thread = defaultdict(list)
    for s in spans:
        if s.name == "equilibrium.solve_tip_pose":
            by_thread[s.thread].append(s)
    cases = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s.t0)
        prev = None
        for s in seq:
            res = s.result
            if res is not None and res.converged:
                bound = sig.bind(*s.args, **s.kwargs)
                bound.apply_defaults()
                cases.append((s.id, dict(bound.arguments), res, prev))
                prev = res.tip.position
            else:
                prev = None
    cases.sort(key=lambda c: c[0])
    if len(cases) > CASES:
        cases = [cases[k] for k in np.linspace(0, len(cases) - 1, CASES).astype(int)]
    return [c[1:] for c in cases]


def pose_probes(spans) -> dict[str, float]:
    """Median per-call time (us) of the layer calls on visited poses."""
    times = defaultdict(list)
    for a, res, prev in visited_cases(spans):
        pair, source, cal, pose = a["pair"], a["source"], a["cal"], res.tip
        w = tip_wrench(pair, pose, source, cal)
        times["geomag.calibrated_field.us"].append(
            per_call(lambda: calibrated_field(source, cal, pose.position), 50))
        times["geomag.ring_dipole_moment.us"].append(
            per_call(lambda: ring_dipole_moment(pair.magnet_1, pose.tangent), 50))
        times["geomag.tip_wrench.us"].append(
            per_call(lambda: tip_wrench(pair, pose, source, cal), 20))
        times["beam.tip_pose_from_wrench.us"].append(
            per_call(lambda: tip_pose_from_wrench(a["params"], w, a["mode"]), 20))
        cold = replace(a["settings"], initial_tip=None)
        times["equilibrium.solve_cold.us"].append(per_call(
            lambda: solve_tip_pose(a["params"], pair, source, cal, cold, a["mode"]), 3))
        if prev is not None:
            warm = replace(a["settings"], initial_tip=prev)
            times["equilibrium.solve_warm.us"].append(per_call(
                lambda: solve_tip_pose(a["params"], pair, source, cal, warm, a["mode"]), 3))
    return {k: statistics.median(v) * 1e6 for k, v in times.items()}


def stage_probes(cfg) -> tuple[dict[str, float], list[np.ndarray]]:
    """Median per-call time (ms) of the calibration, workspace and config
    entry points on the demonstrator inputs, and the error surfaces of
    the calibration cells they evaluated."""
    out = {}
    out["config.load_config.ms"] = statistics.median(
        per_call(lambda: load_config(default_config_path()), 5) for _ in range(5)) * 1e3
    out["calibration.load_experiment_csv.ms"] = statistics.median(
        per_call(lambda: load_experiment_csv(SHIPPED_CSV), 5) for _ in range(5)) * 1e3

    records = load_experiment_csv(SHIPPED_CSV)
    full = CalibrationGrid()
    k = int(np.argmin(abs(full.kb_values - KB)))
    block = CalibrationGrid(ke_values=full.ke_values[:3], kb_values=full.kb_values[k - 1:k + 2])
    surfaces = []

    def cells():
        res = grid_search_calibrate(records, cfg.params, cfg.pair_template, cfg.source,
                                    block, cfg.settings, cfg.mode)
        surfaces.append(res.error_surface)

    n_cells = block.ke_values.size * block.kb_values.size
    out["calibration.cell_ms"] = statistics.median(
        per_call(cells, 1) for _ in range(3)) / n_cells * 1e3

    params = replace(cfg.params, stiffness_scale=KE)
    q = np.radians(np.loadtxt(SHIPPED_SCHEDULE, delimiter=",", skiprows=1))
    loop = sweep(params, cfg.pair_template, cfg.source, FieldCalibration(KB), cfg.settings,
                 cfg.mode, q[:, 0], q[:, 1], zipped=True)
    yz = np.array([pt.result.tip.position[1:] for pt in loop])
    out["workspace.fit_ellipse.ms"] = statistics.median(
        per_call(lambda: fit_ellipse(yz), 5) for _ in range(5)) * 1e3
    return out, surfaces


def finite_ratio(surfaces) -> float:
    return sum(int(np.isfinite(s).sum()) for s in surfaces) / sum(s.size for s in surfaces)

"""The three benchmark workloads: seeded inputs, requests and output checks.

Requests call magbeam through its module attributes, so that the traced
run sees them. Each workload builds every input from its seed in ``__init__``, before
anything is timed, and hands magbeam only the generated files and values.
``requests()`` lists the calls of one pass; the runner times each call.
``check()`` verifies one pass's outputs from outside the solver, and
``signature()`` reduces them to a value that every later pass of the
same run must reproduce exactly.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import numpy as np

from magbeam import cli, equilibrium
from magbeam.beam import TipPose, tip_pose_from_wrench
from magbeam.config import default_config_path
from magbeam.equilibrium import solve_tip_pose
from magbeam.geomag import E1, FieldCalibration, tip_wrench

KE = 0.009  # demonstrator calibration used by forward and invert
KB = 4.03
DATA_DIR = default_config_path().parent
SHIPPED_CSV = DATA_DIR / "planar-sweep-digitized.csv"
SHIPPED_SCHEDULE = DATA_DIR / "elliptical-schedule.csv"
DEFAULT_SEED = 0


def fixed_point_residual(cfg, params, cal, q, position, tangent=None) -> float:
    """||g(p) - p|| for a reported tip, from the public wrench and beam maps.

    Reports that carry only the position get their tangent from the
    inner fixed point n = tangent(g(p, n)) at fixed p.
    """
    pair = cfg.pair_template.with_angles(*q)
    position = np.asarray(position, dtype=float)

    def g(n):
        w = tip_wrench(pair, TipPose(position, n), cfg.source, cal)
        return tip_pose_from_wrench(params, w, cfg.mode)

    if tangent is None:
        tangent = E1.copy()
        for _ in range(200):
            nxt = g(tangent).tangent
            done = float(np.linalg.norm(nxt - tangent)) < 1e-14
            tangent = nxt
            if done:
                break
    return float(np.linalg.norm(g(np.asarray(tangent, dtype=float)).position - position))


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _results(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


class Calibrate:
    """``magbeam calibrate`` with the CLI defaults on a 16-record x-y CSV,
    over a 25x5 (ke, kb) grid run as five 5x5 calibrations along ke."""

    name = "calibrate"
    BLOCKS = 5

    def __init__(self, cfg, seed, workdir, smoke=False):
        self.cfg = cfg
        self.tol = cfg.settings.position_tolerance
        # The CLI default ke axis (25 values) and kb range, with 5 kb values
        # instead of 25, so a run holds several passes. The grid is split
        # into 5x5 blocks of about 1 s, so that each block's time is scaled
        # by the host speed measured right around it (see refspeed.py).
        n_ke, n_kb, blocks = (3, 3, 1) if smoke else (25, 5, self.BLOCKS)
        ke_all = np.linspace(0.009, 0.018, n_ke)
        size = n_ke // blocks
        self.ke_axes = [f"{float(ke_all[k])!r}:{float(ke_all[k + size - 1])!r}:{size}"
                        for k in range(0, n_ke, size)]
        self.kb_axis = f"3.5:4.5:{n_kb}"
        # the values the CLI parses from the block axes
        ke_values = np.concatenate([np.linspace(*map(float, ax.split(":")[:2]), size)
                                    for ax in self.ke_axes])
        kb_values = np.linspace(3.5, 4.5, n_kb)
        self.ops = [f"block{k}" for k in range(blocks)]
        self.outs = [workdir / f"calibrate-{op}.json" for op in self.ops]
        if seed == DEFAULT_SEED:
            self.data = SHIPPED_CSV
            true_cell = (int(np.argmin(abs(ke_values - KE))), int(np.argmin(abs(kb_values - KB))))
        else:
            rng = np.random.default_rng(abs(seed))
            true_cell = (int(rng.integers(n_ke)), int(rng.integers(n_kb)))
            params = replace(cfg.params, stiffness_scale=float(ke_values[true_cell[0]]))
            cal = FieldCalibration(float(kb_values[true_cell[1]]))
            self.data = workdir / "calibrate-data.csv"
            with open(self.data, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["theta1_deg", "theta2_deg", "x_mm", "y_mm", "z_mm"])
                for t1 in range(0, 181, 12):
                    res = solve_tip_pose(params, cfg.pair_template.with_angles(math.radians(t1), 0.0),
                                         cfg.source, cal, cfg.settings, cfg.mode)
                    if not res.converged:
                        raise RuntimeError(f"input generation: no equilibrium at theta1={t1}")
                    x, y = res.tip.position[:2] * 1e3 + rng.uniform(-0.3, 0.3, size=2)
                    w.writerow([f"{t1:.1f}", "0.0", f"{x:.4f}", f"{y:.4f}", ""])
        # the block holding the true cell, and the cell's index within it
        self.true_block = true_cell[0] // size
        self.true_cell = (true_cell[0] % size, true_cell[1])
        self.records = [(math.radians(float(r["theta1_deg"])), math.radians(float(r["theta2_deg"])),
                         float(r["x_mm"]) * 1e-3, float(r["y_mm"]) * 1e-3)
                        for r in _read_csv(self.data)]
        self.seed_inputs = {"data": str(self.data.name), "true_cell": list(true_cell),
                            "records": len(self.records), "ke_blocks": self.ke_axes,
                            "kb": self.kb_axis}

    def requests(self):
        # The blocks share one request name: their times add up to the
        # latency of the whole 25x5 calibration.
        def one(op, ke, out):
            argv = ["calibrate", "--data", str(self.data), "--out", str(out),
                    "--ke", ke, "--kb", self.kb_axis]
            return lambda: {op: cli.main(argv)}
        return [("calibrate", one(op, ke, out)) for op, ke, out in zip(self.ops, self.ke_axes, self.outs)]

    def outputs(self, codes):
        return {op: (codes[op], _results(out) if out.exists() else None)
                for op, out in zip(self.ops, self.outs)}

    def signature(self, out):
        return json.dumps([res for _, res in out.values()], sort_keys=True)

    def check(self, out):
        fails = []
        for k, (op, (rc, res)) in enumerate(out.items()):
            if rc != 0:
                fails.append((op, f"exit code {rc}"))
                continue
            fails += [(op, msg) for msg in self.check_block(res, k == self.true_block)]
        return fails

    def check_block(self, res, holds_true_cell):
        fails = []
        ke_values = np.array(res["grid"]["ke_values"])
        kb_values = np.array(res["grid"]["kb_values"])
        surface = np.array(res["grid"]["surface_mm"]).reshape(ke_values.size, kb_values.size) * 1e-3
        i = np.flatnonzero(ke_values == res["ke_star"])
        j = np.flatnonzero(kb_values == res["kb_star"])
        if i.size != 1 or j.size != 1:
            return ["reported (ke, kb) is not a grid cell"]
        score = surface[i[0], j[0]]
        if not score == np.min(surface):
            fails.append(f"reported cell score {score} is not the surface minimum")
        if holds_true_cell and not score <= surface[self.true_cell]:
            fails.append("optimum is worse than the true cell")
        params = replace(self.cfg.params, stiffness_scale=res["ke_star"])
        cal = FieldCalibration(res["kb_star"])
        worst = 0.0
        for t1, t2, x, y in self.records:
            r = solve_tip_pose(params, self.cfg.pair_template.with_angles(t1, t2),
                               self.cfg.source, cal, self.cfg.settings, self.cfg.mode)
            if not r.converged:
                fails.append(f"cold re-solve did not converge at {t1:.3f} rad")
                continue
            worst = max(worst, math.hypot(r.tip.position[0] - x, r.tip.position[1] - y))
            resid = fixed_point_residual(self.cfg, params, cal, (t1, t2),
                                         r.tip.position, r.tip.tangent)
            if resid > self.tol:
                fails.append(f"fixed-point residual {resid:.3g} m")
        if not abs(worst - score) <= 2 * self.tol:
            fails.append(f"cold max error {worst} m != score {score} m")
        return fails


class Forward:
    """``magbeam sweep`` over theta1 0:1:180 at a seeded theta2, then
    ``magbeam workspace`` on the 24-point schedule shifted by a seeded phase."""

    name = "forward"
    ops = ["sweep", "workspace"]

    def __init__(self, cfg, seed, workdir, smoke=False):
        self.cfg = cfg
        self.tol = cfg.settings.position_tolerance
        self.params = replace(cfg.params, stiffness_scale=KE)
        self.cal = FieldCalibration(KB)
        rng = np.random.default_rng(abs(seed))
        # theta2 in [0, 150) deg: the band where every sweep spans the full
        # 15.7 mm envelope and costs within 4 % of the others
        self.theta2 = round(float(rng.uniform(0.0, 150.0)), 3)
        self.phase = round(float(rng.uniform(0.0, 15.0)), 3)
        self.step = 45 if smoke else 1
        self.theta1 = np.arange(0.0, 181.0, self.step)
        self.schedule = workdir / "schedule.csv"
        with open(self.schedule, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["theta1_deg", "theta2_deg"])
            for row in _read_csv(SHIPPED_SCHEDULE):
                w.writerow([float(row["theta1_deg"]) + self.phase,
                            float(row["theta2_deg"]) + self.phase])
        self.sched_q = [(math.radians(float(r["theta1_deg"])), math.radians(float(r["theta2_deg"])))
                        for r in _read_csv(self.schedule)]
        self.sweep_csv = workdir / "sweep.csv"
        self.sweep_json = workdir / "sweep.json"
        self.ws_json = workdir / "workspace.json"
        self.seed_inputs = {"theta2_deg": self.theta2, "schedule_phase_deg": self.phase,
                            "sweep_points": int(self.theta1.size), "schedule_points": len(self.sched_q)}

    def requests(self):
        kk = ["--ke", str(KE), "--kb", str(KB)]
        sweep = ["sweep", "--theta1", f"0:{self.step}:180", "--theta2", str(self.theta2), *kk,
                 "--out", str(self.sweep_csv), "--report", str(self.sweep_json)]
        ws = ["workspace", "--schedule", str(self.schedule), *kk, "--out", str(self.ws_json)]
        return [("map", lambda: {"sweep": cli.main(sweep), "workspace": cli.main(ws)})]

    def outputs(self, codes):
        return {
            "rc": codes,
            "csv": self.sweep_csv.read_text(encoding="utf-8") if self.sweep_csv.exists() else None,
            "report": _results(self.sweep_json) if self.sweep_json.exists() else None,
            "workspace": _results(self.ws_json) if self.ws_json.exists() else None,
        }

    def signature(self, out):
        return json.dumps([out["csv"], out["report"], out["workspace"]], sort_keys=True)

    def check(self, out):
        fails = [(op, f"exit code {rc}") for op, rc in out["rc"].items() if rc != 0]
        if fails:
            return fails
        rows = list(csv.DictReader(out["csv"].splitlines()))
        if len(rows) != self.theta1.size or out["report"]["points"] != self.theta1.size \
                or out["report"]["failed"] != 0:
            fails.append(("sweep", f"{len(rows)} rows, report {out['report']}"))
        for row, t1 in zip(rows, self.theta1):
            q = (math.radians(float(row["theta1_deg"])), math.radians(float(row["theta2_deg"])))
            if row["converged"] != "True" or abs(float(row["theta1_deg"]) - t1) > 1e-9 \
                    or abs(float(row["theta2_deg"]) - self.theta2) > 1e-9:
                fails.append(("sweep", f"bad row {row}"))
                continue
            p = np.array([float(row[k]) for k in ("x_mm", "y_mm", "z_mm")]) * 1e-3
            resid = fixed_point_residual(self.cfg, self.params, self.cal, q, p)
            if resid > self.tol:
                fails.append(("sweep", f"fixed-point residual {resid:.3g} m at {row}"))
        ws = out["workspace"]
        pts = np.array(ws["points_mm"]) * 1e-3
        if pts.shape != (len(self.sched_q), 3):
            return fails + [("workspace", f"{pts.shape} points")]
        rms_frac = ws["ellipse"]["rms_mm"] * 1e-3 / float(np.mean(np.hypot(pts[:, 1], pts[:, 2])))
        if not rms_frac <= 0.20:
            fails.append(("workspace", f"ellipse rms/mean {rms_frac:.3f}"))
        for q, p in zip(self.sched_q, pts):
            resid = fixed_point_residual(self.cfg, self.params, self.cal, q, p)
            if resid > self.tol:
                fails.append(("workspace", f"fixed-point residual {resid:.3g} m"))
        return fails


class Invert:
    """``equilibrium.invert_controls`` for K reachable tips and one target
    outside the reach, at the demonstrator calibration in legacy mode."""

    name = "invert"
    K = 3
    UNREACHABLE_MM = 30.0  # about twice the 15.7 mm maximum deflection

    def __init__(self, cfg, seed, workdir, smoke=False):
        self.cfg = cfg
        self.tol = cfg.settings.position_tolerance
        self.params = replace(cfg.params, stiffness_scale=KE)
        self.cal = FieldCalibration(KB)
        self.grid_size = 6 if smoke else 24
        rng = np.random.default_rng(abs(seed))
        self.targets = []  # (target position, reachable)
        for q in rng.uniform(0.0, 2.0 * math.pi, size=(1 if smoke else self.K, 2)):
            res = solve_tip_pose(self.params, cfg.pair_template.with_angles(*q), cfg.source,
                                 self.cal, cfg.settings, cfg.mode)
            if not res.converged:
                raise RuntimeError(f"input generation: no equilibrium at q={q}")
            self.targets.append((res.tip.position, True))
        if not smoke:
            psi = rng.uniform(0.0, 2.0 * math.pi)
            offset = self.UNREACHABLE_MM * 1e-3 * np.array([0.0, math.cos(psi), math.sin(psi)])
            self.targets.append((self.params.straight_tip + offset, False))
        self.ops = [f"target{k}" for k in range(len(self.targets))]
        self.seed_inputs = {"targets_mm": [(t * 1e3).round(6).tolist() for t, _ in self.targets],
                            "reachable": [r for _, r in self.targets], "grid_size": self.grid_size}

    def requests(self):
        def one(k):
            target = self.targets[k][0]
            return lambda: {f"target{k}": equilibrium.invert_controls(
                target, self.params, self.cfg.pair_template, self.cfg.source, self.cal,
                self.cfg.settings, self.cfg.mode, grid_size=self.grid_size)}
        return [(op, one(k)) for k, op in enumerate(self.ops)]

    def outputs(self, codes):
        return codes

    def signature(self, out):
        return [(r.q, r.result.tip.position.tolist(), r.within_reach) for r in out.values()]

    def check(self, out):
        fails = []
        for k, (target, reachable) in enumerate(self.targets):
            op = f"target{k}"
            r = out[op]
            if not r.result.converged:
                fails.append((op, "final solve did not converge"))
                continue
            err = float(np.linalg.norm(r.result.tip.position - target))
            if r.within_reach != reachable:
                fails.append((op, f"within_reach={r.within_reach}, expected {reachable}"))
            if reachable and not (err <= 10 * self.tol and r.position_error <= 10 * self.tol):
                fails.append((op, f"position error {err:.3g} m"))
            resid = fixed_point_residual(self.cfg, self.params, self.cal, r.q,
                                         r.result.tip.position, r.result.tip.tangent)
            if resid > self.tol:
                fails.append((op, f"fixed-point residual {resid:.3g} m"))
        return fails


WORKLOADS = {w.name: w for w in (Calibrate, Forward, Invert)}

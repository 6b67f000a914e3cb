"""Command-line front end.

Subcommands:
  simulate   one forward solve at a given pair of magnet angles
  sweep      forward solves over angle ranges, CSV output
  calibrate  minimax grid search of (ke, kb) against tracking data
  validate   error metrics of the model at fixed (ke, kb) against data
  workspace  3D workspace reconstruction / ellipse fit / statistics

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .beam import BeamFormulation
from .calibration import (
    CalibrationError,
    CalibrationGrid,
    _csv_number,
    _fit_metrics,
    _in_plane_errors,
    grid_search_calibrate,
    load_experiment_csv,
)
from .config import ConfigError, LoadedConfig, default_config_path, load_config
from .equilibrium import DivergenceError, _tips, solve_tip_pose, sweep
from .geomag import ContractViolation, FieldCalibration, FieldSingularityError
from .svgplot import SvgPlot
from .workspace import (
    EllipseFitError,
    PlanarTrack,
    fit_ellipse,
    merge_biplanar,
    workspace_stats,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Largest number of angles in a range, of values on a grid axis, of sweep
# points and of calibration cells that one command accepts.
MAX_SAMPLES = 100_000


class InputError(ValueError):
    pass


def _check_count(n: float, text: str) -> None:
    if not n <= MAX_SAMPLES:
        raise InputError(f"{text!r} asks for more than {MAX_SAMPLES} samples")


def _parse_range(text: str) -> np.ndarray:
    """Parse 'start:step:stop' (inclusive) or a single value, in degrees."""
    parts = text.split(":")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"bad angle range {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise InputError(f"bad angle range {text!r}")
    if len(vals) == 1:
        return np.array(vals)
    if len(vals) != 3:
        raise InputError(f"expected 'start:step:stop' or a single value, got {text!r}")
    start, step, stop = vals
    if step == 0 or (stop - start) * step < 0:
        return np.array([start])
    _check_count((stop - start) / step + 1, text)
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(n)


def _parse_grid_axis(text: str, default_n: int = 25) -> np.ndarray:
    """Parse 'lo:hi[:n]' into a linspace."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise InputError(f"expected 'lo:hi[:n]', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2]) if len(parts) == 3 else default_n
    except ValueError as exc:
        raise InputError(f"bad grid axis {text!r}") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise InputError(f"bad grid axis {text!r}")
    _check_count(n, text)
    return np.linspace(lo, hi, n) if n > 1 else np.array([lo])


def _apply_overrides(cfg: LoadedConfig, args) -> tuple[LoadedConfig, FieldCalibration]:
    params = cfg.params
    if getattr(args, "ke", None) is not None:
        params = replace(params, stiffness_scale=args.ke)
        cfg = replace(cfg, params=params)
    kb = getattr(args, "kb", None)
    return cfg, FieldCalibration(kb if kb is not None else 1.0)


def _mode(cfg: LoadedConfig, args) -> BeamFormulation:
    if getattr(args, "beam_mode", None):
        return BeamFormulation(args.beam_mode)
    return cfg.mode


def _report(cfg: LoadedConfig, results: dict, t0: float) -> dict:
    return {
        "inputs": cfg.raw,
        "results": results,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
    }


def _emit_json(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _notch_params(args) -> tuple[float | None, float | None]:
    slope = getattr(args, "notch_slope", None)
    offset = getattr(args, "notch_offset", None)
    if (slope is None) != (offset is None):
        raise InputError("--notch-slope and --notch-offset must be given together")
    if slope is None:
        return None, None
    # CLI takes deg/mm and mm; the core works in rad/m and m
    return math.radians(slope) * 1e3, offset * 1e-3


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if not (math.isfinite(args.theta1) and math.isfinite(args.theta2)):
        raise InputError("--theta1 and --theta2 must be finite")
    cfg = load_config(args.config)
    cfg, cal = _apply_overrides(cfg, args)
    pair = cfg.pair_template.with_angles(
        math.radians(args.theta1), math.radians(args.theta2)
    )
    res = solve_tip_pose(cfg.params, pair, cfg.source, cal, cfg.settings,
                         _mode(cfg, args))
    tip_mm = res.tip.position * 1e3
    deflection_mm = float(np.linalg.norm(res.tip.position - cfg.params.straight_tip)) * 1e3
    print(f"tip_mm: [{tip_mm[0]:.4f}, {tip_mm[1]:.4f}, {tip_mm[2]:.4f}]")
    print(f"tangent: [{res.tip.tangent[0]:.6f}, {res.tip.tangent[1]:.6f}, "
          f"{res.tip.tangent[2]:.6f}]")
    print(f"deflection_mm: {deflection_mm:.4f}")
    print(f"iterations: {res.iterations}")
    print(f"converged: {res.converged}")
    if args.out:
        _emit_json(_report(cfg, {
            "theta1_deg": args.theta1,
            "theta2_deg": args.theta2,
            "kb": cal.k_b,
            "tip_mm": tip_mm.tolist(),
            "tangent": res.tip.tangent.tolist(),
            "deflection_mm": deflection_mm,
            "iterations": res.iterations,
            "converged": res.converged,
            "residual_mm": res.residual * 1e3,
        }, t0), args.out)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cfg, cal = _apply_overrides(cfg, args)
    t1 = np.radians(_parse_range(args.theta1))
    t2 = np.radians(_parse_range(args.theta2))
    if not args.zip:
        _check_count(t1.size * t2.size, f"{args.theta1} x {args.theta2}")
    points = sweep(
        cfg.params, cfg.pair_template, cfg.source, cal, cfg.settings,
        _mode(cfg, args), t1, t2, zipped=args.zip,
        warm_start=not args.no_warm_start,
    )
    tips, converged = _tips(points)
    solved = np.isfinite(tips).all(axis=1)
    rows = [
        [math.degrees(pt.q[0]), math.degrees(pt.q[1]), *(p if s else ["", "", ""]), ok]
        for pt, p, s, ok in zip(points, (tips * 1e3).tolist(), solved, converged.tolist())
    ]
    header = ["theta1_deg", "theta2_deg", "x_mm", "y_mm", "z_mm", "converged"]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    else:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    n_failed = int((~converged).sum())
    if args.report:
        _emit_json(_report(cfg, {
            "points": len(points),
            "failed": n_failed,
            "kb": cal.k_b,
            "csv": args.out,
        }, t0), args.report)
    return EXIT_OK if n_failed == 0 else EXIT_NUMERIC


def cmd_calibrate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    slope, offset = _notch_params(args)
    records = load_experiment_csv(args.data, notch_slope=slope, notch_offset=offset)
    grid = CalibrationGrid(
        ke_values=_parse_grid_axis(args.ke),
        kb_values=_parse_grid_axis(args.kb),
    )
    _check_count(grid.ke_values.size * grid.kb_values.size, f"{args.ke} x {args.kb}")
    result = grid_search_calibrate(
        records, cfg.params, cfg.pair_template, cfg.source, grid,
        cfg.settings, _mode(cfg, args), threads=args.threads,
    )
    doc = _report(cfg, {
        "ke_star": result.ke_star,
        "kb_star": result.kb_star,
        "metrics": result.metrics_at_optimum.as_dict_mm(),
        "grid": {
            "ke_values": grid.ke_values.tolist(),
            "kb_values": grid.kb_values.tolist(),
            "surface_mm": (result.error_surface * 1e3).ravel().tolist(),
        },
        "records": len(records),
    }, t0)
    _emit_json(doc, args.out)
    if args.surface:
        with open(args.surface, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["ke", "kb", "max_abs_error_mm"])
            for i, ke in enumerate(grid.ke_values):
                for j, kb in enumerate(grid.kb_values):
                    w.writerow([ke, kb, result.error_surface[i, j] * 1e3])
    return EXIT_OK


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    slope, offset = _notch_params(args)
    records = load_experiment_csv(args.data, notch_slope=slope, notch_offset=offset)
    params = replace(cfg.params, stiffness_scale=args.ke)
    cal = FieldCalibration(args.kb)
    points = sweep(
        params, cfg.pair_template, cfg.source, cal, cfg.settings,
        _mode(cfg, args),
        [r.theta1 for r in records], [r.theta2 for r in records],
        zipped=True,
    )
    preds, converged = _tips(points)
    if not converged.all():
        print(f"error: {(~converged).sum()} forward solves failed", file=sys.stderr)
        return EXIT_NUMERIC
    measured = np.array([r.tip for r in records])
    metrics = _fit_metrics(measured, preds)
    table = [
        {
            "theta1_deg": math.degrees(rec.theta1),
            "theta2_deg": math.degrees(rec.theta2),
            "measured_mm": [None if not np.isfinite(v) else v * 1e3 for v in rec.tip],
            "predicted_mm": (pred * 1e3).tolist(),
            "error_mm": float(err) * 1e3,
        }
        for rec, pred, err in zip(records, preds, _in_plane_errors(measured, preds))
    ]
    doc = _report(cfg, {
        "ke": args.ke,
        "kb": args.kb,
        "metrics": metrics.as_dict_mm(),
        "records": table,
    }, t0)
    _emit_json(doc, args.out)
    if args.plot:
        _validate_plot(records, preds, args.plot)
    return EXIT_OK


def _validate_plot(records, preds, path):
    plot = SvgPlot(title="measured vs predicted tip position",
                   x_label="theta1 [deg]", y_label="in-plane deflection [mm]")
    t_deg = np.array([math.degrees(r.theta1) for r in records])
    meas = []
    pred = []
    for rec, position in zip(records, preds):
        axes = list(rec.axes)[1:]  # transverse components of the plane
        meas.append(float(np.linalg.norm(rec.tip[axes])) * 1e3)
        pred.append(float(np.linalg.norm(position[axes])) * 1e3)
    order = np.argsort(t_deg)
    plot.add_line(np.column_stack([t_deg[order], np.array(pred)[order]]),
                  color="#1f77b4")
    plot.add_points(np.column_stack([t_deg, meas]), color="#d62728")
    plot.write(path)


def _load_track_csv(path, plane: str) -> PlanarTrack:
    ycol = "y_mm" if plane == "top" else "z_mm"
    idx = []
    pts = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x_mm", ycol} <= set(reader.fieldnames):
            raise InputError(f"{path}: expected columns x_mm,{ycol}")
        for line, row in enumerate(reader, start=2):
            idx.append(_csv_number(row, "index", path, line, line - 2))
            pts.append([_csv_number(row, "x_mm", path, line) * 1e-3,
                        _csv_number(row, ycol, path, line) * 1e-3])
    if not pts:
        raise InputError(f"{path}: no data rows")
    return PlanarTrack(plane=plane, points=np.array(pts), indices=np.array(idx))


def cmd_workspace(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cfg, cal = _apply_overrides(cfg, args)
    if args.schedule:
        records = []
        with open(args.schedule, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"theta1_deg", "theta2_deg"} <= set(
                reader.fieldnames
            ):
                raise InputError(f"{args.schedule}: expected theta1_deg,theta2_deg")
            for line, row in enumerate(reader, start=2):
                records.append(tuple(math.radians(_csv_number(row, k, args.schedule, line))
                                     for k in ("theta1_deg", "theta2_deg")))
        if not records:
            raise InputError(f"{args.schedule}: no data rows")
        points = sweep(
            cfg.params, cfg.pair_template, cfg.source, cal, cfg.settings,
            _mode(cfg, args),
            [q[0] for q in records], [q[1] for q in records], zipped=True,
        )
        pts3d, converged = _tips(points)
        if not converged.all():
            print(f"error: {(~converged).sum()} forward solves failed", file=sys.stderr)
            return EXIT_NUMERIC
        flags = np.zeros(len(pts3d), dtype=bool)
    else:
        if not (args.top and args.side):
            raise InputError("need either --schedule or both --top and --side")
        merged = merge_biplanar(
            _load_track_csv(args.top, "top"),
            _load_track_csv(args.side, "side"),
        )
        pts3d = merged.points
        flags = merged.x_mismatch
    ell = fit_ellipse(pts3d[:, 1:3])
    stats = workspace_stats(pts3d, cfg.params.straight_tip)
    doc = _report(cfg, {
        "points_mm": (pts3d * 1e3).tolist(),
        "x_mismatch_flags": flags.tolist(),
        "ellipse": {
            "center_mm": (ell.center * 1e3).tolist(),
            "semi_axes_mm": [ell.semi_axes[0] * 1e3, ell.semi_axes[1] * 1e3],
            "orientation_deg": math.degrees(ell.orientation),
            "rms_mm": ell.rms_distance * 1e3,
        },
        "stats": {
            "max_deflection_y_mm": stats.max_deflection_y * 1e3,
            "max_deflection_z_mm": stats.max_deflection_z * 1e3,
            "mean_deflection_mm": stats.mean_deflection * 1e3,
        },
    }, t0)
    _emit_json(doc, args.out)
    if args.plot:
        plot = SvgPlot(title="tip workspace (y-z projection)",
                       x_label="y [mm]", y_label="z [mm]")
        plot.add_line(ell.sample() * 1e3, color="#1f77b4")
        plot.add_points(pts3d[:, 1:3] * 1e3, color="#d62728")
        plot.write(args.plot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magbeam",
        description="Magnetic continuum robot simulation and calibration toolkit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=str(default_config_path()),
                       help="robot configuration JSON (default: bundled demonstrator)")
        p.add_argument("--beam-mode", choices=["corrected", "legacy"],
                       help="override the beam formulation from the config")

    p = sub.add_parser("simulate", help="single forward solve")
    common(p)
    p.add_argument("--theta1", type=float, required=True, help="distal angle [deg]")
    p.add_argument("--theta2", type=float, default=0.0, help="proximal angle [deg]")
    p.add_argument("--ke", type=float, help="stiffness scale override")
    p.add_argument("--kb", type=float, help="field scale (default 1)")
    p.add_argument("--out", help="write a JSON run report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="forward solves over angle ranges")
    common(p)
    p.add_argument("--theta1", required=True, help="start:step:stop or value [deg]")
    p.add_argument("--theta2", default="0", help="start:step:stop or value [deg]")
    p.add_argument("--zip", action="store_true",
                   help="pair the sequences elementwise instead of a grid")
    p.add_argument("--no-warm-start", action="store_true",
                   help="with --zip, seed every solve from the straight "
                        "configuration and solve all points as one batch "
                        "(a grid is always one batch)")
    p.add_argument("--ke", type=float, help="stiffness scale override")
    p.add_argument("--kb", type=float, help="field scale (default 1)")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.add_argument("--report", help="write a JSON run report")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="grid-search (ke, kb) against data")
    common(p)
    p.add_argument("--data", required=True, help="experiment CSV")
    p.add_argument("--ke", default="0.009:0.018:25", help="lo:hi[:n]")
    p.add_argument("--kb", default="3.5:4.5:25", help="lo:hi[:n]")
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--surface", help="write the error surface as CSV")
    p.add_argument("--notch-slope", type=float,
                   help="notch transform slope [deg/mm]")
    p.add_argument("--notch-offset", type=float,
                   help="notch transform offset [mm]")
    p.add_argument("--threads", type=int,
                   help="accepted and ignored; calibration runs on the calling thread")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="model-vs-data metrics at fixed (ke, kb)")
    common(p)
    p.add_argument("--data", required=True, help="experiment CSV")
    p.add_argument("--ke", type=float, required=True)
    p.add_argument("--kb", type=float, required=True)
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--plot", help="write an SVG of measured vs predicted curves")
    p.add_argument("--notch-slope", type=float,
                   help="notch transform slope [deg/mm]")
    p.add_argument("--notch-offset", type=float,
                   help="notch transform offset [mm]")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("workspace", help="workspace reconstruction and ellipse fit")
    common(p)
    p.add_argument("--schedule", help="CSV of theta1_deg,theta2_deg to simulate")
    p.add_argument("--top", help="top-view track CSV (x_mm,y_mm)")
    p.add_argument("--side", help="side-view track CSV (x_mm,z_mm)")
    p.add_argument("--ke", type=float, help="stiffness scale override")
    p.add_argument("--kb", type=float, help="field scale (default 1)")
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--plot", help="write an SVG of the y-z projection")
    p.set_defaults(func=cmd_workspace)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, InputError, FileNotFoundError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, FieldSingularityError, CalibrationError,
            EllipseFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:
  simulate   one forward solve at a given pair of magnet angles
  sweep      forward solves over angle ranges, CSV output
  calibrate  minimax grid search of (ke, kb) against tracking data
  validate   error metrics of the model at fixed (ke, kb) against data
  workspace  3D workspace reconstruction / ellipse fit / statistics
  invert     magnet angles that reach target tip positions, one row per target

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
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
    GRID_POINTS,
    CalibrationError,
    CalibrationGrid,
    _csv_number,
    _csv_rows,
    _csv_stream,
    _fit_metrics,
    _in_plane_errors,
    grid_search_calibrate,
    load_experiment_csv,
)
from .config import ConfigError, LoadedConfig, default_config_path, load_config
from .equilibrium import DivergenceError, _sweep_rows, solve_tip_pose
from .geomag import ContractViolation, FieldCalibration, FieldSingularityError
from .inverse import invert_controls
from .svgplot import write_svg
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

# Fraction of a step by which a range's stop may fall short of a sample
# that it still includes: far above the rounding error of a quotient of at
# most MAX_SAMPLES steps, far below one step.
_RANGE_SLACK = 1e-9


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
        raise InputError(f"angle range {text!r} has a step that does not reach its stop")
    _check_count((stop - start) / step + 1, text)
    # the last sample stays at or before stop; the slack forgives the
    # rounding of a quotient that should be whole ('0:0.1:0.3' gives 2.999...)
    n = int(math.floor((stop - start) / step + _RANGE_SLACK)) + 1
    return start + step * np.arange(n)


def _parse_grid_axis(text: str) -> np.ndarray:
    """Parse 'lo:hi[:n]' into a linspace of n (default GRID_POINTS) values."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise InputError(f"expected 'lo:hi[:n]', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2]) if len(parts) == 3 else GRID_POINTS
    except ValueError as exc:
        raise InputError(f"bad grid axis {text!r}") from exc
    # a finite span hi - lo also keeps linspace from overflowing to inf and NaN
    if n < 1 or not math.isfinite(hi - lo) or hi < lo:
        raise InputError(f"bad grid axis {text!r}")
    _check_count(n, text)
    return np.linspace(lo, hi, n)


def _model(args, ke=None, kb=None) -> tuple[LoadedConfig, FieldCalibration]:
    """The ``--config`` model with the stiffness scale ``ke`` (the config's
    if None), the field scale ``kb`` (1 if None) and the beam formulation
    of ``--beam-mode`` (the config's if unset); ``raw``, which reports
    echo as their inputs, names the ``ke`` and the beam mode that ran."""
    cfg = load_config(args.config)
    raw = dict(cfg.raw, beam_mode=args.beam_mode or cfg.raw["beam_mode"])
    if ke is not None:
        raw["robot"] = dict(raw["robot"], ke=ke)
        cfg = replace(cfg, params=replace(cfg.params, stiffness_scale=ke))
    return (replace(cfg, raw=raw, mode=BeamFormulation(raw["beam_mode"])),
            FieldCalibration(1.0 if kb is None else kb))


def _finite(v):
    """``v`` with every non-finite float in it, at any depth, as None."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit_report(cfg: LoadedConfig, results: dict, t0: float, out: str | None):
    """The JSON run report, to ``out`` or stdout: the model's ``raw``
    inputs, ``results`` and the wall time since ``t0``. It is strict JSON,
    with null for a non-finite number."""
    doc = {"inputs": cfg.raw, "results": results, "version": __version__,
           "wall_time_s": time.perf_counter() - t0}
    text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _notch_params(args) -> tuple[float | None, float | None]:
    # CLI takes deg/mm and mm; the core works in rad/m and m, and refuses a lone one
    slope, offset = args.notch_slope, args.notch_offset
    return (None if slope is None else math.radians(slope) * 1e3,
            None if offset is None else offset * 1e-3)


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if not (math.isfinite(args.theta1) and math.isfinite(args.theta2)):
        raise InputError("--theta1 and --theta2 must be finite")
    cfg, cal = _model(args, args.ke, args.kb)
    pair = cfg.pair_template.with_angles(
        math.radians(args.theta1), math.radians(args.theta2)
    )
    res = solve_tip_pose(cfg.params, pair, cfg.source, cal, cfg.settings, cfg.mode)
    tip_mm = res.tip.position * 1e3
    deflection_mm = float(np.linalg.norm(res.tip.position - cfg.params.straight_tip)) * 1e3
    print(f"tip_mm: [{tip_mm[0]:.4f}, {tip_mm[1]:.4f}, {tip_mm[2]:.4f}]")
    print(f"tangent: [{res.tip.tangent[0]:.6f}, {res.tip.tangent[1]:.6f}, "
          f"{res.tip.tangent[2]:.6f}]")
    print(f"deflection_mm: {deflection_mm:.4f}")
    print(f"iterations: {res.iterations}")
    print(f"converged: {res.converged}")
    if args.out:
        _emit_report(cfg, {
            "theta1_deg": args.theta1,
            "theta2_deg": args.theta2,
            "kb": cal.k_b,
            "tip_mm": tip_mm.tolist(),
            "tangent": res.tip.tangent.tolist(),
            "deflection_mm": deflection_mm,
            "iterations": res.iterations,
            "converged": res.converged,
            "residual_mm": res.residual * 1e3,
        }, t0, args.out)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg, cal = _model(args, args.ke, args.kb)
    t1 = np.radians(_parse_range(args.theta1))
    t2 = np.radians(_parse_range(args.theta2))
    if not args.zip:
        _check_count(t1.size * t2.size, f"{args.theta1} x {args.theta2}")
    q, batch = _sweep_rows(cfg.params, cfg.pair_template, cfg.source, cal, cfg.settings,
                           cfg.mode, t1, t2, zipped=args.zip)
    solved = np.isfinite(batch.tip).all(axis=1)
    rows = [
        [math.degrees(a), math.degrees(b), *(p if s else ["", "", ""]), ok]
        for (a, b), p, s, ok in zip(q.tolist(), (batch.tip * 1e3).tolist(), solved,
                                    batch.converged.tolist())
    ]
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(["theta1_deg", "theta2_deg", "x_mm", "y_mm", "z_mm", "converged"])
        w.writerows(rows)
    n_failed = int((~batch.converged).sum())
    if args.report:
        _emit_report(cfg, {
            "points": len(q),
            "failed": n_failed,
            "kb": cal.k_b,
            "csv": args.out,
        }, t0, args.report)
    return EXIT_OK if n_failed == 0 else EXIT_NUMERIC


def _schedule_tips(cfg: LoadedConfig, cal, angles) -> np.ndarray:
    """(N, 3) tips of a schedule; DivergenceError unless all converge."""
    q = np.reshape(angles, (-1, 2))
    _, batch = _sweep_rows(cfg.params, cfg.pair_template, cfg.source, cal, cfg.settings,
                           cfg.mode, q[:, 0], q[:, 1], zipped=True)
    failed = int((~batch.converged).sum())
    if failed:
        raise DivergenceError(f"{failed} forward solves failed")
    return batch.tip


def cmd_calibrate(args) -> int:
    t0 = time.perf_counter()
    cfg, _ = _model(args)
    slope, offset = _notch_params(args)
    records = load_experiment_csv(args.data, notch_slope=slope, notch_offset=offset)
    # an axis left out takes the default, built only then
    axes = {name: _parse_grid_axis(text)
            for name, text in (("ke_values", args.ke), ("kb_values", args.kb)) if text is not None}
    grid = CalibrationGrid(**axes)
    n_ke, n_kb = grid.ke_values.size, grid.kb_values.size
    _check_count(n_ke * n_kb, f"{n_ke} x {n_kb} grid")
    result = grid_search_calibrate(
        records, cfg.params, cfg.pair_template, cfg.source, grid,
        cfg.settings, cfg.mode, threads=args.threads,
    )
    _emit_report(cfg, {
        "ke_star": result.ke_star,
        "kb_star": result.kb_star,
        "metrics": result.metrics_at_optimum.as_dict_mm(),
        "grid": {
            "ke_values": grid.ke_values.tolist(),
            "kb_values": grid.kb_values.tolist(),
            "surface_mm": (result.error_surface * 1e3).ravel().tolist(),
        },
        "records": len(records),
    }, t0, args.out)
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
    cfg, cal = _model(args, args.ke, args.kb)
    slope, offset = _notch_params(args)
    records = load_experiment_csv(args.data, notch_slope=slope, notch_offset=offset)
    preds = _schedule_tips(cfg, cal, [(r.theta1, r.theta2) for r in records])
    measured = np.array([r.tip for r in records])
    metrics = _fit_metrics(measured, preds)
    table = [
        {
            "theta1_deg": math.degrees(rec.theta1),
            "theta2_deg": math.degrees(rec.theta2),
            "measured_mm": (rec.tip * 1e3).tolist(),
            "predicted_mm": (pred * 1e3).tolist(),
            "error_mm": float(err) * 1e3,
        }
        for rec, pred, err in zip(records, preds, _in_plane_errors(measured, preds))
    ]
    _emit_report(cfg, {
        "ke": args.ke,
        "kb": args.kb,
        "metrics": metrics.as_dict_mm(),
        "records": table,
    }, t0, args.out)
    if args.plot:
        _validate_plot(records, preds, args.plot)
    return EXIT_OK


def _validate_plot(records, preds, path):
    t_deg = np.array([math.degrees(r.theta1) for r in records])
    meas, pred = [], []
    for rec, position in zip(records, preds):
        axes = list(rec.axes)[1:]  # transverse components of the plane
        meas.append(float(np.linalg.norm(rec.tip[axes])) * 1e3)
        pred.append(float(np.linalg.norm(position[axes])) * 1e3)
    order = np.argsort(t_deg)
    write_svg(path, np.column_stack([t_deg[order], np.array(pred)[order]]),
              np.column_stack([t_deg, meas]), "measured vs predicted tip position",
              "theta1 [deg]", "in-plane deflection [mm]")


def _load_track_csv(path, plane: str) -> PlanarTrack:
    ycol = "y_mm" if plane == "top" else "z_mm"
    idx, pts = [], []
    for line, row in _csv_rows(path, ("x_mm", ycol)):
        idx.append(_csv_number(row, "index", path, line, line - 2))
        pts.append([_csv_number(row, "x_mm", path, line) * 1e-3,
                    _csv_number(row, ycol, path, line) * 1e-3])
    return PlanarTrack(plane=plane, points=np.array(pts), indices=np.array(idx))


def cmd_workspace(args) -> int:
    t0 = time.perf_counter()
    cfg, cal = _model(args, args.ke, args.kb)
    if args.schedule and (args.top or args.side):
        raise InputError("give either --schedule or --top and --side, not both")
    if args.schedule:
        cols = ("theta1_deg", "theta2_deg")
        angles = [[math.radians(_csv_number(row, k, args.schedule, line)) for k in cols]
                  for line, row in _csv_rows(args.schedule, cols)]
        pts3d = _schedule_tips(cfg, cal, angles)
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
    _emit_report(cfg, {
        "kb": cal.k_b,
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
    }, t0, args.out)
    if args.plot:
        write_svg(args.plot, ell.sample() * 1e3, pts3d[:, 1:3] * 1e3,
                  "tip workspace (y-z projection)", "y [mm]", "z [mm]")
    return EXIT_OK


def cmd_invert(args) -> int:
    """Answer each target of ``--targets`` (``-`` for stdin) as it is read,
    and write its row at once; every query runs on the one model, so all
    but the first reuse the first's coarse grid."""
    cfg, cal = _model(args, args.ke, args.kb)
    cols = ("x_mm", "y_mm", "z_mm")
    name = "<stdin>" if args.targets == "-" else args.targets
    failed = answered = 0
    with contextlib.ExitStack() as stack:
        # a stream is read line by line; the output opens with the first answer
        chunks = (sys.stdin.buffer if args.targets == "-"
                  else stack.enter_context(open(args.targets, "rb")))
        for line, row in _csv_stream(chunks, name, cols):
            mm = [_csv_number(row, k, name, line) for k in cols]
            inv = invert_controls(np.array(mm) * 1e-3, cfg.params, cfg.pair_template,
                                  cfg.source, cal, cfg.settings, cfg.mode)
            if not answered:
                fh = (stack.enter_context(open(args.out, "w", newline="", encoding="utf-8"))
                      if args.out else sys.stdout)
                w = csv.writer(fh)
                w.writerow([*cols, "theta1_deg", "theta2_deg", "tip_x_mm", "tip_y_mm",
                            "tip_z_mm", "error_mm", "within_reach", "basin_count",
                            "converged"])
            tip_mm = (inv.result.tip.position * 1e3).tolist()
            w.writerow([*mm, *map(math.degrees, inv.q), *tip_mm, inv.position_error * 1e3,
                        inv.within_reach, inv.basin_count, inv.result.converged])
            fh.flush()
            answered += 1
            failed += not inv.result.converged
    if not answered:
        raise InputError(f"{name}: no data rows")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; the subcommand is ``command``."""
    ap = argparse.ArgumentParser(
        prog="magbeam",
        description="Magnetic continuum robot simulation and calibration toolkit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=str(default_config_path()),
                       help="robot configuration JSON (default: bundled demonstrator)")
        p.add_argument("--beam-mode", choices=[m.value for m in BeamFormulation],
                       help="override the beam formulation from the config")

    def scale_overrides(p):
        p.add_argument("--ke", type=float, help="stiffness scale override")
        p.add_argument("--kb", type=float, help="field scale (default 1)")

    def notch(p):
        p.add_argument("--notch-slope", type=float,
                       help="notch transform slope [deg/mm]")
        p.add_argument("--notch-offset", type=float,
                       help="notch transform offset [mm]")

    p = sub.add_parser("simulate", help="single forward solve")
    common(p)
    p.add_argument("--theta1", type=float, required=True, help="distal angle [deg]")
    p.add_argument("--theta2", type=float, default=0.0, help="proximal angle [deg]")
    scale_overrides(p)
    p.add_argument("--out", help="write a JSON run report")

    p = sub.add_parser("sweep", help="forward solves over angle ranges")
    common(p)
    p.add_argument("--theta1", required=True, help="start:step:stop or value [deg]")
    p.add_argument("--theta2", default="0", help="start:step:stop or value [deg]")
    p.add_argument("--zip", action="store_true",
                   help="pair the sequences elementwise instead of a grid")
    scale_overrides(p)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.add_argument("--report", help="write a JSON run report")

    p = sub.add_parser("calibrate", help="grid-search (ke, kb) against data")
    common(p)
    p.add_argument("--data", required=True, help="experiment CSV")
    default = CalibrationGrid()
    for flag, axis in (("--ke", default.ke_values), ("--kb", default.kb_values)):
        p.add_argument(flag, help=f"lo:hi[:n], default {axis[0]:g}:{axis[-1]:g}:{axis.size}")
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--surface", help="write the error surface as CSV")
    notch(p)
    p.add_argument("--threads", type=int,
                   help="accepted and ignored; calibration runs on the calling thread")

    p = sub.add_parser("validate", help="model-vs-data metrics at fixed (ke, kb)")
    common(p)
    p.add_argument("--data", required=True, help="experiment CSV")
    p.add_argument("--ke", type=float, required=True)
    p.add_argument("--kb", type=float, required=True)
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--plot", help="write an SVG of measured vs predicted curves")
    notch(p)

    p = sub.add_parser("workspace", help="workspace reconstruction and ellipse fit")
    common(p)
    p.add_argument("--schedule", help="CSV of theta1_deg,theta2_deg to simulate")
    p.add_argument("--top", help="top-view track CSV (x_mm,y_mm)")
    p.add_argument("--side", help="side-view track CSV (x_mm,z_mm)")
    scale_overrides(p)
    p.add_argument("--out", help="output JSON (default: stdout)")
    p.add_argument("--plot", help="write an SVG of the y-z projection")

    p = sub.add_parser("invert", help="magnet angles that reach target tip positions")
    common(p)
    p.add_argument("--targets", required=True,
                   help="CSV of x_mm,y_mm,z_mm targets, '-' for stdin; each row is "
                        "answered as it is read")
    scale_overrides(p)
    p.add_argument("--out", help="output CSV (default: stdout)")
    return ap


# main() builds its parser on the first call and reuses it: building costs
# about 2 ms (every add_argument makes a HelpFormatter, which asks for the
# terminal size), and parsing leaves no state in the parser.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    # looked up when it runs, so that the shared parser holds no stale
    # reference to a command function that has since been rebound
    command = {"simulate": cmd_simulate, "sweep": cmd_sweep, "calibrate": cmd_calibrate,
               "validate": cmd_validate, "workspace": cmd_workspace,
               "invert": cmd_invert}[args.command]
    try:
        return command(args)
    except (ConfigError, ContractViolation, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, FieldSingularityError, CalibrationError,
            EllipseFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

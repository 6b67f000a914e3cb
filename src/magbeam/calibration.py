"""Minimax grid-search calibration of the two model scale factors.

The forward model carries two dimensionless knobs: the stiffness scale
(applied to E I) and the field scale k_b. Both are fitted against
experimental tip-tracking records by exhaustive grid search minimizing
the maximum in-plane tip position error over the dataset.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beam import BeamFormulation, RobotParams, TipPose
from .equilibrium import SolverSettings, _solve_batch, _tips, sweep
from .geomag import ContractViolation, DipoleSource, FieldCalibration, RingPairConfig

PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "xyz": (0, 1, 2)}


@dataclass(frozen=True)
class ExperimentRecord:
    """One tracked data point: measured magnet angles and tip position.

    ``tip`` holds NaN for components the tracking plane does not observe;
    ``plane`` names the observed plane ('xy', 'xz' or 'xyz' for full 3D).
    """

    theta1: float  # [rad]
    theta2: float  # [rad]
    tip: np.ndarray  # [m], NaN where unobserved
    plane: str = "xy"

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ContractViolation("theta1 and theta2 must be finite")
        tip = np.asarray(self.tip, dtype=float)
        if tip.shape != (3,):
            raise ContractViolation("tip must be a 3-vector")
        object.__setattr__(self, "tip", tip)
        if self.plane not in PLANE_AXES:
            raise ContractViolation(f"unknown plane tag {self.plane!r}")
        axes = PLANE_AXES[self.plane]
        finite = np.isfinite(tip)
        if finite.sum() < 2:
            raise ContractViolation("at least two finite tip components required")
        for k in range(3):
            if (k in axes) != bool(finite[k]):
                raise ContractViolation(
                    f"plane tag {self.plane!r} inconsistent with tip components"
                )

    @property
    def axes(self) -> tuple[int, ...]:
        return PLANE_AXES[self.plane]


def _in_plane_errors(measured: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """The one in-plane miss: (..., R) distances of ``predicted`` (..., R, 3)
    tips from ``measured`` (R, 3) ones over the components not NaN there."""
    miss = np.where(np.isfinite(measured), measured - predicted, 0.0)
    return np.sqrt(np.sum(miss * miss, axis=-1))


def in_plane_error(record: ExperimentRecord, predicted_position) -> float:
    """Euclidean distance between measurement and prediction, projected
    onto the record's measurement plane."""
    return float(_in_plane_errors(record.tip, np.asarray(predicted_position, dtype=float)))


@dataclass(frozen=True)
class FitMetrics:
    max_abs_error: float  # [m]
    mean_abs_error: float  # [m]
    std_error: float  # [m], population standard deviation
    r_squared: float

    def as_dict_mm(self) -> dict:
        return {
            "max_abs_error_mm": self.max_abs_error * 1e3,
            "mean_abs_error_mm": self.mean_abs_error * 1e3,
            "std_error_mm": self.std_error * 1e3,
            "r_squared": self.r_squared,
        }


def _fit_metrics(measured: np.ndarray, predicted: np.ndarray) -> FitMetrics:
    """The statistics of :func:`evaluate_metrics` for (R, 3) ``predicted``
    tips against ``measured`` ones, NaN where a component is unobserved."""
    if len(measured) < 2:
        raise ContractViolation("need at least two records")
    errors = _in_plane_errors(measured, predicted)
    seen = np.isfinite(measured)
    mean = np.where(seen, measured, 0.0).sum(axis=0) / np.maximum(seen.sum(axis=0), 1)
    spread = np.where(seen, measured - mean, 0.0)
    ss_res = float(np.sum(errors * errors))
    ss_tot = float(np.sum(spread * spread))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else -np.inf)
    return FitMetrics(
        max_abs_error=float(errors.max()),
        mean_abs_error=float(errors.mean()),
        std_error=float(errors.std()),
        r_squared=r2,
    )


def evaluate_metrics(
    records: list[ExperimentRecord],
    predictions: list[TipPose],
) -> FitMetrics:
    """Error statistics of model predictions against tracked records.

    Per-record error is the in-plane Euclidean distance. R^2 is computed
    over the stacked observed position components, with the total sum of
    squares taken about each component's mean over the records that
    observe it (equivalently, about the mean deflection; a constant
    baseline shift cancels).
    """
    if len(records) != len(predictions):
        raise ContractViolation("records and predictions must have equal length")
    return _fit_metrics(np.array([r.tip for r in records]),
                        np.array([p.position for p in predictions]))


@dataclass(frozen=True)
class CalibrationGrid:
    """Search grid for the (stiffness scale, field scale) pair."""

    ke_values: np.ndarray = field(
        default_factory=lambda: np.linspace(0.009, 0.018, 25)
    )
    kb_values: np.ndarray = field(
        default_factory=lambda: np.linspace(3.5, 4.5, 25)
    )

    def __post_init__(self):
        for name in ("ke_values", "kb_values"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size == 0:
                raise ContractViolation(f"{name} must be a nonempty 1-D sequence")
            if v.size > 1 and not np.all(np.diff(v) > 0):
                raise ContractViolation(f"{name} must be strictly increasing")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class CalibrationResult:
    ke_star: float
    kb_star: float
    grid: CalibrationGrid
    error_surface: np.ndarray  # [m], shape (n_ke, n_kb), max-abs error per cell
    metrics_at_optimum: FitMetrics


def default_thread_count() -> int:
    """Always 1: the grid search runs on the calling thread."""
    return 1


class CalibrationError(RuntimeError):
    """No feasible grid cell (all forward solves diverged)."""


def grid_search_calibrate(
    records: list[ExperimentRecord],
    params: RobotParams,
    pair_template: RingPairConfig,
    source: DipoleSource,
    grid: CalibrationGrid = CalibrationGrid(),
    settings: SolverSettings = SolverSettings(),
    mode: BeamFormulation = BeamFormulation.CORRECTED,
    threads: int | None = None,
) -> CalibrationResult:
    """Exhaustive minimax search over the calibration grid.

    Every cell stores the maximum in-plane tip error over the records;
    a cell with any diverging or unconverged solve scores +inf. The
    argmin cell wins, ties broken lexicographically by (ke, kb). All
    (cell, record) solves are independent and run as one vectorised
    batch on the calling thread, each seeded from
    ``settings.initial_tip`` (the straight tip if unset). The predictions
    behind ``metrics_at_optimum`` are a warm-started sweep over the
    records at the optimum (NaN if one raises). Fewer than two records
    fail before any solve. ``threads`` is accepted and ignored.
    """
    if len(records) < 2:
        raise ContractViolation("need at least two records")
    n_ke, n_kb, n_rec = grid.ke_values.size, grid.kb_values.size, len(records)
    # case order: ke-major, then kb, then record
    ke = np.repeat(grid.ke_values, n_kb * n_rec)
    kb = np.tile(np.repeat(grid.kb_values, n_rec), n_ke)
    angles = np.tile([[r.theta1, r.theta2] for r in records], (n_ke * n_kb, 1))
    batch = _solve_batch(
        params, pair_template, source, settings, mode, angles,
        ke * params.elastic_modulus * params.section_moment, kb,
    )
    measured = np.array([r.tip for r in records])
    errors = _in_plane_errors(measured, batch.tip.reshape(n_ke, n_kb, n_rec, 3))
    ok = batch.converged.reshape(n_ke, n_kb, n_rec).all(axis=-1)
    surface = np.where(ok, errors.max(axis=-1), math.inf)

    if not np.any(np.isfinite(surface)):
        raise CalibrationError("every grid cell diverged")
    # the first minimum in C order is the lexicographically smallest cell
    i, j = np.unravel_index(np.argmin(surface), surface.shape)
    ke_star = float(grid.ke_values[i])
    kb_star = float(grid.kb_values[j])

    points = sweep(
        replace(params, stiffness_scale=ke_star), pair_template, source,
        FieldCalibration(kb_star), settings, mode,
        [r.theta1 for r in records], [r.theta2 for r in records],
        zipped=True, warm_start=True,
    )
    return CalibrationResult(
        ke_star=ke_star, kb_star=kb_star, grid=grid,
        error_surface=surface, metrics_at_optimum=_fit_metrics(measured, _tips(points)[0]),
    )


def notch_to_angle(notch_position: float, slope: float, offset: float) -> float:
    """Linear notch-position-to-rotation transform.

    ``slope`` is in rad/m and ``offset`` in m; returns
    slope * (notch_position - offset).
    """
    if not (math.isfinite(notch_position) and math.isfinite(slope)
            and math.isfinite(offset)):
        raise ContractViolation("notch transform inputs must be finite")
    return slope * (notch_position - offset)


_REQUIRED = object()


def _csv_number(row: dict, key: str, path, line: int, default=_REQUIRED) -> float:
    """Finite float in column ``key`` of a ``csv.DictReader`` row; an empty
    or absent cell yields ``default`` and is an error if none is given.
    Errors are :class:`ContractViolation` naming ``path:line`` and ``key``."""
    raw = (row.get(key) or "").strip()
    if raw == "":
        if default is _REQUIRED:
            raise ContractViolation(f"{path}:{line}: {key} is required")
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan  # reported below, as a non-finite cell is
    if not math.isfinite(value):
        raise ContractViolation(f"{path}:{line}: bad value for {key}: {raw!r}")
    return value


def load_experiment_csv(
    path,
    notch_slope: float | None = None,
    notch_offset: float | None = None,
) -> list[ExperimentRecord]:
    """Read experiment records from CSV.

    Expected columns: ``theta1_deg,theta2_deg,x_mm,y_mm,z_mm`` with angles
    in degrees and positions in millimeters; an empty ``z_mm`` marks a
    planar top-view (x-y) record, an empty ``y_mm`` a side-view (x-z)
    one. When both notch parameters are given, a ``notch_mm`` column
    replaces ``theta1_deg`` (slope in rad/m, offset in m). A missing
    ``theta2_deg`` defaults to 0.
    """
    use_notch = notch_slope is not None and notch_offset is not None
    records: list[ExperimentRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ContractViolation(f"{path}: empty CSV")
        cols = set(reader.fieldnames)
        needed = {"x_mm", "y_mm"} | ({"notch_mm"} if use_notch else {"theta1_deg"})
        missing = needed - cols
        if missing:
            raise ContractViolation(f"{path}: missing columns {sorted(missing)}")
        for line, row in enumerate(reader, start=2):
            def num(key, default=_REQUIRED):
                return _csv_number(row, key, path, line, default)

            if use_notch:
                theta1 = notch_to_angle(num("notch_mm") * 1e-3, notch_slope,
                                        notch_offset)
            else:
                theta1 = math.radians(num("theta1_deg"))
            theta2 = math.radians(num("theta2_deg", 0.0))
            x = num("x_mm")
            y = num("y_mm", None)
            z = num("z_mm", None)
            tip = np.array([
                x * 1e-3,
                np.nan if y is None else y * 1e-3,
                np.nan if z is None else z * 1e-3,
            ])
            if y is None and z is None:
                raise ContractViolation(f"{path}:{line}: need y_mm or z_mm")
            plane = "xyz" if (y is not None and z is not None) else (
                "xy" if y is not None else "xz"
            )
            records.append(ExperimentRecord(theta1, theta2, tip, plane))
    if not records:
        raise ContractViolation(f"{path}: no data rows")
    return records

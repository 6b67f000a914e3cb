"""Minimax grid-search calibration of the two model scale factors.

The forward model carries two dimensionless knobs: the stiffness scale
(applied to E I) and the field scale k_b. Both are fitted against
experimental tip-tracking records by exhaustive grid search minimizing
the maximum in-plane tip position error over the dataset.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beam import BeamFormulation, RobotParams, TipPose
from .equilibrium import SolverSettings, _check_solves, _solve_batch
from .geomag import ContractViolation, DipoleSource, FieldCalibration, RingPairConfig

PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "xyz": (0, 1, 2)}

# Values on each axis of the default CalibrationGrid
GRID_POINTS = 25


@dataclass(frozen=True)
class ExperimentRecord:
    """One tracked data point: measured magnet angles and tip position.

    ``tip`` holds NaN for components the tracking plane does not observe:
    x must be finite, and y, z or both, and no component infinite. The
    observed plane follows from which components are finite. The record
    holds a read-only copy of the tip it was given.
    """

    theta1: float  # [rad]
    theta2: float  # [rad]
    tip: np.ndarray  # [m], NaN where unobserved

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ContractViolation("theta1 and theta2 must be finite")
        tip = np.array(self.tip, dtype=float)
        if tip.shape != (3,):
            raise ContractViolation("tip must be a 3-vector")
        finite = np.isfinite(tip)
        if not (finite[0] and finite[1:].any()):
            raise ContractViolation("tip needs a finite x and a finite y or z")
        if np.isinf(tip).any():
            raise ContractViolation("tip components must be finite or NaN")
        tip.flags.writeable = False
        object.__setattr__(self, "tip", tip)

    @property
    def plane(self) -> str:
        """The observed plane: 'xy', 'xz' or 'xyz' for full 3D."""
        y, z = np.isfinite(self.tip[1:])
        return "xyz" if y and z else ("xy" if y else "xz")

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
    """The in-plane tip errors' maximum, mean and population standard
    deviation [m], and R^2 over the observed components (dimensionless)."""

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
    """Search grid for the (stiffness scale, field scale) pair.

    Each axis is a nonempty, strictly increasing sequence of finite values
    > 0; anything else raises :class:`ContractViolation`. The grid holds
    read-only copies of the axes it was given.
    """

    ke_values: np.ndarray = field(
        default_factory=lambda: np.linspace(0.009, 0.018, GRID_POINTS)
    )
    kb_values: np.ndarray = field(
        default_factory=lambda: np.linspace(3.5, 4.5, GRID_POINTS)
    )

    def __post_init__(self):
        for name in ("ke_values", "kb_values"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size == 0:
                raise ContractViolation(f"{name} must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(v) & (v > 0)):
                raise ContractViolation(f"{name} must be finite and > 0")
            if v.size > 1 and not np.all(np.diff(v) > 0):
                raise ContractViolation(f"{name} must be strictly increasing")
            v.flags.writeable = False
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class CalibrationResult:
    """The winning stiffness and field scales (dimensionless), the grid
    searched, each cell's maximum in-plane error [m] (+inf where a solve
    failed) and the metrics at the winner."""

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
    behind ``metrics_at_optimum`` are the tips of the optimum's
    check-solves (:func:`equilibrium._check_solves`): one
    :func:`solve_tip_pose` per record, started at the pose the batch found
    for that record there, which normally stops in its first iteration
    (NaN where a solve raises). Fewer than two records fail before any
    solve. ``threads`` is ignored.
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

    rows = (i * n_kb + j) * n_rec + np.arange(n_rec)
    _check_solves(replace(params, stiffness_scale=ke_star), pair_template, source,
                  FieldCalibration(kb_star), settings, mode, angles, batch, rows)
    return CalibrationResult(
        ke_star=ke_star, kb_star=kb_star, grid=grid,
        error_surface=surface, metrics_at_optimum=_fit_metrics(measured, batch.tip[rows]),
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


def _csv_stream(chunks, name, required):
    """The data rows of a CSV table, each with its line number, as
    ``csv.DictReader`` rows, yielded as they are read. ``chunks`` are the
    table's bytes, cut at line ends: a file's whole content in one, or a
    stream's lines, so that each row is parsed before the next arrives.
    One UTF-8 byte-order mark at the start, as spreadsheets write into
    "CSV UTF-8", is dropped.
    A :class:`ContractViolation` naming ``name`` rejects an empty table
    and a header without one of the ``required`` columns; one naming
    ``name:line`` a line that is not UTF-8 text, a data row with more cells
    than the header and a line the csv module cannot parse (a cell over
    its field size limit, say). A table without data rows yields none."""
    def lines():
        line = 1
        for k, raw in enumerate(chunks):
            if not k:
                raw = raw.removeprefix(codecs.BOM_UTF8)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line += raw.count(b"\n", 0, exc.start)
                raise ContractViolation(
                    f"{name}:{line}: not UTF-8 text ({exc.reason})") from exc
            line += raw.count(b"\n")
            yield from io.StringIO(text, newline="")

    reader = csv.DictReader(lines())
    try:
        if reader.fieldnames is None:
            raise ContractViolation(f"{name}: empty CSV")
        missing = set(required) - set(reader.fieldnames)
        if missing:
            raise ContractViolation(f"{name}: missing columns {sorted(missing)}")
        for line, row in enumerate(reader, start=2):
            if None in row:  # DictReader files the cells past the header under None
                raise ContractViolation(f"{name}:{line}: more cells than the header")
            yield line, row
    except csv.Error as exc:
        raise ContractViolation(f"{name}:{reader.reader.line_num}: {exc}") from exc


def _csv_rows(path, required) -> list[tuple[int, dict]]:
    """All the data rows of the CSV table at ``path``, as :func:`_csv_stream`
    yields them; a table without data rows is a :class:`ContractViolation`."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = list(_csv_stream([data], path, required))
    if not rows:
        raise ContractViolation(f"{path}: no data rows")
    return rows


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
    replaces ``theta1_deg`` (slope in rad/m, offset in m); one given
    alone raises :class:`ContractViolation`. A missing ``theta2_deg``
    defaults to 0.
    """
    use_notch = notch_slope is not None
    if use_notch != (notch_offset is not None):
        raise ContractViolation("notch_slope and notch_offset must be given together")
    needed = {"x_mm", "y_mm"} | ({"notch_mm"} if use_notch else {"theta1_deg"})
    records: list[ExperimentRecord] = []
    for line, row in _csv_rows(path, needed):
        def num(key, default=_REQUIRED):
            return _csv_number(row, key, path, line, default)

        if use_notch:
            theta1 = notch_to_angle(num("notch_mm") * 1e-3, notch_slope, notch_offset)
        else:
            theta1 = math.radians(num("theta1_deg"))
        theta2 = math.radians(num("theta2_deg", 0.0))
        x, y, z = num("x_mm"), num("y_mm", math.nan), num("z_mm", math.nan)
        if math.isnan(y) and math.isnan(z):
            raise ContractViolation(f"{path}:{line}: need y_mm or z_mm")
        records.append(ExperimentRecord(theta1, theta2, np.array([x, y, z]) * 1e-3))
    return records

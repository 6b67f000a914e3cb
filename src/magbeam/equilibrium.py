"""Steady-state tip pose under magneto-mechanical coupling.

The coupled problem p = g(p), where g evaluates the magnetic wrench at
the current tip pose and maps it back through the cantilever model, is
solved by fixed-point iteration with Aitken's dynamic relaxation
(Kuettler & Wall, Comput. Mech. 43, 2008): every case adapts its own
relaxation factor from its last two residuals. The map is inverted in
:mod:`magbeam.inverse`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beam import (
    BeamFormulation,
    RobotParams,
    TipPose,
    _cantilever_rows,
    _pose_rows,
)
from .geomag import (
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    FieldSingularityError,
    RingPairConfig,
    UNIT_TANGENT_TOL,
    _SINGULAR,
    _dot0,
    _frozen_vec3,
    _is_count,
    _ring_offsets,
    _ring_pair_wrench_rows,
    _ring_rows,
)

# Cases per batched fixed-point call; bounds the working memory of a batch
# whatever the number of cases. Peak tracemalloc use is about 0.76 kB per
# case for coincident rings and 1.0 kB for rings 5 mm apart (4096 random
# angle pairs at k_e = 0.009, k_b = 4.03).
_BATCH_CASES = 4096


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the trust region or went non-finite."""


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    ``initial_tip`` seeds the iteration. ``None`` starts it at the
    straight tip L e1 with tangent e1, a finite 3-vector at that
    position with tangent e1, and a :class:`TipPose` (finite, with a unit
    tangent; a neighbouring solve's tip, say) at that pose; a vector is
    held as a read-only copy, a pose as given, since its arrays are
    read-only copies already. ``relaxation`` is
    the first and smallest relaxation factor of the Aitken-accelerated
    iteration; 1 makes it a plain undamped iteration.
    ``position_tolerance`` must be finite and positive, and
    ``max_iterations`` an integer (a numpy integer too, a bool not) of at
    least 1; anything else raises :class:`ContractViolation`.
    """

    position_tolerance: float = 1e-6  # [m]
    max_iterations: int = 1000
    relaxation: float = 0.5  # first and smallest relaxation factor, in (0, 1]
    initial_tip: np.ndarray | TipPose | None = None  # [m], or a pose

    def __post_init__(self):
        if not (self.position_tolerance > 0.0 and math.isfinite(self.position_tolerance)):
            raise ContractViolation("position_tolerance must be finite and > 0")
        if not _is_count(self.max_iterations):
            raise ContractViolation("max_iterations must be an integer >= 1")
        if not (0.0 < self.relaxation <= 1.0):
            raise ContractViolation("relaxation must lie in (0, 1]")
        seed = self.initial_tip
        if isinstance(seed, TipPose):
            # plain floats: a check-solve builds one of these per case
            values = seed.position.tolist() + seed.tangent.tolist()
            if not all(map(math.isfinite, values)):
                raise ContractViolation("initial_tip pose must be finite")
            if abs(math.hypot(*values[3:]) - 1.0) > UNIT_TANGENT_TOL:
                raise ContractViolation("initial_tip tangent must have unit norm")
        elif seed is not None:
            object.__setattr__(self, "initial_tip", _frozen_vec3(seed, "initial_tip"))


@dataclass(frozen=True)
class EquilibriumResult:
    """A solve's exit pose.

    ``residual`` is the position part ||g(p) - p|| of the stop test; a
    converged solve has also moved its tangent by at most the position
    tolerance over L in its last iteration. The wrench at the tip is
    ``tip_wrench(pair, result.tip, source, cal)``, as the solve saw it.
    """

    tip: TipPose
    iterations: int
    residual: float  # [m] position residual ||g(p) - p|| at exit
    converged: bool


def solve_tip_pose(
    params: RobotParams,
    pair: RingPairConfig,
    source: DipoleSource,
    cal: FieldCalibration,
    settings: SolverSettings = SolverSettings(),
    mode: BeamFormulation = BeamFormulation.CORRECTED,
) -> EquilibriumResult:
    """Relaxed fixed-point solve for the equilibrium tip pose.

    Iterates p <- (1 - w) p + w g(p), where g composes the tip wrench
    with the cantilever map using the tangent n from the previous
    iterate, and the tangent takes its new value n' unrelaxed. The factor
    w starts at ``settings.relaxation``; from the second iteration on it
    is Aitken's w <- -w r_old . (r - r_old) / |r - r_old|^2, clipped to
    [relaxation, 1], with r = g(p) - p. The solve stops once
    max(||g(p) - p||, L ||n' - n||) drops to the position tolerance and
    returns g(p), or the last relaxed iterate at the iteration limit. Raises
    :class:`DivergenceError` if the residual exceeds 10 L or any value
    goes non-finite, and :class:`FieldSingularityError` if a ring reaches
    the source, at an iterate or at the exit pose. This is the one-case
    call of the batched loop :func:`_solve_batch`.
    """
    batch = _solve_batch(params, pair, source, settings, mode,
                         [[pair.magnet_1.angle, pair.magnet_2.angle]],
                         params.bending_stiffness, cal.k_b)
    error = batch.error[0]
    if error is not None:
        raise (FieldSingularityError if error == _SINGULAR else DivergenceError)(error)
    return _equilibrium(batch, 0)


class _Batch(NamedTuple):
    """Outcome of :func:`_solve_batch`, row k for case k.

    A row holds the pose and status that :func:`solve_tip_pose` returns
    for its case, or in ``error`` the message of the exception it raises
    (``None`` if none); ``pose`` is NaN exactly where ``error`` is set.
    """

    pose: np.ndarray  # (N, 6) tip position [m] | unit tangent
    iterations: np.ndarray  # (N,)
    residual: np.ndarray  # (N,) [m]
    converged: np.ndarray  # (N,) bool
    error: np.ndarray  # (N,) object: str or None

    @property
    def tip(self) -> np.ndarray:
        """(N, 3) tip positions [m], a view of ``pose``."""
        return self.pose[:, :3]

    @property
    def tangent(self) -> np.ndarray:
        """(N, 3) unit tip tangents, a view of ``pose``."""
        return self.pose[:, 3:]


def _solve_batch(
    params: RobotParams,
    pair: RingPairConfig,
    source: DipoleSource,
    settings: SolverSettings,
    mode: BeamFormulation,
    angles,
    ei,
    k_b,
) -> _Batch:
    """The relaxed fixed-point loop, over N independent cases at once.

    Case k has the magnet angles ``angles[k]`` (shape (N, 2)), the bending
    stiffness ``ei[k]`` and the field scale ``k_b[k]`` (scalars are
    broadcast); ``pair`` supplies the magnitudes, offsets and separation
    of the rings and ``params`` the length and the straight tip. Every
    case has the seed, relaxation, stop test, iteration limit and bail-out
    described in :func:`solve_tip_pose`, which is the N = 1 call, keeps its
    own relaxation factor and stops on its own iteration. Cases are solved
    ``_BATCH_CASES`` at a time, which changes no result; a batch of one
    chunk, as every single solve is, goes to :func:`_solve_chunk` directly.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1, 2)
    n_cases = len(angles)
    ei = np.full(n_cases, ei, dtype=float)
    k_b = np.full(n_cases, k_b, dtype=float)
    if n_cases <= _BATCH_CASES:
        return _solve_chunk(params, pair, source, settings, mode, angles, ei, k_b)
    chunks = [
        _solve_chunk(params, pair, source, settings, mode,
                     angles[a:a + _BATCH_CASES], ei[a:a + _BATCH_CASES],
                     k_b[a:a + _BATCH_CASES])
        for a in range(0, n_cases, _BATCH_CASES)
    ]
    return _Batch(*(np.concatenate(column) for column in zip(*chunks)))


def _empty_batch(n_cases: int, max_iterations: int) -> _Batch:
    """N rows of unsolved cases: NaN values, no error, not converged. The
    float columns are views of one array."""
    values = np.full((n_cases, 7), np.nan)
    return _Batch(
        pose=values[:, :6], residual=values[:, 6],
        iterations=np.full(n_cases, max_iterations), converged=np.zeros(n_cases, dtype=bool),
        error=np.empty(n_cases, dtype=object),  # None
    )


@np.errstate(all="ignore")  # non-finite values are reported as failures
def _solve_chunk(params, pair, source, settings, mode, angles, ei, k_b) -> _Batch:
    """:func:`_solve_batch` on at most ``_BATCH_CASES`` cases.

    The live cases' state is one column per case in each of a few arrays,
    components first, as the wrench and beam kernels work: the ring
    constants, the pose, the previous residual, the relaxation factor, the
    stiffness and the case's row of the output. Each iteration relaxes
    every live case; the cases that stopped then leave the state by
    integer gathers (``take``), which cost a fraction of boolean-mask or
    fancy indexing. Every operation works within a case, so a case's
    numbers do not depend on the others present.
    Failures are told apart only in an iteration where some case failed.
    The output is allocated at the first stop that leaves cases
    iterating; cases that all stop together, as a single solve does,
    become the output as they stand. The exit poses are checked against
    the source once, over all cases, at the end.
    """
    n_cases = len(angles)
    L = params.length
    lam = settings.relaxation
    tol = settings.position_tolerance
    bail2 = (10.0 * L) ** 2

    # the output rows of the cases still iterating, and their state,
    # components first (column j is the case of row rows[j]): the pose
    # x = (p | n), the relaxation factor and, from the second iteration
    # on, the previous residual g(p) - p; the factor is the scalar
    # ``relaxation`` until the first Aitken update gives each case its own
    rows = np.arange(n_cases)
    ei = ei[:, None]
    x = np.zeros((6, n_cases))
    seed = settings.initial_tip
    if isinstance(seed, TipPose):
        x[:3], x[3:] = seed.position[:, None], seed.tangent[:, None]
    else:
        x[0], x[3] = L, 1.0  # the straight tip (L e1 | e1)
        if seed is not None:
            x[:3] = seed[:, None]
    d_old, omega = None, lam
    out = None  # allocated at the first stop that leaves cases iterating
    rings = all_rings = _ring_rows(pair, source, k_b, angles)
    for k in range(1, settings.max_iterations + 1):
        w, r2 = _ring_pair_wrench_rows(rings, x[:3].T, x[3:].T)
        g = _pose_rows(L, _cantilever_rows(L, ei, mode, w)).T
        d = g - x  # position residual | tangent change
        d3 = d.reshape(2, 3, -1).swapaxes(0, 1)
        s = _dot0(d3, d3)  # squared norms of both
        d2 = s[0]
        change = np.sqrt(np.maximum(d2, L * L * s[1]))
        # NaN fails both tests: a singular or non-finite case stops too
        going = (change > tol) & (d2 <= bail2)
        n_going = np.count_nonzero(going)
        if n_going < len(going):
            converged = change <= tol
            n_converged = np.count_nonzero(converged)
            if n_converged == len(converged):
                # every live case stops converged, as a converged one-case
                # solve always does: write them as they stand, ungathered
                out = _write_rows(out, rows, k, g.T, np.sqrt(d2), True)
                break
            if out is None:
                out = _empty_batch(n_cases, settings.max_iterations)
            if n_converged + n_going < len(going):  # some case failed
                failed = ~(going | converged)
                out.iterations[rows[failed]] = k
                singular = failed & (r2 <= 0.0).any(axis=1)
                out.error[rows[singular]] = _SINGULAR
                diverged = failed & ~singular
                for r, res in zip(rows[diverged], np.sqrt(d2[diverged])):
                    out.error[r] = f"fixed-point residual {res:.3g} m after {k} iterations"
            if n_converged:
                c = np.flatnonzero(converged)
                _write_rows(out, rows[c], k, g.take(c, axis=1).T, np.sqrt(d2[c]), True)
            if not n_going:
                break
        dp = d[:3]
        if d_old is not None:
            # Aitken's factor w <- w r_old . (r_old - r) / |r_old - r|^2,
            # clipped to [relaxation, 1]; fmax maps a NaN (no change in
            # the residual) to the floor
            dd = d_old - dp
            omega = np.fmin(np.fmax(omega * (_dot0(d_old, dd) / _dot0(dd, dd)), lam), 1.0)
        g[:3] -= (1.0 - omega) * dp  # p <- (1 - w) p + w g(p), n <- n'
        x, d_old = g, dp
        if n_going < len(going):
            live = np.flatnonzero(going)
            rows, rings, ei = rows[live], rings.take(live), ei.take(live, axis=0)
            x, d_old = x.take(live, axis=1), d_old.take(live, axis=1)
            if k > 1:
                omega = omega.take(live)
    else:  # unconverged: the last relaxed iterate
        out = _write_rows(out, rows, k, x.T, np.sqrt(d2[going]), False)
    # an exit pose with a ring on the source is a singular error, with no tip
    pose = out.pose.T  # components first, as _ring_offsets takes them
    on_source = _ring_offsets(all_rings, pose[:3], pose[3:])[1] <= 0.0
    if np.count_nonzero(on_source):
        singular = on_source.any(axis=1)
        out.converged[singular] = False
        out.error[singular] = _SINGULAR
        out.pose[singular] = np.nan
    return out


def _write_rows(out: _Batch | None, c, k: int, x, residual, converged: bool) -> _Batch:
    """Rows ``c`` of ``out`` for cases that stopped in iteration ``k`` at
    the poses ``x``, converged or at the iteration limit. With ``out``
    None, ``c`` holds every case in order, and the rows become a new batch
    around ``x`` and ``residual``. Returns ``out``."""
    if out is None:
        n = len(c)
        out = _Batch(x, np.empty(n, dtype=int), residual, np.empty(n, dtype=bool),
                     np.empty(n, dtype=object))
        out.iterations.fill(k)
        out.converged.fill(converged)
        return out
    out.pose[c], out.iterations[c] = x, k
    out.residual[c], out.converged[c] = residual, converged
    return out


@dataclass(frozen=True)
class SweepPoint:
    q: tuple[float, float]  # (theta1, theta2) [rad]
    result: EquilibriumResult | None
    error: str | None = None


def sweep(
    params: RobotParams,
    pair_template: RingPairConfig,
    source: DipoleSource,
    cal: FieldCalibration,
    settings: SolverSettings,
    mode: BeamFormulation,
    theta1_values,
    theta2_values,
    zipped: bool = False,
) -> list[SweepPoint]:
    """Evaluate the forward model over a grid or zipped list of angles.

    A Cartesian grid (``zipped=False``, theta1-major order) or a zipped
    schedule is solved as one vectorised batch, every point seeded from
    ``settings.initial_tip`` (the straight tip if unset); each point gets
    what :func:`solve_tip_pose` gives it, to within the solver's rounding.
    A point whose solve fails is reported failed, with no retry. A
    schedule's converged points are then solved again by
    :func:`solve_tip_pose`, each started at the pose the batch found for
    it, and report that solve, which normally stops in its first
    iteration (see :func:`_check_solves`). Empty or non-finite angle
    sequences raise :class:`ContractViolation` before any solve. The
    points wrap the result columns that the command line reads as arrays.
    """
    q, batch = _sweep_rows(params, pair_template, source, cal, settings, mode,
                           theta1_values, theta2_values, zipped)
    return [SweepPoint(tuple(qk), None if e is not None else _equilibrium(batch, k), e)
            for k, (qk, e) in enumerate(zip(q.tolist(), batch.error))]


def _sweep_rows(params, pair_template, source, cal, settings, mode,
                theta1_values, theta2_values, zipped=False
                ) -> tuple[np.ndarray, _Batch]:
    """:func:`sweep` as columns: the (N, 2) float angles of its points, a
    grid's theta1-major, and their :class:`_Batch` rows, with the same
    order, contract and solves. A schedule's converged points have
    the rows of their check-solves; a failed point keeps the batch's
    error, and one stopped at the iteration limit the batch's last iterate."""
    t1 = np.array(list(theta1_values), dtype=float)
    t2 = np.array(list(theta2_values), dtype=float)
    if not (t1.size and t2.size):
        raise ContractViolation("angle sequences must be nonempty")
    if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
        raise ContractViolation("angles must be finite")
    if zipped and len(t1) != len(t2):
        raise ContractViolation("zipped sweep needs equal-length sequences")
    q = (np.column_stack((t1, t2)) if zipped
         else np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1).reshape(-1, 2))
    batch = _solve_batch(params, pair_template, source, settings, mode, q,
                         params.bending_stiffness, cal.k_b)
    if zipped:
        _check_solves(params, pair_template, source, cal, settings, mode, q, batch,
                      np.flatnonzero(batch.converged))
    return q, batch


def _check_solves(params, pair_template, source, cal, settings, mode, q, out: _Batch,
                  rows) -> None:
    """One :func:`solve_tip_pose` per row r of ``rows``, at the angles
    ``q[r]`` and started at the pose ``out.pose[r]``, written over row r of
    ``out``; a row whose solve raises gets its error and a NaN pose.

    Started at a fixed point the batch has found, a solve normally stops
    in its first iteration. Every reported number of a schedule and of a
    calibration's optimum thus comes from the public solver, whose calls
    the benchmark's traced run replays as its per-layer probes.
    """
    for r in rows:
        try:
            res = solve_tip_pose(params, pair_template.with_angles(*q[r].tolist()), source, cal,
                                 _seeded(settings, out.pose[r]), mode)
        except (DivergenceError, FieldSingularityError) as exc:
            out.pose[r], out.residual[r], out.converged[r] = np.nan, np.nan, False
            out.error[r] = str(exc)
            continue
        out.pose[r, :3], out.pose[r, 3:] = res.tip.position, res.tip.tangent
        out.iterations[r], out.residual[r], out.converged[r] = (
            res.iterations, res.residual, res.converged)


def _seeded(settings: SolverSettings, x) -> SolverSettings:
    """``settings`` started at the pose ``x`` = (p | n), built by the
    constructor, which costs less than ``dataclasses.replace``."""
    return SolverSettings(settings.position_tolerance, settings.max_iterations,
                          settings.relaxation, TipPose(x[:3], x[3:]))


def _equilibrium(batch: _Batch, k: int) -> EquilibriumResult:
    """Case ``k`` of a batch whose ``error`` is ``None``."""
    return EquilibriumResult(TipPose(batch.pose[k, :3], batch.pose[k, 3:]),
                             int(batch.iterations[k]), float(batch.residual[k]),
                             bool(batch.converged[k]))


def __getattr__(name):
    # the inverse's documented path; magbeam.inverse, which imports from
    # here, loads on the first use of either name
    if name not in ("InverseResult", "invert_controls"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import inverse
    value = globals()[name] = getattr(inverse, name)
    return value

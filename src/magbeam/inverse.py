"""Magnet rotations that bring the tip to a target position.

The forward map of :mod:`magbeam.equilibrium` is inverted numerically:
a grid search over the angles, then a refinement with no fixed-point
solve. For a source on the robot's axis it solves for the
one angle theta1 - theta2 on the trigonometric series of a fixed
48-cell theta2 = 0 row, solved once per model to 1e-3 times the
tolerance, and evaluates no kernel. For any other source, or a row with
a failed cell or a series too coarse for the tolerance, it solves by
least squares in both angles, moving each
candidate's beam coordinates u = (p_y, p_z, a, b) by Newton steps on
u = G(u; q) and taking its slopes from the sensitivity
du/dq = (I - dG/du)^-1 dG/dq.
"""
from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from typing import NamedTuple

import numpy as np

from .beam import BeamFormulation, RobotParams, _cantilever_rows, _chart_rows, _pose_rows
from .equilibrium import (
    DivergenceError,
    EquilibriumResult,
    SolverSettings,
    _Batch,
    _seeded,
    _sweep_rows,
    solve_tip_pose,
)
from .geomag import (
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    RingPairConfig,
    _as_vec3,
    _frozen,
    _is_count,
    _ring_pair_wrench_rows,
    _ring_rows,
)

log = logging.getLogger(__name__)

# Refinement of invert_controls: roots in theta1 - theta2 on the axis row's
# series for a source on the axis, else multi-start Levenberg-Marquardt on
# the miss r(q) = p(q) - p_target coupled to Newton on the beam
# coordinates, every kernel evaluation one pass of the row kernels over all
# trials. The step limit and the stop within the tolerance serve both, the
# latter squared for the series' roots.
_INVERSE_SEEDS = 5  # the lexicographic winner and the next best grid cells
# seeds off the theta1 = theta2 fold and its mirror theta1 - theta2 = pi,
# started at the straight tip, for a grid with too few converged cells
_OFF_FOLD_SEEDS = _frozen(np.array([[0.5 * np.pi, 0.0], [1.5 * np.pi, 0.0]]))
# forward-difference steps of dG/du in the beam coordinates (p_y, p_z, a, b)
# [m, m, 1, 1] and of dG/dq in the 2 angles [rad]; stencil row 0 is the base
_INVERSE_H = _frozen(np.array([1e-8] * 4 + [1e-7] * 2))
_INVERSE_STENCIL = _frozen(np.eye(7, 6, -1) * _INVERSE_H)
_INVERSE_DAMPING = (1e-9, 1e-2, 1.0)  # trial damping mu, over trace(J^T J)
_INVERSE_MAX_STEP = 0.25  # [rad] longest trial step
_INVERSE_STEPS = 30
# all seeds stop once one is within this times the tolerance; it also sets
# the axis row's tolerance (_AXIS_ROW), and so the series' accuracy and the
# cost of its solve
_INVERSE_STOP = 1e-3
_INVERSE_GAIN = 0.1  # a seed stops once a step gains at most this times the tolerance
# the cells of the theta2 = 0 row whose series is the axis path's answer,
# whatever the grid size, and their angles D. Solved to _INVERSE_STOP times
# the tolerance, a row of 48 reads within 5.4e-9 m of 1e-13 m cold solves
# down to k_b 2.2 (k_e 0.009, both modes, rings 0 and 5 mm apart); rows of
# 24 and 32 missed by 3.3e-6 and 2.4e-7 m at k_b 2.25
_AXIS_ROW = 48
_AXIS_ANGLES = _frozen(np.linspace(0.0, 2.0 * np.pi, _AXIS_ROW, endpoint=False))
# the axis row's tolerance is never below this many epsilons of L, 2.1e-15
# m for the demonstrator's L = 0.15 m: at its k_b 2.25 a stop within 3e-16
# m (11 ulp of L) leaves cells unconverged after max_iterations, one within
# 1e-15 m does not
_AXIS_EPS = 64
# the series is used only where the largest amplitude of its last four
# harmonics, k = 21 to 24, in p_y and p_z, is at most this times the
# tolerance. The series of a smooth row converges geometrically, and its
# error between the cells was 0.16 to 0.63 times that amplitude at k_b 2.2
# to 2.5 (the row solved to 2e-15 m, against 1e-13 m cold solves), so its
# answers miss by well under the tolerance; a tighter tolerance, or a
# softer field, takes the general refinement
_AXIS_TAIL = 0.1


@dataclass(frozen=True)
class InverseResult:
    """Angles ``q`` [rad], each in [0, 2 pi), the final solve there and its
    tip's distance from the target [m]; ``within_reach`` is True exactly when
    that distance is at most the solver's position tolerance."""

    q: tuple[float, float]  # [rad]
    result: EquilibriumResult
    position_error: float  # [m]
    within_reach: bool
    basin_count: int


def invert_controls(
    target,
    params: RobotParams,
    pair_template: RingPairConfig,
    source: DipoleSource,
    cal: FieldCalibration,
    settings: SolverSettings = SolverSettings(),
    mode: BeamFormulation = BeamFormulation.CORRECTED,
    grid_size: int = 24,
) -> InverseResult:
    """Find magnet rotations that bring the tip to a target position.

    Solves a ``grid_size`` x ``grid_size`` grid over [0, 2 pi)^2 as one
    cold grid :func:`sweep`, whose tip poses and convergence flags the
    search reads. That grid depends on the model alone, not on the target:
    a query whose inputs other than the target and the template's angles
    equal the previous query's reuses its grid, and gets the answer of a
    cold query bit for bit (see :func:`_coarse_grid`). The search reads
    converged cells alone: of those tied within the solver position
    tolerance of the smallest error (all, where every error overflows) the
    lexicographically smallest q wins, and ``basin_count`` counts the
    clusters of tied cells (:func:`_count_basins`). Unless the winner is
    already within tolerance, it is refined with no fixed-point solve. For
    a source whose position and moment have zero y and z components the
    tip's distance from the axis depends on theta1 - theta2 alone. If the
    grid's theta2 = 0 row converged, and so did the row of ``_AXIS_ROW``
    cells solved beside it to ``_INVERSE_STOP`` times the tolerance
    (:func:`_coarse_grid`), whose trigonometric interpolant is fine enough
    for the tolerance, that angle is solved on the interpolant, and its
    root on the winner's side of the fold theta1 = theta2, or the nearest
    point of the rim or of the hole, is the answer, with no kernel
    evaluated (see :func:`_axis_refinement`). For any other source, a
    failed row or one too coarse, the refinement runs on passes of the
    wrench and beam kernels (:func:`_newton_pass`), each of which takes
    every trial's beam coordinates one Newton step towards its equilibrium
    and gives the implicit-function sensitivity du/dq: the winner and the
    next best converged cells, each with its converged tip pose, seed a
    Levenberg-Marquardt least-squares solve of p(q) = target, each step
    one pass over a few damped trial steps of all seeds (see
    :func:`_least_squares`). The seeds run together because one alone can
    stall on the theta1 = theta2 fold, where the swap symmetry of the
    rings makes the Jacobian singular; a grid with fewer converged cells
    than seeds, as a 1 x 1 grid, whose one cell lies on the fold, adds
    seeds at theta1 - theta2 = pi/2 and 3 pi/2, started at the straight
    tip. The answer is a :func:`solve_tip_pose` at ``settings`` started
    at the winner's tip pose: the grid cell's converged pose, the axis
    row's (a cell's or the series') or the least squares' Newton-corrected
    one, so it normally stops in its first iteration; ``settings.initial_tip``
    seeds the grid alone. Repeated calls give bit-identical answers.
    ``within_reach`` is True exactly when that answer's tip lies within
    ``settings.position_tolerance`` of the target; a target out of reach
    gets the nearest configuration found. Raises
    :class:`ContractViolation` for a non-finite target or a ``grid_size``
    that is not an integer (a numpy integer too, a bool not) of at least
    1, and :class:`DivergenceError` if no grid seed converges.
    """
    if not _is_count(grid_size):
        raise ContractViolation("grid_size must be an integer >= 1")
    p_target = _as_vec3(getattr(target, "position", target), "target")
    tol = settings.position_tolerance
    grid, coarse, series = _coarse_grid(params, pair_template, source, cal, settings, mode,
                                        grid_size)
    pose = coarse.pose
    cells = np.flatnonzero(coarse.converged)  # a failed cell takes no part
    with np.errstate(over="ignore"):  # a target too far for its squares ties them all
        errs = np.linalg.norm(pose[cells, :3] - p_target, axis=1)

    best = errs.min()
    tied = cells[errs <= best + tol]
    first = tied[0]  # theta1-major order: the lexicographic winner
    basin_count = _count_basins(tied, (grid_size, grid_size))

    q, x = grid[first], pose[first]
    if best > tol:
        target = p_target - params.straight_tip
        if series is not None:
            q_r, err_r, u_r = _axis_refinement(target, series, q, tol)
            log.debug("inverse refinement: axis")
        else:
            passes = 0

            def newton(points, coords):
                nonlocal passes
                passes += 1
                return _newton_pass(params, pair_template, source, mode, cal.k_b, points,
                                    coords)

            order = cells[np.argsort(errs, kind="stable")]
            seeds = np.concatenate(([first], order[order != first][:_INVERSE_SEEDS - 1]))
            pad = _OFF_FOLD_SEEDS[:_INVERSE_SEEDS - len(seeds)]
            q_r, err_r, u_r = _least_squares(
                newton, target, np.concatenate((grid[seeds], pad)),
                np.concatenate((_chart_rows(pose[seeds]), np.zeros((len(pad), 4)))), tol)
            log.debug("inverse refinement: general, %d Newton passes", passes)
        if err_r < best:
            q = _wrapped(q_r)
            x = _pose_rows(params.length, u_r[:, None])[:, 0]
    q = (float(q[0]), float(q[1]))
    final = solve_tip_pose(params, pair_template.with_angles(*q), source, cal,
                           _seeded(settings, x), mode)
    with np.errstate(over="ignore"):
        error = float(np.linalg.norm(final.tip.position - p_target))
    return InverseResult(q=q, result=final, position_error=error,
                         within_reach=bool(error <= tol), basin_count=basin_count)


# The most recent model's coarse grid, as (key, (q, _Batch, row series or
# None)). Sequential queries on one model, as when `magbeam invert` answers
# setpoint after setpoint in a fixed field, solve their grid and the row of
# its series once. Every query builds the key, hits included: 22 us a call
# (median of single calls; 15 us the timeit minimum), about 9 % of a 0.24 ms
# query that hits (one pinned Xeon core). At
# the default grid size the entry, its angles, its batch, its series with
# the row's solved cells, and its key, holds 63 kB of a cold query's 435 kB
# peak (tracemalloc). It is replaced by one assignment, so concurrent
# queries at worst both solve.
_grid_memo: tuple | None = None


def _value_key(v):
    """``v`` as a key equal to another's only if the two are equal in type
    and value: a dataclass by every one of its fields, so that a field
    added later is keyed with no further code; a tuple item by item; an
    array by dtype, shape and bytes; a float by its bits, so that 0.0 and
    -0.0 differ; anything else as itself."""
    if isinstance(v, float):
        return (type(v), v.hex())
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, tuple):
        return tuple([_value_key(x) for x in v])
    names = _field_names(type(v))
    if names is not None:
        return (type(v), *[_value_key(getattr(v, n)) for n in names])
    return (type(v), v)


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of the dataclass ``cls``; None if it is none."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _coarse_grid(params: RobotParams, pair: RingPairConfig, source: DipoleSource,
                 cal: FieldCalibration, settings: SolverSettings, mode: BeamFormulation,
                 grid_size: int) -> tuple[np.ndarray, _Batch, _RowSeries | None]:
    """The angles and :class:`_Batch` rows of the cold-solved ``grid_size``
    x ``grid_size`` grid of :func:`invert_controls`, and the series of the
    row theta2 = 0, every array read-only: one :func:`_sweep_rows` call on
    ``grid_size`` angles in [0, 2 pi) for both rings, or the previous
    call's if every input of the grid solve is equal in type and value.
    The series (:func:`_row_series`) is built for a source whose position
    and moment lie on e1 from the cells (``_AXIS_ANGLES``, 0) of one more
    :func:`_sweep_rows` call, whatever the grid size, at ``settings`` with
    ``_INVERSE_STOP`` times its position tolerance, or ``_AXIS_EPS``
    epsilons of the robot's length if that is more; it is None if one of
    them did not converge, or if the series' last harmonics, which measure
    its error between the cells, exceed ``_AXIS_TAIL`` times the tolerance.
    No row is solved where a grid cell at theta2 = 0 failed: the row holds
    its angle for a grid size dividing 48, and fails there too.

    The key is :func:`_value_key` of all the arguments, with the
    template's angles set to 0 because the grid replaces them.
    Raises :class:`DivergenceError` if no grid seed converges; such a grid
    is not kept, so it raises again on the next call.
    """
    global _grid_memo
    key = _value_key((params, pair.with_angles(0.0, 0.0), source, cal, settings, mode,
                      grid_size))
    memo = _grid_memo
    if memo is not None and memo[0] == key:
        log.debug("inverse grid: hit")
        return memo[1]
    log.debug("inverse grid: miss")
    angles = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    grid, batch = _sweep_rows(params, pair, source, cal, settings, mode, angles, angles)
    ok = batch.converged
    if not ok.any():
        raise DivergenceError("no grid seed converged")
    log.debug("inverse grid: %d of %d seeds failed", (~ok).sum(), ok.size)
    for a in (grid, *batch):
        a.flags.writeable = False
    series = None
    if not (source.position[1:].any() or source.moment[1:].any()) and ok[::grid_size].all():
        tight = replace(settings, position_tolerance=max(
            _INVERSE_STOP * settings.position_tolerance,
            _AXIS_EPS * np.finfo(float).eps * params.length))
        row = _sweep_rows(params, pair, source, cal, tight, mode, _AXIS_ANGLES, [0.0])[1]
        if row.converged.all():
            series = _row_series(_chart_rows(row.pose))
            m = _AXIS_ROW // 2 + 1
            tail = np.hypot(series.coef[m - 4:m, :2], series.coef[2 * m - 4:, :2]).max()
            if tail > _AXIS_TAIL * settings.position_tolerance:
                series = None
    _grid_memo = (key, (grid, batch, series))
    return grid, batch, series


def _newton_pass(params: RobotParams, pair: RingPairConfig, source: DipoleSource,
                 mode: BeamFormulation, k_b: float, q: np.ndarray, u: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step on the fixed point u = G(u; q) of M cases, with the
    sensitivity of the fixed point to the angles.

    ``q`` (M, 2) holds magnet angles and ``u`` (M, 4) beam coordinates
    (p_y, p_z, a, b); G is one evaluation of the wrench and beam kernels
    at the pose ``_pose_rows(L, u.T)``, as in one iteration of
    :func:`_solve_batch`. Its Jacobians dG/du and dG/dq are forward
    differences with the steps ``_INVERSE_H``, and all 7 M evaluations go
    through the kernels as one pass. Returns the corrected coordinates
    u + (I - dG/du)^-1 (G - u) and the implicit-function sensitivities
    S = (I - dG/du)^-1 dG/dq (M, 4, 2), which at a fixed point are du/dq.
    A row whose pass is singular or non-finite, or whose I - dG/du is
    singular, comes back NaN. Rows are told apart only when one test over
    the pass fails or the batched solve finds a singular matrix; either
    way a good row's numbers do not depend on the others present.
    """
    us = (u[:, None] + _INVERSE_STENCIL[:, :4]).reshape(-1, 4)
    qs = (q[:, None] + _INVERSE_STENCIL[:, 4:]).reshape(-1, 2)
    rings = _ring_rows(pair, source, np.full(len(qs), k_b), qs)
    with np.errstate(all="ignore"):  # singular and non-finite rows are masked below
        w, r2 = _ring_pair_wrench_rows(rings, _pose_rows(params.length, us.T))
        g = _cantilever_rows(params.length, params.bending_stiffness, mode, w).T
        g = g.reshape(-1, 7, 4)  # row-major again, one (7, 4) block per case
        # column j of jac is dG along input j: 4 beam coordinates, then 2 angles
        jac = ((g[:, 1:] - g[:, :1]) / _INVERSE_H[:, None]).swapaxes(1, 2)
        # the system [I - dG/du | G - u | dG/dq], one (4, 7) block per case
        system = np.concatenate([np.eye(4) - jac[..., :4], (g[:, 0] - u)[..., None],
                                 jac[..., 4:]], axis=2)
    a, rhs = system[..., :4], system[..., 4:]
    ok = sol = None  # ok stays None while every row is good
    if r2.min() > 0.0 and np.isfinite(system).all():
        with contextlib.suppress(np.linalg.LinAlgError):  # some I - dG/du is singular
            sol = np.linalg.solve(a, rhs)
    if sol is None:
        ok = (r2.reshape(len(q), -1) > 0.0).all(axis=1) & np.isfinite(system).all(axis=(1, 2))
        system[~ok] = np.eye(4, 7)  # [I | 0]
        ok &= np.linalg.det(a) != 0.0
        system[~ok] = np.eye(4, 7)
        sol = np.linalg.solve(a, rhs)
    u_new, sens = u + sol[..., 0], sol[..., 1:]
    if ok is not None:
        u_new[~ok], sens[~ok] = np.nan, np.nan
    return u_new, sens


def _least_squares(newton, target: np.ndarray, q: np.ndarray, u: np.ndarray, tol: float):
    """Multi-start Levenberg-Marquardt on r(q) = p(q) - p_target, coupled to
    Newton on the beam coordinates.

    ``q`` holds one seed per row and ``u`` its (M, 4) beam coordinates
    (p_y, p_z, a, b); ``target`` is p_target - L e1, whose x is a miss no
    angle moves. ``newton`` maps angles (M, 2) and coordinates (M, 4) to
    corrected ones and their sensitivities S = du/dq (M, 4, 2), NaN where
    it fails, as :func:`_newton_pass` does. A point's miss is that of its
    corrected coordinates, with the (p_y, p_z) rows of S as its Jacobian.
    Each step is one ``newton`` call over the trial points of every live
    seed, one per damping in ``_INVERSE_DAMPING``, each started from the
    coordinates u + S dq that the seed's sensitivity predicts; a trial
    that fails scores +inf. The seeds are stepped in place: a step reads
    the rows of the live seeds through the index array ``live``, and a
    seed takes its best trial, with that trial's corrected coordinates,
    sensitivity and error, only if it lowers the seed's error. A seed
    stops, by leaving ``live``, once a step gains at most
    ``_INVERSE_GAIN`` times the position tolerance ``tol`` (a target out
    of reach ends so), or after ``_INVERSE_STEPS`` steps; all stop once
    one seed is within ``_INVERSE_STOP`` times ``tol``. Returns
    (q, |r(q)|, u) of the first seed within that bound, else of the one
    with the smallest error.
    """
    def evaluate(points, coords):  # (N, 2), (N, 4) -> u, S, |r| or inf
        u, sens = newton(points, coords)
        r = u[:, :2] - target[1:]
        err = np.sqrt(target[0] * target[0] + np.add.reduce(r * r, axis=1))
        if not (np.isfinite(u).all() and np.isfinite(sens).all()):
            err[~(np.isfinite(u).all(axis=1) & np.isfinite(sens).all(axis=(1, 2)))] = np.inf
        return u, sens, err

    within, negligible = _INVERSE_STOP * tol, _INVERSE_GAIN * tol
    mu = np.asarray(_INVERSE_DAMPING)[:, None]
    q = np.array(q, dtype=float)
    with np.errstate(all="ignore"):  # a failed or singular trial is just rejected
        u, sens, err = evaluate(q, np.asarray(u, dtype=float))
        # the rows of the seeds still stepping; none steps if one is within already
        live = np.flatnonzero(np.isfinite(err) & ~(err <= within).any())
        for _ in range(_INVERSE_STEPS):
            if not live.size:
                break
            lu, ls = u[live], sens[live]
            # damped normal equations (J^T J + mu tr(J^T J) I) step = -J^T r,
            # one per damping, solved by Cramer's rule
            jac = ls[:, :2]
            a = np.einsum("sij,sik->sjk", jac, jac)
            g = np.einsum("sij,si->sj", jac, lu[:, :2] - target[1:])[:, None]
            a01 = a[:, 0, 1, None, None]
            diag = a.diagonal(axis1=1, axis2=2)[:, None]
            damped = diag + mu * diag.sum(axis=-1, keepdims=True)  # a_jj + mu tr, per mu
            step = a01 * g[..., ::-1] - damped[..., ::-1] * g
            step /= damped[..., :1] * damped[..., 1:] - a01 * a01
            length = np.sqrt(np.add.reduce(step * step, axis=-1, keepdims=True))
            step *= np.minimum(1.0, _INVERSE_MAX_STEP / length)
            trial = (q[live, None] + step).reshape(-1, 2)
            predicted = lu[:, None] + np.einsum("sij,stj->sti", ls, step)
            ut, st, et = evaluate(trial, predicted.reshape(-1, 4))
            # each seed's best trial, as rows of the flattened trials
            best = np.argmin(et.reshape(len(live), -1), axis=1) + np.arange(0, len(et), len(mu))
            gain = err[live] - et[best]
            better = gain > 0.0  # no trial gained: the seed keeps its point
            rows, best = live[better], best[better]
            q[rows], u[rows], sens[rows], err[rows] = trial[best], ut[best], st[best], et[best]
            if (err[rows] <= within).any():  # one seed is within: all stop
                break
            live = live[gain > negligible]
    done = np.flatnonzero(err <= within)
    s = done[0] if done.size else np.argmin(err)
    return q[s], err[s], u[s]


def _axis_refinement(target: np.ndarray, series: _RowSeries, winner: np.ndarray,
                     tol: float):
    """The refinement of :func:`invert_controls` for a source whose position
    and moment lie on e1, in the one unknown D = theta1 - theta2.

    Such a source gives tip(theta1 + t, theta2 + t) = R_x(t) tip(theta1,
    theta2), so the tip's squared distance rho^2 from the axis is a
    function of D alone, and turning both rings by t turns the tip by t.
    rho^2 is even in D, since a mirror through a plane that holds e1, with
    every moment flipped, negates D, so D = 0 and D = pi are extrema; on
    the ring pairs modelled it falls from the rim of the reach at D = 0 to
    the rim at D = pi of the hole about the axis that rings set apart
    leave. ``series`` holds the solved cells of the row theta2 = 0 and
    their interpolant s(D) (:func:`_row_series`), ``winner`` the grid
    winner's angles, and ``target`` and ``tol`` those of :func:`_least_squares`.
    The row is solved tightly enough for the series to stand for the model
    (see ``_AXIS_ROW`` and ``_AXIS_TAIL``), so the refinement evaluates no
    kernel:
    1. rho^2 - |target_yz|^2 is read at the solved cells in [0, pi]. Where
       it changes sign between neighbours, the crossing nearest the
       winner's |D| (taken in [0, pi]) is bracketed by them and solved on
       the series (:func:`_series_root`), and D is that root or its mirror
       twin, its negative, whichever lies on the winner's side of the fold
       D = 0. A winner on D = 0 or pi is as near to the one as to the
       other, and of the two answers the lexicographically smaller q wins,
       as on the grid. Where it changes sign nowhere, the target lies past
       the rim, whose nearest point is at D = 0, or in the hole, at D =
       pi, and D and u are that cell's.
    2. Both angles turn by the polar angle from the tip to the target, or
       by the winner's theta2 for a target on the axis, which has none.
    Returns (q, |r(q)|, u) as :func:`_least_squares` does, q in [0, 2 pi).
    """
    half = _AXIS_ROW // 2  # the cell at pi
    nodes, v = _AXIS_ANGLES[:half + 1], series.cells[:half + 1]
    d = float(winner[0] - winner[1])

    def turned(x, v):  # the answer at D = x, with u there leading v
        # turn both rings by the polar angle from the tip to the target
        turn = (math.atan2(target[2], target[1]) - math.atan2(v[1], v[0]) if r2
                else winner[1])
        cos, sin = math.cos(turn), math.sin(turn)
        u = np.array([cos * v[0] - sin * v[1], sin * v[0] + cos * v[1],
                      cos * v[2] - sin * v[3], sin * v[2] + cos * v[3]])
        r = u[:2] - target[1:]
        miss = math.sqrt(target[0] * target[0] + r[0] * r[0] + r[1] * r[1])
        return _wrapped(np.array([x + turn, turn])), miss, u

    with np.errstate(all="ignore"):  # a far target is missed
        r2 = target[1] * target[1] + target[2] * target[2]
        f = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] - r2
        cross = np.flatnonzero(f[:-1] * f[1:] <= 0.0)
        if not cross.size:
            c = half if f[0] > 0.0 else 0  # the cell at pi, or at 0
            return turned(float(nodes[c]), v[c])
        # the crossings, linearly interpolated (fmax maps the 0/0 of two
        # zeros to the first node), and the one nearest the winner's |D|
        at = nodes[:-1] + (nodes[1:] - nodes[:-1]) * np.fmax(f[:-1] / (f[:-1] - f[1:]), 0.0)
        c = cross[np.argmin(np.abs(at[cross] - abs(math.remainder(d, 2.0 * np.pi))))]
        # plain floats: the root steps one scalar at a time
        x, v = _series_root(series, r2, float(nodes[c]), float(nodes[c + 1]), f[c + 1] > f[c],
                            float(at[c]), _INVERSE_STOP * _INVERSE_STOP * tol)
        # the root x on the winner's side of the fold, its twin -x on the
        # other, and both for a winner on the fold, sin D = 0 to rounding
        # (a grid's D = pi is a difference of rounded angles)
        side = math.sin(d)
        twins = []
        if side > -1e-12:
            twins.append(turned(x, v))
        if side < 1e-12:
            twins.append(turned(-x, series.at(-x)))
    return min(twins, key=lambda t: tuple(t[0]))


def _wrapped(q: np.ndarray) -> np.ndarray:
    """Angles ``q`` taken to [0, 2 pi): a tiny negative angle rounds up to
    2 pi, and the second mod makes it 0."""
    return np.mod(np.mod(q, 2.0 * np.pi), 2.0 * np.pi)


class _RowSeries(NamedTuple):
    """The solved cells of a theta2 = 0 row and their trigonometric
    interpolant u(D), from :func:`_row_series`, every array read-only."""

    coef: np.ndarray  # (2m, 6): [cos kD | sin kD], k < m, times it is [u(D) | d(p_y, p_z)/dD]
    cells: np.ndarray  # (_AXIS_ROW, 4) u at the row's cells, as solved

    def at(self, x):
        """[u | d(p_y, p_z)/dD] at D = ``x``: (6,) for a float, (N, 6) for (N,)."""
        kx = np.multiply.outer(x, np.arange(len(self.coef) // 2))
        return np.concatenate((np.cos(kx), np.sin(kx)), axis=-1) @ self.coef


def _row_series(cells: np.ndarray) -> _RowSeries:
    """The trigonometric interpolant u(D) of the row ``cells`` (n, 4), n =
    ``_AXIS_ROW``, solved at the angles ``_AXIS_ANGLES``, with d(p_y,
    p_z)/dD: the sum over k <= n/2 of A_k cos kD + B_k sin kD, with the k
    = n/2 term halved (Trefethen, Spectral Methods in MATLAB, SIAM 2000,
    ch. 3). For a smooth 2 pi-periodic u it converges spectrally in n,
    down to the error of the row's samples, which :func:`_coarse_grid`
    solves to ``_INVERSE_STOP`` times the tolerance so that the series is
    the model to well within it, or else, where its last harmonics show
    that it is not (``_AXIS_TAIL``), does not use it."""
    n, m = _AXIS_ROW, _AXIS_ROW // 2 + 1
    k = np.arange(m + 0.0)
    kd = np.multiply.outer(_AXIS_ANGLES, k)
    table = np.concatenate((np.cos(kd), np.sin(kd)), axis=1)  # the one _RowSeries.at builds
    ab = np.vecdot(table.T[:, None], cells.T) * (2.0 / n)
    ab[[0, m - 1]] *= 0.5  # the mean and the k = n/2 term are sums over n
    a, b = ab[:m, :2], ab[m:, :2]
    coef = np.concatenate((ab, np.concatenate((k[:, None] * b, -k[:, None] * a))), axis=1)
    series = _RowSeries(coef, cells)
    for a in series:
        a.flags.writeable = False
    return series


def _series_root(series: _RowSeries, r2: float, lo: float, hi: float, rising: bool,
                 x: float, fine: float):
    """The root of rho^2(D) = r2 on ``series``, with rho^2 = u_0^2 + u_1^2,
    in the bracket [lo, hi] on which rho^2 - r2 rises if ``rising``, else
    falls: Newton steps from ``x``, each a step to the bracket's middle
    where it would leave the bracket (a zero slope included), until the
    distance from the axis is within ``fine`` of sqrt(r2), the step would
    not move D, or after ``_INVERSE_STEPS`` steps. Returns (D, the series
    at D); no kernel is evaluated."""
    radius = math.sqrt(r2)
    v = series.at(x)
    for _ in range(_INVERSE_STEPS):
        uy, uz, _, _, dy, dz = v.tolist()
        rho2 = uy * uy + uz * uz
        if abs(math.sqrt(rho2) - radius) <= fine:
            break
        if (rho2 < r2) == rising:
            lo = x
        else:
            hi = x
        slope = 2.0 * (uy * dy + uz * dz)  # d rho^2 / dD
        step = (r2 - rho2) / slope if slope else math.nan
        if not lo < x + step < hi:
            step = 0.5 * (lo + hi) - x
        if x + step == x:
            break
        x += step
        v = series.at(x)
    return x, v


def _count_basins(cells: np.ndarray, shape: tuple[int, int]) -> int:
    """Connected components of the cells ``cells``, flat theta1-major
    indices into a grid of ``shape`` (the tied converged cells of
    :func:`invert_controls`), under 4-adjacency with 2 pi wrap."""
    n, m = shape
    left = set(cells.tolist())
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            i, j = divmod(stack.pop(), m)
            for c in (((i + 1) % n) * m + j, ((i - 1) % n) * m + j,
                      i * m + (j + 1) % m, i * m + (j - 1) % m):
                if c in left:
                    left.remove(c)
                    stack.append(c)
    return count

"""Steady-state tip pose under magneto-mechanical coupling.

The coupled problem p = g(p), where g evaluates the magnetic wrench at
the current tip pose and maps it back through the cantilever model, is
solved by fixed-point iteration with Aitken's dynamic relaxation
(Kuettler & Wall, Comput. Mech. 43, 2008): every case adapts its own
relaxation factor from its last two residuals. The map is also inverted
numerically, by a grid search and a batched least-squares refinement, to
find the magnet rotations that reach a target tip position.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .beam import BeamFormulation, RobotParams, TipPose, Wrench, _cantilever_rows
from .geomag import (
    E1,
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    FieldSingularityError,
    RingPairConfig,
    UNIT_TANGENT_TOL,
    _SINGULAR,
    _as_vec3,
    _dot,
    _ring_pair_wrench_rows,
    _ring_rows,
)

log = logging.getLogger(__name__)

# Cases per batched fixed-point call; bounds the working memory of a batch
# whatever the number of cases. Peak tracemalloc use is about 0.6 kB per
# case for coincident rings and 0.9 kB for separated ones.
_BATCH_CASES = 4096


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the trust region or went non-finite."""


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    ``initial_tip`` seeds the iteration. ``None`` starts it at the
    straight tip p0 + L e1 with tangent e1, a 3-vector at that position
    with tangent e1, and a :class:`TipPose` (finite, with a unit tangent;
    a neighbouring solve's tip, say) at that pose. ``relaxation`` is
    the first and smallest relaxation factor of the Aitken-accelerated
    iteration; 1 makes it a plain undamped iteration.
    """

    position_tolerance: float = 1e-6  # [m]
    max_iterations: int = 1000
    relaxation: float = 0.5  # first and smallest relaxation factor, in (0, 1]
    initial_tip: np.ndarray | TipPose | None = None  # [m], or a pose

    def __post_init__(self):
        if not (self.position_tolerance > 0.0):
            raise ContractViolation("position_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ContractViolation("max_iterations must be >= 1")
        if not (0.0 < self.relaxation <= 1.0):
            raise ContractViolation("relaxation must lie in (0, 1]")
        seed = self.initial_tip
        if isinstance(seed, TipPose):
            # plain floats: a warm sweep builds one of these per point
            values = seed.position.tolist() + seed.tangent.tolist()
            if not all(map(math.isfinite, values)):
                raise ContractViolation("initial_tip pose must be finite")
            if abs(math.hypot(*values[3:]) - 1.0) > UNIT_TANGENT_TOL:
                raise ContractViolation("initial_tip tangent must have unit norm")
        elif seed is not None:
            object.__setattr__(self, "initial_tip", _as_vec3(seed))


@dataclass(frozen=True)
class EquilibriumResult:
    """A solve's exit pose and its wrench.

    ``residual`` is the position part ||g(p) - p|| of the stop test; a
    converged solve has also moved its tangent by at most the position
    tolerance over L in its last iteration.
    """

    tip: TipPose
    wrench: Wrench
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
    returns g(p). Raises :class:`DivergenceError` if the residual exceeds
    10 L or any value goes non-finite, and :class:`FieldSingularityError`
    if a ring reaches the source. This is the one-case call of the
    batched loop :func:`_solve_batch`.
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

    A row holds what :func:`solve_tip_pose` returns for its case, or in
    ``error`` the message of the exception it raises (``None`` if none).
    """

    tip: np.ndarray  # (N, 3) [m]
    tangent: np.ndarray  # (N, 3)
    wrench: np.ndarray  # (N, 6) force [N] | torque [N*m]
    iterations: np.ndarray  # (N,)
    residual: np.ndarray  # (N,) [m]
    converged: np.ndarray  # (N,) bool
    error: np.ndarray  # (N,) object: str or None


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
    ``_BATCH_CASES`` at a time, which changes no result.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1, 2)
    n_cases = len(angles)
    ei = np.full(n_cases, ei, dtype=float)
    k_b = np.full(n_cases, k_b, dtype=float)
    chunks = [
        _solve_chunk(params, pair, source, settings, mode,
                     angles[a:a + _BATCH_CASES], ei[a:a + _BATCH_CASES],
                     k_b[a:a + _BATCH_CASES])
        for a in range(0, n_cases, _BATCH_CASES)
    ]
    if len(chunks) == 1:
        return chunks[0]
    return _Batch(*(np.concatenate(column) for column in zip(*chunks)))


def _solve_chunk(params, pair, source, settings, mode, angles, ei, k_b) -> _Batch:
    n_cases = len(angles)
    out = _Batch(
        tip=np.full((n_cases, 3), np.nan), tangent=np.full((n_cases, 3), np.nan),
        wrench=np.full((n_cases, 6), np.nan),
        iterations=np.full(n_cases, settings.max_iterations),
        residual=np.full(n_cases, np.nan), converged=np.zeros(n_cases, dtype=bool),
        error=np.full(n_cases, None, dtype=object),
    )
    L = params.length
    straight = params.straight_tip
    seed, seed_tangent = settings.initial_tip, E1
    if seed is None:
        seed = straight
    elif isinstance(seed, TipPose):
        seed, seed_tangent = seed.position, seed.tangent
    lam = settings.relaxation
    tol = settings.position_tolerance
    bail2 = (10.0 * L) ** 2

    # the rows of the cases still iterating, and their state: the pose,
    # the relaxation factor and the previous residual g(p) - p, NaN before
    # the first iteration so that it takes the factor ``relaxation``
    rows = np.arange(n_cases)
    rings = _ring_rows(pair, source, k_b, angles)
    ei = ei[:, None]
    p = np.tile(seed, (n_cases, 1))
    n = np.tile(seed_tangent, (n_cases, 1))
    omega = np.full((n_cases, 1), lam)
    d_old = np.full((n_cases, 3), np.nan)
    with np.errstate(all="ignore"):  # non-finite values are reported below
        for k in range(1, settings.max_iterations + 1):
            w, r2 = _ring_pair_wrench_rows(rings, p, n)
            p_new, n_new = _cantilever_rows(straight, L, ei, mode, w)
            d = p_new - p
            d2 = _dot(d, d)
            dn = n_new - n
            change = np.sqrt(np.maximum(d2, L * L * _dot(dn, dn)))
            # NaN fails both tests: a singular or non-finite case stops too
            going = (change > tol) & (d2 <= bail2)
            if not going.all():
                residual = np.sqrt(d2)
                converged = change <= tol
                singular = ~going & (r2 <= 0.0).any(axis=1)
                diverged = ~going & ~converged & ~singular
                out.error[rows[singular]] = _SINGULAR
                for r, res in zip(rows[diverged], residual[diverged]):
                    out.error[r] = f"fixed-point residual {res:.3g} m after {k} iterations"
                if converged.any():
                    c = rows[converged]
                    out.wrench[c], r2c = _ring_pair_wrench_rows(
                        rings.take(converged), p_new[converged], n_new[converged])
                    final_singular = (r2c <= 0.0).any(axis=1)
                    out.tip[c], out.tangent[c] = p_new[converged], n_new[converged]
                    out.iterations[c] = k
                    out.residual[c] = residual[converged]
                    out.converged[c] = ~final_singular
                    out.error[c[final_singular]] = _SINGULAR
                rows = rows[going]
                if rows.size == 0:
                    break
                p, p_new, n_new, d, d2, d_old, omega, ei = (
                    p[going], p_new[going], n_new[going], d[going], d2[going],
                    d_old[going], omega[going], ei[going])
                rings = rings.take(going)
            # Aitken's factor w <- w r_old . (r_old - r) / |r_old - r|^2,
            # clipped to [relaxation, 1]; fmax maps a NaN (no previous
            # residual, or no change in it) to the floor
            dd = d_old - d
            omega = np.fmin(np.fmax(omega * (_dot(d_old, dd) / _dot(dd, dd))[:, None],
                                    lam), 1.0)
            p = p_new - (1.0 - omega) * d  # (1 - w) p + w g(p)
            n = n_new
            d_old = d
        else:  # unconverged: the last relaxed iterate, with its own wrench
            out.tip[rows], out.tangent[rows] = p, n
            out.wrench[rows] = _ring_pair_wrench_rows(rings, p, n)[0]
            out.residual[rows] = np.sqrt(d2)
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
    warm_start: bool = True,
) -> list[SweepPoint]:
    """Evaluate the forward model over a grid or zipped list of angles.

    A Cartesian grid (``zipped=False``, theta1-major order) is solved as
    one vectorised batch, every point seeded from ``settings.initial_tip``
    (the straight tip if unset); each point gets what
    :func:`solve_tip_pose` gives it, to within the solver's rounding. A
    point whose solve fails is reported failed, with no retry.
    ``warm_start`` applies to zipped schedules alone and is accepted and
    ignored for grids. With it a schedule is solved one point after
    another, each seeded at the pose (position and tangent) of the
    previous converged tip; without it a schedule is one batch like a
    grid. Empty or non-finite angle sequences raise
    :class:`ContractViolation` before any solve.
    """
    t1 = list(theta1_values)
    t2 = list(theta2_values)
    if not t1 or not t2:
        raise ContractViolation("angle sequences must be nonempty")
    if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
        raise ContractViolation("angles must be finite")
    if zipped:
        if len(t1) != len(t2):
            raise ContractViolation("zipped sweep needs equal-length sequences")
        qs = list(zip(t1, t2))
    else:
        qs = [(a, b) for a in t1 for b in t2]

    if not (zipped and warm_start):
        batch = _solve_batch(params, pair_template, source, settings, mode, qs,
                             params.bending_stiffness, cal.k_b)
        return [_sweep_point(q, batch, k) for k, q in enumerate(qs)]

    out: list[SweepPoint] = []
    seed = settings.initial_tip
    for q in qs:
        pair = pair_template.with_angles(*q)
        local = replace(settings, initial_tip=seed)
        try:
            res = solve_tip_pose(params, pair, source, cal, local, mode)
        except (DivergenceError, FieldSingularityError) as exc:
            out.append(SweepPoint(q=q, result=None, error=str(exc)))
            seed = settings.initial_tip
            continue
        out.append(SweepPoint(q=q, result=res))
        seed = res.tip if res.converged else settings.initial_tip
    return out


def _tips(points: list[SweepPoint]) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3) tip positions of sweep points, NaN where a point has no
    result, and their (N,) converged flags."""
    tips = np.full((len(points), 3), np.nan)
    converged = np.zeros(len(points), dtype=bool)
    for k, pt in enumerate(points):
        if pt.result is not None:
            tips[k] = pt.result.tip.position
            converged[k] = pt.result.converged
    return tips, converged


def _sweep_point(q, batch: _Batch, k: int) -> SweepPoint:
    if batch.error[k] is not None:
        return SweepPoint(q=q, result=None, error=batch.error[k])
    return SweepPoint(q=q, result=_equilibrium(batch, k))


def _equilibrium(batch: _Batch, k: int) -> EquilibriumResult:
    """Case ``k`` of a batch whose ``error`` is ``None``."""
    return EquilibriumResult(
        tip=TipPose(batch.tip[k], batch.tangent[k]),
        wrench=Wrench(batch.wrench[k, :3], batch.wrench[k, 3:]),
        iterations=int(batch.iterations[k]),
        residual=float(batch.residual[k]),
        converged=bool(batch.converged[k]),
    )


# Refinement of invert_controls: multi-start Levenberg-Marquardt on the
# residual r(q) = p(q) - p_target, every seed in one batch per step.
_INVERSE_SEEDS = 5  # the lexicographic winner and the next best grid cells
_INVERSE_H = 1e-5  # [rad] forward-difference step of the Jacobian dp/dq
_INVERSE_TIGHTEN = 1e-4  # difference and trial solves: this times the tolerance
_INVERSE_DAMPING = (1e-9, 1e-2, 1.0)  # trial damping mu, over trace(J^T J)
_INVERSE_MAX_STEP = 0.25  # [rad] longest trial step
_INVERSE_STEPS = 30
_INVERSE_STOP = 1e-3  # a seed stops below, or gaining less than, this times the tolerance


@dataclass(frozen=True)
class InverseResult:
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
    cold batch. Among cells tied within the solver position tolerance of
    the smallest error the lexicographically smallest q wins;
    ``basin_count`` reports the number of distinct clusters of tied
    cells. Unless the winner is already within tolerance, it and the next
    best cells seed a Levenberg-Marquardt least-squares solve of
    p(q) = target: every step solves, for all seeds in one batch, a few
    damped trial steps together with the forward differences that give
    the Jacobian at each, and every seed keeps its best trial while the
    error falls. The seeds run together because one alone can stall on
    the theta1 = theta2 fold, where the swap symmetry of the rings makes
    the Jacobian singular. These solves use 1e-4 times the position
    tolerance. The answer is a plain :func:`solve_tip_pose` at
    ``settings``. Repeated calls give bit-identical answers. Targets
    outside the sampled reachable set are answered with the nearest
    configuration found and ``within_reach = False``. Raises
    :class:`ContractViolation` for a non-finite target and
    :class:`DivergenceError` if no grid seed converges.
    """
    if grid_size < 1:
        raise ContractViolation("grid_size must be >= 1")
    p_target = _as_vec3(getattr(target, "position", target))
    if not np.isfinite(p_target).all():
        raise ContractViolation("target must be finite")
    tol = settings.position_tolerance
    angles = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    grid = np.stack(np.meshgrid(angles, angles, indexing="ij"), axis=-1).reshape(-1, 2)
    coarse = _solve_batch(params, pair_template, source, settings, mode, grid,
                          params.bending_stiffness, cal.k_b)
    ok = coarse.converged
    if not ok.any():
        raise DivergenceError("no grid seed converged")
    log.debug("inverse grid: %d of %d seeds failed", (~ok).sum(), ok.size)
    errs = np.full(ok.size, np.inf)
    errs[ok] = np.linalg.norm(coarse.tip[ok] - p_target, axis=1)
    straight = params.straight_tip
    reach = np.linalg.norm(coarse.tip[ok] - straight, axis=1).max()
    within_reach = bool(np.linalg.norm(p_target - straight) <= reach * 1.05 + tol)

    best = errs.min()
    tied = errs <= best + tol
    first = np.flatnonzero(tied)[0]  # theta1-major order: the lexicographic winner
    basin_count = _count_basins(tied.reshape(grid_size, grid_size))

    q = grid[first]
    if best > tol:
        order = np.argsort(errs, kind="stable")
        others = order[(order != first) & np.isfinite(errs[order])]
        seeds = grid[np.concatenate(([first], others[:_INVERSE_SEEDS - 1]))]
        tight = replace(settings, position_tolerance=tol * _INVERSE_TIGHTEN)

        def tips(qs):
            batch = _solve_batch(params, pair_template, source, tight, mode, qs,
                                 params.bending_stiffness, cal.k_b)
            return np.where(batch.converged[:, None], batch.tip, np.nan)

        q_lm, r_lm = _least_squares(tips, p_target, seeds, _INVERSE_STOP * tol)
        if np.linalg.norm(r_lm) < best:
            q = np.mod(q_lm, 2.0 * np.pi)
    q = (float(q[0]), float(q[1]))
    final = solve_tip_pose(params, pair_template.with_angles(*q), source, cal,
                           settings, mode)
    error = float(np.linalg.norm(final.tip.position - p_target))
    return InverseResult(q=q, result=final, position_error=error,
                         within_reach=within_reach, basin_count=basin_count)


def _least_squares(tips, p_target: np.ndarray, q: np.ndarray, stop: float):
    """Multi-start Levenberg-Marquardt on r(q) = tips(q) - p_target.

    ``tips`` maps (M, 2) angles to (M, 3) tips, NaN where a solve failed;
    ``q`` holds one seed per row. Each step is one ``tips`` call over the
    trial points of every live seed, one per damping in
    ``_INVERSE_DAMPING``, each with its two forward-difference neighbours,
    so that the accepted trial brings its own Jacobian. A seed stops when
    no trial lowers its error by more than ``stop``, or after
    ``_INVERSE_STEPS`` steps; all stop once one seed is within ``stop``.
    Returns (q, r(q)) of the first seed within ``stop``, else of the one
    with the smallest error.
    """
    q = np.array(q, dtype=float)
    stencil = np.array([[0.0, 0.0], [_INVERSE_H, 0.0], [0.0, _INVERSE_H]])

    def evaluate(points):  # (..., 2) -> r (..., 3), Jacobian (..., 3, 2), |r| or inf
        p = tips((points[..., None, :] + stencil).reshape(-1, 2))
        p = p.reshape(points.shape[:-1] + (3, 3))
        r = p[..., 0, :] - p_target
        jac = (p[..., 1:, :] - p[..., :1, :]).swapaxes(-1, -2) / _INVERSE_H
        err = np.linalg.norm(r, axis=-1)
        return r, jac, np.where(np.isfinite(jac).all(axis=(-1, -2)), err, np.inf)

    mu = np.asarray(_INVERSE_DAMPING)
    with np.errstate(all="ignore"):  # a failed or singular trial is just rejected
        r, jac, err = evaluate(q)
        live = np.isfinite(err)
        for _ in range(_INVERSE_STEPS):
            if not live.any() or (err <= stop).any():
                break
            idx = np.flatnonzero(live)
            # damped normal equations (J^T J + mu tr(J^T J) I) step = -J^T r,
            # one per damping, solved in closed form
            a = np.einsum("sij,sik->sjk", jac[idx], jac[idx])[:, None]
            g = np.einsum("sij,si->sj", jac[idx], r[idx])[:, None]
            d = mu * (a[..., 0, 0] + a[..., 1, 1])
            a00, a11, a01 = a[..., 0, 0] + d, a[..., 1, 1] + d, a[..., 0, 1]
            step = np.stack([a01 * g[..., 1] - a11 * g[..., 0],
                             a01 * g[..., 0] - a00 * g[..., 1]], axis=-1)
            step /= (a00 * a11 - a01 * a01)[..., None]
            length = np.linalg.norm(step, axis=-1, keepdims=True)
            trial = q[idx, None] + step * np.minimum(1.0, _INVERSE_MAX_STEP / length)
            rt, jt, et = evaluate(trial)
            k = (np.arange(len(idx)), np.argmin(et, axis=1))  # each seed's best trial
            gain = err[idx] - et[k]
            upd = idx[gain > 0.0]
            q[upd], r[upd], jac[upd], err[upd] = (
                x[k][gain > 0.0] for x in (trial, rt, jt, et))
            live[idx] = gain > stop
    done = np.flatnonzero(err <= stop)
    s = done[0] if done.size else np.argmin(err)
    return q[s], r[s]


def _count_basins(mask: np.ndarray) -> int:
    """Connected components of a boolean grid, 4-adjacency with 2 pi wrap."""
    n, m = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for i0 in range(n):
        for j0 in range(m):
            if not mask[i0, j0] or seen[i0, j0]:
                continue
            count += 1
            stack = [(i0, j0)]
            seen[i0, j0] = True
            while stack:
                i, j = stack.pop()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = (i + di) % n, (j + dj) % m
                    if mask[ii, jj] and not seen[ii, jj]:
                        seen[ii, jj] = True
                        stack.append((ii, jj))
    return count

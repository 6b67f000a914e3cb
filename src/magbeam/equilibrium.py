"""Steady-state tip pose under magneto-mechanical coupling.

The coupled problem p = g(p), where g evaluates the magnetic wrench at
the current tip pose and maps it back through the cantilever model, is
solved by damped fixed-point iteration. The map is also inverted
numerically to find the magnet rotations that reach a target tip
position.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .beam import BeamFormulation, RobotParams, TipPose, Wrench, _cantilever
from .geomag import (
    E1,
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    FieldSingularityError,
    RingPairConfig,
    _as_vec3,
    _ring_pair_wrench,
    tip_wrench,
)

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Fixed-point iteration left the trust region or went non-finite."""


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-point solver controls.

    ``initial_tip = None`` seeds the iteration at the straight tip
    position p0 + L e1.
    """

    position_tolerance: float = 1e-6  # [m]
    max_iterations: int = 1000
    relaxation: float = 0.5  # damping factor in (0, 1]
    initial_tip: np.ndarray | None = None  # [m]

    def __post_init__(self):
        if not (self.position_tolerance > 0.0):
            raise ContractViolation("position_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ContractViolation("max_iterations must be >= 1")
        if not (0.0 < self.relaxation <= 1.0):
            raise ContractViolation("relaxation must lie in (0, 1]")
        if self.initial_tip is not None:
            object.__setattr__(self, "initial_tip", _as_vec3(self.initial_tip))


@dataclass(frozen=True)
class EquilibriumResult:
    tip: TipPose
    wrench: Wrench
    iterations: int
    residual: float  # [m] fixed-point residual ||g(p) - p|| at exit
    converged: bool


def solve_tip_pose(
    params: RobotParams,
    pair: RingPairConfig,
    source: DipoleSource,
    cal: FieldCalibration,
    settings: SolverSettings = SolverSettings(),
    mode: BeamFormulation = BeamFormulation.CORRECTED,
) -> EquilibriumResult:
    """Damped fixed-point solve for the equilibrium tip pose.

    Iterates p <- (1 - lam) p + lam g(p), where g composes the tip wrench
    with the cantilever map using the tangent from the previous iterate,
    until the undamped residual ||g(p) - p|| drops below the position
    tolerance. Raises :class:`DivergenceError` if the residual exceeds
    10 L or any value goes non-finite.
    """
    L = params.length
    ei = params.bending_stiffness
    straight = params.straight_tip
    pe_scaled = cal.k_b * source.position
    p = (settings.initial_tip if settings.initial_tip is not None else straight).copy()
    n = E1.copy()
    lam = settings.relaxation
    bail = 10.0 * L

    residual = np.inf
    for k in range(1, settings.max_iterations + 1):
        f, tau = _ring_pair_wrench(source.moment, pe_scaled, cal.k_b, pair, p, n)
        p_new, n_new = _cantilever(straight, L, ei, mode, f, tau)
        residual = float(np.linalg.norm(p_new - p))
        if not np.isfinite(residual) or residual > bail:
            raise DivergenceError(
                f"fixed-point residual {residual:.3g} m after {k} iterations"
            )
        if residual <= settings.position_tolerance:
            final = TipPose(p_new, n_new)
            w_final = tip_wrench(pair, final, source, cal)
            return EquilibriumResult(
                tip=final, wrench=w_final, iterations=k,
                residual=residual, converged=True,
            )
        p = (1.0 - lam) * p + lam * p_new
        n = n_new
    return EquilibriumResult(
        tip=TipPose(p, n),
        wrench=Wrench(f, tau),
        iterations=settings.max_iterations,
        residual=residual, converged=False,
    )


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

    Cartesian order is theta1-major. With ``warm_start`` each solve is
    seeded at the previous converged tip; with it disabled every point is
    seeded from ``settings.initial_tip``, which makes the points fully
    independent (safe to evaluate in any order) while preserving the
    output ordering.
    """
    t1 = list(theta1_values)
    t2 = list(theta2_values)
    if not t1 or not t2:
        raise ContractViolation("angle sequences must be nonempty")
    if zipped:
        if len(t1) != len(t2):
            raise ContractViolation("zipped sweep needs equal-length sequences")
        qs = list(zip(t1, t2))
    else:
        qs = [(a, b) for a in t1 for b in t2]

    out: list[SweepPoint] = []
    seed = settings.initial_tip
    for q in qs:
        pair = pair_template.with_angles(*q)
        local = replace(settings, initial_tip=seed) if warm_start else settings
        try:
            res = solve_tip_pose(params, pair, source, cal, local, mode)
        except (DivergenceError, FieldSingularityError) as exc:
            out.append(SweepPoint(q=q, result=None, error=str(exc)))
            seed = settings.initial_tip
            continue
        out.append(SweepPoint(q=q, result=res))
        if warm_start:
            seed = res.tip.position if res.converged else settings.initial_tip
    return out


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
    simplex_tolerance: float = 1e-3,
) -> InverseResult:
    """Find magnet rotations that bring the tip to a target position.

    Seeds a grid over [0, 2 pi)^2, then refines the best seed with a
    Nelder-Mead simplex (terminating when the simplex diameter falls
    below ``simplex_tolerance`` rad). Among seeds tied within the solver
    position tolerance the lexicographically smallest q wins.
    ``basin_count`` reports the number of distinct grid-seed clusters
    whose error is within tolerance of the best. Targets outside the
    sampled reachable set are answered with the nearest achievable
    configuration and ``within_reach = False``.
    """
    p_target = _as_vec3(getattr(target, "position", target))
    angles = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)

    def objective(q) -> float:
        try:
            res = solve_tip_pose(
                params, pair_template.with_angles(q[0], q[1]), source, cal,
                settings, mode,
            )
        except (DivergenceError, FieldSingularityError) as exc:
            log.debug("inverse probe diverged at q=%s: %s", q, exc)
            return np.inf
        if not res.converged:
            return np.inf
        return float(np.linalg.norm(res.tip.position - p_target))

    straight = params.straight_tip
    coarse = sweep(
        params, pair_template, source, cal, settings, mode,
        angles, angles, warm_start=False,
    )
    errs = np.full((grid_size, grid_size), np.inf)
    radii = []
    for k, pt in enumerate(coarse):
        if pt.result is None or not pt.result.converged:
            if pt.error is not None:
                log.debug("inverse grid seed failed at q=%s: %s", pt.q, pt.error)
            continue
        i, j = divmod(k, grid_size)
        errs[i, j] = float(np.linalg.norm(pt.result.tip.position - p_target))
        radii.append(float(np.linalg.norm(pt.result.tip.position - straight)))
    reach = max(radii) if radii else 0.0
    target_radius = float(np.linalg.norm(p_target - straight))
    within_reach = target_radius <= reach * 1.05 + settings.position_tolerance

    best = float(np.min(errs))
    tol = settings.position_tolerance
    tied = np.argwhere(errs <= best + tol)
    # lexicographic winner by (theta1, theta2)
    si, sj = min(map(tuple, tied))
    q0 = np.array([angles[si], angles[sj]])

    basin_count = _count_basins(errs <= best + tol)

    if best > tol:
        res = minimize(
            objective, q0, method="Nelder-Mead",
            options={
                "xatol": simplex_tolerance,
                "fatol": tol * 1e-3,
                "maxiter": 400,
                "initial_simplex": np.array([
                    q0,
                    q0 + [angles[1] if grid_size > 1 else 0.1, 0.0],
                    q0 + [0.0, angles[1] if grid_size > 1 else 0.1],
                ]),
            },
        )
        if np.isfinite(res.fun) and res.fun < best:
            q0 = np.mod(res.x, 2.0 * np.pi)

    q_final = (float(q0[0]), float(q0[1]))
    final = solve_tip_pose(
        params, pair_template.with_angles(*q_final), source, cal, settings, mode
    )
    return InverseResult(
        q=q_final,
        result=final,
        position_error=float(np.linalg.norm(final.tip.position - p_target)),
        within_reach=within_reach,
        basin_count=basin_count,
    )


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

"""Workspace reconstruction and analysis.

Merges bi-planar (top/side camera) tip tracks into 3D points, fits a
direct least-squares ellipse to the transverse projection, and reports
deflection statistics of the reachable set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomag import ContractViolation, _is_count

X_TOLERANCE = 2e-3  # [m], the largest x disagreement merge_biplanar leaves unflagged


class EllipseFitError(ValueError):
    """Input degenerate or the best-fit conic is not an ellipse."""


@dataclass(frozen=True)
class PlanarTrack:
    """Tip positions from one camera view.

    ``plane`` is 'top' (x-y view) or 'side' (x-z view); ``points`` are the
    2-D in-plane coordinates (x first), ``indices`` the frame indices.
    """

    plane: str
    points: np.ndarray  # (N, 2) [m]
    indices: np.ndarray | None = None

    def __post_init__(self):
        if self.plane not in ("top", "side"):
            raise ContractViolation("plane must be 'top' or 'side'")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ContractViolation("points must have shape (N, 2)")
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("points must be finite")
        object.__setattr__(self, "points", pts)
        idx = np.arange(len(pts)) if self.indices is None else np.asarray(self.indices)
        if idx.shape != (len(pts),) or (len(idx) > 1 and not np.all(np.diff(idx) > 0)):
            raise ContractViolation("indices must be strictly increasing, one per point")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class MergedTrack:
    points: np.ndarray  # (N, 3) [m]
    x_mismatch: np.ndarray  # (N,) bool, True where views disagree in x


def merge_biplanar(top: PlanarTrack, side: PlanarTrack) -> MergedTrack:
    """Combine index-aligned top (x-y) and side (x-z) tracks into 3D.

    y comes from the top view, z from the side view, and x is the average
    of the two views' x. Points whose x readings disagree by more than
    ``X_TOLERANCE`` are flagged, not dropped.
    """
    if top.plane != "top" or side.plane != "side":
        raise ContractViolation("pass the top (x-y) track first, side (x-z) second")
    if len(top.points) != len(side.points):
        raise ContractViolation("tracks must have equal length")
    if not np.array_equal(top.indices, side.indices):
        raise ContractViolation("tracks must be index-aligned")
    xt = top.points[:, 0]
    xs = side.points[:, 0]
    merged = np.column_stack([0.5 * (xt + xs), top.points[:, 1], side.points[:, 1]])
    return MergedTrack(points=merged, x_mismatch=np.abs(xt - xs) > X_TOLERANCE)


@dataclass(frozen=True)
class EllipseFit:
    """A fitted ellipse: center and semi-axes a >= b > 0 [m], major-axis
    angle in [0, pi) [rad] and RMS orthogonal distance of the points [m]."""

    center: np.ndarray  # (2,) [m]
    semi_axes: tuple[float, float]  # (a, b), a >= b > 0 [m]
    orientation: float  # [rad], major axis angle from the first coordinate
    rms_distance: float  # [m], RMS geometric point-to-ellipse distance

    def sample(self, n: int = 256) -> np.ndarray:
        """``n`` (an integer >= 1, a bool not) points along the ellipse, for plotting."""
        if not _is_count(n):
            raise ContractViolation("n must be an integer >= 1")
        t = np.linspace(0.0, 2.0 * math.pi, n)
        a, b = self.semi_axes
        c, s = math.cos(self.orientation), math.sin(self.orientation)
        R = np.array([[c, -s], [s, c]])
        return self.center + (R @ np.vstack([a * np.cos(t), b * np.sin(t)])).T


def _conic_to_geometric(coef: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Convert conic coefficients (A, B, C, D, E, F) for
    A x^2 + B x y + C y^2 + D x + E y + F = 0 to center/axes/angle."""
    A, B, C, D, E, F = coef
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        raise EllipseFitError("fitted conic is not an ellipse")
    cx = (2.0 * C * D - B * E) / disc
    cy = (2.0 * A * E - B * D) / disc
    # value of the quadratic form at the center
    Fc = A * cx * cx + B * cx * cy + C * cy * cy + D * cx + E * cy + F
    M = np.array([[A, B / 2.0], [B / 2.0, C]])
    evals, evecs = np.linalg.eigh(M)
    if np.any(evals * (-Fc) <= 0.0):
        raise EllipseFitError("degenerate ellipse")
    axes = np.sqrt(-Fc / evals)  # semi-axis along each eigenvector
    order = np.argsort(axes)[::-1]  # major first
    a, b = float(axes[order[0]]), float(axes[order[1]])
    major = evecs[:, order[0]]
    angle = math.atan2(major[1], major[0])
    if angle < 0.0:
        angle += math.pi  # orientation is only defined modulo pi
    return np.array([cx, cy]), a, b, angle


def _fit_conic_ellipse(points: np.ndarray) -> np.ndarray:
    """Numerically stable direct least-squares ellipse fit (Halir-Flusser).

    Returns conic coefficients with the ellipse constraint
    4AC - B^2 = 1 enforced exactly.
    """
    x, y = points.T
    D1 = np.column_stack([x * x, x * y, y * y])
    D2 = np.column_stack([x, y, np.ones_like(x)])
    S1 = D1.T @ D1
    S2 = D1.T @ D2
    S3 = D2.T @ D2
    try:
        T = -np.linalg.solve(S3, S2.T)
    except np.linalg.LinAlgError as exc:
        raise EllipseFitError("degenerate point configuration") from exc
    M = S1 + S2 @ T
    C1inv_M = np.array([M[2] / 2.0, -M[1], M[0] / 2.0])
    evals, evecs = np.linalg.eig(C1inv_M)
    evecs_r = np.real(evecs)
    cond = 4.0 * evecs_r[0] * evecs_r[2] - evecs_r[1] ** 2
    good = np.where((np.abs(np.imag(evals)) < 1e-12) & (cond > 0.0))[0]
    if good.size == 0:
        raise EllipseFitError("no ellipse solution found")
    a1 = evecs_r[:, good[0]]
    return np.concatenate([a1, T @ a1])


_NEWTON_TOL, _MAX_NEWTON = 1e-9, 100


def nearest_ellipse_points(
    center: np.ndarray,
    semi_axes: tuple[float, float],
    orientation: float,
    points: np.ndarray,
) -> np.ndarray:
    """Distance from each point to its nearest point on the ellipse.

    Works in the ellipse frame; the nearest parametric angle is located by
    a coarse scan followed by Newton iterations on the stationarity
    condition of the squared distance, at most ``_MAX_NEWTON`` of them, until
    every step moves its point by less than ``_NEWTON_TOL``.
    """
    a, b = semi_axes
    c, s = math.cos(orientation), math.sin(orientation)
    R = np.array([[c, -s], [s, c]])
    local = (np.atleast_2d(points) - center) @ R  # rows: points in ellipse frame
    x, y = local[:, 0], local[:, 1]

    tgrid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    d2 = (a * np.cos(tgrid)[None, :] - x[:, None]) ** 2 \
        + (b * np.sin(tgrid)[None, :] - y[:, None]) ** 2
    t = tgrid[np.argmin(d2, axis=1)]

    for _ in range(_MAX_NEWTON):
        ct, st = np.cos(t), np.sin(t)
        # g(t) = d/dt [ (a ct - x)^2 + (b st - y)^2 ] / 2
        g = (b * b - a * a) * st * ct + a * x * st - b * y * ct
        gp = (b * b - a * a) * (ct * ct - st * st) + a * x * ct + b * y * st
        step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
        step = np.clip(step, -0.5, 0.5)
        t = t - step
        if np.all(np.abs(step) * max(a, b) < _NEWTON_TOL):
            break
    ct, st = np.cos(t), np.sin(t)
    return np.hypot(a * ct - x, b * st - y)


def fit_ellipse(points) -> EllipseFit:
    """Direct algebraic least-squares ellipse fit with geometric RMS.

    Needs at least 6 non-collinear points. The reported RMS is the
    root-mean-square orthogonal distance from each input point to the
    fitted ellipse (pairwise summation for a deterministic reduction).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 6:
        raise ContractViolation("need at least 6 points of shape (N, 2)")
    if not np.all(np.isfinite(pts)):
        raise ContractViolation("points must be finite")
    # collinearity check via the smaller singular value of the centered cloud
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise EllipseFitError("points are collinear")
    coef = _fit_conic_ellipse(pts)
    center, a, b, angle = _conic_to_geometric(coef)
    d = nearest_ellipse_points(center, (a, b), angle, pts)
    rms = math.sqrt(float(np.sum(d * d)) / len(d))
    return EllipseFit(center=center, semi_axes=(a, b), orientation=angle,
                      rms_distance=rms)


@dataclass(frozen=True)
class WorkspaceStats:
    """Largest |y| and |z| and mean y-z distance of tips from the straight tip [m]."""

    max_deflection_y: float  # [m]
    max_deflection_z: float  # [m]
    mean_deflection: float  # [m], mean transverse (y-z) deflection magnitude


def workspace_stats(points3d, straight_tip) -> WorkspaceStats:
    """Deflection statistics of tip points relative to the straight pose."""
    pts = np.atleast_2d(np.asarray(points3d, dtype=float))
    if pts.size == 0:
        raise ContractViolation("points3d must be nonempty")
    ref = np.asarray(straight_tip, dtype=float)
    d = pts - ref
    return WorkspaceStats(
        max_deflection_y=float(np.max(np.abs(d[:, 1]))),
        max_deflection_z=float(np.max(np.abs(d[:, 2]))),
        mean_deflection=float(np.mean(np.hypot(d[:, 1], d[:, 2]))),
    )

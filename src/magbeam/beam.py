"""Small-deflection cantilever mechanics of the robot body.

The robot is a cantilever of length L clamped at its base, the origin,
with its undeformed axis along e1. A wrench applied at the tip produces a
linear tip deflection; the classical closed forms are end-moment
deflection M L^2 / (2 EI) and end-force deflection F L^3 / (3 EI), both
scaled by the dimensionless stiffness factor of :class:`RobotParams`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
import math

import numpy as np

from .geomag import E1, ContractViolation, Wrench, _dot, _frozen_vec3, _is_count


class BeamFormulation(Enum):
    """Which force coefficient the tip-position formula uses.

    CORRECTED uses L^3/3, the value obtained by integrating the curvature
    profile (and the classical cantilever result). LEGACY keeps the L^3/6
    coefficient found in earlier derivations, retained for comparison
    runs. The tangent formula is identical in both modes.
    """

    CORRECTED = "corrected"
    LEGACY = "legacy"


@dataclass(frozen=True)
class TipPose:
    """Tip position and unit tangent. Its arrays are read-only copies of
    the ones it was given."""

    position: np.ndarray  # [m]
    tangent: np.ndarray  # unit vector

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_vec3(self.position))
        object.__setattr__(self, "tangent", _frozen_vec3(self.tangent))


@dataclass(frozen=True)
class RobotParams:
    """Geometry and stiffness of the robot body, cantilevered at the origin.

    The single bending stiffness used everywhere is
    ``stiffness_scale * elastic_modulus * section_moment``.
    """

    length: float  # [m]
    elastic_modulus: float  # [Pa]
    section_moment: float  # [m^4]
    stiffness_scale: float = 1.0  # dimensionless

    def __post_init__(self):
        values = (self.length, self.elastic_modulus, self.section_moment,
                  self.stiffness_scale)
        if not all(v > 0 and math.isfinite(v) for v in values):
            raise ContractViolation(
                "length, elastic_modulus, section_moment and stiffness_scale "
                "must all be finite and > 0"
            )
        if not (0.0 < self.bending_stiffness < math.inf):
            raise ContractViolation("bending stiffness must be finite and > 0")

    @property
    def bending_stiffness(self) -> float:
        """Effective EI [N*m^2]."""
        return self.stiffness_scale * self.elastic_modulus * self.section_moment

    @property
    def straight_tip(self) -> np.ndarray:
        """Tip position L e1 of the unloaded (straight) robot."""
        return self.length * E1


def tip_pose_from_wrench(
    params: RobotParams,
    w: Wrench,
    mode: BeamFormulation = BeamFormulation.CORRECTED,
) -> TipPose:
    """Closed-form tip pose of the cantilever under a tip wrench.

    p = L e1 + (1/EI) (L^2/2 tau x e1 + c L^3 (e1 x f) x e1)
    with c = 1/3 (corrected) or 1/6 (legacy), and
    n = normalize(e1 + (L/EI) (tau + L/2 e1 x f) x e1).
    """
    x = _pose_rows(params.length, _cantilever_rows(params.length, params.bending_stiffness,
                                                   mode, w.as_stacked()[None]))
    return TipPose(position=x[0, :3], tangent=x[0, 3:])


# the wrench components (f | tau) of each coefficient of _compliance, and
# the pose columns (p | n) that the beam coordinates (p_y, p_z, a, b) fill
_GATHER = np.array([1, 2, 1, 2, 5, 4, 5, 4])
_CHART = np.array([1, 2, 4, 5])


@lru_cache(maxsize=16)
def _compliance(L: float, mode: BeamFormulation) -> np.ndarray:
    """The linear part of :func:`tip_pose_from_wrench` as the (8,)
    coefficients ``k`` of the wrench components that ``_GATHER`` picks:
    with ``wk = w[_GATHER] * k``, EI times the beam coordinates
    (p_y, p_z, a, b) of :func:`_cantilever_rows` is ``wk[:4] + wk[4:]``,
    one force and one torque term. With (e1 x f) x e1 = (0, f_y, f_z) and
    tau x e1 = (0, tau_z, -tau_y) only f_y, f_z, tau_y and tau_z act."""
    h = 0.5 * L * L
    c = L**3 / 3.0 if mode is BeamFormulation.CORRECTED else L**3 / 6.0
    k = np.array([c, c, h, h,  # c L^3 f_y, c L^3 f_z, L^2/2 f_y, L^2/2 f_z
                  h, -h, L, -L])  # L^2/2 tau_z, -L^2/2 tau_y, L tau_z, -L tau_y
    k.flags.writeable = False
    return k


def _cantilever_rows(L: float, ei, mode: BeamFormulation, w: np.ndarray) -> np.ndarray:
    """Beam coordinates u = (p_y, p_z, a, b), (N, 4), of N cases under the
    stacked tip wrenches ``w`` (N, 6) = (f | tau), with bending stiffness
    ``ei`` (a scalar or an (N, 1) column): the tip lies at (L, p_y, p_z)
    with the tangent normalize(1, a, b), which :func:`_pose_rows` builds.

    The one beam kernel, unvalidated: :func:`tip_pose_from_wrench` calls
    it on one row and the equilibrium solver on every case it iterates.
    Every step works within a row (a gather, products, a sum of two
    terms), so a row's result does not depend on how many rows there are,
    which a BLAS matrix product would not promise.
    """
    wk = w[:, _GATHER] * _compliance(L, mode)
    return (wk[:, :4] + wk[:, 4:]) / ei


def _pose_rows(L: float, u: np.ndarray) -> np.ndarray:
    """Tip poses (p | n), (N, 6), at the (N, 4) beam coordinates ``u`` =
    (p_y, p_z, a, b): p = (L, p_y, p_z) and n = normalize(1, a, b), its norm
    from a vecdot within the row. :func:`_chart_rows` is the inverse."""
    x = np.empty((len(u), 6))
    x[:, ::3] = L, 1.0
    x[:, _CHART] = u
    t = x[:, 3:]
    t /= np.sqrt(_dot(t, t))[:, None]
    return x


def _chart_rows(x: np.ndarray) -> np.ndarray:
    """The beam coordinates (p_y, p_z, n_y/n_x, n_z/n_x), (N, 4), of tip
    poses (p | n) that have p_x = L and n_x > 0, as :func:`_pose_rows` builds."""
    return np.column_stack([x[:, 1:3], x[:, 4:] / x[:, 3:4]])


def centerline(params: RobotParams, w: Wrench, n_samples: int) -> np.ndarray:
    """Centerline positions from the base at the origin, at ``n_samples``
    (an integer >= 2, a bool not) uniform arclengths in [0, L].

    The curvature kappa(s) = (tau + (L - s) e1 x f) / EI is integrated
    twice by composite trapezoid; the endpoint matches the corrected-mode
    closed form to quadrature accuracy.
    """
    if not (_is_count(n_samples) and n_samples >= 2):
        raise ContractViolation("n_samples must be an integer >= 2")
    ei = params.bending_stiffness
    L = params.length
    s = np.linspace(0.0, L, n_samples)
    e1xf = np.cross(E1, w.force)
    kappa = (w.torque[None, :] + (L - s)[:, None] * e1xf[None, :]) / ei
    dtang = np.cross(kappa, E1)
    tang = E1[None, :] + _cumulative_trapezoid(dtang, s)
    return _cumulative_trapezoid(tang, s)


def _cumulative_trapezoid(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the rows of ``y`` over ``s``, from 0."""
    steps = 0.5 * np.diff(s)[:, None] * (y[1:] + y[:-1])
    return np.concatenate([np.zeros((1, y.shape[1])), np.cumsum(steps, axis=0)])


def section_moment_tube(outer_diameter: float, inner_diameter: float) -> float:
    """Second moment of area of an annular (or solid) circular section,
    finite or a :class:`ContractViolation`."""
    if not (outer_diameter > inner_diameter >= 0.0):
        raise ContractViolation("require outer_diameter > inner_diameter >= 0")
    try:
        moment = math.pi / 64.0 * (outer_diameter**4 - inner_diameter**4)
    except OverflowError:  # a float power overflows by raising, a product to inf
        moment = math.inf
    if not math.isfinite(moment):
        raise ContractViolation("the section moment is not finite")
    return moment

"""Small-deflection cantilever mechanics of the robot body.

The robot is a cantilever of length L clamped at its base with its
undeformed axis along e1. A wrench applied at the tip produces a linear
tip deflection; the classical closed forms are end-moment deflection
M L^2 / (2 EI) and end-force deflection F L^3 / (3 EI), both scaled by
the dimensionless stiffness factor of :class:`RobotParams`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .geomag import E1, ContractViolation, _as_vec3, _cross


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
class Wrench:
    """Force/torque pair applied at the robot tip."""

    force: np.ndarray  # [N]
    torque: np.ndarray  # [N*m]

    def __post_init__(self):
        object.__setattr__(self, "force", _as_vec3(self.force))
        object.__setattr__(self, "torque", _as_vec3(self.torque))
        if not (np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.torque))):
            raise ContractViolation("wrench entries must be finite")

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3))

    def as_stacked(self) -> np.ndarray:
        """Stacked 6-vector (f | tau)."""
        return np.concatenate([self.force, self.torque])


@dataclass(frozen=True)
class TipPose:
    """Tip position and unit tangent."""

    position: np.ndarray  # [m]
    tangent: np.ndarray  # unit vector

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        object.__setattr__(self, "tangent", _as_vec3(self.tangent))


@dataclass(frozen=True)
class RobotParams:
    """Geometry and stiffness of the cantilevered robot body.

    The single bending stiffness used everywhere is
    ``stiffness_scale * elastic_modulus * section_moment``.
    """

    length: float  # [m]
    elastic_modulus: float  # [Pa]
    section_moment: float  # [m^4]
    base_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    stiffness_scale: float = 1.0  # dimensionless

    def __post_init__(self):
        object.__setattr__(self, "base_position", _as_vec3(self.base_position))
        if not (self.length > 0 and self.elastic_modulus > 0
                and self.section_moment > 0 and self.stiffness_scale > 0):
            raise ContractViolation(
                "length, elastic_modulus, section_moment and stiffness_scale "
                "must all be > 0"
            )

    @property
    def bending_stiffness(self) -> float:
        """Effective EI [N*m^2]."""
        return self.stiffness_scale * self.elastic_modulus * self.section_moment

    @property
    def straight_tip(self) -> np.ndarray:
        """Tip position of the unloaded (straight) robot."""
        return self.base_position + self.length * E1


def tip_pose_from_wrench(
    params: RobotParams,
    w: Wrench,
    mode: BeamFormulation = BeamFormulation.CORRECTED,
) -> TipPose:
    """Closed-form tip pose of the cantilever under a tip wrench.

    p = p0 + L e1 + (1/EI) (L^2/2 tau x e1 + c L^3 (e1 x f) x e1)
    with c = 1/3 (corrected) or 1/6 (legacy), and
    n = normalize(e1 + (L/EI) (tau + L/2 e1 x f) x e1).
    """
    p, n = _cantilever(params.straight_tip, params.length,
                       params.bending_stiffness, mode, w.force, w.torque)
    return TipPose(position=p, tangent=n)


def _cantilever(straight: np.ndarray, L: float, ei: float, mode: BeamFormulation,
                f: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tip position and unit tangent under tip force ``f`` and torque ``tau``.

    Unvalidated kernel shared by :func:`tip_pose_from_wrench` and the
    equilibrium solver; ``straight`` is the unloaded tip position.
    """
    coef = L**3 / 3.0 if mode is BeamFormulation.CORRECTED else L**3 / 6.0
    e1xf = _cross(E1, f)
    p = straight + (1.0 / ei) * (
        0.5 * L * L * _cross(tau, E1) + coef * _cross(e1xf, E1)
    )
    n = E1 + (L / ei) * _cross(tau + 0.5 * L * e1xf, E1)
    n /= np.linalg.norm(n)
    return p, n


def centerline(params: RobotParams, w: Wrench, n_samples: int) -> np.ndarray:
    """Centerline positions at ``n_samples`` uniform arclengths in [0, L].

    The curvature kappa(s) = (tau + (L - s) e1 x f) / EI is integrated
    twice by composite trapezoid; the endpoint matches the corrected-mode
    closed form to quadrature accuracy.
    """
    if n_samples < 2:
        raise ContractViolation("n_samples must be >= 2")
    ei = params.bending_stiffness
    L = params.length
    s = np.linspace(0.0, L, n_samples)
    e1xf = np.cross(E1, w.force)
    kappa = (w.torque[None, :] + (L - s)[:, None] * e1xf[None, :]) / ei
    dtang = np.cross(kappa, E1)
    tang = E1[None, :] + cumulative_trapezoid(dtang, s, axis=0, initial=0.0)
    pos = params.base_position[None, :] + cumulative_trapezoid(
        tang, s, axis=0, initial=0.0
    )
    return pos


def section_moment_tube(outer_diameter: float, inner_diameter: float) -> float:
    """Second moment of area of an annular (or solid) circular section."""
    if not (outer_diameter > inner_diameter >= 0.0):
        raise ContractViolation("require outer_diameter > inner_diameter >= 0")
    return math.pi / 64.0 * (outer_diameter**4 - inner_diameter**4)

"""Point-dipole field, field gradient, and tip wrench computations.

All quantities are SI: positions in meters, moments in A*m^2, fields in
tesla, field gradients in T/m. The tip of the robot carries two
diametrically magnetized ring magnets whose moments rotate about the tip
tangent; their combined force/torque under an external dipole source is
assembled by :func:`tip_wrench`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

MU0 = 4.0e-7 * math.pi  # vacuum permeability [T*m/A]

UNIT_TANGENT_TOL = 1e-9

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class FieldSingularityError(ValueError):
    """Field requested at (or too close to) the dipole location."""


_SINGULAR = "field requested at the dipole position"


class ContractViolation(ValueError):
    """An input violates a documented precondition."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ContractViolation(f"expected a 3-vector, got shape {a.shape}")
    return a


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ x == v x x."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class DipoleSource:
    """External permanent magnet approximated as a point dipole."""

    moment: np.ndarray  # [A*m^2]
    position: np.ndarray  # [m]

    def __post_init__(self):
        object.__setattr__(self, "moment", _as_vec3(self.moment))
        object.__setattr__(self, "position", _as_vec3(self.position))
        if not np.all(np.isfinite(self.moment)):
            raise ContractViolation("dipole moment must be finite")


@dataclass(frozen=True)
class FieldCalibration:
    """Scalar field-strength/position correction factor.

    ``k_b`` multiplies the nominal dipole moment and rescales the source
    position; ``k_b = 1`` is the identity (nominal dipole model).
    """

    k_b: float = 1.0

    def __post_init__(self):
        if not (self.k_b > 0.0 and math.isfinite(self.k_b)):
            raise ContractViolation(f"k_b must be positive and finite, got {self.k_b}")


@dataclass(frozen=True)
class RingMagnet:
    """One diametrically magnetized ring at the robot tip.

    ``angle`` is stored unwrapped (no modular reduction) so sweep
    continuity is preserved; the field computations are 2*pi-periodic in
    it. ``axial_offset`` is the signed offset of the ring center from the
    tip point, measured along the tip tangent.
    """

    moment_magnitude: float  # [A*m^2]
    angle: float  # [rad]
    axial_offset: float = 0.0  # [m]

    def __post_init__(self):
        if not (self.moment_magnitude >= 0.0 and math.isfinite(self.moment_magnitude)):
            raise ContractViolation("moment_magnitude must be finite and >= 0")


@dataclass(frozen=True)
class RingPairConfig:
    """The two rotatable tip magnets (magnet_1 distal, magnet_2 proximal)."""

    magnet_1: RingMagnet
    magnet_2: RingMagnet
    separation: float = 0.0  # [m]

    def __post_init__(self):
        if self.separation < 0.0:
            raise ContractViolation("separation must be >= 0")
        gap = self.magnet_1.axial_offset - self.magnet_2.axial_offset
        if abs(gap - self.separation) > 1e-12:
            raise ContractViolation(
                "magnet axial offsets inconsistent with separation"
            )

    @classmethod
    def from_angles(
        cls,
        moment_magnitude: float,
        theta1: float,
        theta2: float,
        separation: float = 0.0,
    ) -> "RingPairConfig":
        """Equal-magnitude pair with magnet 1 at the tip and magnet 2 a
        distance ``separation`` behind it along the tangent."""
        return cls(
            magnet_1=RingMagnet(moment_magnitude, theta1, 0.0),
            magnet_2=RingMagnet(moment_magnitude, theta2, -separation),
            separation=separation,
        )

    def with_angles(self, theta1: float, theta2: float) -> "RingPairConfig":
        return RingPairConfig(
            magnet_1=replace(self.magnet_1, angle=theta1),
            magnet_2=replace(self.magnet_2, angle=theta2),
            separation=self.separation,
        )


@dataclass(frozen=True)
class FieldSample:
    """Field value and its spatial Jacobian at one point.

    ``gradient[i, j] = dB_i / dp_j``; for a dipole field away from the
    source this matrix is symmetric and traceless.
    """

    B: np.ndarray  # [T]
    gradient: np.ndarray  # [T/m]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross has noticeable call overhead for single 3-vectors; the
    # solver inner loop uses this instead.
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _field_raw(moment: np.ndarray, source_position: np.ndarray, scale: float,
               point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-light dipole field/gradient; inputs already validated."""
    P = point - source_position
    r2 = float(P @ P)
    if r2 <= 0.0:
        raise FieldSingularityError(_SINGULAR)
    r = math.sqrt(r2)
    u = P / r
    um = float(u @ moment)
    pref = scale * MU0 / (4.0 * math.pi)
    B = (pref / (r2 * r)) * (3.0 * um * u - moment)
    mu = np.outer(moment, u)
    G = (3.0 * pref / (r2 * r2)) * (
        mu + mu.T + um * (np.eye(3) - 5.0 * np.outer(u, u))
    )
    return B, G


def dipole_field(source: DipoleSource, point) -> FieldSample:
    """Field and analytic gradient of a point dipole.

    B = mu0/(4 pi) * (3 u (u . m) - m) / r^3 with u the unit displacement
    from the source to ``point`` and r its magnitude. The gradient is the
    closed-form Jacobian, not finite differences.
    """
    point = _as_vec3(point)
    B, G = _field_raw(source.moment, source.position, 1.0, point)
    return FieldSample(B=B, gradient=G)


def calibrated_field(source: DipoleSource, cal: FieldCalibration, point) -> FieldSample:
    """Dipole field with the k_b strength/position correction applied.

    Equivalent to evaluating the nominal dipole formula with the source
    moved to ``k_b * source.position`` and scaling the result (value and
    gradient) by ``k_b``. The gradient is taken with respect to ``point``.
    """
    point = _as_vec3(point)
    B, G = _field_raw(source.moment, cal.k_b * source.position, cal.k_b, point)
    return FieldSample(B=B, gradient=G)


def _rotation_e1_to(tangent: np.ndarray) -> np.ndarray:
    """Minimal (geodesic) rotation matrix carrying e1 onto ``tangent``.

    For tangent == -e1 the geodesic rotation is undefined; a half-turn
    about e2 is used as a deterministic convention.
    """
    c = float(E1 @ tangent)
    axis = np.cross(E1, tangent)
    s = float(np.linalg.norm(axis))
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        return np.diag([-1.0, 1.0, -1.0])  # pi about e2
    axis = axis / s
    K = skew(axis)
    angle = math.atan2(s, c)
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def ring_dipole_moment(magnet: RingMagnet, tangent) -> np.ndarray:
    """Moment vector of one ring magnet in the world frame.

    At zero angle the moment points along e3 in the base frame; it is
    rotated by the magnet angle about e1 (right-hand rule) and then
    carried into the tip frame by the minimal rotation mapping e1 onto
    the (unit) tip tangent. The result is orthogonal to the tangent.
    """
    tangent = _as_vec3(tangent)
    if abs(np.linalg.norm(tangent) - 1.0) > UNIT_TANGENT_TOL:
        raise ContractViolation("tangent must have unit norm")
    return _ring_moment(magnet.moment_magnitude, magnet.angle,
                        _rotation_e1_to(tangent))


def _ring_moment(magnitude: float, angle: float, R: np.ndarray) -> np.ndarray:
    """World-frame ring moment for the tip-frame rotation ``R``."""
    # np.sin, not math.sin: a non-finite angle gives NaN, which the solver
    # reports as divergence, instead of raising a bare ValueError
    return magnitude * (R @ np.array([0.0, -np.sin(angle), np.cos(angle)]))


def magnet_moment_from_geometry(
    outer_diameter: float,
    inner_diameter: float,
    length: float,
    remanence: float,
) -> float:
    """Dipole moment magnitude B_r * V / mu0 of a (possibly annular) cylinder."""
    if not (outer_diameter > inner_diameter >= 0.0):
        raise ContractViolation("require outer_diameter > inner_diameter >= 0")
    if not (length > 0.0):
        raise ContractViolation("length must be > 0")
    if not (remanence >= 0.0):
        raise ContractViolation("remanence must be >= 0")
    ro = outer_diameter / 2.0
    ri = inner_diameter / 2.0
    volume = math.pi * (ro**2 - ri**2) * length
    return remanence * volume / MU0


def _ring_pair_wrench(source_moment: np.ndarray, source_position: np.ndarray,
                      k_b: float, pair: RingPairConfig, p: np.ndarray,
                      n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Force and torque on the rings at tip position ``p``, unit tangent ``n``.

    Unvalidated kernel shared by :func:`tip_wrench` and the equilibrium
    solver; ``source_position`` is already scaled by ``k_b``.
    """
    R = _rotation_e1_to(n)
    f = np.zeros(3)
    tau = np.zeros(3)
    for magnet in (pair.magnet_1, pair.magnet_2):
        m = _ring_moment(magnet.moment_magnitude, magnet.angle, R)
        B, G = _field_raw(source_moment, source_position, k_b,
                          p + magnet.axial_offset * n)
        f += G.T @ m
        tau += _cross(m, B)
    tau += pair.separation * _cross(n, f)
    return f, tau


def _rows_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _ring_pair_wrench_rows(source_moment: np.ndarray, source_position: np.ndarray,
                           k_b: np.ndarray, pair: RingPairConfig, angles: np.ndarray,
                           p: np.ndarray, n: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_ring_pair_wrench` over N cases at once.

    ``source_position``, ``p`` and ``n`` are (N, 3), ``k_b`` is (N,) and
    ``angles`` (N, 2) replaces the angles of ``pair``'s two magnets. The
    minimal rotation e1 -> n is applied to each ring moment by Rodrigues'
    formula and the gradient force is contracted in closed form, so no
    3x3 matrix is built. Returns ``(f, tau, singular)``; ``singular``
    flags the rows whose field point coincides with the source, where
    ``f`` and ``tau`` are meaningless.
    """
    # minimal rotation e1 -> n: unit axis e1 x n / s, angle atan2(s, n_x)
    c = n[:, 0]
    s = np.hypot(n[:, 1], n[:, 2])
    turn = s >= 1e-15
    s_safe = np.where(turn, s, 1.0)
    angle = np.arctan2(s, c)
    sin_a = np.where(turn, np.sin(angle), 0.0)
    one_minus_cos = np.where(turn, 1.0 - np.cos(angle), 0.0)
    axis = np.stack([np.zeros_like(c), -n[:, 2] / s_safe, n[:, 1] / s_safe], axis=1)
    # n == -e1 is a half-turn about e2, as in _rotation_e1_to
    flip = np.where(~turn & (c <= 0.0), -1.0, 1.0)

    pref = k_b * (MU0 / (4.0 * math.pi))
    f = np.zeros_like(p)
    tau = np.zeros_like(p)
    singular = np.zeros(len(p), dtype=bool)
    for k, magnet in enumerate((pair.magnet_1, pair.magnet_2)):
        # ring moment at zero tangent tilt: magnitude * (0, -sin, cos)
        v = np.zeros_like(p)
        v[:, 1] = -np.sin(angles[:, k])
        v[:, 2] = flip * np.cos(angles[:, k])
        kxv = np.cross(axis, v)
        m = magnet.moment_magnitude * (
            v + sin_a[:, None] * kxv + one_minus_cos[:, None] * np.cross(axis, kxv))

        P = p + magnet.axial_offset * n - source_position
        r2 = _rows_dot(P, P)
        singular |= r2 <= 0.0
        r = np.sqrt(r2)
        u = P / r[:, None]
        um = u @ source_moment
        B = (pref / (r2 * r))[:, None] * (3.0 * um[:, None] * u - source_moment)
        # G m with G = c (m_s u^T + u m_s^T + (u . m_s)(I - 5 u u^T))
        u_m = _rows_dot(u, m)
        f += (3.0 * pref / (r2 * r2))[:, None] * (
            u_m[:, None] * source_moment + (m @ source_moment)[:, None] * u
            + um[:, None] * (m - 5.0 * u_m[:, None] * u))
        tau += np.cross(m, B)
    tau += pair.separation * np.cross(n, f)
    return f, tau, singular


def tip_wrench(pair: RingPairConfig, tip_pose, source: DipoleSource,
               cal: FieldCalibration | None = None):
    """Total magnetic force and torque on the ring pair at the tip.

    Force is the sum of gradient pulls on each magnet; torque is the sum
    of the alignment torques m_i x B(p_i) plus the separation lever arm
    acting on the total force.
    """
    from .beam import Wrench  # deferred to avoid a module cycle

    if cal is None:
        cal = FieldCalibration(1.0)
    n = _as_vec3(tip_pose.tangent)
    if abs(np.linalg.norm(n) - 1.0) > UNIT_TANGENT_TOL:
        raise ContractViolation("tip tangent must have unit norm")
    f, tau = _ring_pair_wrench(source.moment, cal.k_b * source.position,
                               cal.k_b, pair, _as_vec3(tip_pose.position), n)
    return Wrench(force=f, torque=tau)

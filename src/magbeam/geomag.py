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
from typing import NamedTuple

import numpy as np

MU0 = 4.0e-7 * math.pi  # vacuum permeability [T*m/A]

UNIT_TANGENT_TOL = 1e-9

E1 = np.array([1.0, 0.0, 0.0])


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
        if not math.isfinite(self.angle):
            raise ContractViolation("angle must be finite")


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
    v = magnet.moment_magnitude * np.array(
        [[[0.0, -np.sin(magnet.angle), np.cos(magnet.angle)]]])
    return _rotate_rows(v, tangent[None])[0, 0]


def _rotate_rows(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Moments ``v`` carried by the minimal rotation e1 -> n, per row.

    ``v`` is (N, K, 3), K moments orthogonal to e1 for each of the (N, 3)
    unit tangents ``n``. With k = e1 x n and c = n_x the rotation is
    v + k x v + k x (k x v) / (1 + c), which for v orthogonal to e1 is
    v + q (1, w n_y, w n_z) with q = -(n . v) and w = 1 / (1 + c). For
    c < 0, w is evaluated as (1 - c) / s^2 with s^2 = n_y^2 + n_z^2, which
    does not cancel near -e1; at n = -e1 itself, where no minimal
    rotation is defined, a half-turn about e2 is used.
    """
    c = n[:, 0]
    if c.min() < 0.0:
        s2 = n[:, 1] * n[:, 1] + n[:, 2] * n[:, 2]
        w = np.where(c < 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 1.0 / (1.0 + abs(c)))
        v = np.where(((c < 0.0) & (s2 == 0.0))[:, None, None], v * [1.0, 1.0, -1.0], v)
    else:
        w = 1.0 / (1.0 + c)
    h = n * w[:, None]
    h[:, 0] = 1.0
    q = -_dot(n[:, None, :], v)
    return v + q[..., None] * h[:, None, :]


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis. An einsum, not a BLAS product, so
    that a row's result does not depend on how many rows there are."""
    return np.einsum("...i,...i->...", a, b)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis of two arrays of one shape;
    ``np.cross`` costs far more on the few rows of a single solve."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(a.shape)
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


class _Rings(NamedTuple):
    """The per-case constants of :func:`_ring_pair_wrench_rows`, computed
    once per solve by :func:`_ring_rows`; row k belongs to case k."""

    v: np.ndarray  # (N, K, 3) ring moments at zero tangent tilt [A*m^2]
    offset: np.ndarray  # (K, 1) axial offsets of the rings [m]
    separation: float  # [m]
    moment: np.ndarray  # (3,) source moment [A*m^2]
    position: np.ndarray  # (N, 3) k_b-scaled source position [m]
    pref: np.ndarray  # (N, 1) k_b mu0 / (4 pi)

    def take(self, rows) -> "_Rings":
        return self._replace(v=self.v[rows], position=self.position[rows],
                             pref=self.pref[rows])


def _ring_rows(pair: RingPairConfig, source: DipoleSource, k_b: np.ndarray,
               angles: np.ndarray) -> _Rings:
    """Constants for N cases of ``pair`` with the (N, 2) magnet ``angles``
    and the (N,) field scales ``k_b``.

    A ring's moment at zero tangent tilt is magnitude * (0, -sin, cos) of
    its angle. Two rings at one axial offset (zero separation) see the
    same field, so they enter as one dipole of their summed moment (K = 1).
    """
    mag = np.array([pair.magnet_1.moment_magnitude, pair.magnet_2.moment_magnitude])
    v = np.zeros(angles.shape + (3,))
    v[..., 1] = -mag * np.sin(angles)
    v[..., 2] = mag * np.cos(angles)
    offset = np.array([[pair.magnet_1.axial_offset], [pair.magnet_2.axial_offset]])
    if offset[0, 0] == offset[1, 0]:
        v, offset = v.sum(axis=1, keepdims=True), offset[:1]
    return _Rings(v=v, offset=offset, separation=pair.separation, moment=source.moment,
                  position=k_b[:, None] * source.position,
                  pref=(k_b * (MU0 / (4.0 * math.pi)))[:, None])


def _ring_pair_wrench_rows(rings: _Rings, p: np.ndarray, n: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Force and torque on the rings of N cases at tip positions ``p`` and
    unit tangents ``n``, both (N, 3).

    The one wrench kernel, unvalidated: :func:`tip_wrench` calls it on
    one row and the equilibrium solver on every case it iterates. The
    gradient force G m is contracted in closed form, so no 3x3 matrix is
    built. Returns ``(w, r2)``: ``w`` (N, 6) stacks force and torque, and
    ``r2`` (N, K) holds the squared ring-to-source distances; a row with
    a zero there is singular, its ``w`` meaningless.
    """
    m = _rotate_rows(rings.v, n)
    P = (p - rings.position)[:, None, :] + rings.offset * n[:, None, :]
    r2 = _dot(P, P)
    ir = 1.0 / np.sqrt(r2)
    u = P * ir[..., None]
    ms = rings.moment
    um = _dot(u, ms)
    u_m = _dot(u, m)
    m_ms = _dot(m, ms)
    a = rings.pref * (ir * ir * ir)  # pref / r^3
    b = 3.0 * a * ir  # 3 pref / r^4
    B = a[..., None] * ((3.0 * um)[..., None] * u - ms)  # the field at each ring
    W = np.empty(r2.shape + (6,))
    # force G m with G = b (m_s u^T + u m_s^T + (u . m_s)(I - 5 u u^T)), torque m x B
    W[..., :3] = ((b * u_m)[..., None] * ms + (b * (m_ms - 5.0 * um * u_m))[..., None] * u
                  + (b * um)[..., None] * m)
    W[..., 3:] = _cross(m, B)
    w = W.sum(axis=1)
    if rings.separation:
        w[:, 3:] += rings.separation * _cross(n, w[:, :3])
    return w, r2


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
    rings = _ring_rows(pair, source, np.array([cal.k_b]),
                       np.array([[pair.magnet_1.angle, pair.magnet_2.angle]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        w, r2 = _ring_pair_wrench_rows(rings, _as_vec3(tip_pose.position)[None], n[None])
    if (r2 <= 0.0).any():
        raise FieldSingularityError(_SINGULAR)
    return Wrench(force=w[0, :3], torque=w[0, 3:])

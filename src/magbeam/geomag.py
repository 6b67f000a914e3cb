"""Point-dipole field, field gradient, and tip wrench computations.

All quantities are SI: positions in meters, moments in A*m^2, fields in
tesla, field gradients in T/m. The tip of the robot carries two
diametrically magnetized ring magnets whose moments rotate about the tip
tangent; their combined force/torque under an external dipole source is
assembled by :func:`tip_wrench`.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

MU0 = 4.0e-7 * math.pi  # vacuum permeability [T*m/A]

UNIT_TANGENT_TOL = 1e-9

E1 = np.array([1.0, 0.0, 0.0])
_EYE = np.eye(3)  # G contracted with e1, e2, e3: the columns of G


class FieldSingularityError(ValueError):
    """Field requested at (or too close to) the dipole location."""


_SINGULAR = "field requested at the dipole position"


class ContractViolation(ValueError):
    """An input violates a documented precondition."""


def _as_vec3(v, finite: str | None = None) -> np.ndarray:
    """``v`` as a float 3-vector; one that must also be finite if ``finite``
    gives its name for the ContractViolation."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ContractViolation(f"expected a 3-vector, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise ContractViolation(f"{finite} must be finite")
    return a


def _unit_vec3(v, name: str) -> np.ndarray:
    """``v`` as a finite float 3-vector of unit norm, to within
    ``UNIT_TANGENT_TOL``; ``name`` names it in the ContractViolation."""
    a = _as_vec3(v, name)
    if abs(np.linalg.norm(a) - 1.0) > UNIT_TANGENT_TOL:
        raise ContractViolation(f"{name} must have unit norm")
    return a


def _frozen_vec3(v, finite: str | None = None) -> np.ndarray:
    """:func:`_as_vec3` as a read-only copy, for a frozen dataclass: a
    later write to the caller's array does not reach the field."""
    a = _as_vec3(v, finite).copy()
    a.flags.writeable = False
    return a


def _is_count(n) -> bool:
    """Whether ``n`` is an integer (a numpy integer too, a bool not) >= 1."""
    return not isinstance(n, bool) and isinstance(n, (int, np.integer)) and n >= 1


@dataclass(frozen=True)
class DipoleSource:
    """External permanent magnet approximated as a point dipole. Its
    arrays are read-only copies of the ones it was given."""

    moment: np.ndarray  # [A*m^2]
    position: np.ndarray  # [m]

    def __post_init__(self):
        object.__setattr__(self, "moment", _frozen_vec3(self.moment, "dipole moment"))
        object.__setattr__(self, "position", _frozen_vec3(self.position, "dipole position"))


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
    it. Where the ring sits is set by :class:`RingPairConfig`.
    """

    moment_magnitude: float  # [A*m^2]
    angle: float  # [rad]

    def __post_init__(self):
        if not (self.moment_magnitude >= 0.0 and math.isfinite(self.moment_magnitude)):
            raise ContractViolation("moment_magnitude must be finite and >= 0")
        if not math.isfinite(self.angle):
            raise ContractViolation("angle must be finite")


@dataclass(frozen=True)
class RingPairConfig:
    """The two rotatable tip magnets: magnet_1 at the tip point, magnet_2
    ``separation`` behind it along the tip tangent."""

    magnet_1: RingMagnet
    magnet_2: RingMagnet
    separation: float = 0.0  # [m]

    def __post_init__(self):
        if not (0.0 <= self.separation < math.inf):
            raise ContractViolation("separation must be finite and >= 0")

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
        return cls(RingMagnet(moment_magnitude, theta1),
                   RingMagnet(moment_magnitude, theta2), separation)

    def with_angles(self, theta1: float, theta2: float) -> "RingPairConfig":
        return RingPairConfig(RingMagnet(self.magnet_1.moment_magnitude, theta1),
                              RingMagnet(self.magnet_2.moment_magnitude, theta2),
                              self.separation)


@dataclass(frozen=True)
class FieldSample:
    """Field value and its spatial Jacobian at one point.

    ``gradient[i, j] = dB_i / dp_j``; for a dipole field away from the
    source this matrix is symmetric and traceless.
    """

    B: np.ndarray  # [T]
    gradient: np.ndarray  # [T/m]


@dataclass(frozen=True)
class Wrench:
    """Force/torque pair applied at the robot tip."""

    force: np.ndarray  # [N]
    torque: np.ndarray  # [N*m]

    def __post_init__(self):
        object.__setattr__(self, "force", _as_vec3(self.force, "wrench force"))
        object.__setattr__(self, "torque", _as_vec3(self.torque, "wrench torque"))

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3))

    def as_stacked(self) -> np.ndarray:
        """Stacked 6-vector (f | tau)."""
        return np.concatenate([self.force, self.torque])


def dipole_field(source: DipoleSource, point) -> FieldSample:
    """Field and analytic gradient of a point dipole.

    B = mu0/(4 pi) * (3 u (u . m) - m) / r^3 with u the unit displacement
    from the source to ``point`` and r its magnitude. The gradient is the
    closed-form Jacobian, not finite differences. This is
    :func:`calibrated_field` at k_b = 1.
    """
    return calibrated_field(source, FieldCalibration(1.0), point)


def calibrated_field(source: DipoleSource, cal: FieldCalibration, point) -> FieldSample:
    """Dipole field with the k_b strength/position correction applied.

    Equivalent to evaluating the nominal dipole formula with the source
    moved to ``k_b * source.position`` and scaling the result (value and
    gradient) by ``k_b``. The gradient is taken with respect to ``point``,
    which must be finite and away from the moved source.
    """
    with np.errstate(all="ignore"):  # a distance whose square overflows gives no field
        P = _as_vec3(point, "field point") - cal.k_b * source.position
        r2 = _dot(P, P)
        if r2 <= 0.0:
            raise FieldSingularityError(_SINGULAR)
        B, Gm = _field_rows(source.moment, cal.k_b * (MU0 / (4.0 * math.pi)), P, r2, _EYE)
    return FieldSample(B=B, gradient=Gm.T)


def ring_dipole_moment(magnet: RingMagnet, tangent) -> np.ndarray:
    """Moment vector of one ring magnet in the world frame.

    At zero angle the moment points along e3 in the base frame; it is
    rotated by the magnet angle about e1 (right-hand rule) and then
    carried into the tip frame by the minimal rotation mapping e1 onto
    the (unit) tip tangent. The result is orthogonal to the tangent. A
    tangent that is not a finite 3-vector of unit norm raises
    :class:`ContractViolation`.
    """
    tangent = _unit_vec3(tangent, "tangent")
    v = magnet.moment_magnitude * np.array(
        [[[0.0, -np.sin(magnet.angle), np.cos(magnet.angle)]]])
    return _rotate_rows(v, tangent[None])[0, 0]


def _rotate_rows(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Moments ``v`` carried by the minimal rotation e1 -> n, per row.

    ``v`` is (N, K, 3), K moments orthogonal to e1 for each of the (N, 3)
    unit tangents ``n``. With k = e1 x n and c = n_x the rotation is
    v + k x v + k x (k x v) / (1 + c), which for v orthogonal to e1 is
    v - (n . v) (1, w n_y, w n_z) with w = 1 / (1 + c). For c < 0, w is
    evaluated as (1 - c) / s^2 with s^2 = n_y^2 + n_z^2, which does not
    cancel near -e1; at n = -e1 itself, where no minimal rotation is
    defined, a half-turn about e2 is used.
    """
    c = n[:, :1]
    if c.min() < 0.0:
        s2 = n[:, 1:2] * n[:, 1:2] + n[:, 2:] * n[:, 2:]
        w = np.where(c < 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 1.0 / (1.0 + abs(c)))
        v = np.where(((c < 0.0) & (s2 == 0.0))[:, None], v * [1.0, 1.0, -1.0], v)
    else:
        w = 1.0 / (1.0 + c)
    h = n * w
    h[:, 0] = 1.0
    return v - _dot(n[:, None], v)[..., None] * h[:, None]


def magnet_moment_from_geometry(
    outer_diameter: float,
    inner_diameter: float,
    length: float,
    remanence: float,
) -> float:
    """Dipole moment magnitude B_r * V / mu0 of a (possibly annular) cylinder,
    finite or a :class:`ContractViolation`."""
    if not (outer_diameter > inner_diameter >= 0.0):
        raise ContractViolation("require outer_diameter > inner_diameter >= 0")
    if not (length > 0.0):
        raise ContractViolation("length must be > 0")
    if not (remanence >= 0.0):
        raise ContractViolation("remanence must be >= 0")
    ro = outer_diameter / 2.0
    ri = inner_diameter / 2.0
    try:
        moment = remanence * (math.pi * (ro**2 - ri**2) * length) / MU0
    except OverflowError:  # a float power overflows by raising, a product to inf
        moment = math.inf
    if not math.isfinite(moment):
        raise ContractViolation("the dipole moment is not finite")
    return moment


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis. ``np.vecdot`` is a generalized
    ufunc whose core is one vector pair, so each result is computed from
    its own two vectors alone and a row's result does not depend on how
    many rows there are; a BLAS matrix product, which blocks rows
    together, does not promise that."""
    return np.vecdot(a, b)


# the six products a_i b_j of a x b: out = (a b)[:3] - (a b)[3:]
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis of two arrays of one shape: two
    index gathers, one product and one difference, where ``np.cross``
    costs far more on the few rows of a single solve."""
    ab = a[..., _CROSS_A] * b[..., _CROSS_B]
    return ab[..., :3] - ab[..., 3:]


def _field_rows(ms: np.ndarray, pref, P: np.ndarray, r2: np.ndarray, m: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The one set of dipole field terms, unvalidated: the field B and its
    gradient G contracted with moments ``m`` (broadcast against ``P``), in
    closed form with no 3x3 matrix, for a source of moment ``ms`` and
    prefactor ``pref`` = k_b mu0 / (4 pi) at offsets ``P`` (..., 3) with
    nonzero squared norms ``r2`` (..., 1), or a scalar for one offset.
    Per-offset scalars are (..., 1) columns, so they broadcast against the
    vectors without reshaping."""
    ir = 1.0 / np.sqrt(r2)
    u = P * ir
    um = _dot(u, ms)[..., None]
    u_m = _dot(u, m)[..., None]
    m_ms = _dot(m, ms)[..., None]
    a = pref * (ir * ir * ir)  # pref / r^3
    b = 3.0 * a * ir  # 3 pref / r^4
    # B = a (3 (u . m_s) u - m_s), G = b (m_s u^T + u m_s^T + (u . m_s)(I - 5 u u^T))
    B = a * ((3.0 * um) * u - ms)
    return B, (b * u_m) * ms + (b * (m_ms - 5.0 * um * u_m)) * u + (b * um) * m


class _Rings(NamedTuple):
    """The per-case constants of :func:`_ring_pair_wrench_rows`, computed
    once per solve by :func:`_ring_rows`; row k belongs to case k."""

    v: np.ndarray  # (N, K, 3) ring moments at zero tangent tilt [A*m^2]
    offset: np.ndarray | None  # (K, 1) axial offsets (0, -separation) [m]; None if K = 1
    separation: float  # [m]
    moment: np.ndarray  # (3,) source moment [A*m^2]
    position: np.ndarray  # (N, 3) k_b-scaled source position [m]
    pref: np.ndarray  # (N, 1, 1) k_b mu0 / (4 pi)

    def take(self, rows) -> "_Rings":
        """The cases of the integer indices ``rows``."""
        return self._replace(v=self.v.take(rows, axis=0),
                             position=self.position.take(rows, axis=0),
                             pref=self.pref.take(rows, axis=0))


def _ring_rows(pair: RingPairConfig, source: DipoleSource, k_b: np.ndarray,
               angles: np.ndarray) -> _Rings:
    """Constants for N cases of ``pair`` with the (N, 2) magnet ``angles``
    and the (N,) field scales ``k_b``.

    A ring's moment at zero tangent tilt is magnitude * (0, -sin, cos) of
    its angle. Magnet 1 sits at the tip point and magnet 2 ``separation``
    behind it. At zero separation, as on the demonstrator, both see the
    field at the tip point, so they enter as one dipole of their summed
    moment (K = 1) and ``offset`` is ``None``.
    """
    mag = np.array([pair.magnet_1.moment_magnitude, pair.magnet_2.moment_magnitude])
    v = np.zeros(angles.shape + (3,))
    v[..., 1] = -mag * np.sin(angles)
    v[..., 2] = mag * np.cos(angles)
    if pair.separation:
        offset = np.array([[0.0], [-pair.separation]])
    else:
        v, offset = v[:, :1] + v[:, 1:], None
    return _Rings(v=v, offset=offset, separation=pair.separation, moment=source.moment,
                  position=k_b[:, None] * source.position,
                  pref=(k_b * (MU0 / (4.0 * math.pi)))[:, None, None])


def _ring_offsets(rings: _Rings, p: np.ndarray, n: np.ndarray):
    """(N, K, 3) source-to-ring vectors of N cases, and their squared norms:
    a ring sits at the tip position ``p`` plus its offset along ``n``."""
    P = (p - rings.position)[:, None]
    P = P if rings.offset is None else P + rings.offset * n[:, None]
    return P, _dot(P, P)


def _ring_pair_wrench_rows(rings: _Rings, p: np.ndarray, n: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Force and torque on the rings of N cases at tip positions ``p`` and
    unit tangents ``n``, both (N, 3).

    The one wrench kernel, unvalidated: :func:`tip_wrench` calls it on
    one row, the equilibrium solver once per iteration on every case it
    iterates. The field terms are those of :func:`_field_rows`. Returns
    ``(w, r2)``: ``w`` (N, 6) stacks force and torque, and ``r2`` (N, K)
    holds the squared ring-to-source distances of :func:`_ring_offsets`;
    a row with a zero there is singular, its ``w`` meaningless. One ring
    dipole at the tip point (K = 1, zero offset, as on the demonstrator)
    skips the offset term and the sum over rings, whose call overhead on
    the few rows of a one-case solve outweighs their arithmetic.
    """
    m = _rotate_rows(rings.v, n)
    P, r2 = _ring_offsets(rings, p, n)
    # force G m and torque m x B at each ring
    B, f = _field_rows(rings.moment, rings.pref, P, r2[..., None], m)
    W = np.concatenate([f, _cross(m, B)], axis=-1)
    w = W[:, 0] if W.shape[1] == 1 else W.sum(axis=1)
    if rings.separation:
        w[:, 3:] += rings.separation * _cross(n, w[:, :3])
    return w, r2


def tip_wrench(pair: RingPairConfig, tip_pose, source: DipoleSource,
               cal: FieldCalibration | None = None) -> Wrench:
    """Total magnetic force and torque on the ring pair at the tip.

    Force is the sum of gradient pulls on each magnet; torque is the sum
    of the alignment torques m_i x B(p_i) plus the separation lever arm
    acting on the total force. The pose needs a finite position and a
    finite unit tangent, else it raises :class:`ContractViolation`, and a
    ring on the source raises :class:`FieldSingularityError`.
    """
    if cal is None:
        cal = FieldCalibration(1.0)
    n = _unit_vec3(tip_pose.tangent, "tip tangent")
    p = _as_vec3(tip_pose.position, "tip position")
    # a ring on the source is reported below; an overflowing square is no field
    with np.errstate(all="ignore"):
        rings = _ring_rows(pair, source, np.array([cal.k_b]),
                           np.array([[pair.magnet_1.angle, pair.magnet_2.angle]]))
        w, r2 = _ring_pair_wrench_rows(rings, p[None], n[None])
    if (r2 <= 0.0).any():
        raise FieldSingularityError(_SINGULAR)
    return Wrench(force=w[0, :3], torque=w[0, 3:])

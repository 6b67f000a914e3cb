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
_PREF = MU0 / (4.0 * math.pi)  # the dipole field's prefactor at k_b = 1 [T*m/A]

UNIT_TANGENT_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place: a constant no caller can write to."""
    a.setflags(write=False)  # half the cost of setting a.flags.writeable
    return a


E1 = _frozen(np.array([1.0, 0.0, 0.0]))
_EYE = _frozen(np.eye(3))  # G contracted with e1, e2, e3: the columns of G


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
    return _frozen(_as_vec3(v, finite).copy())


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
        # one offset as a (3, 1) column against the moments e1, e2, e3: G m
        # is then G itself, column j for e_j
        B, G = _field_rows(source.moment[:, None], cal.k_b * _PREF, P[:, None], r2, _EYE)
    return FieldSample(B=B[:, 0], gradient=G)


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
        [[[0.0]], [[-np.sin(magnet.angle)]], [[np.cos(magnet.angle)]]])
    return _rotate_rows(v, tangent[:, None])[:, 0, 0]


def _rotate_rows(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Moments ``v`` carried by the minimal rotation e1 -> n, per case,
    components first.

    ``v`` is (3, N, K), K moments orthogonal to e1 for each of the (3, N)
    unit tangents ``n``. With k = e1 x n and c = n_x the rotation is
    v + k x v + k x (k x v) / (1 + c), which for v orthogonal to e1 is
    v - (n . v) (1, w n_y, w n_z) with w = 1 / (1 + c). For c < 0, w is
    evaluated as (1 - c) / s^2 with s^2 = n_y^2 + n_z^2, which does not
    cancel near -e1; at n = -e1 itself, where no minimal rotation is
    defined, a half-turn about e2 is used.
    """
    c = n[0]
    if c.min() < 0.0:
        s2 = n[1] * n[1] + n[2] * n[2]
        w = np.where(c < 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 1.0 / (1.0 + abs(c)))
        v = np.where(((c < 0.0) & (s2 == 0.0))[:, None], v * [[[1.0]], [[1.0]], [[-1.0]]], v)
    else:
        w = 1.0 / (1.0 + c)
    h = n * w
    h[0] = 1.0
    return v - _dot0(n[:, :, None], v) * h[:, :, None]


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


# Dot products over the last axis, bound by name with no wrapper call.
# ``np.vecdot`` is a generalized ufunc whose core is one vector pair, so
# each result is computed from its own two vectors alone and a row's
# result does not depend on how many rows there are; a BLAS matrix
# product, which blocks rows together, does not promise that.
_dot = np.vecdot


def _dot0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the first axis, of components-first arrays: those
    of :data:`_dot` on the transposed views, whose last axis is then the
    components. A vector's result is the same, bit for bit, whatever its
    stride; the ``axis`` argument of ``np.vecdot`` costs more than the
    products of one case."""
    return _dot(a.T, b.T).T


# the six products a_i b_j of a x b: out = (a b)[:3] - (a b)[3:]
_CROSS_A = _frozen(np.array([1, 2, 0, 2, 0, 1]))
_CROSS_B = _frozen(np.array([2, 0, 1, 1, 2, 0]))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the first axis of two arrays of one shape,
    components first: two gathers of whole rows, one product and one
    difference, where ``np.cross`` costs far more on the few cases of a
    single solve."""
    ab = a.take(_CROSS_A, axis=0) * b.take(_CROSS_B, axis=0)
    return ab[:3] - ab[3:]


def _field_rows(ms: np.ndarray, pref, P: np.ndarray, r2, m: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The one set of dipole field terms, unvalidated, components first:
    the field B and its gradient G contracted with moments ``m``, in
    closed form with no 3x3 matrix, for a source of moment ``ms`` and
    prefactor ``pref`` = k_b mu0 / (4 pi) at offsets ``P`` (3, ...) with
    nonzero squared norms ``r2`` (...). ``ms`` and ``m`` are (3, ...)
    too, broadcast against ``P``. A per-offset scalar has the offsets'
    shape, so it broadcasts against their vectors along the leading axis,
    which keeps the inner loop of every product over the cases."""
    ir = 1.0 / np.sqrt(r2)
    u = P * ir
    um = _dot0(u, ms)
    u_m = _dot0(u, m)
    m_ms = _dot0(m, ms)
    a = pref * (ir * ir * ir)  # pref / r^3
    b = 3.0 * a * ir  # 3 pref / r^4
    # B = a (3 (u . m_s) u - m_s), G = b (m_s u^T + u m_s^T + (u . m_s)(I - 5 u u^T))
    B = a * ((3.0 * um) * u - ms)
    return B, (b * u_m) * ms + (b * (m_ms - 5.0 * um * u_m)) * u + (b * um) * m


class _Rings(NamedTuple):
    """The per-case constants of :func:`_ring_pair_wrench_rows`, computed
    once per solve by :func:`_ring_rows`, components first: case k is
    index k along each array's axis of length N."""

    v: np.ndarray  # (3, N, K) ring moments at zero tangent tilt [A*m^2]
    offset: np.ndarray | None  # (K,) axial offsets (0, -separation) [m]; None if K = 1
    separation: float  # [m]
    moment: np.ndarray  # (3, 1, 1) source moment [A*m^2]
    position: np.ndarray  # (3, N) k_b-scaled source position [m]
    pref: np.ndarray  # (N, 1) k_b mu0 / (4 pi)

    def take(self, rows) -> "_Rings":
        """The cases of the integer indices ``rows``."""
        return self._replace(v=self.v.take(rows, axis=1),
                             position=self.position.take(rows, axis=1),
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
    m1, m2 = pair.magnet_1.moment_magnitude, pair.magnet_2.moment_magnitude
    v = np.empty((3,) + angles.shape)
    v[0] = 0.0
    np.sin(angles, out=v[1])
    np.cos(angles, out=v[2])
    v *= np.array([[[0.0, 0.0]], [[-m1, -m2]], [[m1, m2]]])
    if pair.separation:
        offset = np.array([0.0, -pair.separation])
    else:
        v, offset = v[..., :1] + v[..., 1:], None
    return _Rings(v=v, offset=offset, separation=pair.separation,
                  moment=source.moment[:, None, None],
                  position=source.position[:, None] * k_b, pref=(k_b * _PREF)[:, None])


def _ring_offsets(rings: _Rings, x: np.ndarray):
    """(3, N, K) source-to-ring vectors of N cases, components first, and
    their (N, K) squared norms: a ring sits at the tip position plus its
    offset along the unit tangent, of the (6, N) tip poses ``x`` = (p | n)."""
    P = (x[:3] - rings.position)[:, :, None]
    P = P if rings.offset is None else P + rings.offset * x[3:, :, None]
    return P, _dot0(P, P)


def _ring_pair_wrench_rows(rings: _Rings, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Force and torque on the rings of N cases at the (6, N) tip poses
    ``x`` = (p | n), positions over unit tangents, one column per case.

    The one wrench kernel, unvalidated: :func:`tip_wrench` calls it on one
    column, the equilibrium solver once per iteration on every case it
    iterates. The field terms are those of :func:`_field_rows`. Returns
    ``(w, r2)``: ``w`` (6, N) stacks force over torque, and ``r2`` (N, K)
    holds the squared ring-to-source distances of :func:`_ring_offsets`;
    a case with a zero there is singular, its ``w`` meaningless. One ring
    dipole at the tip point (K = 1, zero offset, as on the demonstrator)
    skips the offset term and the sum over rings, whose call overhead on
    the few cases of a one-case solve outweighs their arithmetic. Every
    step runs components first, so that a per-case scalar broadcasts
    against the vectors along their leading axis and each product's inner
    loop runs over the cases.
    """
    m = _rotate_rows(rings.v, x[3:])
    P, r2 = _ring_offsets(rings, x)
    # force G m and torque m x B at each ring
    B, f = _field_rows(rings.moment, rings.pref, P, r2, m)
    W = np.concatenate([f, _cross(m, B)])
    w = W[..., 0] if W.shape[2] == 1 else W[..., 0] + W[..., 1]
    if rings.separation:
        w[3:] += rings.separation * _cross(x[3:], w[:3])
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
        w, r2 = _ring_pair_wrench_rows(rings, np.concatenate([p, n])[:, None])
    if (r2 <= 0.0).any():
        raise FieldSingularityError(_SINGULAR)
    return Wrench(force=w[:3, 0], torque=w[3:, 0])

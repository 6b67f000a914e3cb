import math

import numpy as np
import pytest

from magbeam.beam import TipPose
from magbeam.geomag import (
    MU0,
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    FieldSingularityError,
    RingMagnet,
    RingPairConfig,
    calibrated_field,
    dipole_field,
    _rotate_rows,
    magnet_moment_from_geometry,
    ring_dipole_moment,
    tip_wrench,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def reference_dipole_B(m, src, pt):
    """Independent textbook evaluation, kept separate from the library path."""
    P = np.asarray(pt, float) - np.asarray(src, float)
    r = np.linalg.norm(P)
    u = P / r
    return MU0 / (4 * np.pi) * (3 * u * np.dot(u, m) - np.asarray(m, float)) / r**3


class TestDipoleField:
    def test_on_axis(self):
        src = DipoleSource(moment=[200.0, 0, 0], position=[0, 0, 0])
        s = dipole_field(src, [0.08, 0, 0])
        # 2e-7 * m / d^3
        assert s.B == pytest.approx([2e-7 * 200 / 0.08**3, 0, 0], rel=1e-12)
        assert s.B[0] == pytest.approx(0.078125)

    def test_equatorial(self):
        src = DipoleSource(moment=[200.0, 0, 0], position=[0, 0, 0])
        s = dipole_field(src, [0, 0.08, 0])
        assert s.B == pytest.approx([-0.0390625, 0, 0], rel=1e-12)

    def test_zero_moment(self):
        src = DipoleSource(moment=[0.0, 0, 0], position=[0, 0, 0])
        s = dipole_field(src, [0.05, 0.02, -0.01])
        assert np.all(s.B == 0)
        assert np.all(s.gradient == 0)

    def test_singularity(self):
        src = DipoleSource(moment=[1.0, 0, 0], position=[0.1, 0, 0])
        with pytest.raises(FieldSingularityError):
            dipole_field(src, [0.1, 0, 0])

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=3) * 100
            src_pos = rng.normal(size=3) * 0.1
            pt = src_pos + rng.normal(size=3)
            s = dipole_field(DipoleSource(m, src_pos), pt)
            assert s.B == pytest.approx(reference_dipole_B(m, src_pos, pt), rel=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        src = DipoleSource(moment=[150.0, -40.0, 25.0], position=[0.01, -0.02, 0.03])
        h = 1e-6
        for _ in range(100):
            d = rng.normal(size=3)
            d *= rng.uniform(0.02, 0.5) / np.linalg.norm(d)
            pt = src.position + d
            G = dipole_field(src, pt).gradient
            G_fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                G_fd[:, j] = (dipole_field(src, pt + e).B
                              - dipole_field(src, pt - e).B) / (2 * h)
            assert np.linalg.norm(G - G_fd) <= 1e-5 * np.linalg.norm(G_fd)

    def test_gradient_symmetric_traceless(self):
        rng = np.random.default_rng(5)
        src = DipoleSource(moment=[10.0, 20.0, -5.0], position=[0, 0, 0])
        for _ in range(50):
            pt = rng.normal(size=3)
            G = dipole_field(src, pt).gradient
            scale = np.abs(G).max()
            assert np.abs(G - G.T).max() <= 1e-9 * scale
            assert abs(np.trace(G)) <= 1e-9 * scale

    def test_linearity_in_moment(self):
        rng = np.random.default_rng(9)
        pos = np.zeros(3)
        m = np.array([3.0, -1.0, 2.0])
        pt = np.array([0.1, 0.05, -0.02])
        base = dipole_field(DipoleSource(m, pos), pt)
        for alpha in rng.uniform(-5, 5, size=10):
            s = dipole_field(DipoleSource(alpha * m, pos), pt)
            assert s.B == pytest.approx(alpha * base.B, rel=1e-12, abs=1e-18)
            assert s.gradient == pytest.approx(alpha * base.gradient,
                                               rel=1e-12, abs=1e-15)


class TestCalibratedField:
    def test_identity_when_kb_one(self):
        src = DipoleSource(moment=[200.0, 0, 0], position=[0.23, 0, 0])
        pt = [0.15, 0.01, -0.02]
        a = dipole_field(src, pt)
        b = calibrated_field(src, FieldCalibration(1.0), pt)
        assert b.B == pytest.approx(a.B, rel=1e-15)
        assert b.gradient == pytest.approx(a.gradient, rel=1e-15)

    def test_demonstrator_value(self):
        # external magnet 80 mm beyond a 150 mm robot, on-axis, kb = 4.03
        kb = 4.03
        m = magnet_moment_from_geometry(0.0762, 0.0, 0.0381, 1.45)
        src = DipoleSource(moment=[-m, 0, 0], position=[0.23, 0, 0])
        pt = np.array([0.15, 0, 0])
        s = calibrated_field(src, FieldCalibration(kb), pt)
        # independent direct evaluation of the scaled formula
        expected = kb * reference_dipole_B([-m, 0, 0], kb * np.array([0.23, 0, 0]), pt)
        assert s.B == pytest.approx(expected, rel=1e-12)
        # on-axis, moment along -x, displacement along -x: B points along -x
        assert s.B[0] < 0
        assert s.B[1] == pytest.approx(0.0, abs=1e-18)

    def test_zero_moment(self):
        src = DipoleSource(moment=[0.0, 0, 0], position=[0.23, 0, 0])
        s = calibrated_field(src, FieldCalibration(4.03), [0.15, 0, 0])
        assert np.all(s.B == 0)

    def test_invalid_kb(self):
        with pytest.raises(ContractViolation):
            FieldCalibration(0.0)
        with pytest.raises(ContractViolation):
            FieldCalibration(-1.0)

    def test_singularity_at_scaled_source(self):
        # the singular point moves with the source, to k_b * position
        src = DipoleSource(moment=[1.0, 0, 0], position=[0.1, 0.02, 0])
        with pytest.raises(FieldSingularityError):
            calibrated_field(src, FieldCalibration(4.03), 4.03 * src.position)
        assert np.isfinite(calibrated_field(src, FieldCalibration(4.03), src.position).B).all()


class TestFieldInput:
    SRC = DipoleSource(moment=[200.0, 0, 0], position=[0.23, 0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        dipole_field, lambda src, pt: calibrated_field(src, FieldCalibration(4.03), pt)],
        ids=["dipole", "calibrated"])
    def test_nonfinite_point_rejected(self, field, bad):
        # checked before the singular test, so NaN is not a singular point
        with pytest.raises(ContractViolation, match="finite"):
            field(self.SRC, [0.15, bad, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_source_position_rejected(self, bad):
        with pytest.raises(ContractViolation, match="dipole position"):
            DipoleSource(moment=[200.0, 0, 0], position=[bad, 0, 0])

    @pytest.mark.parametrize("bad", [[0.23, 0.0], [[0.23, 0.0, 0.0]], 0.23])
    def test_source_position_not_a_3_vector_rejected(self, bad):
        with pytest.raises(ContractViolation, match="expected a 3-vector, got shape"):
            DipoleSource(moment=[200.0, 0, 0], position=bad)

    def test_source_holds_read_only_copies(self):
        m, p = np.array([200.0, 0.0, 0.0]), np.array([0.23, 0.0, 0.0])
        src = DipoleSource(m, p)
        m[2], p[1] = 5.0, 1.0
        assert src.moment.tolist() == [200.0, 0.0, 0.0]
        assert src.position.tolist() == [0.23, 0.0, 0.0]
        for a in (src.moment, src.position):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestRingDipoleMoment:
    def test_zero_angle_reference(self):
        m = ring_dipole_moment(RingMagnet(1.0, 0.0), E1)
        assert m == pytest.approx(E3, abs=1e-15)

    def test_quarter_turn(self):
        m = ring_dipole_moment(RingMagnet(1.0, math.pi / 2), E1)
        assert m == pytest.approx(-E2, abs=1e-12)

    def test_tilted_tangent(self):
        n = np.array([1.0, 0.1, 0.0])
        n /= np.linalg.norm(n)
        mag = 5.44e-3
        m = ring_dipole_moment(RingMagnet(mag, math.pi / 3), n)
        assert abs(np.dot(m, n)) <= 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(m) == pytest.approx(mag, rel=1e-12)

    def test_orthogonality_property(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            m = ring_dipole_moment(RingMagnet(2.5, rng.uniform(-10, 10)), n)
            assert abs(np.dot(m, n)) <= 1e-9 * np.linalg.norm(m)

    def test_non_unit_tangent_rejected(self):
        with pytest.raises(ContractViolation):
            ring_dipole_moment(RingMagnet(1.0, 0.0), [1.0, 0.1, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tangent_rejected(self, value):
        # a NaN norm passes no comparison with the tolerance
        with pytest.raises(ContractViolation, match="^tangent must be finite$"):
            ring_dipole_moment(RingMagnet(1.0, 0.0), [1.0, value, 0.0])

    def test_negative_moment_rejected(self):
        with pytest.raises(ContractViolation, match="moment_magnitude"):
            RingMagnet(-1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected(self, value):
        with pytest.raises(ContractViolation, match="finite"):
            RingMagnet(1.0, value)
        with pytest.raises(ContractViolation, match="finite"):
            RingPairConfig.from_angles(1.0, 0.0, value)

    def test_angle_periodicity(self):
        n = np.array([0.8, 0.6, 0.0])
        n /= np.linalg.norm(n)
        a = ring_dipole_moment(RingMagnet(1.0, 0.7), n)
        b = ring_dipole_moment(RingMagnet(1.0, 0.7 + 2 * math.pi), n)
        assert a == pytest.approx(b, abs=1e-15)


def rodrigues_e1_to(n):
    """Minimal rotation carrying e1 onto the unit vector n, as an explicit
    Rodrigues matrix: unit axis e1 x n / |e1 x n|, angle atan2(|e1 x n|, n_x).
    For n = -e1 the documented half-turn about e2."""
    axis = np.cross(E1, n)
    s = np.linalg.norm(axis)
    if s == 0.0:
        return np.eye(3) if n[0] > 0 else np.diag([-1.0, 1.0, -1.0])
    k = axis / s
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    angle = math.atan2(s, n[0])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def oracle_tangents():
    """+-e1, tangents 1e-5 to 1e-12 away from -e1 and from +e1, and random ones."""
    rng = np.random.default_rng(41)
    out = [E1, -E1]
    for eps in (1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
        for phi in rng.uniform(0.0, 2.0 * math.pi, 3):
            for sign in (-1.0, 1.0):
                out.append(np.array([sign * math.sqrt(1.0 - eps * eps),
                                     eps * math.cos(phi), eps * math.sin(phi)]))
    for v in rng.normal(size=(24, 3)):
        out.append(v / np.linalg.norm(v))
    return out


class TestRotationOracle:
    # near -e1, w = 1 / (1 + n_x) evaluated naively is off by O(1) at
    # 1e-8 from -e1; these tangents catch that
    def test_ring_dipole_moment(self):
        rng = np.random.default_rng(43)
        mag = 5.44e-3
        for n in oracle_tangents():
            R = rodrigues_e1_to(n)
            for theta in rng.uniform(-10.0, 10.0, 4):
                expected = mag * (R @ [0.0, -math.sin(theta), math.cos(theta)])
                got = ring_dipole_moment(RingMagnet(mag, theta), n)
                assert np.linalg.norm(got - expected) <= 1e-12 * mag

    def test_kernel_moments(self):
        # the wrench kernel's rotation, all tangents and two moments per row at once
        rng = np.random.default_rng(47)
        n = np.array(oracle_tangents())
        theta = rng.uniform(-10.0, 10.0, (len(n), 2))
        v = np.stack([np.zeros_like(theta), -np.sin(theta), np.cos(theta)], axis=-1)
        m = _rotate_rows(v, n)
        for k in range(len(n)):
            R = rodrigues_e1_to(n[k])
            for j in range(2):
                assert np.linalg.norm(m[k, j] - R @ v[k, j]) <= 1e-12


class TestMomentFromGeometry:
    def test_tip_ring(self):
        m = magnet_moment_from_geometry(4e-3, 2e-3, 0.5e-3, 1.45)
        # V = pi (ro^2 - ri^2) h, m = Br V / mu0
        v = math.pi * ((2e-3) ** 2 - (1e-3) ** 2) * 0.5e-3
        assert m == pytest.approx(1.45 * v / MU0, rel=1e-12)
        assert m == pytest.approx(5.44e-3, rel=1e-2)

    def test_solid_cylinder(self):
        m = magnet_moment_from_geometry(0.0762, 0.0, 0.0381, 1.45)
        assert m == pytest.approx(200.4, rel=1e-2)

    def test_zero_remanence(self):
        assert magnet_moment_from_geometry(4e-3, 2e-3, 0.5e-3, 0.0) == 0.0

    @pytest.mark.parametrize("od,idm,length", [
        (2e-3, 4e-3, 1e-3),   # inner exceeds outer
        (4e-3, 4e-3, 1e-3),   # degenerate annulus
        (4e-3, 2e-3, 0.0),    # zero length
    ])
    def test_bad_geometry(self, od, idm, length):
        with pytest.raises(ContractViolation):
            magnet_moment_from_geometry(od, idm, length, 1.45)

    @pytest.mark.parametrize("od,length,remanence", [
        (1e297, 0.5e-3, 1.45),     # the power of the radius overflows
        (0.0762, 1e308, 1.45),     # the volume is inf
        (0.0762, 0.0381, 1e308),   # the moment is inf
        (math.inf, 0.0381, 1.45),
    ])
    def test_moment_finite_or_contract_violation(self, od, length, remanence):
        # a huge but finite diameter raised OverflowError from the float power
        with pytest.raises(ContractViolation, match="dipole moment is not finite"):
            magnet_moment_from_geometry(od, 0.0, length, remanence)

    def test_negative_remanence_rejected(self):
        with pytest.raises(ContractViolation, match="remanence must be >= 0"):
            magnet_moment_from_geometry(0.0762, 0.0, 0.0381, -1.45)


class TestTipWrench:
    def setup_method(self):
        self.src = DipoleSource(moment=[-200.0, 0, 0], position=[0.23, 0, 0])
        self.cal = FieldCalibration(1.0)
        self.pose = TipPose(position=[0.15, 0, 0], tangent=E1)

    def test_non_unit_tangent_rejected(self):
        pair = RingPairConfig.from_angles(5.44e-3, 0.4, 1.7)
        with pytest.raises(ContractViolation, match="^tip tangent must have unit norm$"):
            tip_wrench(pair, TipPose(self.pose.position, [1.0, 0.1, 0.0]), self.src, self.cal)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["tangent", "position"])
    def test_nonfinite_pose_rejected(self, part, value):
        # a NaN tangent passed the unit-norm test, and either reached the
        # wrench check as a non-finite force
        pair = RingPairConfig.from_angles(5.44e-3, 0.4, 1.7)
        bad = np.array([0.15 if part == "position" else 1.0, value, 0.0])
        pose = TipPose(**{"position": self.pose.position, "tangent": E1, part: bad})
        with pytest.raises(ContractViolation, match=f"^tip {part} must be finite$"):
            tip_wrench(pair, pose, self.src, self.cal)

    @pytest.mark.parametrize("separation", [0.0, 2.0**-7])
    def test_ring_on_the_source_is_singular(self, separation):
        # the tip ring, or the ring behind it, exactly at the source: the
        # positions are binary fractions, so the offset is exact
        src = DipoleSource(moment=[-200.0, 0, 0], position=[0.25, 0, 0])
        pair = RingPairConfig.from_angles(5.44e-3, 0.4, 1.7, separation=separation)
        pose = TipPose(src.position + separation * E1, E1)
        with pytest.raises(FieldSingularityError):
            tip_wrench(pair, pose, src, self.cal)

    def test_antiparallel_cancellation(self):
        pair = RingPairConfig.from_angles(5.44e-3, 1.2 + math.pi, 1.2, separation=0.0)
        w = tip_wrench(pair, self.pose, self.src, self.cal)
        # cancellation is exact up to float roundoff of the two summands
        single = RingPairConfig(
            RingMagnet(5.44e-3, 1.2), RingMagnet(0.0, 0.0), 0.0
        )
        scale = np.linalg.norm(
            tip_wrench(single, self.pose, self.src, self.cal).as_stacked()
        )
        assert np.linalg.norm(w.force) <= 1e-12 * scale
        assert np.linalg.norm(w.torque) <= 1e-12 * scale

    def test_doubled_magnet_equivalence(self):
        theta = 0.9
        pair = RingPairConfig.from_angles(5.44e-3, theta, theta, separation=0.0)
        single = RingPairConfig(
            RingMagnet(2 * 5.44e-3, theta), RingMagnet(0.0, 0.0), 0.0
        )
        w2 = tip_wrench(pair, self.pose, self.src, self.cal)
        w1 = tip_wrench(single, self.pose, self.src, self.cal)
        assert w2.force == pytest.approx(w1.force, rel=1e-12)
        assert w2.torque == pytest.approx(w1.torque, rel=1e-12)

    def test_pair_reduces_to_summed_moment(self):
        # with zero separation the wrench only sees m1 + m2
        t1, t2 = 0.3, 2.1
        pair = RingPairConfig.from_angles(1.0, t1, t2, separation=0.0)
        summed = 2 * math.cos((t1 - t2) / 2)
        single = RingPairConfig(
            RingMagnet(abs(summed), (t1 + t2) / 2), RingMagnet(0.0, 0.0), 0.0
        )
        wp = tip_wrench(pair, self.pose, self.src, self.cal)
        ws = tip_wrench(single, self.pose, self.src, self.cal)
        assert wp.force == pytest.approx(ws.force, rel=1e-12, abs=1e-20)
        assert wp.torque == pytest.approx(ws.torque, rel=1e-12, abs=1e-20)

    def test_torque_matches_manual_sum(self):
        # nonzero separation: torque = sum m_i x B_i + delta n x f
        pair = RingPairConfig.from_angles(5.44e-3, 0.4, 1.7, separation=5e-3)
        rng = np.random.default_rng(31)
        tangents = [E1] + [v / np.linalg.norm(v) for v in rng.normal(size=(8, 3))]
        for n in tangents:
            pose = TipPose(position=self.pose.position, tangent=n)
            w = tip_wrench(pair, pose, self.src, self.cal)
            f = np.zeros(3)
            tau = np.zeros(3)
            for mag, offset in zip((pair.magnet_1, pair.magnet_2), (0.0, -pair.separation)):
                m = ring_dipole_moment(mag, n)
                pos = pose.position + offset * n
                s = dipole_field(self.src, pos)
                f += s.gradient.T @ m
                tau += np.cross(m, s.B)
            tau += pair.separation * np.cross(n, f)
            assert w.force == pytest.approx(f, rel=1e-12)
            assert w.torque == pytest.approx(tau, rel=1e-12)

    def test_torque_matches_manual_sum_calibrated(self):
        # the wrench kernel and calibrated_field scale the source position
        # and strength by k_b alike
        cal = FieldCalibration(4.03)
        pair = RingPairConfig.from_angles(5.44e-3, 0.4, 1.7, separation=5e-3)
        rng = np.random.default_rng(37)
        for n in [v / np.linalg.norm(v) for v in rng.normal(size=(8, 3))]:
            pose = TipPose(position=self.pose.position, tangent=n)
            w = tip_wrench(pair, pose, self.src, cal)
            f = np.zeros(3)
            tau = np.zeros(3)
            for mag, offset in zip((pair.magnet_1, pair.magnet_2), (0.0, -pair.separation)):
                m = ring_dipole_moment(mag, n)
                s = calibrated_field(self.src, cal, pose.position + offset * n)
                f += s.gradient.T @ m
                tau += np.cross(m, s.B)
            tau += pair.separation * np.cross(n, f)
            assert w.force == pytest.approx(f, rel=1e-12)
            assert w.torque == pytest.approx(tau, rel=1e-12)

    def test_torque_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pair = RingPairConfig.from_angles(
                5.44e-3, rng.uniform(0, 7), rng.uniform(0, 7),
                separation=rng.uniform(0, 0.01),
            )
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            pose = TipPose(position=rng.normal(size=3) * 0.05 + [0.1, 0, 0], tangent=n)
            w = tip_wrench(pair, pose, self.src, self.cal)
            p1 = pose.position
            p2 = pose.position - pair.separation * n
            b1 = np.linalg.norm(dipole_field(self.src, p1).B)
            b2 = np.linalg.norm(dipole_field(self.src, p2).B)
            bound = (pair.magnet_1.moment_magnitude * b1
                     + pair.magnet_2.moment_magnitude * b2
                     + pair.separation * np.linalg.norm(w.force))
            assert np.linalg.norm(w.torque) <= bound * (1 + 1e-12)


class TestRingPairConfig:
    def test_negative_separation_rejected(self):
        with pytest.raises(ContractViolation):
            RingPairConfig.from_angles(1.0, 0.0, 0.0, separation=-1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_separation_rejected(self, value):
        with pytest.raises(ContractViolation, match="finite"):
            RingPairConfig.from_angles(1.0, 0.0, 0.0, separation=value)

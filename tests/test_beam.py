import math

import numpy as np
import pytest

from magbeam.beam import (
    BeamFormulation,
    RobotParams,
    Wrench,
    centerline,
    section_moment_tube,
    tip_pose_from_wrench,
)
from magbeam.geomag import ContractViolation

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def params():
    return RobotParams(
        length=0.15,
        elastic_modulus=766e6,
        section_moment=section_moment_tube(1.8e-3, 1.2e-3),
        stiffness_scale=0.009,
    )


def integrate_tip_deflection(params, w, n=10_000):
    """Independent quadrature oracle: integrate the curvature profile
    kappa(s) = (tau + (L - s) e1 x f) / EI twice with the trapezoid rule."""
    L = params.length
    ei = params.bending_stiffness
    s = np.linspace(0.0, L, n)
    kappa = (w.torque[None, :] + (L - s)[:, None] * np.cross(E1, w.force)[None, :]) / ei
    dt = np.cross(kappa, E1)
    tang = E1[None, :] + np.array([
        np.concatenate([[0.0], np.cumsum((dt[1:, k] + dt[:-1, k]) / 2 * np.diff(s))])
        for k in range(3)
    ]).T
    tip = np.array([
        np.trapezoid(tang[:, k], s) for k in range(3)
    ])
    return tip


class TestTipPose:
    def test_unloaded_straight(self, params):
        pose = tip_pose_from_wrench(params, Wrench.zero())
        assert pose.position == pytest.approx(params.straight_tip, abs=1e-18)
        assert pose.tangent == pytest.approx(E1, abs=1e-18)

    def test_end_moment_classic(self, params):
        M = 2e-6
        w = Wrench(force=np.zeros(3), torque=M * E3)
        ei = params.bending_stiffness
        L = params.length
        for mode in BeamFormulation:
            pose = tip_pose_from_wrench(params, w, mode)
            defl = pose.position - params.straight_tip
            assert defl[1] == pytest.approx(M * L**2 / (2 * ei), rel=1e-12)
            assert defl[0] == 0 and defl[2] == 0
            slope = pose.tangent[1] / pose.tangent[0]
            assert slope == pytest.approx(M * L / ei, rel=1e-12)

    def test_end_force_coefficients(self, params):
        F = 5e-5
        w = Wrench(force=F * E2, torque=np.zeros(3))
        ei = params.bending_stiffness
        L = params.length
        corrected = tip_pose_from_wrench(params, w, BeamFormulation.CORRECTED)
        legacy = tip_pose_from_wrench(params, w, BeamFormulation.LEGACY)
        d_corr = corrected.position - params.straight_tip
        d_leg = legacy.position - params.straight_tip
        assert d_corr[1] == pytest.approx(F * L**3 / (3 * ei), rel=1e-12)
        assert d_leg[1] == pytest.approx(F * L**3 / (6 * ei), rel=1e-12)
        # slope identical in both modes
        assert corrected.tangent == pytest.approx(legacy.tangent, rel=1e-15)

    def test_force_coefficient_against_quadrature(self, params):
        # the curvature-profile integral decides which coefficient is right
        w = Wrench(force=3e-5 * E2 + 1e-5 * E3, torque=np.zeros(3))
        tip = integrate_tip_deflection(params, w)
        corrected = tip_pose_from_wrench(params, w, BeamFormulation.CORRECTED)
        legacy = tip_pose_from_wrench(params, w, BeamFormulation.LEGACY)
        assert corrected.position == pytest.approx(tip, abs=1e-9 * params.length)
        d_quad = np.linalg.norm(tip - params.straight_tip)
        d_leg = np.linalg.norm(legacy.position - params.straight_tip)
        assert d_leg == pytest.approx(d_quad / 2, rel=1e-6)

    def test_deflection_linearity(self, params):
        rng = np.random.default_rng(31)
        for mode in BeamFormulation:
            w1 = Wrench(rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-6)
            w2 = Wrench(rng.normal(size=3) * 1e-4, rng.normal(size=3) * 1e-6)
            a, b = 1.7, -0.4
            combo = Wrench(a * w1.force + b * w2.force, a * w1.torque + b * w2.torque)

            def defl(w):
                return tip_pose_from_wrench(params, w, mode).position - params.straight_tip

            expect = a * defl(w1) + b * defl(w2)
            got = defl(combo)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-20)

    def test_axial_force_invariance(self, params):
        w = Wrench(force=0.01 * E1, torque=np.zeros(3))
        pose = tip_pose_from_wrench(params, w)
        assert pose.position == pytest.approx(params.straight_tip, abs=1e-20)
        assert pose.tangent == pytest.approx(E1, abs=1e-20)

    def test_axial_torque_invariance(self, params):
        w = Wrench(force=np.zeros(3), torque=1e-4 * E1)
        pose = tip_pose_from_wrench(params, w)
        assert pose.position == pytest.approx(params.straight_tip, abs=1e-20)

    def test_plane_preservation(self, params):
        # load in the x-y bending subspace: force along e2, torque along e3
        w = Wrench(force=2e-5 * E2, torque=1e-6 * E3)
        pose = tip_pose_from_wrench(params, w)
        assert pose.position[2] == 0.0
        assert pose.tangent[2] == 0.0

    def test_stiffness_doubling_halves_deflection(self, params):
        from dataclasses import replace
        w = Wrench(force=2e-5 * E2, torque=1e-6 * E3)
        d1 = tip_pose_from_wrench(params, w).position - params.straight_tip
        stiff = replace(params, stiffness_scale=2 * params.stiffness_scale)
        d2 = tip_pose_from_wrench(stiff, w).position - stiff.straight_tip
        assert d2 == pytest.approx(d1 / 2, rel=1e-12, abs=1e-20)

    def test_tangent_is_unit(self, params):
        w = Wrench(force=1e-4 * E2, torque=5e-6 * E3)
        pose = tip_pose_from_wrench(params, w)
        assert np.linalg.norm(pose.tangent) == pytest.approx(1.0, abs=1e-15)


class TestCenterline:
    def test_unloaded_straight_line(self, params):
        pts = centerline(params, Wrench.zero(), 11)
        assert pts.shape == (11, 3)
        expect = np.linspace(0, params.length, 11)
        assert pts[:, 0] == pytest.approx(expect, abs=1e-18)
        assert np.all(pts[:, 1:] == 0)

    def test_pure_moment_endpoint(self, params):
        w = Wrench(force=np.zeros(3), torque=2e-6 * E3)
        pts = centerline(params, w, 1000)
        pose = tip_pose_from_wrench(params, w, BeamFormulation.CORRECTED)
        assert np.linalg.norm(pts[-1] - pose.position) <= 1e-6 * params.length

    def test_force_endpoint(self, params):
        w = Wrench(force=4e-5 * E2 - 1e-5 * E3, torque=1e-6 * E3)
        pts = centerline(params, w, 2000)
        pose = tip_pose_from_wrench(params, w, BeamFormulation.CORRECTED)
        assert np.linalg.norm(pts[-1] - pose.position) <= 1e-6 * params.length

    def test_two_samples(self, params):
        pts = centerline(params, Wrench.zero(), 2)
        assert pts.shape == (2, 3)
        assert pts[0] == pytest.approx(np.zeros(3))
        assert pts[1] == pytest.approx(params.straight_tip)

    def test_too_few_samples(self, params):
        with pytest.raises(ContractViolation):
            centerline(params, Wrench.zero(), 1)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_sample_count_must_be_an_integer(self, params, n):
        with pytest.raises(ContractViolation, match="integer"):
            centerline(params, Wrench.zero(), n)


class TestSectionMoment:
    def test_demonstrator_tube(self):
        assert section_moment_tube(1.8e-3, 1.2e-3) == pytest.approx(4.135e-13, rel=1e-3)

    def test_solid_circle(self):
        d = 2.4e-3
        assert section_moment_tube(d, 0.0) == pytest.approx(math.pi * d**4 / 64, rel=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ContractViolation):
            section_moment_tube(1.8e-3, 1.8e-3)
        with pytest.raises(ContractViolation):
            section_moment_tube(1.2e-3, 1.8e-3)

    @pytest.mark.parametrize("od", [1e197, 1e100, math.inf])
    def test_moment_finite_or_contract_violation(self, od):
        # a huge but finite diameter raised OverflowError from the float power
        with pytest.raises(ContractViolation, match="section moment is not finite"):
            section_moment_tube(od, 1.2e-3)


class TestParamContracts:
    def test_positive_required(self):
        with pytest.raises(ContractViolation):
            RobotParams(length=0.0, elastic_modulus=1e9, section_moment=1e-13)
        with pytest.raises(ContractViolation):
            RobotParams(length=0.1, elastic_modulus=1e9, section_moment=1e-13,
                        stiffness_scale=0.0)

    @pytest.mark.parametrize("field", ["length", "elastic_modulus",
                                       "section_moment", "stiffness_scale"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_finite_required(self, field, value):
        good = dict(length=0.1, elastic_modulus=1e9, section_moment=1e-13)
        with pytest.raises(ContractViolation):
            RobotParams(**{**good, field: value})

    def test_finite_bending_stiffness_required(self):
        with pytest.raises(ContractViolation):
            RobotParams(length=0.1, elastic_modulus=1e300, section_moment=1e-13,
                        stiffness_scale=1e300)

    @pytest.mark.parametrize("part", ["force", "torque"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_wrench_rejected(self, part, value):
        bad = np.zeros(3)
        bad[1] = value
        with pytest.raises(ContractViolation):
            Wrench(**{"force": np.zeros(3), "torque": np.zeros(3), part: bad})

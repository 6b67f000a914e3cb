import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam.beam import BeamFormulation, TipPose, tip_pose_from_wrench
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import (
    DivergenceError,
    SolverSettings,
    invert_controls,
    solve_tip_pose,
    sweep,
)
from magbeam.geomag import E1, FieldCalibration, RingMagnet, RingPairConfig, tip_wrench


@pytest.fixture(scope="module")
def demo():
    cfg = load_config(default_config_path())
    return replace(cfg, params=replace(cfg.params, stiffness_scale=0.009))


CAL = FieldCalibration(4.03)
MODE = BeamFormulation.LEGACY


def solve(demo, t1, t2, cal=CAL, settings=None, mode=MODE, params=None):
    return solve_tip_pose(
        params or demo.params,
        demo.pair_template.with_angles(t1, t2),
        demo.source, cal, settings or demo.settings, mode,
    )


class TestSolve:
    def test_antiparallel_straight(self, demo):
        r = solve(demo, math.pi, 0.0)
        assert r.converged
        assert r.iterations <= 2
        assert r.tip.position == pytest.approx(demo.params.straight_tip, abs=1e-12)

    def test_zero_moment_straight(self, demo):
        pair = RingPairConfig.from_angles(0.0, 0.3, 1.1)
        r = solve_tip_pose(demo.params, pair, demo.source, CAL, demo.settings, MODE)
        assert r.converged
        assert r.tip.position == pytest.approx(demo.params.straight_tip, abs=1e-12)

    def test_converged_residual_recomputable(self, demo):
        r = solve(demo, math.radians(40), math.radians(10))
        assert r.converged
        assert r.residual <= demo.settings.position_tolerance
        # re-entering the solver seeded at the solution lands on the same point
        again = solve(
            demo, math.radians(40), math.radians(10),
            settings=replace(demo.settings, initial_tip=r.tip.position),
        )
        assert again.converged
        tol = demo.settings.position_tolerance
        assert np.linalg.norm(again.tip.position - r.tip.position) <= 2 * tol

    def test_periodicity(self, demo):
        q = (1.1, -0.4)
        a = solve(demo, *q)
        b = solve(demo, q[0] + 2 * math.pi, q[1] + 2 * math.pi)
        tol = demo.settings.position_tolerance
        assert np.linalg.norm(a.tip.position - b.tip.position) <= 2 * tol

    def test_mirror_symmetry(self, demo):
        q = (0.9, 0.2)
        a = solve(demo, *q)
        b = solve(demo, -q[0], -q[1])
        mirrored = a.tip.position * np.array([1.0, -1.0, 1.0])
        tol = demo.settings.position_tolerance
        assert np.linalg.norm(b.tip.position - mirrored) <= 2 * tol

    def test_zero_separation_superposition(self, demo):
        t1, t2 = 0.7, 1.9
        a = solve(demo, t1, t2)
        mag = demo.pair_template.magnet_1.moment_magnitude
        summed = 2 * mag * math.cos((t1 - t2) / 2)
        single = RingPairConfig(
            RingMagnet(abs(summed), (t1 + t2) / 2, 0.0),
            RingMagnet(0.0, 0.0, 0.0), 0.0,
        )
        b = solve_tip_pose(demo.params, single, demo.source, CAL, demo.settings, MODE)
        tol = demo.settings.position_tolerance
        assert np.linalg.norm(a.tip.position - b.tip.position) <= 2 * tol

    def test_initial_guess_robustness(self, demo):
        q = (math.radians(60), 0.0)
        a = solve(demo, *q)
        neighbor = solve(demo, math.radians(48), 0.0)
        seeded = solve(
            demo, *q,
            settings=replace(demo.settings, initial_tip=neighbor.tip.position),
        )
        tol = demo.settings.position_tolerance
        assert np.linalg.norm(a.tip.position - seeded.tip.position) <= 2 * tol

    def test_divergence_detected(self, demo):
        # absurdly soft beam: the linear map overshoots far beyond 10 L
        soft = replace(demo.params, stiffness_scale=1e-9)
        with pytest.raises(DivergenceError):
            solve(demo, 0.0, 0.0, params=soft,
                  settings=replace(demo.settings, relaxation=1.0))

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_undamped_iterates_are_public_compositions(self, demo, mode):
        # the solver's k-th undamped iterate is bit-for-bit k applications of
        # tip_pose_from_wrench(tip_wrench(...)); a nonzero separation brings
        # in the lever-arm torque
        rng = np.random.default_rng(11)
        mag = demo.pair_template.magnet_1.moment_magnitude
        for _ in range(8):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            pair = RingPairConfig.from_angles(mag, t1, t2, separation=5e-3)
            pose = TipPose(demo.params.straight_tip, E1)
            for k in range(1, 7):
                pose = tip_pose_from_wrench(
                    demo.params, tip_wrench(pair, pose, demo.source, CAL), mode)
                settings = SolverSettings(position_tolerance=1e-300,
                                          max_iterations=k, relaxation=1.0)
                r = solve_tip_pose(demo.params, pair, demo.source, CAL, settings, mode)
                assert not r.converged
                assert np.array_equal(r.tip.position, pose.position)
                assert np.array_equal(r.tip.tangent, pose.tangent)

    def test_settings_contracts(self):
        with pytest.raises(Exception):
            SolverSettings(position_tolerance=0.0)
        with pytest.raises(Exception):
            SolverSettings(relaxation=1.5)
        with pytest.raises(Exception):
            SolverSettings(max_iterations=0)


class TestSweep:
    def test_single_pair_matches_direct(self, demo):
        q = (0.5, 0.1)
        pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                    demo.settings, MODE, [q[0]], [q[1]])
        assert len(pts) == 1
        direct = solve(demo, *q)
        assert pts[0].result.tip.position == pytest.approx(direct.tip.position,
                                                           abs=1e-12)

    def test_sixteen_point_protocol(self, demo):
        t1 = np.radians(np.arange(0, 181, 12.0))
        pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                    demo.settings, MODE, t1, [0.0])
        assert len(pts) == 16
        assert all(pt.result is not None and pt.result.converged for pt in pts)

    def test_zipped_equals_pairwise(self, demo):
        t1 = [0.2, 0.8, 1.4]
        t2 = [0.0, -0.3, 0.5]
        pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                    demo.settings, MODE, t1, t2, zipped=True)
        assert [pt.q for pt in pts] == list(zip(t1, t2))

    def test_parallel_mode_deterministic(self, demo):
        t1 = np.radians([0.0, 30.0, 60.0])
        kw = dict(zipped=False, warm_start=False)
        a = sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, t1, [0.0, math.pi], **kw)
        b = sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, t1, [0.0, math.pi], **kw)
        for x, y in zip(a, b):
            assert x.q == y.q
            assert np.array_equal(x.result.tip.position, y.result.tip.position)

    def test_failures_recorded_not_raised(self, demo):
        soft = replace(demo.params, stiffness_scale=1e-9)
        pts = sweep(soft, demo.pair_template, demo.source, CAL,
                    replace(demo.settings, relaxation=1.0), MODE,
                    [0.0, math.pi], [0.0])
        assert len(pts) == 2
        assert pts[0].result is None and pts[0].error is not None
        # the antiparallel point is a zero-wrench fixed point and still solves
        assert pts[1].result is not None and pts[1].result.converged

    def test_empty_rejected(self, demo):
        with pytest.raises(Exception):
            sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, [], [0.0])


class TestInverse:
    def test_straight_target_lexicographic(self, demo):
        inv = invert_controls(demo.params.straight_tip, demo.params,
                              demo.pair_template, demo.source, CAL,
                              demo.settings, MODE)
        assert inv.within_reach
        assert inv.q[0] == pytest.approx(0.0, abs=1e-12)
        assert inv.q[1] == pytest.approx(math.pi, abs=1e-12)
        assert inv.position_error <= demo.settings.position_tolerance
        assert inv.basin_count >= 1

    def test_round_trip(self, demo):
        target = solve(demo, math.radians(50), math.radians(10)).tip.position
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert inv.within_reach
        assert inv.position_error <= demo.settings.position_tolerance

    def test_unreachable_flagged(self, demo):
        target = demo.params.straight_tip + np.array([0.0, 2 * demo.params.length, 0.0])
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert not inv.within_reach
        assert inv.result.converged

import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam import equilibrium
from magbeam.beam import BeamFormulation, TipPose, _cantilever_rows, tip_pose_from_wrench
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import (
    DivergenceError,
    SolverSettings,
    _solve_batch,
    _tips,
    invert_controls,
    solve_tip_pose,
    sweep,
)
from magbeam.geomag import (
    E1,
    ContractViolation,
    FieldCalibration,
    FieldSingularityError,
    RingMagnet,
    RingPairConfig,
    _ring_pair_wrench_rows,
    _ring_rows,
    calibrated_field,
    ring_dipole_moment,
    tip_wrench,
)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected(self, demo, value):
        with pytest.raises(ContractViolation, match="finite"):
            solve(demo, value, 0.0)
        with pytest.raises(ContractViolation, match="finite"):
            solve(demo, 0.0, value)

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

    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_unconverged_wrench_belongs_to_the_tip(self, demo, mode, separation):
        # an unconverged result reports the last relaxed iterate as its tip;
        # its wrench is the public tip_wrench at that same pose
        mag = demo.pair_template.magnet_1.moment_magnitude
        settings = replace(demo.settings, max_iterations=3)
        for t1, t2 in ((0.3, 0.0), (1.9, 4.4), (5.0, 2.2)):
            pair = RingPairConfig.from_angles(mag, t1, t2, separation=separation)
            r = solve_tip_pose(demo.params, pair, demo.source, CAL, settings, mode)
            assert not r.converged
            w = tip_wrench(pair, r.tip, demo.source, CAL)
            for got, ref in ((r.wrench.force, w.force), (r.wrench.torque, w.torque)):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_settings_contracts(self):
        with pytest.raises(Exception):
            SolverSettings(position_tolerance=0.0)
        with pytest.raises(Exception):
            SolverSettings(relaxation=1.5)
        with pytest.raises(Exception):
            SolverSettings(max_iterations=0)

    @pytest.mark.parametrize("tangent", [
        [1.0, 1e-4, 0.0], [0.5, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
    def test_pose_seed_needs_finite_unit_tangent(self, demo, tangent):
        with pytest.raises(ContractViolation):
            SolverSettings(initial_tip=TipPose(demo.params.straight_tip, tangent))

    def test_pose_seed_needs_finite_position(self):
        with pytest.raises(ContractViolation):
            SolverSettings(initial_tip=TipPose([np.nan, 0.0, 0.0], E1))

    def test_pose_seed_starts_at_its_tangent(self, demo):
        # seeded at its own converged pose, a solve stops after one iteration
        r = solve(demo, 0.7, 0.2)
        again = solve(demo, 0.7, 0.2, settings=replace(demo.settings, initial_tip=r.tip))
        assert again.iterations == 1
        assert np.linalg.norm(again.tip.position - r.tip.position) <= \
            demo.settings.position_tolerance


def _solve_grid(demo, ke, kb, mode, n, settings=None):
    """Cold batched solves over an n x n grid of magnet angles in [0, 2 pi)^2."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    params = replace(demo.params, stiffness_scale=ke)
    return _solve_batch(params, demo.pair_template, demo.source,
                        settings or demo.settings, mode, grid,
                        params.bending_stiffness, kb)


class TestFixedPoint:
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    @pytest.mark.parametrize("ke, kb", [(0.001, 4.0), (0.002, 4.0), (0.009, 4.03)])
    def test_tips_lie_at_their_fixed_point(self, demo, ke, kb, mode):
        # reference: the same solves to 1e-13 m. The stop test also checks
        # the change of the tangent; on position alone, soft bodies stop up
        # to micrometres from their fixed point
        tol = demo.settings.position_tolerance
        got = _solve_grid(demo, ke, kb, mode, 12)
        ref = _solve_grid(demo, ke, kb, mode, 12,
                          replace(demo.settings, position_tolerance=1e-13))
        assert got.converged.all() and ref.converged.all()
        assert np.all(got.residual <= tol)
        assert np.all(np.linalg.norm(got.tip - ref.tip, axis=1) <= tol)

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_softest_grid_converges(self, demo, mode):
        # the relaxation floor keeps the accelerated loop as robust as the
        # damped one: without it most of these cases stall, and undamped
        # (relaxation 1) about a third of them fail
        assert _solve_grid(demo, 0.001, 4.03, mode, 36).converged.all()

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_demonstrator_iterations(self, demo, mode):
        batch = _solve_grid(demo, 0.009, 4.03, mode, 36)
        assert batch.converged.all()
        assert batch.iterations.max() <= 6


def _close_rows(a, b, rel=1e-12):
    scale = np.maximum(np.linalg.norm(b, axis=1), 1e-300)
    return np.all(np.linalg.norm(a - b, axis=1) <= rel * scale)


def _random_cases(demo, rng, n_cases):
    """Magnet angles, field scales, tip positions and unit tangents of
    random cases; the first two tangents are +e1 and -e1."""
    angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (n_cases, 2))
    k_b = rng.uniform(3.5, 4.5, n_cases)
    p = demo.params.straight_tip + rng.uniform(-0.03, 0.03, (n_cases, 3))
    n = rng.normal(size=(n_cases, 3))
    n[:2] = [E1, -E1]
    n /= np.linalg.norm(n, axis=1)[:, None]
    return angles, k_b, p, n


class TestBatchKernels:
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    def test_wrench_rows_match_public_compositions(self, demo, separation):
        # reference: f = sum G(p_i)^T m_i, tau = sum m_i x B(p_i) + delta n x f,
        # with the full-Jacobian field and the public ring moment
        rng = np.random.default_rng(5)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        angles, k_b, p, n = _random_cases(demo, rng, 64)
        w, r2 = _ring_pair_wrench_rows(_ring_rows(pair, demo.source, k_b, angles), p, n)
        assert np.all(r2 > 0.0)
        expected = np.zeros_like(w)
        for k in range(len(w)):
            cal = FieldCalibration(k_b[k])
            f, tau = np.zeros(3), np.zeros(3)
            for magnet, theta in zip((pair.magnet_1, pair.magnet_2), angles[k]):
                m = ring_dipole_moment(replace(magnet, angle=theta), n[k])
                s = calibrated_field(demo.source, cal, p[k] + magnet.axial_offset * n[k])
                f += s.gradient.T @ m
                tau += np.cross(m, s.B)
            expected[k] = np.concatenate([f, tau + separation * np.cross(n[k], f)])
        assert _close_rows(w[:, :3], expected[:, :3])
        assert _close_rows(w[:, 3:], expected[:, 3:])

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_beam_rows_match_closed_forms(self, demo, mode):
        # superposed classical cantilever results: an end moment M deflects
        # by M L^2 / (2 EI) with slope M L / EI, an end force F by
        # c F L^3 / EI (c = 1/3, or 1/6 in legacy mode) with slope F L^2 / (2 EI)
        rng = np.random.default_rng(7)
        n_cases = 32
        L = demo.params.length
        straight = demo.params.straight_tip
        ei = rng.uniform(0.5, 2.0, n_cases) * demo.params.bending_stiffness
        w = np.hstack([rng.normal(size=(n_cases, 3)) * 1e-4,
                       rng.normal(size=(n_cases, 3)) * 1e-6])
        c = 1.0 / 3.0 if mode is BeamFormulation.CORRECTED else 1.0 / 6.0
        fy, fz, my, mz = w[:, 1], w[:, 2], w[:, 4], w[:, 5]
        # bending in x-y is driven by F_y and M_z, in x-z by F_z and -M_y
        dy = (mz * L**2 / 2 + c * fy * L**3) / ei
        dz = (-my * L**2 / 2 + c * fz * L**3) / ei
        sy = (mz * L + fy * L**2 / 2) / ei
        sz = (-my * L + fz * L**2 / 2) / ei
        p, n = _cantilever_rows(straight, L, ei[:, None], mode, w)
        assert _close_rows(p, straight + np.column_stack([np.zeros(n_cases), dy, dz]))
        tangent = np.column_stack([np.ones(n_cases), sy, sz])
        assert _close_rows(n, tangent / np.linalg.norm(tangent, axis=1)[:, None])

    def test_rows_are_independent(self, demo):
        # N rows give what N single-row calls give, bit for bit, so a case's
        # result does not depend on the batch it is solved in
        rng = np.random.default_rng(13)
        mag = demo.pair_template.magnet_1.moment_magnitude
        for separation in (0.0, 5e-3):
            pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
            angles, k_b, p, n = _random_cases(demo, rng, 33)
            rings = _ring_rows(pair, demo.source, k_b, angles)
            w, r2 = _ring_pair_wrench_rows(rings, p, n)
            ei = rng.uniform(0.5, 2.0, (len(w), 1)) * demo.params.bending_stiffness
            for mode in BeamFormulation:
                pb, nb = _cantilever_rows(demo.params.straight_tip, demo.params.length,
                                          ei, mode, w)
                for k in range(len(w)):
                    wk, r2k = _ring_pair_wrench_rows(rings.take([k]), p[k:k + 1],
                                                     n[k:k + 1])
                    assert np.array_equal(wk[0], w[k]) and np.array_equal(r2k[0], r2[k])
                    pk, nk = _cantilever_rows(demo.params.straight_tip,
                                              demo.params.length, ei[k:k + 1], mode,
                                              w[k:k + 1])
                    assert np.array_equal(pk[0], pb[k]) and np.array_equal(nk[0], nb[k])

    def test_singular_rows_flagged(self, demo):
        pair = demo.pair_template.with_angles(0.3, 0.1)
        rings = _ring_rows(pair, demo.source, np.ones(2), np.zeros((2, 2)))
        p = np.array([demo.source.position, demo.params.straight_tip])
        with np.errstate(divide="ignore", invalid="ignore"):
            w, r2 = _ring_pair_wrench_rows(rings, p, np.array([E1, E1]))
        assert (r2 <= 0.0).any(axis=1).tolist() == [True, False]
        assert np.all(np.isfinite(w[1]))


class TestColdSweep:
    def assert_matches_scalar(self, params, pair_template, settings, t1, t2, demo,
                              mode=MODE):
        pts = sweep(params, pair_template, demo.source, CAL, settings, mode,
                    t1, t2, warm_start=False)
        assert [pt.q for pt in pts] == [(a, b) for a in t1 for b in t2]
        tol = settings.position_tolerance
        for pt in pts:
            try:
                ref = solve_tip_pose(params, pair_template.with_angles(*pt.q),
                                     demo.source, CAL, settings, mode)
            except (DivergenceError, FieldSingularityError) as exc:
                assert pt.result is None and pt.error == str(exc)
                continue
            assert pt.error is None
            r = pt.result
            assert r.converged == ref.converged
            assert r.iterations == ref.iterations
            assert np.linalg.norm(r.tip.position - ref.tip.position) <= tol
            assert np.linalg.norm(r.tip.tangent - ref.tip.tangent) <= tol
            assert r.residual == pytest.approx(ref.residual, rel=1e-6, abs=1e-15)
            assert np.allclose(r.wrench.force, ref.wrench.force, rtol=1e-9, atol=1e-15)
            assert np.allclose(r.wrench.torque, ref.wrench.torque, rtol=1e-9,
                               atol=1e-18)
        return pts

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_matches_per_point_solves(self, demo, mode):
        t = list(np.radians(np.arange(0.0, 360.0, 40.0)))
        pts = self.assert_matches_scalar(demo.params, demo.pair_template,
                                         demo.settings, t, t, demo, mode)
        assert all(pt.result.converged for pt in pts)

    def test_matches_with_separation_and_seed(self, demo):
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=5e-3)
        settings = replace(demo.settings,
                           initial_tip=demo.params.straight_tip + [0.0, 0.005, 0.0])
        t = list(np.radians([0.0, 75.0, 150.0, 290.0]))
        self.assert_matches_scalar(demo.params, pair, settings, t, t, demo)

    def test_divergent_points_recorded(self, demo):
        soft = replace(demo.params, stiffness_scale=1e-9)
        pts = self.assert_matches_scalar(soft, demo.pair_template,
                                         replace(demo.settings, relaxation=1.0),
                                         [0.0, 0.4, math.pi], [0.0], demo)
        assert [pt.result is None for pt in pts] == [True, True, False]
        assert pts[0].error.startswith("fixed-point residual")

    def test_unconverged_points_keep_last_iterate(self, demo):
        settings = replace(demo.settings, max_iterations=3)
        t = list(np.radians([0.0, 30.0, 180.0]))
        pts = self.assert_matches_scalar(demo.params, demo.pair_template, settings,
                                         t, [0.0], demo)
        assert [pt.result.converged for pt in pts] == [False, False, True]
        assert pts[0].result.iterations == 3


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

    def test_batch_deterministic(self, demo):
        t1 = np.radians([0.0, 30.0, 60.0])
        a = sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, t1, [0.0, math.pi])
        b = sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, t1, [0.0, math.pi])
        for x, y in zip(a, b):
            assert x.q == y.q
            assert np.array_equal(x.result.tip.position, y.result.tip.position)

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    @pytest.mark.parametrize("ke, kb", [(0.001, 4.0), (0.002, 4.0), (0.009, 4.03),
                                        (0.018, 3.5)])
    def test_grid_batch_matches_warm_path(self, demo, ke, kb, mode, monkeypatch):
        # the warm zipped schedule over the same theta1-major points is the
        # sequential path grids took before they became one batch
        params = replace(demo.params, stiffness_scale=ke)
        t1 = list(np.radians(np.arange(0.0, 360.0, 20.0)))
        t2 = list(np.radians(np.arange(0.0, 360.0, 30.0)))
        calls = []
        monkeypatch.setattr(equilibrium, "solve_tip_pose",
                            lambda *a, **k: calls.append(a) or solve_tip_pose(*a, **k))
        grid = sweep(params, demo.pair_template, demo.source, FieldCalibration(kb),
                     demo.settings, mode, t1, t2)
        assert calls == []
        qs = [(a, b) for a in t1 for b in t2]
        warm = sweep(params, demo.pair_template, demo.source, FieldCalibration(kb),
                     demo.settings, mode, [q[0] for q in qs], [q[1] for q in qs],
                     zipped=True, warm_start=True)
        assert len(calls) == len(qs) == len(grid) == 216
        tol = demo.settings.position_tolerance
        for g, w in zip(grid, warm):
            assert g.q == w.q
            assert (g.error is None) == (w.error is None)
            if g.error is None:
                assert g.result.converged == w.result.converged
                if g.result.converged:
                    # farther apart would be a second equilibrium branch
                    gap = np.linalg.norm(g.result.tip.position - w.result.tip.position)
                    assert gap <= 10.0 * tol

    def test_warm_schedule_fewer_iterations_than_cold(self, demo):
        # the warm seed carries the previous tip's tangent as well as its
        # position: 97 iterations against 120 cold; seeded with the
        # position alone the schedule takes 120 as well
        path = default_config_path().parent / "elliptical-schedule.csv"
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t1, t2 = np.radians(rows[:, 0]), np.radians(rows[:, 1])
        total = {}
        for warm in (True, False):
            pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                        demo.settings, MODE, t1, t2, zipped=True, warm_start=warm)
            assert all(pt.result.converged for pt in pts)
            total[warm] = sum(pt.result.iterations for pt in pts)
        assert total[True] < total[False]

    def test_failures_recorded_not_raised(self, demo):
        soft = replace(demo.params, stiffness_scale=1e-9)
        pts = sweep(soft, demo.pair_template, demo.source, CAL,
                    replace(demo.settings, relaxation=1.0), MODE,
                    [0.0, math.pi], [0.0])
        assert len(pts) == 2
        assert pts[0].result is None and pts[0].error is not None
        # the antiparallel point is a zero-wrench fixed point and still solves
        assert pts[1].result is not None and pts[1].result.converged
        tips, converged = _tips(pts)
        assert np.isnan(tips[0]).all()
        assert np.array_equal(tips[1], pts[1].result.tip.position)
        assert converged.tolist() == [False, True]

    def test_tips_keep_unconverged_positions(self, demo):
        pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                    replace(demo.settings, max_iterations=1), MODE, [0.5, 1.0], [0.0])
        tips, converged = _tips(pts)
        assert not converged.any()
        assert np.array_equal(tips, [pt.result.tip.position for pt in pts])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("zipped, warm", [(False, True), (True, True), (True, False)],
                             ids=["grid", "warm-schedule", "cold-schedule"])
    def test_nonfinite_angles_rejected_before_solving(self, demo, monkeypatch,
                                                      zipped, warm, value):
        calls = []
        monkeypatch.setattr(equilibrium, "_solve_batch",
                            lambda *a, **k: calls.append(a))
        for t1, t2 in (([0.0, value], [0.0, 0.5]), ([0.0, 0.5], [value, 0.5])):
            with pytest.raises(ContractViolation, match="finite"):
                sweep(demo.params, demo.pair_template, demo.source, CAL,
                      demo.settings, MODE, t1, t2, zipped=zipped, warm_start=warm)
        assert calls == []

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

    def test_no_converged_seed_raises(self, demo):
        settings = replace(demo.settings, max_iterations=1)
        with pytest.raises(DivergenceError, match="no grid seed converged"):
            invert_controls(demo.params.straight_tip, demo.params,
                            demo.pair_template, demo.source, CAL, settings, MODE,
                            grid_size=3)

    def test_unreachable_flagged(self, demo):
        target = demo.params.straight_tip + np.array([0.0, 2 * demo.params.length, 0.0])
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert not inv.within_reach
        assert inv.result.converged

    @pytest.mark.parametrize("q", [(1.8010, 1.8935), (4.5962, 4.8653)]
                             + [tuple(q) for q in np.random.default_rng(21).uniform(
                                 0.0, 2.0 * math.pi, (20, 2))],
                             ids=lambda q: f"{q[0]:.4f},{q[1]:.4f}")
    def test_round_trip_random(self, demo, q):
        # the first two lie near the theta1 = theta2 fold, where one
        # least-squares seed alone can stall; the error is recomputed by a
        # fresh solve at the returned angles
        target = solve(demo, *q).tip.position
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        tol = demo.settings.position_tolerance
        assert inv.within_reach
        assert inv.position_error <= tol
        again = solve(demo, *inv.q)
        assert np.linalg.norm(again.tip.position - target) <= tol

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_round_trip_soft_body(self, demo, mode):
        # at k_e = 0.002 the fixed point contracts slowly, and the answer at
        # the default tolerance and the tight refinement solves must still
        # agree to within tolerance
        soft = replace(demo.params, stiffness_scale=0.002)
        cal = FieldCalibration(4.0)
        tol = demo.settings.position_tolerance
        for q in np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (6, 2)):
            target = solve(demo, *q, cal=cal, mode=mode, params=soft).tip.position
            inv = invert_controls(target, soft, demo.pair_template, demo.source, cal,
                                  demo.settings, mode)
            assert inv.position_error <= tol

    def test_unreachable_no_worse_than_dense_grid(self, demo):
        # oracle: the nearest tip over a dense 180 x 180 grid of cold solves
        target = demo.params.straight_tip + 0.03 * np.array([0.0, 0.6, 0.8])
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        t = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        batch = _solve_batch(demo.params, demo.pair_template, demo.source,
                             demo.settings, MODE, grid, demo.params.bending_stiffness,
                             CAL.k_b)
        assert batch.converged.all()
        nearest = np.linalg.norm(batch.tip - target, axis=1).min()
        assert not inv.within_reach
        assert inv.position_error <= nearest + demo.settings.position_tolerance

    def test_repeatable(self, demo):
        # same inputs, bit-identical answer
        target = solve(demo, 1.8010, 1.8935).tip.position
        args = (target, demo.params, demo.pair_template, demo.source, CAL,
                demo.settings, MODE)
        a = invert_controls(*args)
        b = invert_controls(*args)
        assert a.q == b.q
        assert np.array_equal(a.result.tip.position, b.result.tip.position)
        assert a.position_error == b.position_error

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_target_rejected(self, demo, value):
        target = demo.params.straight_tip + np.array([0.0, value, 0.0])
        with pytest.raises(ContractViolation, match="finite"):
            invert_controls(target, demo.params, demo.pair_template, demo.source,
                            CAL, demo.settings, MODE)

    def test_empty_grid_rejected(self, demo):
        with pytest.raises(ContractViolation):
            invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                            demo.source, CAL, demo.settings, MODE, grid_size=0)

import logging
import math
from dataclasses import fields, is_dataclass, replace
from enum import Enum

import numpy as np
import pytest

from magbeam import equilibrium
from magbeam.beam import (
    BeamFormulation,
    TipPose,
    _cantilever_rows,
    _chart_rows,
    _pose_rows,
    tip_pose_from_wrench,
)
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import (
    DivergenceError,
    SolverSettings,
    _solve_batch,
    _sweep_rows,
    invert_controls,
    solve_tip_pose,
    sweep,
)
from magbeam.geomag import (
    _SINGULAR,
    E1,
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    FieldSingularityError,
    RingMagnet,
    RingPairConfig,
    _dot,
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
# a grid, and a schedule; each is solved as one cold batch
SWEEP_KINDS = pytest.mark.parametrize("zipped", [False, True], ids=["grid", "cold-schedule"])


def _record_wrench_calls(monkeypatch) -> list:
    """Patch the wrench kernel of the solver to record the first row (p, n,
    w) of every call it makes."""
    calls = []

    def kernel(rings, p, n):
        w, r2 = _ring_pair_wrench_rows(rings, p, n)
        calls.append((p[0].copy(), n[0].copy(), w[0].copy()))
        return w, r2

    monkeypatch.setattr(equilibrium, "_ring_pair_wrench_rows", kernel)
    return calls


def _record_passes(monkeypatch) -> list:
    """Patch the inverse's Newton pass to record the row count of every call."""
    passes = []
    newton_pass = equilibrium._newton_pass
    monkeypatch.setattr(equilibrium, "_newton_pass",
                        lambda *a: passes.append(len(a[5])) or newton_pass(*a))
    return passes


def _record_batches(monkeypatch) -> list:
    """Patch the batched solve to record the number of cases of every call."""
    batches = []
    solve_batch = equilibrium._solve_batch
    monkeypatch.setattr(equilibrium, "_solve_batch",
                        lambda *a: batches.append(len(a[5])) or solve_batch(*a))
    return batches


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
            RingMagnet(abs(summed), (t1 + t2) / 2),
            RingMagnet(0.0, 0.0), 0.0,
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
    def test_unconverged_wrench_belongs_to_the_tip(self, demo, mode, separation,
                                                   monkeypatch):
        # an unconverged result reports the last relaxed iterate as its tip,
        # with no wrench evaluated there: one more iteration evaluates the
        # wrench at exactly that pose, and it is the public tip_wrench there
        calls = _record_wrench_calls(monkeypatch)
        mag = demo.pair_template.magnet_1.moment_magnitude
        for t1, t2 in ((0.3, 0.0), (1.9, 4.4), (5.0, 2.2)):
            pair = RingPairConfig.from_angles(mag, t1, t2, separation=separation)
            calls.clear()
            r = solve_tip_pose(demo.params, pair, demo.source, CAL,
                               replace(demo.settings, max_iterations=3), mode)
            assert not r.converged and r.iterations == 3 and len(calls) == 3
            calls.clear()
            solve_tip_pose(demo.params, pair, demo.source, CAL,
                           replace(demo.settings, max_iterations=4), mode)
            p, n, w = calls[3]
            assert p.tobytes() == r.tip.position.tobytes()
            assert n.tobytes() == r.tip.tangent.tobytes()
            ref = tip_wrench(pair, r.tip, demo.source, CAL).as_stacked()
            assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_settings_contracts(self):
        with pytest.raises(Exception):
            SolverSettings(position_tolerance=0.0)
        with pytest.raises(Exception):
            SolverSettings(relaxation=1.5)
        with pytest.raises(Exception):
            SolverSettings(max_iterations=0)
        # a float count used to crash the solve in range(), and an infinite
        # tolerance made every solve "converge" after one iteration
        for bad in (2.5, 3.0, np.float64(3.0), True, False, 0, -1, np.int64(0)):
            with pytest.raises(ContractViolation, match="max_iterations"):
                SolverSettings(max_iterations=bad)
        for bad in (math.inf, -math.inf, math.nan, 0.0, -1e-6):
            with pytest.raises(ContractViolation, match="position_tolerance"):
                SolverSettings(position_tolerance=bad)
        for good in (1, np.int64(7), np.int32(3)):
            assert SolverSettings(max_iterations=good).max_iterations == good

    def test_vector_seed_is_a_read_only_copy(self):
        seed = np.array([0.15, 0.0, 0.0])
        settings = SolverSettings(initial_tip=seed)
        seed[1] = 1.0
        assert settings.initial_tip.tolist() == [0.15, 0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            settings.initial_tip[1] = 1.0

    @pytest.mark.parametrize("tangent", [
        [1.0, 1e-4, 0.0], [0.5, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
    def test_pose_seed_needs_finite_unit_tangent(self, demo, tangent):
        with pytest.raises(ContractViolation):
            SolverSettings(initial_tip=TipPose(demo.params.straight_tip, tangent))

    @pytest.mark.parametrize("seed", [
        TipPose([np.nan, 0.0, 0.0], E1), TipPose([0.15, np.inf, 0.0], E1),
        np.array([np.nan, 0.0, 0.0]), np.array([0.15, 0.0, -np.inf])],
        ids=["pose-nan", "pose-inf", "vector-nan", "vector-inf"])
    def test_pose_seed_needs_finite_position(self, seed):
        with pytest.raises(ContractViolation):
            SolverSettings(initial_tip=seed)

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
            for magnet, theta, offset in zip((pair.magnet_1, pair.magnet_2), angles[k],
                                             (0.0, -separation)):
                m = ring_dipole_moment(replace(magnet, angle=theta), n[k])
                s = calibrated_field(demo.source, cal, p[k] + offset * n[k])
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
        u = _cantilever_rows(L, ei[:, None], mode, w)
        assert _close_rows(u[:, :2], np.column_stack([dy, dz]))
        assert _close_rows(u[:, 2:], np.column_stack([sy, sz]))

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
            L = demo.params.length
            for mode in BeamFormulation:
                ub = _cantilever_rows(L, ei, mode, w)
                xb = _pose_rows(L, ub)
                for k in range(len(w)):
                    wk, r2k = _ring_pair_wrench_rows(rings.take([k]), p[k:k + 1],
                                                     n[k:k + 1])
                    assert np.array_equal(wk[0], w[k]) and np.array_equal(r2k[0], r2[k])
                    uk = _cantilever_rows(L, ei[k:k + 1], mode, w[k:k + 1])
                    assert np.array_equal(uk[0], ub[k])
                    assert np.array_equal(_pose_rows(L, uk)[0], xb[k])
            # the broadcast dot of the kernel, (N, 1, 3) rows against one 3-vector
            ms = demo.source.moment
            d = _dot(p[:, None], ms)
            assert d.shape == (len(p), 1)
            for k in range(len(p)):
                assert np.array_equal(_dot(p[k:k + 1, None], ms), d[k:k + 1])
            # whole solves: each row of a batch of N is the one-case solve
            for n_cases in (1, 2, 3, 5, 17, 33):
                q = rng.uniform(0.0, 2.0 * math.pi, (n_cases, 2))
                k_b = rng.uniform(3.5, 4.5, n_cases)
                batch = _solve_batch(demo.params, pair, demo.source, demo.settings, MODE, q,
                                     demo.params.bending_stiffness, k_b)
                for k in range(n_cases):
                    ref = solve_tip_pose(demo.params, pair.with_angles(*q[k]), demo.source,
                                         FieldCalibration(k_b[k]), demo.settings, MODE)
                    assert batch.error[k] is None
                    assert batch.pose[k].tobytes() == np.concatenate(
                        [ref.tip.position, ref.tip.tangent]).tobytes()
                    assert batch.residual[k] == ref.residual
                    assert (batch.iterations[k], batch.converged[k]) == (
                        ref.iterations, ref.converged)

    def test_singular_rows_flagged(self, demo):
        pair = demo.pair_template.with_angles(0.3, 0.1)
        rings = _ring_rows(pair, demo.source, np.ones(2), np.zeros((2, 2)))
        p = np.array([demo.source.position, demo.params.straight_tip])
        with np.errstate(divide="ignore", invalid="ignore"):
            w, r2 = _ring_pair_wrench_rows(rings, p, np.array([E1, E1]))
        assert (r2 <= 0.0).any(axis=1).tolist() == [True, False]
        assert np.all(np.isfinite(w[1]))


class TestStop:
    """However a batch's cases stop together, each row is its own solve."""

    def assert_rows_are_solves(self, demo, source, cases, settings=None):
        # cases are (theta1, theta2, stiffness_scale, k_b), solved as one batch
        settings = settings or demo.settings
        params = [replace(demo.params, stiffness_scale=c[2]) for c in cases]
        batch = _solve_batch(demo.params, demo.pair_template, source, settings, MODE,
                             [c[:2] for c in cases], [p.bending_stiffness for p in params],
                             [c[3] for c in cases])
        for k, (case, pk) in enumerate(zip(cases, params)):
            try:
                ref = solve_tip_pose(pk, demo.pair_template.with_angles(*case[:2]), source,
                                     FieldCalibration(case[3]), settings, MODE)
            except (DivergenceError, FieldSingularityError) as exc:
                assert batch.error[k] == str(exc)
                assert np.isnan(batch.tip[k]).all() and not batch.converged[k]
                continue
            assert batch.error[k] is None
            for got, want in ((batch.tip[k], ref.tip.position),
                              (batch.tangent[k], ref.tip.tangent)):
                assert got.tobytes() == want.tobytes()
            assert batch.iterations[k] == ref.iterations
            assert batch.residual[k].tobytes() == np.float64(ref.residual).tobytes()
            assert batch.converged[k] == ref.converged
        return batch

    def test_one_case_is_the_public_maps(self, demo):
        # antiparallel rings converge in one iteration: the tip is g of the
        # straight pose, bit for bit
        pair = demo.pair_template.with_angles(math.pi, 0.0)
        r = solve_tip_pose(demo.params, pair, demo.source, CAL, demo.settings, MODE)
        straight = TipPose(demo.params.straight_tip, E1)
        tip = tip_pose_from_wrench(demo.params, tip_wrench(pair, straight, demo.source, CAL),
                                   MODE)
        assert (r.iterations, r.converged) == (1, True)
        assert r.tip.position.tobytes() == tip.position.tobytes()
        assert r.tip.tangent.tobytes() == tip.tangent.tobytes()
        assert r.residual == math.dist(tip.position, straight.position)

    def test_mixed_stop_then_last_cases(self, demo):
        # a source at the straight tip: in the first iteration one case
        # converges, one diverges (a near-zero stiffness) and one is singular
        # (k_b = 1 leaves the source on the seed); two mirrored cases go on
        # and stop converged together, with tips mirrored in y
        source = DipoleSource(moment=demo.source.moment, position=demo.params.straight_tip)
        batch = self.assert_rows_are_solves(demo, source, [
            (math.pi, 0.0, 0.009, 4.03), (0.5, 0.1, 0.009, 4.03), (0.3, 0.0, 1e-9, 2.0),
            (0.3, 0.0, 0.009, 1.0), (-0.5, -0.1, 0.009, 4.03)])
        assert batch.iterations[0] == 1 and batch.iterations[1] == batch.iterations[4] > 1
        assert batch.error[2].endswith("after 1 iterations")
        assert batch.error[3] == _SINGULAR
        assert batch.tip[1, 1] == -batch.tip[4, 1] != 0.0

    def test_stop_after_the_first_relaxed_step(self, demo):
        # nearly antiparallel rings converge in the second iteration, while
        # the other cases, one relaxation factor each, go on
        batch = self.assert_rows_are_solves(demo, demo.source, [
            (0.5, 0.1, 0.009, 4.03), (0.3, 0.3 + math.pi + 1e-4, 0.009, 4.03),
            (2.0, 1.0, 0.012, 3.8)])
        assert batch.iterations[1] == 2 < min(batch.iterations[0], batch.iterations[2])

    def test_large_batch_of_mixed_stops(self, demo):
        # a source at a quarter of the straight tip: k_b = 4 puts it on the
        # seed (singular), and k_b of 35-80 gives fields like the
        # demonstrator's; a near-zero stiffness diverges and the antiparallel
        # first case converges in the first iteration, while the others stop
        # in many iterations, so that many rows leave the batch at each stop
        source = DipoleSource(moment=demo.source.moment,
                              position=demo.params.straight_tip / 4.0)
        kes, kbs = (0.009, 0.018, 1e-9, 0.012, 0.003), (4.0, 35.0, 45.0, 60.0, 80.0, 50.0)
        cases = [(math.pi, 0.0, 0.009, 47.0)] + [
            (2.0 * math.pi * k / 72, (0.0, 0.5, -1.0)[k % 3], kes[k % 5], kbs[k % 6])
            for k in range(1, 72)]
        batch = self.assert_rows_are_solves(demo, source, cases)
        stops = set(batch.iterations[batch.converged].tolist())
        assert {1, 3, 4, 5}.issubset(stops) and len(stops) >= 8
        errors = [e for e in batch.error if e is not None]
        assert _SINGULAR in errors
        assert any(e.startswith("fixed-point residual") for e in errors)
        # an iteration limit of 3 stops many of the same rows unconverged
        batch = self.assert_rows_are_solves(demo, source, cases,
                                            replace(demo.settings, max_iterations=3))
        at_limit = [not c and e is None for c, e in zip(batch.converged, batch.error)]
        assert sum(at_limit) >= 10 and (batch.iterations[at_limit] == 3).all()


class TestKernelCalls:
    """The loop evaluates the wrench kernel once per iteration and never at
    a solve's exit pose."""

    def test_one_case_solve(self, demo, monkeypatch):
        calls = _record_wrench_calls(monkeypatch)
        for t1, t2 in ((math.pi, 0.0), (0.7, 0.2), (2.0, 1.0)):
            calls.clear()
            r = solve(demo, t1, t2)
            assert r.converged and len(calls) == r.iterations

    def test_batch(self, demo, monkeypatch):
        calls = _record_wrench_calls(monkeypatch)
        batch = _solve_grid(demo, 0.009, 4.03, MODE, 6)
        assert batch.converged.all() and batch.iterations.min() < batch.iterations.max()
        assert len(calls) == batch.iterations.max()
        # stops of every kind in one batch: converged, diverged and singular
        # in the first iteration, the rest converged later or at the limit
        source = DipoleSource(moment=demo.source.moment, position=demo.params.straight_tip)
        cases = [(math.pi, 0.0, 0.009, 4.03), (0.5, 0.1, 0.009, 4.03),
                 (0.3, 0.0, 1e-9, 2.0), (0.3, 0.0, 0.009, 1.0)]
        for limit, converged in ((1000, True), (2, False)):
            calls.clear()
            batch = _solve_batch(demo.params, demo.pair_template, source,
                                 replace(demo.settings, max_iterations=limit), MODE,
                                 [c[:2] for c in cases],
                                 [replace(demo.params, stiffness_scale=c[2]).bending_stiffness
                                  for c in cases], [c[3] for c in cases])
            assert batch.error[2] is not None and batch.error[3] == _SINGULAR
            assert batch.converged.tolist() == [True, converged, False, False]
            assert batch.iterations[1] > 1 and len(calls) == batch.iterations[1]


class TestColdSweep:
    def assert_matches_scalar(self, params, pair_template, settings, t1, t2, demo,
                              mode=MODE):
        pts = sweep(params, pair_template, demo.source, CAL, settings, mode, t1, t2)
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
        # the reference is the warm chain that schedules took before they
        # became one batch: one solve per point, seeded at the previous
        # converged tip, or at settings.initial_tip after a failure
        params = replace(demo.params, stiffness_scale=ke)
        cal = FieldCalibration(kb)
        t1 = list(np.radians(np.arange(0.0, 360.0, 20.0)))
        t2 = list(np.radians(np.arange(0.0, 360.0, 30.0)))
        qs = [(a, b) for a in t1 for b in t2]
        warm, seed = [], demo.settings.initial_tip
        for q in qs:
            try:
                res = solve_tip_pose(params, demo.pair_template.with_angles(*q), demo.source,
                                     cal, replace(demo.settings, initial_tip=seed), mode)
            except (DivergenceError, FieldSingularityError):
                res = None
            warm.append(res)
            seed = res.tip if res is not None and res.converged else demo.settings.initial_tip
        calls = []
        monkeypatch.setattr(equilibrium, "solve_tip_pose",
                            lambda *a, **k: calls.append(a) or solve_tip_pose(*a, **k))
        grid = sweep(params, demo.pair_template, demo.source, cal, demo.settings, mode,
                     t1, t2)
        assert calls == []
        schedule = sweep(params, demo.pair_template, demo.source, cal, demo.settings, mode,
                         [q[0] for q in qs], [q[1] for q in qs], zipped=True)
        converged = [w is not None and w.converged for w in warm]
        assert len(calls) == sum(converged)
        assert len(qs) == len(grid) == len(schedule) == 216
        tol = demo.settings.position_tolerance
        for pts in (grid, schedule):
            for pt, w, q in zip(pts, warm, qs):
                assert pt.q == q
                assert (pt.error is None) == (w is not None)
                if w is not None:
                    assert pt.result.converged == w.converged
                    if w.converged:
                        # farther apart would be a second equilibrium branch
                        gap = np.linalg.norm(pt.result.tip.position - w.tip.position)
                        assert gap <= 10.0 * tol

    def test_schedule_is_one_batch_then_one_step_check_solves(self, demo, monkeypatch):
        # the shipped elliptical schedule: one batch of its 24 points, then
        # one public solve per converged point, started at the pose the
        # batch found for it
        path = default_config_path().parent / "elliptical-schedule.csv"
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t1, t2 = np.radians(rows[:, 0]), np.radians(rows[:, 1])
        batches = _record_batches(monkeypatch)
        checks = []
        monkeypatch.setattr(equilibrium, "solve_tip_pose",
                            lambda *a: checks.append(solve_tip_pose(*a)) or checks[-1])
        pts = sweep(demo.params, demo.pair_template, demo.source, CAL,
                    demo.settings, MODE, t1, t2, zipped=True)
        assert all(pt.result.converged for pt in pts)
        assert batches == [24] + [1] * 24
        assert [c.iterations for c in checks] == [1] * 24

    def test_failures_recorded_not_raised(self, demo):
        soft = replace(demo.params, stiffness_scale=1e-9)
        args = (soft, demo.pair_template, demo.source, CAL,
                replace(demo.settings, relaxation=1.0), MODE, [0.0, math.pi], [0.0])
        pts = sweep(*args)
        assert len(pts) == 2
        assert pts[0].result is None and pts[0].error is not None
        # the antiparallel point is a zero-wrench fixed point and still solves
        assert pts[1].result is not None and pts[1].result.converged
        q, rows = _sweep_rows(*args)
        assert [tuple(a) for a in q.tolist()] == [pt.q for pt in pts]
        assert rows.error.tolist() == [pts[0].error, None]
        assert np.isnan(rows.tip[0]).all()
        assert np.array_equal(rows.tip[1], pts[1].result.tip.position)
        assert rows.converged.tolist() == [False, True]

    def test_tips_keep_unconverged_positions(self, demo):
        args = (demo.params, demo.pair_template, demo.source, CAL,
                replace(demo.settings, max_iterations=1), MODE, [0.5, 1.0], [0.0])
        pts = sweep(*args)
        _, rows = _sweep_rows(*args)
        assert not rows.converged.any()
        assert rows.error.tolist() == [None, None]
        assert np.isfinite(rows.tip).all()
        assert np.array_equal(rows.tip, [pt.result.tip.position for pt in pts])

    @pytest.mark.parametrize("case", ["demonstrator", "failing"])
    @SWEEP_KINDS
    def test_columns_equal_points(self, demo, zipped, case):
        if case == "demonstrator":
            params = demo.params
            t1 = np.radians(np.arange(0.0, 360.0, 40.0))
            t2 = np.radians(np.arange(0.0, 90.0, 10.0))
        else:  # a soft body: only the antiparallel point (180, 0) deg solves
            params = replace(demo.params, stiffness_scale=1e-6)
            t1 = np.radians([0.0, 90.0, 180.0, 270.0])
            t2 = np.radians([0.0, 10.0, 0.0, 30.0])
        args = (params, demo.pair_template, demo.source, CAL, demo.settings, MODE,
                t1, t2, zipped)
        pts = sweep(*args)
        q, rows = _sweep_rows(*args)
        assert len(q) == len(pts) == (len(t1) if zipped else len(t1) * len(t2))
        failed = rows.error != None  # noqa: E711 -- elementwise over an object array
        assert failed.any() == (case == "failing")
        assert not failed.all()
        # the invariant the callers of the columns rely on
        assert np.array_equal(np.isnan(rows.tip).any(axis=1), failed)
        assert np.array_equal(np.isnan(rows.tip).all(axis=1), failed)
        for k, pt in enumerate(pts):
            assert pt.q == tuple(q[k])
            assert pt.error == rows.error[k]
            if pt.error is not None:
                assert pt.result is None and not rows.converged[k]
                continue
            r = pt.result
            assert np.array_equal(r.tip.position, rows.tip[k])
            assert np.array_equal(r.tip.tangent, rows.tangent[k])
            assert r.iterations == rows.iterations[k]
            assert r.residual == rows.residual[k]
            assert r.converged == rows.converged[k]

    @SWEEP_KINDS
    def test_singular_exit_pose_has_no_tip(self, demo, zipped):
        # a field-free source at the straight tip (k_b = 1 leaves it there):
        # from a seed within the tolerance of it every solve converges in
        # one iteration onto the source, and from a seed 5 mm off an
        # undamped solve limited to one iteration stops there unconverged;
        # either way its exit pose is singular
        source = DipoleSource(moment=np.zeros(3), position=demo.params.straight_tip)
        for offset, more in ((5e-7, {}), (5e-3, dict(relaxation=1.0, max_iterations=1))):
            settings = replace(demo.settings, **more,
                               initial_tip=demo.params.straight_tip + [0.0, offset, 0.0])
            args = (demo.params, demo.pair_template, source, FieldCalibration(1.0),
                    settings, MODE, [0.3, 0.5], [0.1, 0.2], zipped)
            pts = sweep(*args)
            assert [(pt.result, pt.error) for pt in pts] == [(None, _SINGULAR)] * len(pts)
            _, rows = _sweep_rows(*args)
            assert rows.error.tolist() == [_SINGULAR] * len(rows.error)
            assert np.isnan(rows.tip).all()
            assert not rows.converged.any()

    def test_failed_check_solve_keeps_its_error(self, demo, monkeypatch):
        # the check-solve of the second of four converged schedule points
        # raises: that row gets its error and no tip, the others are as
        # without the failure
        args = (demo.params, demo.pair_template, demo.source, CAL, demo.settings, MODE,
                np.radians([0.0, 40.0, 80.0, 120.0]), np.radians([0.0, 10.0, 20.0, 30.0]),
                True)
        _, clean = _sweep_rows(*args)
        assert clean.converged.all()
        calls = []

        def failing_second(*a):
            calls.append(a)
            if len(calls) == 2:
                raise DivergenceError("check-solve failed")
            return solve_tip_pose(*a)

        monkeypatch.setattr(equilibrium, "solve_tip_pose", failing_second)
        _, rows = _sweep_rows(*args)
        assert len(calls) == 4
        assert rows.error.tolist() == [None, "check-solve failed", None, None]
        assert np.isnan(rows.pose[1]).all() and np.isnan(rows.residual[1])
        assert rows.converged.tolist() == [True, False, True, True]
        keep = [0, 2, 3]
        assert np.array_equal(rows.pose[keep], clean.pose[keep])
        assert np.array_equal(rows.iterations[keep], clean.iterations[keep])
        assert np.array_equal(rows.residual[keep], clean.residual[keep])
        calls.clear()
        pts = sweep(*args)
        assert [pt.error for pt in pts] == [None, "check-solve failed", None, None]
        assert pts[1].result is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @SWEEP_KINDS
    def test_nonfinite_angles_rejected_before_solving(self, demo, monkeypatch,
                                                      zipped, value):
        calls = []
        monkeypatch.setattr(equilibrium, "_solve_batch",
                            lambda *a, **k: calls.append(a))
        for t1, t2 in (([0.0, value], [0.0, 0.5]), ([0.0, 0.5], [value, 0.5])):
            with pytest.raises(ContractViolation, match="finite"):
                sweep(demo.params, demo.pair_template, demo.source, CAL,
                      demo.settings, MODE, t1, t2, zipped=zipped)
        assert calls == []

    def test_zipped_unequal_lengths_rejected_before_solving(self, demo, monkeypatch):
        calls = []
        monkeypatch.setattr(equilibrium, "_solve_batch",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ContractViolation, match="equal-length"):
            sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, [0.0, 0.5], [0.0], zipped=True)
        assert calls == []

    def test_empty_rejected(self, demo):
        with pytest.raises(Exception):
            sweep(demo.params, demo.pair_template, demo.source, CAL,
                  demo.settings, MODE, [], [0.0])


@pytest.mark.parametrize("entry", ["solve_tip_pose", "sweep", "tip_wrench",
                                   "calibrated_field", "invert_controls"])
def test_overflowing_squares_raise_no_warning(demo, entry):
    # k_b = 1e308 moves the source about 1e308 m out, and a target 1e297 m
    # out is as far: their squared distances overflow to inf, which is a
    # zero field or an infinite miss, not a RuntimeWarning (an error here)
    far = FieldCalibration(1e308)
    pair = demo.pair_template.with_angles(0.0, 0.0)
    straight = demo.params.straight_tip
    if entry in ("solve_tip_pose", "sweep"):
        res = (solve(demo, 0.0, 0.0, cal=far) if entry == "solve_tip_pose" else
               sweep(demo.params, demo.pair_template, demo.source, far, demo.settings,
                     MODE, [0.0], [0.0])[0].result)
        assert np.array_equal(res.tip.position, straight)
        assert np.array_equal(res.tip.tangent, E1)
        assert res.iterations == 1 and res.converged
    elif entry == "tip_wrench":
        w = tip_wrench(pair, TipPose(straight, E1), demo.source, far)
        assert not w.force.any() and not w.torque.any()
    elif entry == "calibrated_field":
        field = calibrated_field(demo.source, far, straight)
        assert not field.B.any() and not field.gradient.any()
    else:
        inv = invert_controls(straight + [0.0, 1e297, 1e297], demo.params,
                              demo.pair_template, demo.source, CAL, demo.settings, MODE)
        assert inv.position_error == math.inf
        assert not inv.within_reach and inv.result.converged


REACHABLE = pytest.mark.parametrize("reachable", [True, False],
                                    ids=["reachable", "unreachable"])


def _inverse_target(demo, reachable: bool) -> np.ndarray:
    """A model tip, or a point 30 mm from the straight tip, twice the reach."""
    if reachable:
        return solve(demo, math.radians(50), math.radians(10)).tip.position
    return demo.params.straight_tip + np.array([0.0, 0.018, 0.024])


def _one_field_changes(value, path: str):
    """``(path, copy)`` for every change of one leaf field of ``value``,
    found by walking ``dataclasses.fields``, so a field added later is
    changed here with no further code: a float or an array entry moves by
    one part in 1e12 (a zero float to 1e-12), an integer by one and an
    enum to another member; None stays. An unknown leaf type fails."""
    if is_dataclass(value):
        for f in fields(value):
            for leaf, new in _one_field_changes(getattr(value, f.name), f"{path}.{f.name}"):
                yield leaf, replace(value, **{f.name: new})
    elif isinstance(value, np.ndarray):
        new = value.copy()
        new[np.argmax(np.abs(new))] *= 1.0 + 1e-12
        yield path, new
    elif isinstance(value, Enum):
        yield path, next(m for m in type(value) if m is not value)
    elif isinstance(value, float):
        yield path, value * (1.0 + 1e-12) if value else 1e-12
    elif isinstance(value, int) and not isinstance(value, bool):
        yield path, value + 1
    elif value is not None:
        pytest.fail(f"no change defined for {path} of type {type(value).__name__}")


def _bits(inv) -> tuple:
    """An InverseResult as exact values, to compare answers bit for bit."""
    r = inv.result
    return (np.array(inv.q).tobytes(), r.tip.position.tobytes(), r.tip.tangent.tobytes(),
            r.iterations, np.float64(r.residual).tobytes(), r.converged,
            np.float64(inv.position_error).tobytes(), inv.within_reach, inv.basin_count)


class TestInverse:
    # the demonstrator's source lies on the robot's axis, so a query refines
    # in the one angle theta1 - theta2 on the trigonometric interpolant of a
    # row solved beside the grid, with no Newton pass (TestInverseOffAxis
    # runs the general refinement): the kind named in the debug log, the
    # case counts of the batched solves of a memo miss but for the answer's,
    # and the row counts of the Newton passes for a reachable and an
    # unreachable target
    REFINEMENT = "axis"
    MISS_BATCHES = [24 * 24, 48]
    PASSES = {True: [], False: []}

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

    def test_no_converged_seed_raises(self, demo, monkeypatch):
        # on every call: a grid with no converged seed is not memoised
        settings = replace(demo.settings, max_iterations=1)
        batches = _record_batches(monkeypatch)
        for _ in range(2):
            with pytest.raises(DivergenceError, match="no grid seed converged"):
                invert_controls(demo.params.straight_tip, demo.params,
                                demo.pair_template, demo.source, CAL, settings, MODE,
                                grid_size=3)
        assert batches == [9, 9]

    def test_unreachable_flagged(self, demo):
        target = demo.params.straight_tip + np.array([0.0, 2 * demo.params.length, 0.0])
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert not inv.within_reach
        assert inv.result.converged

    def test_off_plane_target_out_of_reach(self, demo):
        # every tip has x = L, so a model tip moved 1.3 mm along e1 is out of
        # reach, and the answer is that tip, 1.3 mm away
        tip = _inverse_target(demo, True)
        inv = invert_controls(tip + 1.3e-3 * E1, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert not inv.within_reach
        assert inv.position_error == pytest.approx(1.3e-3, abs=1e-8)
        assert np.linalg.norm(inv.result.tip.position - tip) <= 1e-8

    def test_in_plane_target_past_the_rim_out_of_reach(self, demo):
        # in the plane x = L the tips fill a disk of radius 15.70 mm about
        # the straight tip, so a target 16.2 mm out is missed by 0.5 mm in
        # every direction, though it lies within 1.05 times the grid's reach
        for angle in np.radians(np.arange(0, 360, 15)):
            offset = 16.2e-3 * np.array([0.0, math.cos(angle), math.sin(angle)])
            inv = invert_controls(demo.params.straight_tip + offset, demo.params,
                                  demo.pair_template, demo.source, CAL, demo.settings, MODE)
            assert not inv.within_reach
            assert inv.position_error == pytest.approx(0.4989e-3, abs=1e-7)

    def test_refined_angles_wrap_into_range(self, demo, monkeypatch):
        # an angle a hair below 0 from the refinement is answered as 0, not
        # as the 2 pi that one np.mod rounds it up to
        for name in ("_least_squares", "_axis_refinement"):
            monkeypatch.setattr(equilibrium, name, lambda *a, refine=getattr(equilibrium, name): (
                (np.array([-1e-20, -1e-20]), *refine(*a)[1:])))
        inv = invert_controls(_inverse_target(demo, True), demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        assert inv.q == (0.0, 0.0)

    def test_refinement_keeps_seeds_that_no_trial_improves(self):
        # a Newton pass under which every trial lands 1 m from the target,
        # worse than either seed: no seed moves, and the better seed comes
        # back with its own angles, coordinates and error
        target = np.array([0.0, 0.01, 0.0])  # p_target - L e1
        q = np.array([[0.3, 0.1], [1.2, 2.0]])
        u = np.array([[0.004, 0.0, 0.01, 0.0], [0.002, 0.0, 0.0, 0.0]])
        calls = []

        def newton(points, coords):
            calls.append(len(points))
            coords = coords.copy()
            if len(calls) > 1:  # a trial
                coords[:, 0] = -0.99
            return coords, np.tile(np.eye(4, 2), (len(points), 1, 1))

        q_ls, err, u_ls = equilibrium._least_squares(newton, target, q, u, 1e-6)
        assert calls == [2, 2 * len(equilibrium._INVERSE_DAMPING)]
        assert np.array_equal(q_ls, q[0]) and np.array_equal(u_ls, u[0])
        assert err == abs(u[0, 0] - target[1])

    @pytest.mark.parametrize("q", [(1.8010, 1.8935), (4.5962, 4.8653)]
                             + [tuple(q) for q in np.random.default_rng(21).uniform(
                                 0.0, 2.0 * math.pi, (20, 2))],
                             ids=lambda q: f"{q[0]:.4f},{q[1]:.4f}")
    def test_round_trip_random(self, demo, q):
        # the first two lie near the theta1 = theta2 fold, where one
        # least-squares seed alone can stall; the error is recomputed by a
        # fresh solve at the returned angles. The answer's solve starts at
        # the winner's fixed point, so it stops in its first iteration, and
        # lands where a cold solve at the same angles does
        target = solve(demo, *q).tip.position
        inv = invert_controls(target, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE)
        tol = demo.settings.position_tolerance
        assert inv.within_reach
        assert inv.position_error <= tol
        assert inv.result.converged and inv.result.iterations == 1
        again = solve(demo, *inv.q)
        assert np.linalg.norm(again.tip.position - target) <= tol
        assert np.linalg.norm(again.tip.position - inv.result.tip.position) <= tol

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_round_trip_soft_body(self, demo, mode):
        # at k_e = 0.002 the fixed point contracts slowly, and the answer at
        # the default tolerance and the Newton-corrected poses of the
        # refinement must still agree to within tolerance
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
        # grid_size has the integer contract of max_iterations
        for size in (0, -1, np.int64(0), 2.5, 2.0, np.float64(3.0), True, "3", None):
            with pytest.raises(ContractViolation, match="grid_size"):
                invert_controls(demo.params.straight_tip, demo.params,
                                demo.pair_template, demo.source, CAL, demo.settings,
                                MODE, grid_size=size)
        inv = invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                              demo.source, CAL, demo.settings, MODE,
                              grid_size=np.int64(2))
        assert inv.result.converged

    @REACHABLE
    def test_no_nested_solves(self, demo, monkeypatch, reachable):
        # the coarse grid and the final answer are the only fixed-point
        # solves, and a second query on the same model reuses the grid; the
        # refinement runs on single passes of the row kernels, pinned here
        # by their row counts (PASSES)
        expected = self.PASSES[reachable]
        target = _inverse_target(demo, reachable)
        batches, passes = _record_batches(monkeypatch), _record_passes(monkeypatch)
        args = (target, demo.params, demo.pair_template, demo.source, CAL,
                demo.settings, MODE)
        inv = invert_controls(*args)
        assert batches == self.MISS_BATCHES + [1]
        assert passes == expected
        assert inv.within_reach is reachable
        batches.clear()
        passes.clear()
        again = invert_controls(*args)
        assert batches == [1]
        assert passes == expected
        assert _bits(again) == _bits(inv)

    @REACHABLE
    def test_memo_hit_is_bit_identical(self, demo, monkeypatch, reachable):
        # a query answered from the previous query's grid (at another
        # target) equals the same query made cold
        args = (demo.params, demo.pair_template, demo.source, CAL, demo.settings, MODE)
        target = _inverse_target(demo, reachable)
        cold = invert_controls(target, *args)
        monkeypatch.setattr(equilibrium, "_grid_memo", None)
        invert_controls(_inverse_target(demo, not reachable), *args)
        batches = _record_batches(monkeypatch)
        warm = invert_controls(target, *args)
        assert batches == [1]
        assert _bits(warm) == _bits(cold)

    @pytest.mark.parametrize("seed", ["none", "vector", "pose"])
    def test_memo_misses_on_any_model_change(self, demo, monkeypatch, seed):
        # every field of every input, found by walking the dataclasses, is
        # changed alone; only the template's angles, which the grid
        # replaces, are no part of the key
        initial_tip = {"none": None, "vector": demo.params.straight_tip,
                       "pose": TipPose(demo.params.straight_tip, E1)}[seed]
        model = dict(params=demo.params, pair_template=demo.pair_template,
                     source=demo.source, cal=CAL,
                     settings=replace(demo.settings, initial_tip=initial_tip),
                     mode=MODE, grid_size=8)
        target = _inverse_target(demo, True)
        batches = _record_batches(monkeypatch)
        hits = {}
        for name, value in model.items():
            for leaf, new in _one_field_changes(value, name):
                invert_controls(target, **model)
                batches.clear()
                changed = {**model, name: new}
                invert_controls(target, **changed)
                hits[leaf] = batches[0] != changed["grid_size"] ** 2
        angles = {"pair_template.magnet_1.angle", "pair_template.magnet_2.angle"}
        assert angles <= hits.keys()
        assert {leaf for leaf, hit in hits.items() if hit} == angles
        assert ("settings.initial_tip.tangent" in hits) is (seed == "pose")

    def test_memo_key_tells_types_and_signed_zeros(self, demo):
        # EI of integer factors is an exact product, of float ones a rounded
        # one, so equal values of another type are another model
        key = equilibrium._value_key
        whole = replace(demo.params, elastic_modulus=int(demo.params.elastic_modulus))
        assert whole.elastic_modulus == demo.params.elastic_modulus
        assert key(whole) != key(demo.params)
        assert key(0.0) != key(-0.0)
        assert key(TipPose(E1, E1)) == key(TipPose(E1.copy(), E1.copy()))

    def test_memo_hits_after_the_seed_array_is_written(self, demo, monkeypatch):
        # a pose holds read-only copies of the caller's arrays, so a later
        # write to them reaches neither the pose nor the settings, and the
        # next query hits the memo
        position = demo.params.straight_tip.copy()
        pose = TipPose(position, E1.copy())
        settings = replace(demo.settings, initial_tip=pose)
        args = (_inverse_target(demo, True), demo.params, demo.pair_template,
                demo.source, CAL, settings, MODE)
        first = invert_controls(*args, grid_size=8)
        position[1] = 1e-3
        assert np.array_equal(pose.position, demo.params.straight_tip)
        assert np.array_equal(settings.initial_tip.position, demo.params.straight_tip)
        with pytest.raises(ValueError):
            pose.position[1] = 1e-3
        batches = _record_batches(monkeypatch)
        again = invert_controls(*args, grid_size=8)
        assert batches == [1]
        assert _bits(again) == _bits(first)

    def test_memo_hit_on_template_angles(self, demo, monkeypatch):
        # the grid replaces the template's angles, so they are no part of the key
        target = _inverse_target(demo, True)
        args = (demo.source, CAL, demo.settings, MODE)
        first = invert_controls(target, demo.params, demo.pair_template, *args)
        batches = _record_batches(monkeypatch)
        turned = invert_controls(target, demo.params,
                                 demo.pair_template.with_angles(1.0, 2.0), *args)
        assert batches == [1]
        assert _bits(turned) == _bits(first)

    def test_default_grid_is_24_by_24(self, demo, monkeypatch):
        # the default grid does not follow the axis row's size: 576 cells
        # at 15 degree steps of both angles
        batches = _record_batches(monkeypatch)
        monkeypatch.setattr(equilibrium, "_grid_memo", None)
        invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                        demo.source, CAL, demo.settings, MODE)
        assert batches[0] == 576
        t = np.radians(np.arange(0, 360, 15))
        assert np.allclose(equilibrium._grid_memo[1][0],
                           np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2),
                           rtol=0.0, atol=1e-15)

    def test_memo_arrays_read_only(self, demo):
        # the entry holds the row series, its coefficients and the row's
        # solved cells, for a source on the axis, on every grid, the
        # default's and a 4 x 4 one
        for grid_size in (4, 24):
            invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                            demo.source, CAL, demo.settings, MODE, grid_size=grid_size)
            q, batch, series = equilibrium._grid_memo[1]
            assert (series is not None) is (self.REFINEMENT == "axis")
            for a in [q, batch.pose, batch.converged, *(series or ())]:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_debug_logging_changes_no_answer(self, demo, monkeypatch, caplog):
        args = (_inverse_target(demo, True), demo.params, demo.pair_template,
                demo.source, CAL, demo.settings, MODE)
        quiet = invert_controls(*args)
        monkeypatch.setattr(equilibrium, "_grid_memo", None)
        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        loud = [invert_controls(*args) for _ in range(2)]
        assert [_bits(r) for r in loud] == [_bits(quiet)] * 2
        said = [m for m in caplog.messages if m in ("inverse grid: hit", "inverse grid: miss")]
        assert said == ["inverse grid: miss", "inverse grid: hit"]
        assert sum("seeds failed" in m for m in caplog.messages) == 1
        # the general path logs its count of Newton passes; the axis path makes none
        line = {"axis": "inverse refinement: axis",
                "general": f"inverse refinement: general, {len(self.PASSES[True])} Newton passes"}
        refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
        assert refined == [line[self.REFINEMENT]] * 2

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    @pytest.mark.parametrize("ke, kb", [(0.002, 4.0), (0.009, 4.03)])
    def test_round_trip_separated_rings(self, demo, ke, kb, mode):
        # a nonzero separation takes the wrench kernel through two dipoles
        # and the lever-arm torque
        params = replace(demo.params, stiffness_scale=ke)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=5e-3)
        cal = FieldCalibration(kb)
        tol = demo.settings.position_tolerance
        for q in np.random.default_rng(17).uniform(0.0, 2.0 * math.pi, (4, 2)):
            target = solve_tip_pose(params, pair.with_angles(*q), demo.source, cal,
                                    demo.settings, mode).tip.position
            inv = invert_controls(target, params, pair, demo.source, cal,
                                  demo.settings, mode)
            assert inv.within_reach
            assert inv.position_error <= tol

    @pytest.mark.parametrize("kb", [1.0, 2.0])
    def test_far_target_answered_at_a_converged_cell(self, demo, kb):
        # a target 1e200 m away overflows every converged cell's error, so
        # all of them tie; a failed cell must not, and the answer's solve
        # starts at the winning cell's converged pose
        target = demo.params.straight_tip + np.array([0.0, 1e200, 0.0])
        inv = invert_controls(target, demo.params, demo.pair_template, demo.source,
                              FieldCalibration(kb), demo.settings, MODE, grid_size=24)
        q, batch, _ = equilibrium._grid_memo[1]
        assert not batch.converged.all()
        (cell,) = np.flatnonzero((q == inv.q).all(axis=1))
        assert batch.converged[cell]
        assert inv.result.converged and not inv.within_reach

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 5), (6, 9), (24, 24)])
    @pytest.mark.parametrize("density", [0.1, 0.4, 0.7])
    def test_basin_count_matches_wrapped_labelling(self, shape, density):
        # oracle: every set cell takes the smallest label among itself and
        # its four wrapped neighbours until no label changes; a component
        # ends with one label, the smallest index in it
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random(shape) < density
            none = mask.size
            label = np.where(mask, np.arange(mask.size).reshape(shape), none)
            while True:
                near = np.minimum.reduce([label] + [np.roll(label, s, axis=a)
                                                    for s in (1, -1) for a in (0, 1)])
                near = np.where(mask, near, none)
                if np.array_equal(near, label):
                    break
                label = near
            assert (equilibrium._count_basins(np.flatnonzero(mask), mask.shape)
                    == np.unique(label[mask]).size)


def _off_axis(demo, dy: float):
    """The demonstrator with its source moved ``dy`` along e2, off the robot's axis."""
    return replace(demo, source=DipoleSource(demo.source.moment,
                                             demo.source.position + [0.0, dy, 0.0]))


class TestInverseOffAxis(TestInverse):
    """Every TestInverse test with the source 5 mm off the robot's axis,
    where a query refines by multi-start Levenberg-Marquardt."""

    REFINEMENT = "general"
    MISS_BATCHES = [24 * 24]
    PASSES = {True: [5, 15, 15, 12], False: [5, 15, 15, 15, 3]}
    # these see no source: TestInverse runs them once
    test_refinement_keeps_seeds_that_no_trial_improves = None
    test_nonfinite_target_rejected = None
    test_memo_key_tells_types_and_signed_zeros = None
    test_basin_count_matches_wrapped_labelling = None

    @pytest.fixture(scope="class")
    def demo(self, demo):
        return _off_axis(demo, 5e-3)

    def test_in_plane_target_past_the_rim_out_of_reach(self, demo):
        # off the axis the reach is no disk about the straight tip, so the
        # oracle is the nearest tip over a dense 180 x 180 grid of cold solves
        t = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        tips = _solve_batch(demo.params, demo.pair_template, demo.source, demo.settings,
                            MODE, grid, demo.params.bending_stiffness, CAL.k_b).tip
        for angle in np.radians(np.arange(0, 360, 45)):
            target = demo.params.straight_tip + 16.2e-3 * np.array(
                [0.0, math.cos(angle), math.sin(angle)])
            inv = invert_controls(target, demo.params, demo.pair_template, demo.source, CAL,
                                  demo.settings, MODE)
            assert not inv.within_reach
            nearest = np.linalg.norm(tips - target, axis=1).min()
            assert inv.position_error <= nearest + demo.settings.position_tolerance


class TestAxisRefinement:
    """The one-angle refinement of a source on the axis against the
    general one, which the same query takes with the source 1e-9 m off
    the axis."""

    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    @pytest.mark.parametrize("kb", [4.03, 3.0, 2.5])
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_agrees_with_the_general_path(self, demo, caplog, mode, kb, separation):
        # on coarse and fine grids, even and odd, whose refinement reads the
        # same 48-cell row; at k_b = 2.5 the row's cells carry the most noise
        brentq = pytest.importorskip("scipy.optimize").brentq
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        cal = FieldCalibration(kb)
        tol = demo.settings.position_tolerance
        straight = demo.params.straight_tip

        def tip(q):
            return solve_tip_pose(demo.params, pair.with_angles(*q), demo.source, cal,
                                  demo.settings, mode).tip.position

        def radius(delta):  # of a cold public solve at (delta, 0)
            return math.hypot(*tip((delta, 0.0))[1:])

        # 30 targets: 18 model tips, the first two by the theta1 = theta2
        # fold; 3 inside the rim, at the fold too, by 0.1 %, 2.7 and 1.2 ppm
        # (19 to 95 nm); 4 past it by 3 %; 3 model tips moved off the plane
        # x = L; the axis, on and off it
        rng = np.random.default_rng(29)
        targets = [tip(q) for q in [(1.8010, 1.8935), (4.5962, 4.8653),
                                    *rng.uniform(0.0, 2.0 * math.pi, (16, 2))]]
        rim, hole = radius(0.0), radius(math.pi)
        for scale, angle in zip([0.999, 1.0 - 2.7e-6, 1.0 - 1.2e-6] + [1.03] * 4,
                                rng.uniform(0.0, 2.0 * math.pi, 7)):
            targets.append(straight + scale * rim * np.array([0.0, math.cos(angle),
                                                              math.sin(angle)]))
        targets += [targets[k] + dx * E1 for k, dx in zip((2, 3, 4), (1.3e-3, -0.7e-3, 2e-3))]
        targets += [straight, straight + 1e-3 * E1]

        # oracle for the model tips and the targets inside the rim:
        # theta1 - theta2 from a root find on cold public solves, and the
        # tolerance in it that the slope of the distance there gives
        stars = []
        for t in targets[:21]:
            r = math.hypot(*t[1:] - straight[1:])
            star = brentq(lambda d: radius(d) - r, 0.0, math.pi, xtol=1e-14)
            h = 1e-5
            stars.append((star, tol * 2.0 * h / abs(radius(star + h) - radius(star - h))))

        def wrap(a):
            return (a + math.pi) % (2.0 * math.pi) - math.pi

        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        for grid_size in (4, 9, 23, 24):
            answers = {}
            for name, source in (("axis", demo.source), ("general", _off_axis(demo, 1e-9).source)):
                answers[name] = []
                for t in targets:
                    caplog.clear()
                    answers[name].append(invert_controls(t, demo.params, pair, source, cal,
                                                         demo.settings, mode, grid_size))
                    # a refined one-angle query, the rim's included, takes the axis
                    # path, which makes no Newton pass
                    refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
                    assert name == "general" or refined in (
                        [], ["inverse refinement: axis"])

            for k, (t, a, g) in enumerate(zip(targets, answers["axis"], answers["general"])):
                assert (a.within_reach, a.basin_count, a.result.converged) == (
                    g.within_reach, g.basin_count, g.result.converged)
                assert a.position_error <= g.position_error + 0.1 * tol
                assert a.result.iterations == 1
                r = math.hypot(*t[1:] - straight[1:])
                if not a.within_reach:
                    # oracle: the nearest point of the annulus hole <= rho <= rim
                    # that the tips fill in the plane x = L; for a target on the
                    # axis every point of the hole's rim is nearest
                    tip_yz = a.result.tip.position[1:] - straight[1:]
                    if r:
                        nearest = min(max(r, hole), rim) / r * (t[1:] - straight[1:])
                        assert np.linalg.norm(tip_yz - nearest) <= tol
                    else:
                        assert abs(math.hypot(*tip_yz) - hole) <= tol
                    continue
                # the same angles, to the 5e-3 rad to which the general path's
                # stop places an answer on the rim, or else the mirror twin
                # (theta1 - theta2 negated, the same tip), and only where both
                # reach the target's distance from the axis, in or off the plane
                if max(abs(wrap(a.q[0] - g.q[0])), abs(wrap(a.q[1] - g.q[1]))) > 5e-3:
                    assert abs(wrap(wrap(a.q[0] - a.q[1]) + wrap(g.q[0] - g.q[1]))) <= 5e-3
                    for answer in (a, g):
                        assert abs(math.hypot(*answer.result.tip.position[1:] - straight[1:])
                                   - r) <= tol
                if k < 21:
                    star, within = stars[k]
                    assert a.within_reach
                    assert abs(abs(wrap(a.q[0] - a.q[1])) - star) <= within

    @pytest.mark.parametrize("grid_size", [7, 25])
    def test_odd_grid_reaches_the_rim_of_the_hole(self, demo, grid_size):
        # rings 5 mm apart leave a hole of radius 0.16 mm about the axis, at
        # theta1 - theta2 = pi, where an odd grid has no cell: a target
        # between the hole and the grid's nearest cells is still reached,
        # since the refinement reads the even 48-cell row, which holds pi
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=5e-3)
        tol = demo.settings.position_tolerance
        for r in (0.2e-3, 0.5e-3, 0.9e-3):
            target = demo.params.straight_tip + r * np.array([0.0, 0.6, 0.8])
            axis, general = (invert_controls(target, demo.params, pair, source, CAL,
                                             demo.settings, MODE, grid_size=grid_size)
                             for source in (demo.source, _off_axis(demo, 1e-9).source))
            assert axis.within_reach and general.within_reach
            assert axis.position_error <= general.position_error + 0.1 * tol

    @pytest.mark.parametrize("grid_size", [1, 3, 9, 23, 25])
    def test_odd_grid_reaches_targets_near_the_axis(self, demo, monkeypatch, grid_size):
        # coincident rings put the tip on the axis at theta1 - theta2 = pi,
        # where the slope of its distance from the axis vanishes and an odd
        # grid has no cell; the refinement reads the 48-cell row whatever
        # the grid, and its root on that row's series must not stop at pi
        # on the vanishing slope. No query makes a Newton pass, and the
        # general path's answer, at the same grid, bounds the error
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=0.0)
        tol = demo.settings.position_tolerance
        passes = _record_passes(monkeypatch)
        for r in (0.3e-3, 0.7e-3, 1.0e-3, 5e-3):
            target = demo.params.straight_tip + r * np.array([0.0, 0.6, 0.8])
            passes.clear()
            axis = invert_controls(target, demo.params, pair, demo.source, CAL, demo.settings,
                                   MODE, grid_size=grid_size)
            assert passes == []
            general = invert_controls(target, demo.params, pair, _off_axis(demo, 1e-9).source,
                                      CAL, demo.settings, MODE, grid_size=grid_size)
            assert axis.within_reach
            assert axis.position_error <= general.position_error + 0.1 * tol

    @pytest.mark.parametrize("tol, kb", [(1e-6, 4.03), (1e-6, 2.5), (1e-6, 2.25), (1e-6, 2.2),
                                         (1e-11, 4.03), (1e-11, 3.0)])
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_row_series_meets_cold_solves(self, demo, monkeypatch, mode, separation, tol, kb):
        # the series a query at the tolerance tol keeps, whatever its grid,
        # against cold solves to 1e-13 m between the row's cells and at
        # them: within 0.01 x tol, at the default tolerance down to the
        # softest field whose row converges at k_e = 0.009 (largest miss
        # 5.4e-9 m, at k_b = 2.2), and at 1e-11 m for stiffer fields. A row
        # of 24 cells solved to the tolerance itself, not 1e-3 of it,
        # missed by up to 5.7e-6 m at the default tolerance
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        exact = replace(demo.settings, position_tolerance=1e-13)

        def row(delta):
            batch = _solve_batch(demo.params, pair, demo.source, exact, mode,
                                 np.column_stack([delta, np.zeros_like(delta)]),
                                 demo.params.bending_stiffness, kb)
            assert batch.converged.all()
            return _chart_rows(batch.pose)

        n = equilibrium._AXIS_ROW
        delta = equilibrium._AXIS_ANGLES
        monkeypatch.setattr(equilibrium, "_grid_memo", None)
        series = equilibrium._coarse_grid(
            demo.params, pair, demo.source, FieldCalibration(kb),
            replace(demo.settings, position_tolerance=tol), mode, 1)[2]
        between = delta + (2.0 * math.pi / n) * np.random.default_rng(31).uniform(
            0.05, 0.95, n)
        assert np.abs(series.at(between)[:, :2] - row(between)[:, :2]).max() <= 0.01 * tol
        # at the row's cells, the series and the solved cells it keeps
        cold = row(delta)
        for at_cells in (series.at(delta), series.cells):
            assert np.abs(at_cells[:, :2] - cold[:, :2]).max() <= 0.01 * tol

    @pytest.mark.parametrize("tol, kb, refinement", [
        (1e-12, 4.03, "axis"), (1e-14, 4.03, "axis"),
        (1e-12, 2.5, "general"), (1e-9, 2.2, "general")])
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    def test_tight_tolerance_reaches_model_tips(self, demo, caplog, separation, tol, kb,
                                                refinement):
        # a tight tolerance solves the row to 1e-3 of it, but never below
        # 64 epsilons of L (2.1e-15 m), where cells stop converging: at
        # k_b = 4.03 the series still answers at 1e-14 m. A softer field's
        # series is truncated too coarsely for such a tolerance (its last
        # harmonics exceed a tenth of it), and the general refinement
        # answers. Either way model tips are reached
        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        cal = FieldCalibration(kb)
        settings = replace(demo.settings, position_tolerance=tol)
        for mode in BeamFormulation:
            for q in np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (3, 2)):
                tip = solve_tip_pose(demo.params, pair.with_angles(*q), demo.source, cal,
                                     settings, mode).tip.position
                caplog.clear()
                inv = invert_controls(tip, demo.params, pair, demo.source, cal, settings, mode,
                                      grid_size=4)
                refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
                assert [m.split(",")[0] for m in refined] == [
                    f"inverse refinement: {refinement}"]
                assert (equilibrium._grid_memo[1][2] is None) is (refinement == "general")
                assert inv.within_reach and inv.result.converged

    @pytest.mark.parametrize("kb", [4.03, 2.25])
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_reaches_just_inside_and_past_the_rim_and_hole(self, demo, caplog, mode, kb):
        # rings 5 mm apart: targets 0.5 um inside and past the rim (the
        # cold-solved tip's distance from the axis at theta1 - theta2 = 0)
        # and the hole's rim (at pi) are reached on the series, with no
        # Newton pass; one past is missed by its distance past, less than tol
        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=5e-3)
        cal = FieldCalibration(kb)
        tol = demo.settings.position_tolerance
        exact = replace(demo.settings, position_tolerance=1e-13)
        straight = demo.params.straight_tip
        rim, hole = (math.hypot(*solve_tip_pose(demo.params, pair.with_angles(d, 0.0),
                                                demo.source, cal, exact, mode).tip.position[1:])
                     for d in (0.0, math.pi))
        angles = np.random.default_rng(41).uniform(0.0, 2.0 * math.pi, 4)
        for (r, past), angle in zip([(rim - 0.5e-6, 0.0), (rim + 0.5e-6, 0.5e-6),
                                     (hole + 0.5e-6, 0.0), (hole - 0.5e-6, 0.5e-6)], angles):
            target = straight + r * np.array([0.0, math.cos(angle), math.sin(angle)])
            caplog.clear()
            inv = invert_controls(target, demo.params, pair, demo.source, cal, demo.settings,
                                  mode, grid_size=4)
            refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
            assert refined == ["inverse refinement: axis"]
            assert inv.within_reach
            assert abs(inv.position_error - past) <= 0.01 * tol

    def test_winner_on_the_fold_takes_the_lexicographically_smaller_twin(self, demo):
        # the tip at (50, 10) degrees has the mirror twin (10, 50) with
        # coincident rings: a winner on either side of the fold
        # theta1 = theta2 gets the twin on its side, and one on the fold, or
        # on theta1 - theta2 = pi as a 24 x 24 grid holds it, the
        # lexicographically smaller, as on the grid
        tol = demo.settings.position_tolerance
        target = solve(demo, math.radians(50), math.radians(10)).tip.position
        invert_controls(target, demo.params, demo.pair_template, demo.source, CAL,
                        demo.settings, MODE)
        series = equilibrium._grid_memo[1][2]
        grid = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        for winner, answer in [((40, 20), (50, 10)), ((20, 40), (10, 50)),
                               ((300, 350), (10, 50)), ((30, 30), (10, 50)),
                               ((200, 200), (10, 50)), ((grid[14], grid[2]), (10, 50)),
                               ((grid[2], grid[14]), (10, 50))]:
            winner = np.radians(winner) if isinstance(winner[0], int) else np.array(winner)
            q, miss, _ = equilibrium._axis_refinement(
                target - demo.params.straight_tip, series, winner, tol)
            assert np.allclose(q, np.radians(answer), rtol=0.0, atol=1e-6)
            assert miss <= 0.01 * tol

    def test_series_is_the_same_on_every_grid(self, demo):
        # the series is that of one fixed row of the model, solved beside
        # any grid, so a 12 x 12 grid gets the 24 x 24 grid's, bit for bit
        series = {}
        for grid_size in (12, 24):
            invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                            demo.source, CAL, demo.settings, MODE, grid_size=grid_size)
            series[grid_size] = equilibrium._grid_memo[1][2]
        assert series[12] is not None
        assert [a.tobytes() for a in series[12]] == [a.tobytes() for a in series[24]]

    def test_unconverged_row_cell_is_left_out(self, demo, monkeypatch, caplog):
        # a cell that stopped at max_iterations keeps a finite pose; a
        # theta2 = 0 row with such a cell has no series, and the query takes
        # the general refinement, which reaches the target all the same. The
        # cell is one of the row's own solve, at an angle that the 24 x 24
        # grid does not hold
        self._unconverged_row_cell(demo, monkeypatch, caplog, 24)

    def test_unconverged_cell_of_a_solved_row_is_left_out(self, demo, monkeypatch, caplog):
        # as above, on a 12 x 12 grid
        self._unconverged_row_cell(demo, monkeypatch, caplog, 12)

    @staticmethod
    def _unconverged_row_cell(demo, monkeypatch, caplog, grid_size):
        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        target = _inverse_target(demo, True)
        args = (demo.params, demo.pair_template, demo.source, CAL, demo.settings, MODE,
                grid_size)
        intact = invert_controls(target, *args)
        sweep_rows = equilibrium._sweep_rows
        cell = [equilibrium._AXIS_ANGLES[5], 0.0]
        solved = []

        def one_failed(*a):
            grid, batch = sweep_rows(*a)
            converged = batch.converged.copy()
            converged[(grid == cell).all(axis=1)] = False
            solved.append((~converged).sum())
            return grid, batch._replace(converged=converged)

        monkeypatch.setattr(equilibrium, "_grid_memo", None)
        monkeypatch.setattr(equilibrium, "_sweep_rows", one_failed)
        caplog.clear()
        failed = invert_controls(target, *args)
        assert solved == [0, 1]
        assert equilibrium._grid_memo[1][2] is None
        assert failed.within_reach and failed.basin_count == intact.basin_count
        assert np.allclose(failed.q, intact.q, rtol=0.0, atol=1e-6)
        refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
        assert len(refined) == 1 and refined[0].startswith("inverse refinement: general,")

    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_failed_grid_row_solves_no_axis_row(self, demo, monkeypatch, caplog, mode):
        # at k_b = 2 cells of the grid's theta2 = 0 row fail, and the 48-cell
        # row, which holds every angle of that row, would fail there too: a
        # memo miss solves the grid alone and refines on the general path, as
        # it would after the row had failed
        caplog.set_level(logging.DEBUG, logger=equilibrium.__name__)
        target = demo.params.straight_tip + np.array([0.0, 0.018, 0.024])
        batches = _record_batches(monkeypatch)
        inv = invert_controls(target, demo.params, demo.pair_template, demo.source,
                              FieldCalibration(2.0), demo.settings, mode, grid_size=24)
        _, batch, series = equilibrium._grid_memo[1]
        assert not batch.converged.reshape(24, 24)[:, 0].all() and series is None
        assert batches == [576, 1]
        refined = [m for m in caplog.messages if m.startswith("inverse refinement:")]
        assert len(refined) == 1 and refined[0].startswith("inverse refinement: general,")
        assert inv.within_reach

    def test_a_failed_grid_row_cell_fails_in_the_axis_row(self, demo):
        # the premise of solving no 48-cell row where the grid's theta2 = 0
        # row has a failed cell: that row, solved as _coarse_grid solves it,
        # then has a failed cell too. A 24 x 24 grid's row angles are cells of
        # the 48-cell row, whose tighter stop runs the same iterates; a 23 x 23
        # grid's are not. The rows of every model of one mode and separation,
        # at k_e drawn about the demonstrator's, are solved as one batch,
        # which changes no row's iterates
        mag = demo.pair_template.magnet_1.moment_magnitude
        rng = np.random.default_rng(7)
        models = [(kb, g) for kb in (2.0, 2.15) for g in (23, 24)]
        tol = demo.settings.position_tolerance
        tight = replace(demo.settings, position_tolerance=max(
            equilibrium._INVERSE_STOP * tol,
            equilibrium._AXIS_EPS * np.finfo(float).eps * demo.params.length))
        failed_grid_rows = 0
        for mode in BeamFormulation:
            for separation in (0.0, 5e-3):
                pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
                ei = [replace(demo.params, stiffness_scale=ke).bending_stiffness
                      for ke in rng.uniform(0.008, 0.010, len(models))]

                def converged(settings, row_angles):
                    rows = [row_angles(g) for _, g in models]
                    n = [len(r) for r in rows]
                    q = np.column_stack([np.concatenate(rows), np.zeros(sum(n))])
                    batch = _solve_batch(demo.params, pair, demo.source, settings, mode, q,
                                         np.repeat(ei, n),
                                         np.repeat([kb for kb, _ in models], n))
                    return np.split(batch.converged, np.cumsum(n)[:-1])

                grid_rows = converged(demo.settings, lambda g: np.linspace(
                    0.0, 2.0 * math.pi, g, endpoint=False))
                axis_rows = converged(tight, lambda g: equilibrium._AXIS_ANGLES)
                for grid_row, axis_row in zip(grid_rows, axis_rows):
                    if not grid_row.all():
                        failed_grid_rows += 1
                        assert not axis_row.all()
        assert failed_grid_rows >= 12


class TestRefinementFailures:
    """Refinements whose Newton passes fail: a failed trial wins nothing."""

    def test_least_squares_scores_failed_trials_inf(self):
        # every trial lands at the coordinates its step predicts, nearer the
        # target than its seed, but with a failed sensitivity: it scores
        # +inf, so no seed moves
        target = np.array([0.0, 0.01, 0.0])  # p_target - L e1
        q = np.array([[0.3, 0.1], [1.2, 2.0]])
        u = np.array([[0.004, 0.0, 0.01, 0.0], [0.002, 0.0, 0.0, 0.0]])
        calls = []

        def newton(points, coords):
            calls.append(len(points))
            sens = np.tile(np.eye(4, 2), (len(points), 1, 1))
            if len(calls) > 1:  # a trial
                sens[:, 3, 1] = np.nan
            return coords.copy(), sens

        q_ls, err, u_ls = equilibrium._least_squares(newton, target, q, u, 1e-6)
        assert calls == [2, 2 * len(equilibrium._INVERSE_DAMPING)]
        assert np.array_equal(q_ls, q[0]) and np.array_equal(u_ls, u[0])
        assert err == abs(u[0, 0] - target[1])


class TestSensitivity:
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    @pytest.mark.parametrize("ke, kb", [(0.002, 4.0), (0.009, 4.03)])
    def test_matches_central_differences(self, demo, ke, kb, separation, mode):
        # oracle: central differences (h = 1e-5 rad) of tips solved to
        # 1e-13 m; the implicit-function sensitivity at the converged pose
        # must agree with them in its (p_y, p_z) rows, and p_x = L moves not
        params = replace(demo.params, stiffness_scale=ke)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        tight = replace(demo.settings, position_tolerance=1e-13)
        h = 1e-5

        def tips(q):
            batch = _solve_batch(params, pair, demo.source, tight, mode, q,
                                 params.bending_stiffness, kb)
            assert batch.converged.all()
            return batch

        q = np.random.default_rng(29).uniform(0.0, 2.0 * math.pi, (6, 2))
        at = tips(q)
        _, sens = equilibrium._newton_pass(params, pair, demo.source, mode, kb, q,
                                           _chart_rows(at.pose))
        steps = h * np.eye(2)
        plus = tips((q[:, None] + steps).reshape(-1, 2)).tip.reshape(6, 2, 3)
        minus = tips((q[:, None] - steps).reshape(-1, 2)).tip.reshape(6, 2, 3)
        oracle = ((plus - minus) / (2.0 * h)).swapaxes(1, 2)  # (6, 3, 2) dp/dq
        assert np.all(oracle[:, 0] == 0.0)
        miss = np.linalg.norm(sens[:, :2] - oracle[:, 1:], axis=(1, 2))
        assert np.all(miss <= 1e-5 * np.linalg.norm(oracle, axis=(1, 2)))

    def test_rows_are_independent_and_fail_alone(self, demo, monkeypatch):
        # a mixed batch: ordinary rows, a ring on the source, a NaN pose and
        # a row whose I - dG/du is singular. The source lies on the plane
        # x = L, where every pose of the chart has its tip. For the last row,
        # G is made to return the tip's y on every stencil block whose base
        # tip has y = 0 exactly; that row of dG/du is then e_y exactly, so
        # I - dG/du has a zero row. Every batch must equal its one-row calls
        # bit for bit and be NaN exactly on the failing rows: the whole
        # batch, whose test over the pass fails, and the batch without rows
        # 1 and 2, whose one solve raises LinAlgError
        wrench, cantilever = _ring_pair_wrench_rows, _cantilever_rows
        tips = []

        def wrench_rows(rings, p, n):
            tips.append(p.reshape(-1, 7, 3))
            return wrench(rings, p, n)

        def cantilever_rows(*args):
            g = cantilever(*args)
            p = tips.pop()
            flat = p[:, 0, 1] == 0.0
            g.reshape(-1, 7, 4)[flat, :, 0] = p[flat, :, 1]
            return g

        source, ring = _source_on_tip_plane(demo)
        q = np.random.default_rng(31).uniform(0.0, 2.0 * math.pi, (7, 2))
        u = _chart_rows(_solve_batch(demo.params, demo.pair_template, source, demo.settings,
                                     MODE, q, demo.params.bending_stiffness, CAL.k_b).pose)
        monkeypatch.setattr(equilibrium, "_ring_pair_wrench_rows", wrench_rows)
        monkeypatch.setattr(equilibrium, "_cantilever_rows", cantilever_rows)
        u[1] = [*ring, 0.0, 0.0]  # a ring on the source
        u[2] = np.nan
        u[4, 0] = 0.0  # singular
        failing = np.isin(np.arange(7), [1, 2, 4])

        def newton(rows):
            return equilibrium._newton_pass(demo.params, demo.pair_template, source,
                                            MODE, CAL.k_b, q[rows], u[rows])

        alone = [newton([k]) for k in range(7)]
        for rows in (np.arange(7), np.array([0, 3, 4, 5, 6])):
            coords, sens = newton(rows)
            assert np.array_equal(np.isnan(coords).all(axis=1), failing[rows])
            assert np.array_equal(np.isnan(sens).all(axis=(1, 2)), failing[rows])
            assert np.isfinite(coords[~failing[rows]]).all()
            for k, r in enumerate(rows):
                assert coords[k].tobytes() == alone[r][0][0].tobytes()
                assert sens[k].tobytes() == alone[r][1][0].tobytes()

    def test_singular_rows_are_nan(self, demo):
        # a pose at the source makes its row NaN and leaves the others alone
        source, ring = _source_on_tip_plane(demo)
        q = np.array([[0.3, 1.1], [0.3, 1.1]])
        u = np.array([[0.0, 0.0, 0.0, 0.0], [*ring, 0.0, 0.0]])
        coords, sens = equilibrium._newton_pass(demo.params, demo.pair_template,
                                                source, MODE, CAL.k_b, q, u)
        assert np.isfinite(coords[0]).all() and np.isfinite(sens[0]).all()
        assert np.isnan(coords[1]).all() and np.isnan(sens[1]).all()


def _source_on_tip_plane(demo):
    """The demonstrator's source moved so that CAL puts it on the plane
    x = L, 0.8 m off the straight tip (its own distance is 0.78 m), and the
    (p_y, p_z) of a tip there."""
    L = demo.params.length
    source = DipoleSource(moment=demo.source.moment,
                          position=np.array([L, 0.8, 0.0]) / CAL.k_b)
    ring = CAL.k_b * source.position
    assert ring[0] == L
    return source, ring[1:]


class TestNewtonOnTheChart:
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    @pytest.mark.parametrize("kb", [4.03, 2.5])
    def test_passes_from_straight_meet_the_fixed_point(self, demo, kb, separation, mode):
        # oracle: the fixed-point loop at 1e-13 m over the 36 x 36 grid in
        # 10 degree steps. Four Newton passes from the straight tip, u = 0,
        # must land within 1e-10 m of it; every exit pose of the loop lies
        # on the chart, p_x = L and n_x > 0, which the inverse's conversion
        # of grid poses to beam coordinates relies on
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        t = np.radians(np.arange(0, 360, 10))
        q = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        L = demo.params.length
        tight = replace(demo.settings, position_tolerance=1e-13)
        batch = _solve_batch(demo.params, pair, demo.source, tight, mode, q,
                             demo.params.bending_stiffness, kb)
        assert batch.converged.all()
        assert np.all(batch.tip[:, 0] == L) and np.all(batch.tangent[:, 0] > 0.0)
        u = np.zeros((len(q), 4))
        for _ in range(4):
            u, _ = equilibrium._newton_pass(demo.params, pair, demo.source, mode, kb, q, u)
        miss = np.linalg.norm(_pose_rows(L, u)[:, :3] - batch.tip, axis=1)
        assert np.all(miss <= 1e-10)

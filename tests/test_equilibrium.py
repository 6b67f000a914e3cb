import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam import equilibrium
from magbeam.beam import (
    BeamFormulation,
    TipPose,
    _cantilever_rows,
    _pose_rows,
    tip_pose_from_wrench,
)
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import (
    DivergenceError,
    SolverSettings,
    _solve_batch,
    _sweep_rows,
    solve_tip_pose,
    sweep,
)
from magbeam.geomag import (
    _SINGULAR,
    E1,
    MU0,
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
from magbeam.inverse import invert_controls


@pytest.fixture(scope="module")
def demo():
    cfg = load_config(default_config_path())
    return replace(cfg, params=replace(cfg.params, stiffness_scale=0.009))


CAL = FieldCalibration(4.03)
MODE = BeamFormulation.LEGACY
# a grid, and a schedule; each is solved as one cold batch
SWEEP_KINDS = pytest.mark.parametrize("zipped", [False, True], ids=["grid", "cold-schedule"])


def _record_wrench_calls(monkeypatch) -> list:
    """Patch the wrench kernel of the solver to record the first column (p,
    n, w) of every call it makes."""
    calls = []

    def kernel(rings, x):
        w, r2 = _ring_pair_wrench_rows(rings, x)
        calls.append((x[:3, 0].copy(), x[3:, 0].copy(), w[:, 0].copy()))
        return w, r2

    monkeypatch.setattr(equilibrium, "_ring_pair_wrench_rows", kernel)
    return calls



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


# The wrench kernel as first written, statement for statement: the
# reference that its rewrites for fewer numpy calls must reproduce byte
# for byte, as long as they keep its arithmetic.
def _reference_rotate_rows(v, n):
    c = n[:, :1]
    if c.min() < 0.0:
        s2 = n[:, 1:2] * n[:, 1:2] + n[:, 2:] * n[:, 2:]
        w = np.where(c < 0.0, (1.0 - c) / np.where(s2 > 0.0, s2, 1.0), 1.0 / (1.0 + abs(c)))
        v = np.where(((c < 0.0) & (s2 == 0.0))[:, None], v * [1.0, 1.0, -1.0], v)
    else:
        w = 1.0 / (1.0 + c)
    h = n * w
    h[:, 0] = 1.0
    return v - np.vecdot(n[:, None], v)[..., None] * h[:, None]


def _reference_field_rows(ms, pref, P, r2, m):
    ir = 1.0 / np.sqrt(r2)
    u = P * ir
    um = np.vecdot(u, ms)[..., None]
    u_m = np.vecdot(u, m)[..., None]
    m_ms = np.vecdot(m, ms)[..., None]
    a = pref * (ir * ir * ir)
    b = 3.0 * a * ir
    B = a * ((3.0 * um) * u - ms)
    return B, (b * u_m) * ms + (b * (m_ms - 5.0 * um * u_m)) * u + (b * um) * m


def _reference_cross(a, b):
    ab = a[..., [1, 2, 0, 2, 0, 1]] * b[..., [2, 0, 1, 1, 2, 0]]
    return ab[..., :3] - ab[..., 3:]


def _reference_wrench_rows(pair, source, k_b, angles, p, n):
    """The wrench rows (N, 6) and squared ring distances (N, K) of N cases."""
    mag = np.array([pair.magnet_1.moment_magnitude, pair.magnet_2.moment_magnitude])
    v = np.zeros(angles.shape + (3,))
    v[..., 1] = -mag * np.sin(angles)
    v[..., 2] = mag * np.cos(angles)
    if not pair.separation:
        v = v[:, :1] + v[:, 1:]
    m = _reference_rotate_rows(v, n)
    P = (p - k_b[:, None] * source.position)[:, None]
    if pair.separation:
        P = P + np.array([[0.0], [-pair.separation]]) * n[:, None]
    r2 = np.vecdot(P, P)
    pref = (k_b * (MU0 / (4.0 * math.pi)))[:, None, None]
    B, f = _reference_field_rows(source.moment, pref, P, r2[..., None], m)
    W = np.concatenate([f, _reference_cross(m, B)], axis=-1)
    w = W[:, 0] if W.shape[1] == 1 else W.sum(axis=1)
    if pair.separation:
        w[:, 3:] += pair.separation * _reference_cross(n, w[:, :3])
    return w, r2


class TestBatchKernels:
    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    def test_wrench_rows_are_the_reference_kernel(self, demo, separation):
        # K = 1 and K = 2 rings, tangents +e1, -e1 and both signs of n_x,
        # batches of one and of many rows: byte for byte the reference
        rng = np.random.default_rng(11)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        angles, k_b, p, n = _random_cases(demo, rng, 400)
        n[2:200, 0] = abs(n[2:200, 0])  # a batch whose tangents all have n_x >= 0
        for rows in (slice(0, 400), slice(2, 200), slice(0, 1), slice(1, 2), slice(7, 8)):
            rings = _ring_rows(pair, demo.source, k_b[rows], angles[rows])
            w, r2 = _ring_pair_wrench_rows(rings, np.hstack([p[rows], n[rows]]).T)
            ref_w, ref_r2 = _reference_wrench_rows(pair, demo.source, k_b[rows], angles[rows],
                                                   p[rows], n[rows])
            assert w.T.tobytes() == ref_w.tobytes()
            assert r2.tobytes() == ref_r2.tobytes()

    @pytest.mark.parametrize("separation", [0.0, 5e-3])
    def test_wrench_rows_match_public_compositions(self, demo, separation):
        # reference: f = sum G(p_i)^T m_i, tau = sum m_i x B(p_i) + delta n x f,
        # with the full-Jacobian field and the public ring moment
        rng = np.random.default_rng(5)
        mag = demo.pair_template.magnet_1.moment_magnitude
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
        angles, k_b, p, n = _random_cases(demo, rng, 64)
        w, r2 = _ring_pair_wrench_rows(_ring_rows(pair, demo.source, k_b, angles),
                                       np.hstack([p, n]).T)
        assert np.all(r2 > 0.0)
        expected = np.zeros((len(p), 6))
        for k in range(len(p)):
            cal = FieldCalibration(k_b[k])
            f, tau = np.zeros(3), np.zeros(3)
            for magnet, theta, offset in zip((pair.magnet_1, pair.magnet_2), angles[k],
                                             (0.0, -separation)):
                m = ring_dipole_moment(replace(magnet, angle=theta), n[k])
                s = calibrated_field(demo.source, cal, p[k] + offset * n[k])
                f += s.gradient.T @ m
                tau += np.cross(m, s.B)
            expected[k] = np.concatenate([f, tau + separation * np.cross(n[k], f)])
        assert _close_rows(w[:3].T, expected[:, :3])
        assert _close_rows(w[3:].T, expected[:, 3:])

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
        u = _cantilever_rows(L, ei, mode, w.T)
        assert _close_rows(u[:2].T, np.column_stack([dy, dz]))
        assert _close_rows(u[2:].T, np.column_stack([sy, sz]))

    def test_rows_are_independent(self, demo):
        # N rows give what N single-row calls give, bit for bit, so a case's
        # result does not depend on the batch it is solved in
        rng = np.random.default_rng(13)
        mag = demo.pair_template.magnet_1.moment_magnitude
        for separation in (0.0, 5e-3):
            pair = RingPairConfig.from_angles(mag, 0.0, 0.0, separation=separation)
            angles, k_b, p, n = _random_cases(demo, rng, 33)
            rings = _ring_rows(pair, demo.source, k_b, angles)
            x = np.hstack([p, n]).T
            w, r2 = _ring_pair_wrench_rows(rings, x)
            ei = rng.uniform(0.5, 2.0, len(p)) * demo.params.bending_stiffness
            L = demo.params.length
            for mode in BeamFormulation:
                ub = _cantilever_rows(L, ei, mode, w)
                xb = _pose_rows(L, ub)
                assert (w.shape, ub.shape, xb.shape) == ((6, 33), (4, 33), (6, 33))
                for k in range(len(p)):
                    wk, r2k = _ring_pair_wrench_rows(rings.take([k]), x[:, k:k + 1])
                    assert np.array_equal(wk[:, 0], w[:, k]) and np.array_equal(r2k[0], r2[k])
                    uk = _cantilever_rows(L, ei[k:k + 1], mode, w[:, k:k + 1])
                    assert np.array_equal(uk[:, 0], ub[:, k])
                    assert np.array_equal(_pose_rows(L, uk)[:, 0], xb[:, k])
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
            w, r2 = _ring_pair_wrench_rows(rings, np.hstack([p, [E1, E1]]).T)
        assert (r2 <= 0.0).any(axis=1).tolist() == [True, False]
        assert np.all(np.isfinite(w[:, 1]))


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
        assert batch.iterations[2] == batch.iterations[3] == 1
        assert batch.tip[1, 1] == -batch.tip[4, 1] != 0.0

    def test_failed_row_reports_the_iteration_it_stopped_at(self, demo):
        # at q = (0, 0) k_b = 1 bails out in the first iteration while
        # k_b = 4.03 goes on to converge: the failed row's count is 1, not
        # the iteration limit
        batch = _solve_batch(demo.params, demo.pair_template, demo.source, demo.settings,
                             MODE, [[0.0, 0.0]] * 2, demo.params.bending_stiffness,
                             [1.0, 4.03])
        assert batch.error[0] == "fixed-point residual 6.51 m after 1 iterations"
        assert batch.error[1] is None and batch.converged[1]
        assert batch.iterations.tolist() == [1, 5]

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

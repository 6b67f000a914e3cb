import logging
import math
from dataclasses import fields, is_dataclass, replace
from enum import Enum

import numpy as np
import pytest

import magbeam
from magbeam import equilibrium, inverse
from magbeam.beam import (
    BeamFormulation,
    TipPose,
    _cantilever_rows,
    _chart_rows,
    _pose_rows,
)
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import DivergenceError, _solve_batch, solve_tip_pose
from magbeam.geomag import (
    E1,
    ContractViolation,
    DipoleSource,
    FieldCalibration,
    RingPairConfig,
    _ring_pair_wrench_rows,
)
from magbeam.inverse import invert_controls


@pytest.fixture(scope="module")
def demo():
    cfg = load_config(default_config_path())
    return replace(cfg, params=replace(cfg.params, stiffness_scale=0.009))


CAL = FieldCalibration(4.03)
MODE = BeamFormulation.LEGACY


def _record_passes(monkeypatch) -> list:
    """Patch the inverse's Newton pass to record the row count of every call."""
    passes = []
    newton_pass = inverse._newton_pass
    monkeypatch.setattr(inverse, "_newton_pass",
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
            monkeypatch.setattr(inverse, name, lambda *a, refine=getattr(inverse, name): (
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

        q_ls, err, u_ls = inverse._least_squares(newton, target, q, u, 1e-6)
        assert calls == [2, 2 * len(inverse._INVERSE_DAMPING)]
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
        monkeypatch.setattr(inverse, "_grid_memo", None)
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
        key = inverse._value_key
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
        monkeypatch.setattr(inverse, "_grid_memo", None)
        invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                        demo.source, CAL, demo.settings, MODE)
        assert batches[0] == 576
        t = np.radians(np.arange(0, 360, 15))
        assert np.allclose(inverse._grid_memo[1][0],
                           np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2),
                           rtol=0.0, atol=1e-15)

    def test_memo_arrays_read_only(self, demo):
        # the entry holds the row series, its coefficients and the row's
        # solved cells, for a source on the axis, on every grid, the
        # default's and a 4 x 4 one
        for grid_size in (4, 24):
            invert_controls(demo.params.straight_tip, demo.params, demo.pair_template,
                            demo.source, CAL, demo.settings, MODE, grid_size=grid_size)
            q, batch, series = inverse._grid_memo[1]
            assert (series is not None) is (self.REFINEMENT == "axis")
            for a in [q, batch.pose, batch.converged, *(series or ())]:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_debug_logging_changes_no_answer(self, demo, monkeypatch, caplog):
        args = (_inverse_target(demo, True), demo.params, demo.pair_template,
                demo.source, CAL, demo.settings, MODE)
        quiet = invert_controls(*args)
        monkeypatch.setattr(inverse, "_grid_memo", None)
        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
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
        q, batch, _ = inverse._grid_memo[1]
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
            assert (inverse._count_basins(np.flatnonzero(mask), mask.shape)
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

        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
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

        n = inverse._AXIS_ROW
        delta = inverse._AXIS_ANGLES
        monkeypatch.setattr(inverse, "_grid_memo", None)
        series = inverse._coarse_grid(
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
        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
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
                assert (inverse._grid_memo[1][2] is None) is (refinement == "general")
                assert inv.within_reach and inv.result.converged

    @pytest.mark.parametrize("kb", [4.03, 2.25])
    @pytest.mark.parametrize("mode", list(BeamFormulation))
    def test_reaches_just_inside_and_past_the_rim_and_hole(self, demo, caplog, mode, kb):
        # rings 5 mm apart: targets 0.5 um inside and past the rim (the
        # cold-solved tip's distance from the axis at theta1 - theta2 = 0)
        # and the hole's rim (at pi) are reached on the series, with no
        # Newton pass; one past is missed by its distance past, less than tol
        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
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
        series = inverse._grid_memo[1][2]
        grid = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        for winner, answer in [((40, 20), (50, 10)), ((20, 40), (10, 50)),
                               ((300, 350), (10, 50)), ((30, 30), (10, 50)),
                               ((200, 200), (10, 50)), ((grid[14], grid[2]), (10, 50)),
                               ((grid[2], grid[14]), (10, 50))]:
            winner = np.radians(winner) if isinstance(winner[0], int) else np.array(winner)
            q, miss, _ = inverse._axis_refinement(
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
            series[grid_size] = inverse._grid_memo[1][2]
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
        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
        target = _inverse_target(demo, True)
        args = (demo.params, demo.pair_template, demo.source, CAL, demo.settings, MODE,
                grid_size)
        intact = invert_controls(target, *args)
        sweep_rows = inverse._sweep_rows
        cell = [inverse._AXIS_ANGLES[5], 0.0]
        solved = []

        def one_failed(*a):
            grid, batch = sweep_rows(*a)
            converged = batch.converged.copy()
            converged[(grid == cell).all(axis=1)] = False
            solved.append((~converged).sum())
            return grid, batch._replace(converged=converged)

        monkeypatch.setattr(inverse, "_grid_memo", None)
        monkeypatch.setattr(inverse, "_sweep_rows", one_failed)
        caplog.clear()
        failed = invert_controls(target, *args)
        assert solved == [0, 1]
        assert inverse._grid_memo[1][2] is None
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
        caplog.set_level(logging.DEBUG, logger=inverse.__name__)
        target = demo.params.straight_tip + np.array([0.0, 0.018, 0.024])
        batches = _record_batches(monkeypatch)
        inv = invert_controls(target, demo.params, demo.pair_template, demo.source,
                              FieldCalibration(2.0), demo.settings, mode, grid_size=24)
        _, batch, series = inverse._grid_memo[1]
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
            inverse._INVERSE_STOP * tol,
            inverse._AXIS_EPS * np.finfo(float).eps * demo.params.length))
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
                axis_rows = converged(tight, lambda g: inverse._AXIS_ANGLES)
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

        q_ls, err, u_ls = inverse._least_squares(newton, target, q, u, 1e-6)
        assert calls == [2, 2 * len(inverse._INVERSE_DAMPING)]
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
        _, sens = inverse._newton_pass(params, pair, demo.source, mode, kb, q,
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
        monkeypatch.setattr(inverse, "_ring_pair_wrench_rows", wrench_rows)
        monkeypatch.setattr(inverse, "_cantilever_rows", cantilever_rows)
        u[1] = [*ring, 0.0, 0.0]  # a ring on the source
        u[2] = np.nan
        u[4, 0] = 0.0  # singular
        failing = np.isin(np.arange(7), [1, 2, 4])

        def newton(rows):
            return inverse._newton_pass(demo.params, demo.pair_template, source,
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
        coords, sens = inverse._newton_pass(demo.params, demo.pair_template,
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
            u, _ = inverse._newton_pass(demo.params, pair, demo.source, mode, kb, q, u)
        miss = np.linalg.norm(_pose_rows(L, u)[:, :3] - batch.tip, axis=1)
        assert np.all(miss <= 1e-10)


def test_one_inverse_under_every_path():
    # the inverse lives in magbeam.inverse; magbeam.equilibrium, the forward
    # solver, re-exports it under its documented path and holds none of it
    assert equilibrium.invert_controls is inverse.invert_controls is magbeam.invert_controls
    assert equilibrium.InverseResult is inverse.InverseResult is magbeam.InverseResult
    for name in ("_grid_memo", "_coarse_grid", "_least_squares", "_axis_refinement"):
        assert not hasattr(equilibrium, name)

import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam.beam import BeamFormulation, TipPose
from magbeam import calibration
from magbeam.calibration import (
    PLANE_AXES,
    CalibrationGrid,
    ExperimentRecord,
    evaluate_metrics,
    grid_search_calibrate,
    in_plane_error,
    load_experiment_csv,
    notch_to_angle,
)
from magbeam.config import default_config_path, load_config
from magbeam import equilibrium
from magbeam.equilibrium import solve_tip_pose, sweep
from magbeam.geomag import ContractViolation, FieldCalibration

E1 = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def demo():
    return load_config(default_config_path())


def synth_records(demo, ke, kb, thetas, mode=BeamFormulation.LEGACY):
    params = replace(demo.params, stiffness_scale=ke)
    pts = sweep(params, demo.pair_template, demo.source, FieldCalibration(kb),
                demo.settings, mode, thetas, [0.0] * len(thetas), zipped=True)
    return [
        ExperimentRecord(pt.q[0], pt.q[1], pt.result.tip.position, "xyz")
        for pt in pts
    ]


class TestRecords:
    def test_plane_consistency_enforced(self):
        with pytest.raises(ContractViolation):
            ExperimentRecord(0.0, 0.0, [0.1, 0.0, np.nan], "xz")
        with pytest.raises(ContractViolation):
            ExperimentRecord(0.0, 0.0, [0.1, np.nan, np.nan], "xy")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["theta1", "theta2"])
    def test_nonfinite_angles_rejected(self, which, value):
        angles = {"theta1": 0.0, "theta2": 0.0, which: value}
        with pytest.raises(ContractViolation, match="finite"):
            ExperimentRecord(tip=[0.1, 0.0, np.nan], plane="xy", **angles)

    def test_in_plane_error_projects(self):
        rec = ExperimentRecord(0.0, 0.0, [0.1, 0.02, np.nan], "xy")
        # error in z is invisible to an x-y record
        assert in_plane_error(rec, [0.1, 0.02, 0.5]) == 0.0
        assert in_plane_error(rec, [0.1, 0.05, 0.0]) == pytest.approx(0.03)
        rec = ExperimentRecord(0.0, 0.0, [0.1, np.nan, 0.02], "xz")
        # and error in y to an x-z one
        assert in_plane_error(rec, [0.1, 0.5, 0.02]) == 0.0
        assert in_plane_error(rec, [0.13, 0.0, 0.06]) == pytest.approx(0.05)
        rec = ExperimentRecord(0.0, 0.0, [0.1, 0.02, 0.03], "xyz")
        assert in_plane_error(rec, [0.1, 0.02, 0.03]) == 0.0
        assert in_plane_error(rec, [0.11, 0.04, 0.05]) == pytest.approx(0.03)


class TestMetrics:
    def test_perfect_fit(self):
        recs = [
            ExperimentRecord(0.0, 0.0, [0.1, 0.01, 0.0], "xyz"),
            ExperimentRecord(1.0, 0.0, [0.1, 0.02, 0.01], "xyz"),
        ]
        preds = [TipPose(r.tip, E1) for r in recs]
        m = evaluate_metrics(recs, preds)
        assert m.max_abs_error == 0.0
        assert m.mean_abs_error == 0.0
        assert m.std_error == 0.0
        assert m.r_squared == 1.0

    def test_known_offsets(self):
        recs = [
            ExperimentRecord(0.0, 0.0, [0.1, 0.00, np.nan], "xy"),
            ExperimentRecord(1.0, 0.0, [0.1, 0.01, np.nan], "xy"),
            ExperimentRecord(2.0, 0.0, [0.1, 0.02, np.nan], "xy"),
        ]
        shifts = [0.0, 0.001, 0.003]
        preds = [
            TipPose(r.tip + np.array([0.0, s, 0.0]), E1)
            for r, s in zip(recs, shifts)
        ]
        m = evaluate_metrics(recs, preds)
        assert m.max_abs_error == pytest.approx(0.003)
        errors = np.array(shifts)
        assert m.mean_abs_error == pytest.approx(errors.mean())
        assert m.std_error == pytest.approx(errors.std())
        # independent R^2 oracle over the observed x and y components
        meas = np.array([r.tip[:2] for r in recs])
        pred = np.array([p.position[:2] for p in preds])
        ss_res = np.sum((meas - pred) ** 2)
        ss_tot = np.sum((meas - meas.mean(axis=0)) ** 2)
        assert m.r_squared == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12)

    def test_mixed_planes_against_per_axis_oracle(self):
        # x-y, x-z and 3D records with nonzero errors; the oracle projects
        # each record on its own axes and sums R^2 one axis at a time
        rng = np.random.default_rng(7)
        planes = ["xy", "xz", "xyz", "xy", "xz", "xyz", "xy", "xz"]
        recs = []
        for plane in planes:
            tip = 0.1 + 0.02 * rng.standard_normal(3)
            tip[[k for k in range(3) if k not in PLANE_AXES[plane]]] = np.nan
            recs.append(ExperimentRecord(rng.uniform(0, 3), 0.0, tip, plane))
        preds = [
            TipPose(np.nan_to_num(r.tip, nan=0.3) + 0.004 * rng.standard_normal(3), E1)
            for r in recs
        ]
        m = evaluate_metrics(recs, preds)
        errors = np.array([
            np.linalg.norm(r.tip[list(r.axes)] - p.position[list(r.axes)])
            for r, p in zip(recs, preds)
        ])
        assert errors.min() > 0.0
        ss_res = ss_tot = 0.0
        for axis in range(3):
            meas = np.array([r.tip[axis] for r in recs if axis in r.axes])
            pred = np.array([p.position[axis] for r, p in zip(recs, preds)
                             if axis in r.axes])
            ss_res += np.sum((meas - pred) ** 2)
            ss_tot += np.sum((meas - meas.mean()) ** 2)
        assert m.max_abs_error == pytest.approx(errors.max(), rel=1e-12)
        assert m.mean_abs_error == pytest.approx(errors.mean(), rel=1e-12)
        assert m.std_error == pytest.approx(errors.std(), rel=1e-12)
        assert m.r_squared == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12)
        assert m.r_squared < 1.0

    def test_length_mismatch_rejected(self):
        recs = [ExperimentRecord(0.0, 0.0, [0.1, 0.0, 0.0], "xyz")] * 2
        with pytest.raises(ContractViolation):
            evaluate_metrics(recs, [TipPose(recs[0].tip, E1)])


class TestNotch:
    def test_linear_map(self):
        slope = math.radians(8.2) * 1e3  # 8.2 deg/mm in rad/m
        assert notch_to_angle(0.0015, slope, 0.0005) == pytest.approx(
            math.radians(8.2), rel=1e-12
        )
        assert notch_to_angle(0.0005, slope, 0.0005) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolation):
            notch_to_angle(np.inf, 1.0, 0.0)


class TestGridSearch:
    def test_noise_free_recovery(self, demo):
        ke_true, kb_true = 0.012, 4.0
        thetas = list(np.radians(np.arange(0, 181, 30.0)))
        recs = synth_records(demo, ke_true, kb_true, thetas)
        grid = CalibrationGrid(
            ke_values=np.linspace(0.009, 0.015, 5),
            kb_values=np.linspace(3.5, 4.5, 5),
        )
        res = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                    demo.source, grid, demo.settings,
                                    BeamFormulation.LEGACY)
        assert res.ke_star == pytest.approx(ke_true)
        assert res.kb_star == pytest.approx(kb_true)
        # the true cell scores at solver-tolerance level
        assert res.error_surface[2, 2] <= 5 * demo.settings.position_tolerance
        assert res.metrics_at_optimum.max_abs_error <= 5e-6

    def test_single_cell_grid(self, demo):
        thetas = [0.0, math.pi / 2]
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.array([0.012]),
                               kb_values=np.array([4.0]))
        res = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                    demo.source, grid, demo.settings,
                                    BeamFormulation.LEGACY)
        assert res.error_surface.shape == (1, 1)
        assert (res.ke_star, res.kb_star) == (0.012, 4.0)

    def test_record_order_invariance(self, demo):
        thetas = list(np.radians([0.0, 45.0, 90.0, 135.0]))
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.linspace(0.010, 0.014, 3),
                               kb_values=np.linspace(3.8, 4.2, 3))
        a = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source, grid, demo.settings,
                                  BeamFormulation.LEGACY)
        b = grid_search_calibrate(list(reversed(recs)), demo.params,
                                  demo.pair_template, demo.source, grid,
                                  demo.settings, BeamFormulation.LEGACY)
        assert (a.ke_star, a.kb_star) == (b.ke_star, b.kb_star)
        # every (cell, record) solve starts cold, so only the order of the
        # floating-point reductions depends on the record order
        tol = 5 * demo.settings.position_tolerance
        assert a.error_surface == pytest.approx(b.error_surface, abs=tol)

    def test_thread_count_does_not_change_result(self, demo):
        thetas = list(np.radians([0.0, 60.0, 120.0, 180.0]))
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.linspace(0.010, 0.014, 3),
                               kb_values=np.linspace(3.8, 4.2, 3))
        kw = dict(settings=demo.settings, mode=BeamFormulation.LEGACY)
        a = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source, grid, threads=1, **kw)
        b = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source, grid, threads=4, **kw)
        assert np.array_equal(a.error_surface, b.error_surface)
        assert (a.ke_star, a.kb_star) == (b.ke_star, b.kb_star)

    def test_chunking_does_not_change_result(self, demo, monkeypatch):
        thetas = list(np.radians([0.0, 50.0, 100.0, 150.0]))
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.linspace(0.010, 0.014, 3),
                               kb_values=np.linspace(3.8, 4.2, 4))
        kw = dict(settings=demo.settings, mode=BeamFormulation.LEGACY)
        whole = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                      demo.source, grid, **kw)
        # 48 cases in chunks of 7: chunk edges fall inside cells
        monkeypatch.setattr(equilibrium, "_BATCH_CASES", 7)
        chunked = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                        demo.source, grid, **kw)
        assert np.array_equal(whole.error_surface, chunked.error_surface)
        assert (whole.ke_star, whole.kb_star) == (chunked.ke_star, chunked.kb_star)

    def test_cells_match_per_record_solves(self, demo):
        thetas = list(np.radians([0.0, 60.0, 120.0, 180.0]))
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.array([0.009, 0.012]),
                               kb_values=np.array([3.6, 4.4]))
        res = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                    demo.source, grid, demo.settings,
                                    BeamFormulation.LEGACY)
        for i, ke in enumerate(grid.ke_values):
            for j, kb in enumerate(grid.kb_values):
                params = replace(demo.params, stiffness_scale=ke)
                worst = max(
                    in_plane_error(r, solve_tip_pose(
                        params, demo.pair_template.with_angles(r.theta1, r.theta2),
                        demo.source, FieldCalibration(kb), demo.settings,
                        BeamFormulation.LEGACY).tip.position)
                    for r in recs
                )
                assert res.error_surface[i, j] == pytest.approx(
                    worst, abs=demo.settings.position_tolerance)

    def test_unconverged_cell_scores_inf(self, demo):
        # on the soft cell theta1 = 0 diverges; the antiparallel pi still solves
        thetas = [0.0, math.pi]
        recs = synth_records(demo, 0.012, 4.0, thetas)
        grid = CalibrationGrid(ke_values=np.array([1e-9, 0.012]),
                               kb_values=np.array([4.0]))
        res = grid_search_calibrate(recs, demo.params, demo.pair_template,
                                    demo.source, grid,
                                    replace(demo.settings, relaxation=1.0),
                                    BeamFormulation.LEGACY)
        assert res.error_surface[0, 0] == math.inf
        assert np.isfinite(res.error_surface[1, 0])
        assert (res.ke_star, res.kb_star) == (0.012, 4.0)

    def test_empty_records_rejected(self, demo):
        with pytest.raises(ContractViolation):
            grid_search_calibrate([], demo.params, demo.pair_template,
                                  demo.source)

    def test_one_record_rejected_before_solving(self, demo, monkeypatch):
        recs = synth_records(demo, 0.012, 4.0, [0.0])
        calls = []
        monkeypatch.setattr(calibration, "_solve_batch",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ContractViolation, match="need at least two records"):
            grid_search_calibrate(recs, demo.params, demo.pair_template,
                                  demo.source)
        assert calls == []

    def test_grid_contracts(self):
        with pytest.raises(ContractViolation):
            CalibrationGrid(ke_values=np.array([0.01, 0.01]))
        with pytest.raises(ContractViolation):
            CalibrationGrid(kb_values=np.array([]))


class TestCsvLoader:
    def test_planar_rows(self, tmp_path):
        f = tmp_path / "exp.csv"
        f.write_text(
            "theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n"
            "0,0,150.0,0.0,\n"
            "90,0,148.2,-7.5,\n"
        )
        recs = load_experiment_csv(f)
        assert len(recs) == 2
        assert recs[0].plane == "xy"
        assert recs[1].theta1 == pytest.approx(math.pi / 2)
        assert recs[1].tip[0] == pytest.approx(0.1482)
        assert recs[1].tip[1] == pytest.approx(-0.0075)
        assert np.isnan(recs[1].tip[2])

    def test_side_view_and_3d(self, tmp_path):
        f = tmp_path / "exp.csv"
        f.write_text(
            "theta1_deg,theta2_deg,x_mm,y_mm,z_mm\n"
            "0,0,150.0,,2.0\n"
            "0,0,150.0,1.0,2.0\n"
        )
        recs = load_experiment_csv(f)
        assert recs[0].plane == "xz"
        assert recs[1].plane == "xyz"

    def test_missing_theta2_defaults_zero(self, tmp_path):
        f = tmp_path / "exp.csv"
        f.write_text("theta1_deg,x_mm,y_mm\n12,150.0,0.5\n")
        recs = load_experiment_csv(f)
        assert recs[0].theta2 == 0.0

    def test_notch_column(self, tmp_path):
        f = tmp_path / "exp.csv"
        f.write_text("notch_mm,x_mm,y_mm\n1.5,150.0,0.0\n")
        slope = math.radians(8.2) * 1e3
        recs = load_experiment_csv(f, notch_slope=slope, notch_offset=0.0005)
        assert recs[0].theta1 == pytest.approx(math.radians(8.2), rel=1e-12)

    def test_errors(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ContractViolation):
            load_experiment_csv(f)
        f.write_text("theta1_deg,x_mm,y_mm\n")
        with pytest.raises(ContractViolation):
            load_experiment_csv(f)
        f.write_text("theta1_deg,x_mm,y_mm\nbad,150.0,0.0\n")
        with pytest.raises(ContractViolation):
            load_experiment_csv(f)
        f.write_text("theta1_deg,x_mm\n0,150.0\n")
        with pytest.raises(ContractViolation):
            load_experiment_csv(f)

    def test_shipped_dataset_loads(self):
        from magbeam.config import default_config_path
        data = default_config_path().parent / "planar-sweep-digitized.csv"
        recs = load_experiment_csv(data)
        assert len(recs) == 16
        assert all(r.plane == "xy" for r in recs)
        assert recs[0].theta1 == 0.0
        assert recs[-1].theta1 == pytest.approx(math.pi)

import math

import numpy as np
import pytest

from magbeam.geomag import ContractViolation
from magbeam.workspace import (
    EllipseFitError,
    PlanarTrack,
    _conic_to_geometric,
    _fit_conic_ellipse,
    fit_ellipse,
    merge_biplanar,
    nearest_ellipse_points,
    workspace_stats,
)


def ellipse_points(center, a, b, angle, n, rng=None, noise=0.0):
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    pts = np.asarray(center) + (R @ np.vstack([a * np.cos(t), b * np.sin(t)])).T
    if noise:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return pts


class TestMerge:
    def test_exact_merge(self):
        x = np.array([0.15, 0.149, 0.148])
        top = PlanarTrack("top", np.column_stack([x, [0.0, 0.005, 0.01]]))
        side = PlanarTrack("side", np.column_stack([x, [0.001, 0.002, 0.003]]))
        m = merge_biplanar(top, side)
        assert m.points == pytest.approx(np.column_stack([
            x, [0.0, 0.005, 0.01], [0.001, 0.002, 0.003]
        ]))
        assert not m.x_mismatch.any()

    def test_x_averaged_and_flagged(self):
        top = PlanarTrack("top", [[0.150, 0.0], [0.150, 0.0]])
        side = PlanarTrack("side", [[0.151, 0.0], [0.154, 0.0]])
        m = merge_biplanar(top, side)
        assert m.points[:, 0] == pytest.approx([0.1505, 0.152])
        assert list(m.x_mismatch) == [False, True]

    def test_helix_round_trip(self):
        t = np.linspace(0, 4 * math.pi, 50)
        pts3d = np.column_stack([0.15 - 1e-4 * t, 0.01 * np.cos(t), 0.01 * np.sin(t)])
        top = PlanarTrack("top", pts3d[:, [0, 1]])
        side = PlanarTrack("side", pts3d[:, [0, 2]])
        m = merge_biplanar(top, side)
        assert m.points == pytest.approx(pts3d, abs=1e-15)

    def test_contracts(self):
        top = PlanarTrack("top", [[0.15, 0.0]])
        side = PlanarTrack("side", [[0.15, 0.0], [0.15, 0.0]])
        with pytest.raises(ContractViolation):
            merge_biplanar(top, side)
        with pytest.raises(ContractViolation):
            merge_biplanar(side := PlanarTrack("side", [[0.15, 0.0]]), side)
        with pytest.raises(ContractViolation):
            PlanarTrack("front", [[0.0, 0.0]])


class TestEllipseFit:
    def test_noiseless_recovery(self):
        center = np.array([0.003, -0.001])
        a, b, angle = 0.012, 0.007, 0.4
        pts = ellipse_points(center, a, b, angle, 40)
        fit = fit_ellipse(pts)
        assert fit.center == pytest.approx(center, abs=1e-9)
        assert fit.semi_axes[0] == pytest.approx(a, abs=1e-9)
        assert fit.semi_axes[1] == pytest.approx(b, abs=1e-9)
        assert fit.orientation == pytest.approx(angle, abs=1e-7)
        assert fit.rms_distance <= 1e-9

    def test_circle(self):
        pts = ellipse_points([0.0, 0.0], 0.01, 0.01, 0.0, 24)
        fit = fit_ellipse(pts)
        assert fit.semi_axes[0] == pytest.approx(0.01, abs=1e-10)
        assert fit.semi_axes[1] == pytest.approx(0.01, abs=1e-10)
        assert fit.rms_distance <= 1e-10

    def test_orientation_modulo_pi(self):
        pts = ellipse_points([0.0, 0.0], 0.01, 0.004, 2.5, 30)
        fit = fit_ellipse(pts)
        assert 0.0 <= fit.orientation < math.pi
        assert fit.orientation == pytest.approx(2.5, abs=1e-7)
        # the same ellipse drawn with angle 2.5 + pi reports the same value
        flipped = fit_ellipse(ellipse_points([0.0, 0.0], 0.01, 0.004,
                                             2.5 + math.pi, 30))
        assert flipped.orientation == pytest.approx(2.5, abs=1e-7)

    def test_noisy_rms_in_band(self):
        rng = np.random.default_rng(11)
        sigma = 1e-3
        pts = ellipse_points([0.0, 0.0], 0.015, 0.009, 0.2, 200,
                             rng=rng, noise=sigma)
        fit = fit_ellipse(pts)
        assert 0.7 * sigma <= fit.rms_distance <= 1.3 * sigma

    def test_nearest_point_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        center = np.array([0.001, 0.002])
        a, b, angle = 0.01, 0.006, 0.9
        query = rng.uniform(-0.02, 0.02, size=(50, 2))
        d = nearest_ellipse_points(center, (a, b), angle, query)
        boundary = ellipse_points(center, a, b, angle, 2_000_000)
        for k in range(len(query)):
            brute = np.min(np.hypot(*(boundary - query[k]).T))
            assert d[k] == pytest.approx(brute, abs=1e-7)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        pts = ellipse_points([0.0, 0.0], 0.012, 0.005, 0.0, 60,
                             rng=rng, noise=2e-4)
        base = fit_ellipse(pts)
        phi = 0.7
        R = np.array([[math.cos(phi), -math.sin(phi)],
                      [math.sin(phi), math.cos(phi)]])
        shift = np.array([0.05, -0.03])
        moved = fit_ellipse(pts @ R.T + shift)
        assert moved.semi_axes[0] == pytest.approx(base.semi_axes[0], rel=1e-9)
        assert moved.semi_axes[1] == pytest.approx(base.semi_axes[1], rel=1e-9)
        assert moved.rms_distance == pytest.approx(base.rms_distance, rel=1e-6)
        assert moved.center == pytest.approx(R @ base.center + shift, abs=1e-9)

    def test_ellipse_beats_centroid_circle(self):
        rng = np.random.default_rng(9)
        pts = ellipse_points([0.0, 0.0], 0.015, 0.006, 0.3, 80,
                             rng=rng, noise=1e-4)
        fit = fit_ellipse(pts)
        centroid = pts.mean(axis=0)
        radii = np.hypot(*(pts - centroid).T)
        circle_rms = math.sqrt(np.mean((radii - radii.mean()) ** 2))
        assert fit.rms_distance < circle_rms

    def test_sample_lies_on_ellipse(self):
        fit = fit_ellipse(ellipse_points([0.001, 0.0], 0.01, 0.004, 0.5, 24))
        on = fit.sample(100)
        d = nearest_ellipse_points(fit.center, fit.semi_axes,
                                   fit.orientation, on)
        assert np.max(d) <= 1e-12

    @pytest.mark.parametrize("n", [2.5, True])
    def test_sample_count_must_be_an_integer(self, n):
        fit = fit_ellipse(ellipse_points([0.0, 0.0], 0.01, 0.004, 0.5, 24))
        with pytest.raises(ContractViolation, match="integer"):
            fit.sample(n)

    def test_degenerate_inputs(self):
        with pytest.raises(ContractViolation):
            fit_ellipse(np.zeros((5, 2)))
        line = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10)])
        with pytest.raises(EllipseFitError):
            fit_ellipse(line)


class TestContracts:
    """The input checks of the workspace functions, and the fit's failures
    on points or conics that hold no ellipse."""

    @pytest.mark.parametrize("points", [[0.15, 0.0], [[0.15, 0.0, 0.0]], np.zeros((2, 2, 2))])
    def test_track_points_shape(self, points):
        with pytest.raises(ContractViolation, match=r"shape \(N, 2\)"):
            PlanarTrack("top", points)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_track_points_finite(self, value):
        with pytest.raises(ContractViolation, match="points must be finite"):
            PlanarTrack("side", [[0.15, 0.0], [value, 0.0]])

    @pytest.mark.parametrize("indices", [[0, 0], [1, 0], [0], [[0, 1]]])
    def test_track_indices(self, indices):
        with pytest.raises(ContractViolation, match="strictly increasing, one per point"):
            PlanarTrack("top", [[0.15, 0.0], [0.15, 0.001]], indices)

    def test_merge_needs_aligned_indices(self):
        top = PlanarTrack("top", [[0.15, 0.0], [0.15, 0.001]], [0, 1])
        side = PlanarTrack("side", [[0.15, 0.0], [0.15, 0.001]], [0, 2])
        with pytest.raises(ContractViolation, match="index-aligned"):
            merge_biplanar(top, side)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_fit_needs_finite_points(self, value):
        pts = ellipse_points([0.0, 0.0], 0.01, 0.004, 0.5, 24)
        pts[3, 1] = value
        with pytest.raises(ContractViolation, match="points must be finite"):
            fit_ellipse(pts)

    def test_fit_of_points_on_a_parabola(self):
        t = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(EllipseFitError, match="no ellipse solution found"):
            fit_ellipse(np.column_stack([t, t * t]))

    def test_singular_scatter_matrix(self):
        # collinear points, which fit_ellipse rejects before the fit
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(EllipseFitError, match="degenerate point configuration"):
            _fit_conic_ellipse(np.column_stack([t, 2.0 * t]))

    @pytest.mark.parametrize("coef, message", [
        ([1.0, 0.0, -1.0, 0.0, 0.0, -1.0], "not an ellipse"),  # x^2 - y^2 = 1
        ([1.0, 0.0, 0.0, 0.0, -1.0, 0.0], "not an ellipse"),  # y = x^2
        ([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], "degenerate ellipse"),  # x^2 + y^2 = -1
    ])
    def test_conic_without_a_real_ellipse(self, coef, message):
        # a conic from the fit's ellipse-constrained eigenvector has
        # 4AC - B^2 > 0, so only a conic given directly reaches these
        with pytest.raises(EllipseFitError, match=message):
            _conic_to_geometric(np.array(coef))

    def test_stats_need_points(self):
        with pytest.raises(ContractViolation, match="nonempty"):
            workspace_stats([], [0.15, 0.0, 0.0])


class TestStats:
    def test_known_values(self):
        straight = np.array([0.15, 0.0, 0.0])
        pts = np.array([
            [0.150, 0.003, 0.000],
            [0.149, -0.004, 0.003],
            [0.148, 0.000, -0.005],
        ])
        st = workspace_stats(pts, straight)
        assert st.max_deflection_y == pytest.approx(0.004)
        assert st.max_deflection_z == pytest.approx(0.005)
        expect = np.mean([0.003, math.hypot(0.004, 0.003), 0.005])
        assert st.mean_deflection == pytest.approx(expect)

    def test_straight_only(self):
        straight = np.array([0.15, 0.0, 0.0])
        st = workspace_stats([straight], straight)
        assert st.max_deflection_y == 0.0
        assert st.mean_deflection == 0.0

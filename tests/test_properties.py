"""Seeded property tests of the forward model and its inverse.

The invariants of criterion 3, the field checks and the inverse's round
trip, drawn over random ring separations, magnet angles, calibrations
(ke, kb), source placements, grid sizes and both beam modes instead of
the demonstrator alone. Draws come from seeded numpy generators, so
every run checks the same cases.
"""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam.beam import BeamFormulation
from magbeam.config import default_config_path, load_config
from magbeam.equilibrium import solve_tip_pose
from magbeam.geomag import (
    DipoleSource,
    FieldCalibration,
    RingMagnet,
    RingPairConfig,
    calibrated_field,
)
from magbeam.inverse import invert_controls

DRAWS = 8
INVERSE_MODELS = 4  # inverse models per placement of the source and separation
INVERSE_TIPS = 4  # model tips at random angles per inverse model


@pytest.fixture(scope="module")
def cfg():
    return load_config(default_config_path())


def models(cfg, seed, mode, separation=None):
    """``DRAWS`` random (params, magnitude, separation, cal) with angles."""
    rng = np.random.default_rng(seed)
    mag = cfg.pair_template.magnet_1.moment_magnitude
    for _ in range(DRAWS):
        sep = rng.choice([0.0, rng.uniform(0.5e-3, 8e-3)]) if separation is None else separation
        params = replace(cfg.params, stiffness_scale=rng.uniform(0.009, 0.018))
        cal = FieldCalibration(rng.uniform(3.5, 4.5))
        yield params, mag, float(sep), cal, rng.uniform(-math.pi, math.pi, 2)


def tip(cfg, params, pair, cal, mode):
    res = solve_tip_pose(params, pair, cfg.source, cal, cfg.settings, mode)
    assert res.converged
    return res.tip.position


@pytest.mark.parametrize("mode", list(BeamFormulation))
def test_periodicity(cfg, mode):
    tol = cfg.settings.position_tolerance
    for params, mag, sep, cal, (t1, t2) in models(cfg, 1, mode):
        a = tip(cfg, params, RingPairConfig.from_angles(mag, t1, t2, sep), cal, mode)
        for k1, k2 in ((1, 0), (0, -1), (2, 3)):
            pair = RingPairConfig.from_angles(mag, t1 + 2 * math.pi * k1,
                                              t2 + 2 * math.pi * k2, sep)
            assert np.linalg.norm(tip(cfg, params, pair, cal, mode) - a) <= 2 * tol


@pytest.mark.parametrize("mode", list(BeamFormulation))
def test_mirror_symmetry(cfg, mode):
    # the source sits on the x axis with its moment along it, so negating
    # both magnet angles mirrors the tip in y
    tol = cfg.settings.position_tolerance
    for params, mag, sep, cal, (t1, t2) in models(cfg, 2, mode):
        a = tip(cfg, params, RingPairConfig.from_angles(mag, t1, t2, sep), cal, mode)
        b = tip(cfg, params, RingPairConfig.from_angles(mag, -t1, -t2, sep), cal, mode)
        assert np.linalg.norm(b - a * [1.0, -1.0, 1.0]) <= 2 * tol


@pytest.mark.parametrize("mode", list(BeamFormulation))
def test_antiparallel_cancellation(cfg, mode):
    # coincident rings half a turn apart carry no net moment
    tol = cfg.settings.position_tolerance
    for params, mag, _, cal, (t1, _) in models(cfg, 3, mode, separation=0.0):
        pair = RingPairConfig.from_angles(mag, t1, t1 + math.pi, 0.0)
        assert np.linalg.norm(tip(cfg, params, pair, cal, mode)
                              - params.straight_tip) <= tol


@pytest.mark.parametrize("mode", list(BeamFormulation))
def test_zero_separation_superposition(cfg, mode):
    # coincident rings act as one ring of the summed moment:
    # m1 + m2 = 2 |m| cos((t1 - t2) / 2) at the mean angle
    tol = cfg.settings.position_tolerance
    for params, mag, _, cal, (t1, t2) in models(cfg, 4, mode, separation=0.0):
        summed = 2 * mag * math.cos((t1 - t2) / 2)
        angle = (t1 + t2) / 2 + (math.pi if summed < 0 else 0.0)
        single = RingPairConfig(RingMagnet(abs(summed), angle),
                                RingMagnet(0.0, 0.0), 0.0)
        a = tip(cfg, params, RingPairConfig.from_angles(mag, t1, t2, 0.0), cal, mode)
        assert np.linalg.norm(tip(cfg, params, single, cal, mode) - a) <= 2 * tol


@pytest.mark.parametrize("separation", [0.0, 5e-3])
@pytest.mark.parametrize("mode", list(BeamFormulation))
def test_rotation_about_the_source_axis(cfg, mode, separation):
    # the source sits on the x axis with its moment along it, so turning
    # both magnets by alpha turns the tip and its tangent about that axis:
    # every iterate of the two solves is the other's, rotated
    rng = np.random.default_rng(6)
    for params, mag, sep, cal, (t1, t2) in models(cfg, 6, mode, separation):
        alpha = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(alpha), math.sin(alpha)
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        a, b = (solve_tip_pose(params, RingPairConfig.from_angles(mag, t1 + d, t2 + d, sep),
                               cfg.source, cal, cfg.settings, mode).tip
                for d in (0.0, alpha))
        assert np.linalg.norm(b.position - rot @ a.position) <= 1e-12
        assert np.linalg.norm(b.tangent - rot @ a.tangent) <= 1e-12


@pytest.mark.parametrize("grid_size", [1, 2, 3, 4, 5, 8, 12, 16, 23, 24])
def test_inverse_round_trip(cfg, grid_size):
    # every converged model tip is within reach of invert_controls: tips at
    # random angles and, for rings set apart, one at theta1 - theta2 = pi,
    # on the rim of the hole about the axis. INVERSE_MODELS models for each
    # placement of the source (on the axis, or moved up to 20 mm across it)
    # and each separation, in a random beam mode and field
    rng = np.random.default_rng(grid_size)
    mag = cfg.pair_template.magnet_1.moment_magnitude
    for off_axis, sep, _ in itertools.product((False, True), (0.0, 5e-3),
                                              range(INVERSE_MODELS)):
        mode = list(BeamFormulation)[rng.integers(2)]
        cal = FieldCalibration(rng.uniform(2.6, 4.5))
        turn, shift = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 20e-3)
        source = cfg.source
        if off_axis:
            source = DipoleSource(source.moment, source.position
                                  + shift * np.array([0.0, math.cos(turn), math.sin(turn)]))
        pair = RingPairConfig.from_angles(mag, 0.0, 0.0, sep)
        angles = rng.uniform(0.0, 2.0 * math.pi, (INVERSE_TIPS, 2)).tolist()
        if sep:
            angles.append([turn + math.pi, turn])
        for q in angles:
            res = solve_tip_pose(cfg.params, pair.with_angles(*q), source, cal, cfg.settings,
                                 mode)
            if not res.converged:
                continue
            inv = invert_controls(res.tip.position, cfg.params, pair, source, cal,
                                  cfg.settings, mode, grid_size)
            assert inv.within_reach, (mode, cal.k_b, source.position, sep, q,
                                      inv.position_error)


def test_gradient_symmetric_traceless():
    rng = np.random.default_rng(5)
    for _ in range(200):
        source = DipoleSource(moment=rng.normal(size=3) * 100.0,
                              position=rng.normal(size=3) * 0.2)
        cal = FieldCalibration(rng.uniform(0.5, 5.0))
        point = cal.k_b * source.position + rng.normal(size=3) * rng.uniform(0.01, 0.5)
        G = calibrated_field(source, cal, point).gradient
        scale = np.abs(G).max()
        assert np.abs(G - G.T).max() <= 1e-12 * scale
        assert abs(np.trace(G)) <= 1e-12 * scale

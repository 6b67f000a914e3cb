import re

import numpy as np
import pytest

from magbeam.svgplot import write_svg


def _figure(tmp_path, line, points):
    path = tmp_path / "fig.svg"
    write_svg(path, line, points, "a title", "x [mm]", "y [mm]")
    return path.read_text(encoding="utf-8")


def _tick_labels(svg):
    return [float(v) for v in re.findall(r'font-size="10">([^<]*)</text>', svg)]


def test_one_polyline_and_one_marker_per_point(tmp_path):
    rng = np.random.default_rng(3)
    line, points = rng.normal(size=(17, 2)), rng.normal(size=(5, 2))
    svg = _figure(tmp_path, line, points)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    [vertices] = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(vertices.split()) == len(line)
    assert svg.count("<circle") == len(points)
    assert all(t in svg for t in (">a title<", ">x [mm]<", ">y [mm]<"))


def test_ticks_are_low_middle_high_of_the_padded_range(tmp_path):
    line = np.array([[0.0, 10.0], [4.0, 30.0]])
    points = np.array([[2.0, 20.0], [-6.0, 20.0]])
    # x spans -6..4 and y 10..30; each is padded by 5 % of its span
    assert _tick_labels(_figure(tmp_path, line, points)) == pytest.approx(
        [-6.5, -1.0, 4.5, 9.0, 20.0, 31.0], abs=1e-12)


def test_zero_span_axis(tmp_path):
    # a flat axis is padded by 5 % of 1 on each side, with no division by zero
    with np.errstate(all="raise"):
        svg = _figure(tmp_path, np.array([[0.0, 2.0], [1.0, 2.0]]), np.array([[0.5, 2.0]]))
    assert _tick_labels(svg) == pytest.approx([-0.05, 0.5, 1.05, 1.95, 2.0, 2.05], abs=1e-12)
    [vertices] = re.findall(r'<polyline points="([^"]*)"', svg)
    assert "nan" not in vertices and "inf" not in vertices

"""Host-speed reference for the end-to-end timings.

The benchmark machine shares its host, which slows the whole VM by up
to 2.5x for seconds to minutes at a time. CPU time slows with it, so the
loss is in the speed of the processor, not in being descheduled, and
different code slows by different amounts: a generic numpy loop slowed
2.3x while magbeam's solves slowed 1.7x in the same minute.

The reference is therefore a frozen copy of the seed's damped
fixed-point solve (``magbeam.equilibrium.solve_tip_pose`` with the
demonstrator's constants, legacy mode, ke 0.009, kb 4.03), so that it
runs the same kind of instructions as the workloads. It imports nothing
from magbeam, so a change to magbeam cannot move it. A run times
``reference()`` between its requests and scales each request by
``NOMINAL_S`` over the reference time around it: the result is the time
the request would take on a host that runs the reference in
``NOMINAL_S``.
"""
from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.012  # six cold solves of about 2 ms, as on an idle 2-vCPU Xeon host

E1 = np.array([1.0, 0.0, 0.0])
MU0 = 4.0e-7 * math.pi
LENGTH = 0.15
EI = 0.009 * 766e6 * 4.135121330287567e-13
COEF = LENGTH**3 / 6.0
KB = 4.03
SOURCE_MOMENT = np.array([-200.48548612, 0.0, 0.0])
SOURCE_SCALED = KB * np.array([0.23, 0.0, 0.0])
MAGNET = 0.0054375
TOL = 1e-6
# Angle pairs (rad) solved cold by one reference() call.
ANGLES = [(0.3, 1.1), (1.7, 0.4), (2.9, 5.2), (4.4, 2.2), (5.6, 3.7), (0.9, 4.8)]


def _cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _rotation_e1_to(t):
    c = float(E1 @ t)
    axis = np.cross(E1, t)
    s = float(np.linalg.norm(axis))
    if s < 1e-15:
        return np.eye(3)
    x, y, z = axis / s
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    angle = math.atan2(s, c)
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _field(point):
    P = point - SOURCE_SCALED
    r2 = float(P @ P)
    r = math.sqrt(r2)
    u = P / r
    um = float(u @ SOURCE_MOMENT)
    pref = KB * MU0 / (4.0 * math.pi)
    B = (pref / (r2 * r)) * (3.0 * um * u - SOURCE_MOMENT)
    mu = np.outer(SOURCE_MOMENT, u)
    G = (3.0 * pref / (r2 * r2)) * (mu + mu.T + um * (np.eye(3) - 5.0 * np.outer(u, u)))
    return B, G


def solve(theta1: float, theta2: float) -> tuple[np.ndarray, int]:
    """Cold fixed-point solve at one angle pair: tip position, iterations."""
    straight = LENGTH * E1
    p, n = straight.copy(), E1.copy()
    for k in range(1, 1001):
        R = _rotation_e1_to(n)
        f = np.zeros(3)
        tau = np.zeros(3)
        for ang in (theta1, theta2):
            m = MAGNET * (R @ np.array([0.0, -np.sin(ang), np.cos(ang)]))
            B, G = _field(p)
            f += G.T @ m
            tau += _cross(m, B)
        p_new = straight + (1.0 / EI) * (0.5 * LENGTH * LENGTH * _cross(tau, E1)
                                         + COEF * _cross(_cross(E1, f), E1))
        n_new = E1 + (LENGTH / EI) * _cross(tau + 0.5 * LENGTH * _cross(E1, f), E1)
        n_new /= np.linalg.norm(n_new)
        if float(np.linalg.norm(p_new - p)) <= TOL:
            return p_new, k
        p = 0.5 * p + 0.5 * p_new
        n = n_new
    raise RuntimeError(f"reference solve did not converge at {theta1}, {theta2}")


def reference() -> float:
    """Seconds taken by one set of reference solves."""
    t0 = time.perf_counter()
    for q in ANGLES:
        solve(*q)
    return time.perf_counter() - t0

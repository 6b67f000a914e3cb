"""Robot configuration file loading.

A single JSON document describes the demonstrator; all unit conversion to
SI happens here, so the numeric core never sees millimeters or degrees.
Each key is declared once, in ``_KEYS``; unknown keys are rejected.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .beam import BeamFormulation, RobotParams, section_moment_tube
from .equilibrium import SolverSettings
from .geomag import (
    ContractViolation,
    DipoleSource,
    RingPairConfig,
    _is_count,
    magnet_moment_from_geometry,
)


class ConfigError(ValueError):
    """Malformed or physically invalid configuration file."""


# Every config key, once: (section, key, kind, SI scale); section None is
# the top level. Every key is required. A "positive" or "non-negative" number
# must be finite and a "vector" is 3 finite numbers; both are scaled to SI as
# float(value) * scale. A "count" is an integer >= 1, the "choice" the value
# of a BeamFormulation.
_KEYS = (
    ("robot", "tube_od_mm", "positive", 1e-3),
    ("robot", "tube_id_mm", "non-negative", 1e-3),
    ("robot", "length_mm", "positive", 1e-3),
    ("robot", "elastic_modulus_mpa", "positive", 1e6),
    ("robot", "ke", "positive", 1.0),
    ("tip_magnets", "od_mm", "positive", 1e-3),
    ("tip_magnets", "id_mm", "non-negative", 1e-3),
    ("tip_magnets", "length_mm", "positive", 1e-3),
    ("tip_magnets", "remanence_t", "positive", 1.0),
    ("tip_magnets", "separation_mm", "non-negative", 1e-3),
    ("external_magnet", "diameter_mm", "positive", 1e-3),
    ("external_magnet", "length_mm", "positive", 1e-3),
    ("external_magnet", "remanence_t", "positive", 1.0),
    ("external_magnet", "position_mm", "vector", 1e-3),
    ("external_magnet", "moment_direction", "vector", 1.0),
    ("solver", "tolerance_mm", "positive", 1e-3),
    ("solver", "max_iterations", "count", None),
    ("solver", "relaxation", "positive", 1.0),
    (None, "beam_mode", "choice", None),
)
_TOP = {k for s, k, _, _ in _KEYS if s is None}
_SECTIONS = {sec: {k for s, k, _, _ in _KEYS if s == sec} for sec, _, _, _ in _KEYS if sec}
_EXPECTED = {"positive": "a positive number", "non-negative": "a number >= 0",
             "count": "an integer >= 1", "vector": "3 finite numbers",
             "choice": f"one of {sorted(m.value for m in BeamFormulation)}"}


@dataclass(frozen=True)
class LoadedConfig:
    raw: dict
    params: RobotParams
    pair_template: RingPairConfig
    source: DipoleSource
    settings: SolverSettings
    mode: BeamFormulation


def default_config_path() -> Path:
    """Path of the bundled demonstrator configuration."""
    return Path(str(resources.files("magbeam").joinpath("data/demonstrator.json")))


def _check_keys(doc: dict):
    unknown = set(doc) - _TOP - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    for sec, keys in _SECTIONS.items():
        if sec not in doc:
            raise ConfigError(f"missing section '{sec}'")
        if not isinstance(doc[sec], dict):
            raise ConfigError(f"section '{sec}' must be an object")
        extra = set(doc[sec]) - keys
        if extra:
            raise ConfigError(f"{sec}: unknown keys {sorted(extra)}")
    missing = _TOP - set(doc)
    if missing:
        raise ConfigError(f"missing top-level keys: {sorted(missing)}")


def _checked(doc: dict) -> dict:
    """``doc`` with each value of ``_KEYS`` in SI. A value that is missing, not
    of its kind or not convertible (an integer too large for a float) is a
    ConfigError naming its key."""
    _check_keys(doc)
    values = {}
    for sec, key, kind, scale in _KEYS:
        where = doc if sec is None else doc[sec]
        if key not in where:
            raise ConfigError(f"{sec}: missing field '{key}'")
        v, si = where[key], None
        try:
            if kind == "choice":
                si = BeamFormulation(v)
            elif kind == "count":
                si = v if _is_count(v) else None
            elif kind == "vector":
                a = np.asarray(v, dtype=float)
                if a.shape == (3,) and np.isfinite(a).all():
                    si = a * scale
            elif not isinstance(v, bool) and isinstance(v, (int, float)):
                x = float(v)
                if math.isfinite(x) and (x > 0 if kind == "positive" else x >= 0):
                    si = x * scale
        except (TypeError, ValueError, OverflowError):
            pass
        if si is None:
            name = key if sec is None else f"{sec}.{key}"
            raise ConfigError(f"{name}: expected {_EXPECTED[kind]}, got {v!r}")
        (values if sec is None else values.setdefault(sec, {}))[key] = si
    return values


def _derived(section: str, helper, *args):
    """``helper(*args)``, a ContractViolation as a ConfigError on ``section``."""
    try:
        return helper(*args)
    except ContractViolation as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(doc: dict) -> LoadedConfig:
    v = _checked(doc)
    robot, tip, ext = v["robot"], v["tip_magnets"], v["external_magnet"]
    od, idm = robot["tube_od_mm"], robot["tube_id_mm"]
    if od <= idm:
        raise ConfigError("robot: tube_od_mm must exceed tube_id_mm")
    params = RobotParams(
        length=robot["length_mm"],
        elastic_modulus=robot["elastic_modulus_mpa"],
        section_moment=_derived("robot", section_moment_tube, od, idm),
        stiffness_scale=robot["ke"],
    )

    tip_moment = _derived("tip_magnets", magnet_moment_from_geometry, tip["od_mm"],
                          tip["id_mm"], tip["length_mm"], tip["remanence_t"])
    pair = RingPairConfig.from_angles(tip_moment, 0.0, 0.0, separation=tip["separation_mm"])

    ext_moment = _derived("external_magnet", magnet_moment_from_geometry,
                          ext["diameter_mm"], 0.0, ext["length_mm"], ext["remanence_t"])
    direction = ext["moment_direction"]
    nrm = np.linalg.norm(direction)
    if not nrm > 0:
        raise ConfigError("external_magnet: moment_direction must be nonzero")
    source = DipoleSource(moment=ext_moment * direction / nrm, position=ext["position_mm"])

    solver = v["solver"]
    settings = _derived("solver", SolverSettings, solver["tolerance_mm"],
                        solver["max_iterations"], solver["relaxation"])
    return LoadedConfig(
        raw=doc, params=params, pair_template=pair, source=source,
        settings=settings, mode=v["beam_mode"],
    )


def load_config(path) -> LoadedConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text at byte {exc.start} ({exc.reason})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise ConfigError(f"{p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return parse_config(doc)

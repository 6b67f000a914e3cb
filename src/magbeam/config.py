"""Robot configuration file loading.

A single JSON document describes the demonstrator; all unit conversion to
SI happens here, so the numeric core never sees millimeters or degrees.
Unknown keys are rejected to catch typos early.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .beam import BeamFormulation, RobotParams, section_moment_tube
from .equilibrium import SolverSettings, _is_count
from .geomag import (
    DipoleSource,
    RingPairConfig,
    magnet_moment_from_geometry,
)


class ConfigError(ValueError):
    """Malformed or physically invalid configuration file."""


_SCHEMA = {
    "robot": {"length_mm", "elastic_modulus_mpa", "tube_od_mm", "tube_id_mm", "ke"},
    "tip_magnets": {"od_mm", "id_mm", "length_mm", "remanence_t", "separation_mm"},
    "external_magnet": {
        "diameter_mm", "length_mm", "remanence_t", "position_mm", "moment_direction",
    },
    "solver": {"tolerance_mm", "max_iterations", "relaxation"},
    "beam_mode": None,
}

_MODES = {"corrected": BeamFormulation.CORRECTED, "legacy": BeamFormulation.LEGACY}


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


def _require(section: dict, name: str, key: str):
    if key not in section:
        raise ConfigError(f"{name}: missing field '{key}'")
    return section[key]


def _is_number(v) -> bool:
    """Whether ``v`` is a finite JSON number; true and false are not."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def _positive(section: dict, name: str, key: str) -> float:
    v = _require(section, name, key)
    if not _is_number(v) or v <= 0:
        raise ConfigError(f"{name}.{key}: expected a positive number, got {v!r}")
    return float(v)


def _nonneg(section: dict, name: str, key: str) -> float:
    v = _require(section, name, key)
    if not _is_number(v) or v < 0:
        raise ConfigError(f"{name}.{key}: expected a number >= 0, got {v!r}")
    return float(v)


def _count(section: dict, name: str, key: str) -> int:
    v = _require(section, name, key)
    if not _is_count(v):
        raise ConfigError(f"{name}.{key}: expected an integer >= 1, got {v!r}")
    return v


def _vec3(section: dict, name: str, key: str) -> np.ndarray:
    v = _require(section, name, key)
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ConfigError(f"{name}.{key}: expected 3 finite numbers, got {v!r}")
    return a


def _check_keys(doc: dict):
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    for sec, fields in _SCHEMA.items():
        if fields is None:
            continue
        if sec not in doc:
            raise ConfigError(f"missing section '{sec}'")
        if not isinstance(doc[sec], dict):
            raise ConfigError(f"section '{sec}' must be an object")
        extra = set(doc[sec]) - fields
        if extra:
            raise ConfigError(f"{sec}: unknown keys {sorted(extra)}")


def parse_config(doc: dict) -> LoadedConfig:
    _check_keys(doc)
    robot = doc["robot"]
    tip = doc["tip_magnets"]
    ext = doc["external_magnet"]
    solver = doc["solver"]

    od = _positive(robot, "robot", "tube_od_mm") * 1e-3
    idm = _nonneg(robot, "robot", "tube_id_mm") * 1e-3
    if od <= idm:
        raise ConfigError("robot: tube_od_mm must exceed tube_id_mm")
    params = RobotParams(
        length=_positive(robot, "robot", "length_mm") * 1e-3,
        elastic_modulus=_positive(robot, "robot", "elastic_modulus_mpa") * 1e6,
        section_moment=section_moment_tube(od, idm),
        base_position=np.zeros(3),
        stiffness_scale=_positive(robot, "robot", "ke"),
    )

    tip_moment = magnet_moment_from_geometry(
        _positive(tip, "tip_magnets", "od_mm") * 1e-3,
        _nonneg(tip, "tip_magnets", "id_mm") * 1e-3,
        _positive(tip, "tip_magnets", "length_mm") * 1e-3,
        _positive(tip, "tip_magnets", "remanence_t"),
    )
    pair = RingPairConfig.from_angles(
        tip_moment, 0.0, 0.0,
        separation=_nonneg(tip, "tip_magnets", "separation_mm") * 1e-3,
    )

    ext_moment = magnet_moment_from_geometry(
        _positive(ext, "external_magnet", "diameter_mm") * 1e-3,
        0.0,
        _positive(ext, "external_magnet", "length_mm") * 1e-3,
        _positive(ext, "external_magnet", "remanence_t"),
    )
    pos = _vec3(ext, "external_magnet", "position_mm")
    direction = _vec3(ext, "external_magnet", "moment_direction")
    nrm = np.linalg.norm(direction)
    if not nrm > 0:
        raise ConfigError("external_magnet: moment_direction must be nonzero")
    if not math.isfinite(ext_moment):
        raise ConfigError("external_magnet: the dipole moment is not finite")
    source = DipoleSource(moment=ext_moment * direction / nrm, position=pos * 1e-3)

    settings = SolverSettings(
        position_tolerance=_positive(solver, "solver", "tolerance_mm") * 1e-3,
        max_iterations=_count(solver, "solver", "max_iterations"),
        relaxation=_positive(solver, "solver", "relaxation"),
    )

    mode_name = doc["beam_mode"]
    if not isinstance(mode_name, str) or mode_name not in _MODES:
        raise ConfigError(
            f"beam_mode: expected one of {sorted(_MODES)}, got {mode_name!r}"
        )
    return LoadedConfig(
        raw=doc, params=params, pair_template=pair, source=source,
        settings=settings, mode=_MODES[mode_name],
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
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return parse_config(doc)

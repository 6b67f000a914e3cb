import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from magbeam.beam import BeamFormulation
from magbeam.config import (
    _KEYS,
    ConfigError,
    default_config_path,
    load_config,
    parse_config,
)
from magbeam.geomag import ContractViolation
from test_cli_fuzz import BAD_VALUES

README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = {e: e[1] if e[0] is None else f"{e[0]}.{e[1]}" for e in _KEYS}  # as messages name them


@pytest.fixture
def doc():
    return json.loads(default_config_path().read_text())


class TestDefaults:
    def test_bundled_config_loads(self):
        cfg = load_config(default_config_path())
        assert cfg.params.length == pytest.approx(0.15)
        assert cfg.params.elastic_modulus == pytest.approx(766e6)
        assert cfg.params.section_moment == pytest.approx(4.135e-13, rel=1e-3)
        assert cfg.pair_template.magnet_1.moment_magnitude == pytest.approx(
            5.4375e-3, rel=1e-3
        )
        assert np.linalg.norm(cfg.source.moment) == pytest.approx(200.485, rel=1e-3)
        assert cfg.source.position == pytest.approx([0.23, 0.0, 0.0])
        # external moment points along -x
        assert cfg.source.moment[0] < 0
        assert cfg.source.moment[1] == 0 and cfg.source.moment[2] == 0
        assert cfg.mode is BeamFormulation.LEGACY
        assert cfg.settings.position_tolerance == pytest.approx(1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(f)

    def test_integer_past_the_digit_limit(self, tmp_path):
        f = tmp_path / "big.json"
        text = default_config_path().read_text()
        f.write_text(text.replace('"ke": 0.009', '"ke": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="big.json"):
            load_config(f)

    def test_not_utf8(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_bytes(b'{"robot": "\xff"}')
        with pytest.raises(ConfigError, match=r"not UTF-8 text at byte 11"):
            load_config(f)


class TestSchema:
    def test_unknown_top_level_key(self, doc):
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(doc)

    def test_unknown_section_key(self, doc):
        doc["robot"]["typo_mm"] = 1.0
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_missing_section(self, doc):
        del doc["solver"]
        with pytest.raises(ConfigError, match="missing section"):
            parse_config(doc)

    def test_missing_field(self, doc):
        del doc["robot"]["length_mm"]
        with pytest.raises(ConfigError, match="missing field"):
            parse_config(doc)

    def test_nonpositive_rejected(self, doc):
        doc["robot"]["length_mm"] = 0
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_tube_geometry_checked(self, doc):
        doc["robot"]["tube_id_mm"] = doc["robot"]["tube_od_mm"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_mode(self, doc):
        doc["beam_mode"] = "classic"
        with pytest.raises(ConfigError, match="beam_mode"):
            parse_config(doc)

    def test_bad_direction(self, doc):
        doc["external_magnet"]["moment_direction"] = [0, 0, 0]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_raw_preserved(self, doc):
        cfg = parse_config(doc)
        assert cfg.raw == doc

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "max_iterations", 2.5),
        ("solver", "max_iterations", 3.0),
        ("solver", "max_iterations", True),
        ("solver", "relaxation", True),
        ("robot", "length_mm", True),
        ("tip_magnets", "id_mm", False),
    ], ids=["iterations-fraction", "iterations-float", "iterations-true", "relaxation-true",
            "length-true", "id-false"])
    def test_bools_and_fractional_counts_rejected(self, doc, section, key, value):
        # a JSON true is no number, and a count is no float
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [1.5, 2])
    def test_relaxation_above_one_names_the_section(self, doc, value):
        doc["solver"]["relaxation"] = value
        with pytest.raises(ConfigError, match="solver"):
            parse_config(doc)


def _parse_or_input_error(doc):
    """parse_config(doc), where only ConfigError or ContractViolation may
    stop it: anything else would reach the command line as a traceback."""
    try:
        parse_config(doc)
    except (ConfigError, ContractViolation):
        pass
    except Exception as exc:  # a traceback on the command line
        pytest.fail(f"{exc!r} escaped parse_config")


class TestEveryKey:
    """Every declared key, given every bad value or deleted."""

    @staticmethod
    def holder(doc, entry):
        """The object of ``doc`` that holds the key of ``entry``."""
        return doc if entry[0] is None else doc[entry[0]]

    @pytest.mark.parametrize("entry", _KEYS, ids=NAMES.get)
    def test_bad_values(self, doc, entry):
        for value in [*BAD_VALUES, 10**400, 1e300, [10**400, 0, 0]]:
            bad = copy.deepcopy(doc)
            self.holder(bad, entry)[entry[1]] = value
            _parse_or_input_error(bad)

    # 10**400 is a valid count; it overflows a float everywhere else
    @pytest.mark.parametrize("entry", [e for e in _KEYS if e[2] != "count"], ids=NAMES.get)
    def test_oversized_integer_names_the_key(self, doc, entry):
        self.holder(doc, entry)[entry[1]] = [10**400, 0, 0] if entry[2] == "vector" else 10**400
        with pytest.raises(ConfigError, match=re.escape(NAMES[entry])):
            parse_config(doc)

    @pytest.mark.parametrize("entry", _KEYS, ids=NAMES.get)
    def test_deleted_key(self, doc, entry):
        del self.holder(doc, entry)[entry[1]]
        with pytest.raises(ConfigError, match=entry[1]):
            parse_config(doc)

    @pytest.mark.parametrize("section", sorted({e[0] for e in _KEYS} - {None}))
    def test_deleted_section(self, doc, section):
        del doc[section]
        with pytest.raises(ConfigError, match=f"missing section '{section}'"):
            parse_config(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("robot", "tube_od_mm", 1e200),
        ("tip_magnets", "od_mm", 1e300),
        ("external_magnet", "diameter_mm", 1e308),
    ])
    def test_huge_diameter_names_the_section(self, doc, section, key, value):
        # a finite diameter whose section or dipole moment overflows
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"^{section}: .* not finite"):
            parse_config(doc)


def test_readme_lists_every_key():
    """The README's config table names exactly the declared keys."""
    text = README.read_text(encoding="utf-8").split("## Config file", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z_.]+)` \|", text, flags=re.MULTILINE)
    assert sorted(listed) == sorted(NAMES.values())

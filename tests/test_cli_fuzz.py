"""Seeded fuzz of the command line.

Every subcommand is fed malformed config values (deleted keys and
integers too large for a float among them), CSV cells, range strings
and numeric flags, and files that are not UTF-8 or hold a CSV cell over
the csv module's field size limit. Whatever the input, the
CLI must answer with a documented exit code (0 success, 2 input error,
3 numerical failure) and must never let an exception escape or print a
traceback. A JSON report printed on success must be strict JSON, with no
NaN or Infinity.
"""
import json

import numpy as np
import pytest

from magbeam.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from magbeam.config import default_config_path

DATA_DIR = default_config_path().parent
CASES = 40  # per subcommand
COMMANDS = ["simulate", "sweep", "calibrate", "validate", "workspace", "invert"]

BAD_VALUES = [None, "abc", "", -1, 0, 1e308, 1e-300, float("inf"), float("nan"), [],
              [1, 2], ["a", "b", "c"], [[1], 2, 3], {"a": 1}, True, "1"]
BAD_CELLS = ["", "x", "nan", "inf", "-inf", "1e999", "--", "0x1", " ", "1,5", "1e-400"]
# Numeric tokens stay small, so that a well-formed range is at most a few
# dozen samples; the step tokens 1e-300 and inf probe the count cap.
RANGE_TOKENS = ["", "a", "nan", "inf", "-inf", "1e309", "0", "45", "-30", "180", "0x10",
                " 15", "1e-300", "-0", "90"]
FLAG_VALUES = ["nan", "inf", "-1", "0", "1e-300", "1e308", "1e309", "abc", "", "0.009", "4.03"]


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def byte_defect(rng, text, cells) -> bytes:
    """``text`` as UTF-8 with one byte-level defect: a byte 0xFF, which is
    not UTF-8, at a random place, or if ``cells`` may be, a last row holding
    a quoted cell longer than the csv module's field size limit."""
    data = text.encode("utf-8")
    if cells and rng.random() < 0.5:
        return data + b'"' + b"9" * 200_000 + b'"\n'
    k = int(rng.integers(len(data) + 1))
    return data[:k] + b"\xff" + data[k:]


def fuzz_config(rng, path) -> str:
    """The demonstrator config with one random defect, written to ``path``."""
    doc = json.loads(default_config_path().read_text(encoding="utf-8"))
    kind = int(rng.integers(10))
    sec = _pick(rng, sorted(k for k in doc if isinstance(doc[k], dict)))
    if kind == 0 or kind == 1:
        doc[sec][_pick(rng, sorted(doc[sec]))] = _pick(rng, BAD_VALUES)
    elif kind == 2:
        del doc[sec][_pick(rng, sorted(doc[sec]))]
    elif kind == 3:
        doc[_pick(rng, [sec, "beam_mode"])] = _pick(rng, BAD_VALUES)
    elif kind == 4:
        doc = _pick(rng, BAD_VALUES)
    elif kind == 7:
        del doc[_pick(rng, sorted(doc))]
    elif kind == 8:  # an integer too large for a float
        doc[sec][_pick(rng, sorted(doc[sec]))] = 10**400
    elif kind == 9:
        vec = _pick(rng, [v for s in sorted(doc) if isinstance(doc[s], dict)
                          for v in doc[s].values() if isinstance(v, list)])
        vec[int(rng.integers(len(vec)))] = -(10**400) if rng.random() < 0.5 else 10**400
    text = json.dumps(doc)
    if kind == 5:
        text = text[:int(rng.integers(len(text)))]
    path.write_bytes(byte_defect(rng, text, cells=False) if kind == 6 else text.encode("utf-8"))
    return str(path)


def fuzz_csv(rng, src, path, rows) -> str:
    """The first ``rows`` data rows of ``src`` with one random defect."""
    lines = src.read_text(encoding="utf-8").splitlines()[:rows + 1]
    table = [line.split(",") for line in lines]
    kind = int(rng.integers(6))
    if kind <= 1:
        r = int(rng.integers(1, len(table)))
        table[r][int(rng.integers(len(table[r])))] = _pick(rng, BAD_CELLS)
    elif kind == 2:
        table[0][int(rng.integers(len(table[0])))] = _pick(rng, BAD_CELLS)
    elif kind == 3:
        table = table[:int(rng.integers(1, 3))]
    elif kind == 4:
        table.append([_pick(rng, BAD_CELLS)])
    text = "\n".join(",".join(row) for row in table) + "\n"
    path.write_bytes(byte_defect(rng, text, cells=True) if kind == 5 else text.encode("utf-8"))
    return str(path)


def fuzz_range(rng) -> str:
    return ":".join(_pick(rng, RANGE_TOKENS) for _ in range(int(rng.integers(1, 5))))


def _reject(token):
    raise ValueError(f"non-finite number {token} in a report")


def argv_for(command, rng, tmp_path) -> list[str]:
    config = ["--config", fuzz_config(rng, tmp_path / "cfg.json")] if rng.random() < 0.5 else []
    kk = ["--ke", _pick(rng, FLAG_VALUES), "--kb", _pick(rng, FLAG_VALUES)]
    if rng.random() < 0.5:
        kk = ["--ke", "0.009", "--kb", "4.03"]
    if command == "simulate":
        return ["simulate", "--theta1", _pick(rng, FLAG_VALUES), *kk, *config]
    if command == "sweep":
        ranges = [fuzz_range(rng), "0"]
        rng.shuffle(ranges)
        return ["sweep", "--theta1", ranges[0], "--theta2", ranges[1], *kk, *config]
    if command == "invert":
        targets = tmp_path / "targets.csv"
        targets.write_text("x_mm,y_mm,z_mm\n148.7,-4.2,9.1\n150,0,0\n130,25,30\n",
                           encoding="utf-8")
        fuzzed = fuzz_csv(rng, targets, tmp_path / "fuzzed.csv", 3)
        return ["invert", "--targets", fuzzed, *kk, *config]
    data = fuzz_csv(rng, DATA_DIR / "planar-sweep-digitized.csv", tmp_path / "data.csv", 4)
    if command == "calibrate":
        axes = ["0.009:0.012:2", "4:4.1:2"]
        axes[int(rng.integers(2))] = fuzz_range(rng)
        notch = ["--notch-slope", _pick(rng, FLAG_VALUES),
                 "--notch-offset", _pick(rng, FLAG_VALUES)] if rng.random() < 0.3 else []
        return ["calibrate", "--data", data, "--ke", axes[0], "--kb", axes[1],
                *notch, *config]
    if command == "validate":
        return ["validate", "--data", data, *kk, *config]
    if rng.random() < 0.5:
        schedule = fuzz_csv(rng, DATA_DIR / "elliptical-schedule.csv",
                            tmp_path / "schedule.csv", 6)
        return ["workspace", "--schedule", schedule, *kk, *config]
    top = tmp_path / "top.csv"
    top.write_text("x_mm,y_mm\n" + "".join(f"149,{v}\n" for v in (0, 3, 5, 3, 0, -3, -5, -3)),
                   encoding="utf-8")
    side = fuzz_csv(rng, top, tmp_path / "side.csv", 8)
    return ["workspace", "--top", str(top), "--side", side, *config]


@pytest.mark.parametrize("seed", range(CASES))
@pytest.mark.parametrize("command", COMMANDS)
def test_exit_code_and_no_traceback(command, seed, tmp_path, capsys):
    rng = np.random.default_rng([seed, COMMANDS.index(command)])
    argv = argv_for(command, rng, tmp_path)
    try:
        rc = main(argv)
    except Exception as exc:  # a traceback on the command line
        pytest.fail(f"{argv} raised {exc!r}")
    out, err = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC), argv
    assert "Traceback" not in err
    if rc != EXIT_OK:
        assert "error" in err, argv
    elif command in ("calibrate", "validate", "workspace"):
        json.loads(out, parse_constant=_reject)  # a report is strict JSON

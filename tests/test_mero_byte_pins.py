"""Byte-identity pins of b_mero and of the benchmark's CLI commands.

`data/mero_byte_pins.json` holds two lists:

- `mero`: for the 27 battery items and the 20 `ENGINE_PINS` pairs, what
  `b_mero(F, G, m)` returns at its default bounds, as strings: b, status,
  `engine_b`, the witness operator of each k, and the notes.
- `cli`: argv, exit code and exact stdout of the `--json` commands of the
  cli-classic benchmark list that `golden_transcripts.json` and
  `bf_result_pins.json` do not already hold.  They run from `tests/data`,
  so the chart file is named by its bare file name.

A change to the engine, the oracle or the arithmetic that keeps the
answers passes these unmodified.
"""

import json
from pathlib import Path

import pytest

from mbfun.cli import main as cli_main
from mbfun.merobf import b_mero
from test_merobf import BATTERY, ENGINE_PINS, pair

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "mero_byte_pins.json").read_text(encoding="utf-8"))
CASES = BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS]


def observed(ftext, gtext, m):
    """b_mero's answer on F/G at order m, every part as a string."""
    res = b_mero(*pair(ftext, gtext), m)
    return {
        "F": ftext,
        "G": gtext,
        "m": m,
        "b": str(res.b),
        "status": res.status,
        "engine_b": None if res.engine_b is None else str(res.engine_b),
        "witness": None
        if res.witness is None
        else {str(k): str(P) for k, P in sorted(res.witness.items())},
        "notes": list(res.notes),
    }


def test_the_pins_cover_the_battery_and_the_engine_pins():
    assert [(e["F"], e["G"], e["m"]) for e in PINS["mero"]] == CASES


@pytest.mark.parametrize("entry", PINS["mero"], ids=lambda e: f"({e['F']})/({e['G']}) m={e['m']}")
def test_b_mero_is_byte_identical(entry):
    assert observed(entry["F"], entry["G"], entry["m"]) == entry


@pytest.mark.parametrize("entry", PINS["cli"], ids=lambda e: " ".join(e["argv"][:-1]))
def test_cli_classic_json_is_byte_identical(entry, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = cli_main(entry["argv"])
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit_code"]

"""Pinned CLI output of the bf commands beyond the golden transcripts.

`data/bf_result_pins.json` holds, per command, its argv, exit code and
exact stdout, in the layout of `golden_transcripts.json`: the `--json`
reports of an UNCERTIFIED `bf classic` (with its note), of `bf classic`
at a low `--certify-deg`, and of `bf sabbah-line` at m = 0 and m = 1; and
the human reports, whose result lines follow the insertion order of the
result, of every bf command, `check corjump` and `jump nc`.  The human
report ends with a wall-clock `time` line, which is checked for its
prefix and cut off before the comparison.
"""

import json
from pathlib import Path

import pytest

from mbfun.cli import main as cli_main

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "bf_result_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", PINS, ids=lambda e: " ".join(e["argv"]))
def test_pinned_report(entry, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = cli_main(entry["argv"])
    out = capsys.readouterr().out
    if "--json" not in entry["argv"]:
        body, _, last = out.rstrip("\n").rpartition("\n")
        assert last.startswith("time    : ")
        out = body + "\n"
    assert out == entry["stdout"]
    assert code == entry["exit_code"]

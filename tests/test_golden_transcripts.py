"""Pinned `--json` transcripts: the CLI output must not drift across commits.

`data/golden_transcripts.json` holds, per command, its argv, exit code and
exact stdout.  Every command runs from `tests/data`, so a chart file it
reads is named there by its bare file name, and the command echo and the
echoed `--charts` path are stable wherever the suite runs: the comparison
is byte for byte.  Every command runs with --json, and each pinned report
must also validate against the package's report schema.
"""

import importlib.resources
import json
from pathlib import Path

import jsonschema
import pytest

from mbfun.cli import main as cli_main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_transcripts.json").read_text(encoding="utf-8"))
SCHEMA = json.loads(
    importlib.resources.files("mbfun").joinpath("schemas/report.schema.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"][:-1]))
def test_golden_transcript(entry, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = cli_main(entry["argv"])
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit_code"]
    jsonschema.validate(json.loads(entry["stdout"]), SCHEMA)

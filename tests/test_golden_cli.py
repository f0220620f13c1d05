"""CLI reports must stay byte-identical across refactors.

``golden_cli.json`` holds ``(argv, exit code, report)`` for the README CLI
commands and the acceptance criterion-9 invocations, recorded before the
root-data/families consolidation.  Criterion 9 only compares two runs of one
build; this test compares against the recorded reports, so a change that
alters any of them fails here.  Update the file only together with a
deliberate change to a report, and say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from galpairs.cli import run

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_report_matches_golden(case):
    assert run(case["argv"]) == (case["exit"], case["report"])

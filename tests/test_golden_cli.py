"""CLI reports must stay byte-identical across refactors.

``golden_cli.json`` holds ``(argv, exit code, report)`` for the README CLI
commands and the acceptance criterion-9 invocations, recorded before the
root-data/families consolidation.  Criterion 9 only compares two runs of one
build; this test compares against the recorded reports, so a change that
alters any of them fails here.  Update the file only together with a
deliberate change to a report, and say so in CHANGES.md.  A fixture path in an
argv is relative to the repository root and is resolved from there, so the test
runs from any directory; the report header names the fixture's "name", not its path.
"""

import json
from pathlib import Path

import pytest

from galpairs.cli import run

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))
ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_report_matches_golden(case):
    argv = [str(ROOT / a) if a.startswith("tests/fixtures/") else a for a in case["argv"]]
    assert run(argv) == (case["exit"], case["report"])

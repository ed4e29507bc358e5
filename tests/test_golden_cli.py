"""Committed outputs of the CLI reports that `test_golden_check` and
`test_golden_search` do not cover, rerun and compared byte for byte.

The cases are `tables` (special and possible-d, text and json), one json
search, `check --format text` on a regular and an irregular parameter, and
the three verify commands in both formats on the first special row.
Regenerate the golden only when an answer or a report is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hgsearch.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

ROW = "d=9;a=0,0,0;b=1,2,6"
CASES = [
    ["tables", "--which", "special", "--format", "text"],
    ["tables", "--which", "special", "--format", "json"],
    ["tables", "--which", "possible-d", "--jobs", "1", "--format", "text"],
    ["tables", "--which", "possible-d", "--jobs", "2", "--format", "json"],
    ["search", "--n", "3", "--partition", "3", "--d-min", "5", "--d-max", "12", "--format", "json"],
    ["check", "--param", ROW, "--format", "text"],
    ["check", "--param", "d=9;a=0,0,1;b=2,3,5", "--format", "text"],
]
CASES += [
    [cmd, "--param", ROW, "--format", fmt]
    for cmd in ("verify-monodromy", "verify-ode", "verify-jacobi")
    for fmt in ("json", "text")
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)

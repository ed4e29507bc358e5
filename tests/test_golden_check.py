"""Committed `hgsearch check --format json` outputs, rerun and compared byte
for byte.

The cases are the special rows with and without their published c, plus two
parameters at d=90 and d=120 whose unit groups have many subgroups, so the
report's minimal U and its (D) witness are pinned past the tables' moduli.
Regenerate the golden only when an answer is meant to change:

    PYTHONPATH=src python tests/test_golden_check.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hgsearch.cli import main
from hgsearch.tables import SPECIAL_ROWS, row_param

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_check.json"

LITERALS = [row_param(row).literal() for row in SPECIAL_ROWS]
LITERALS += [f"{lit};c={','.join(map(str, row.c))}" for lit, row in zip(LITERALS, SPECIAL_ROWS)]
LITERALS += ["d=90;a=0,0,0,48;b=3,6,39,45", "d=120;a=0,0,0,1;b=2,3,4,52"]
CASES = [["check", "--param", lit, "--format", "json"] for lit in LITERALS]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[2])
def test_check_output_matches_golden(argv):
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)

"""Committed `hgsearch search` outputs, rerun and compared byte for byte.

The goldens in data/golden_search.json pin whole result lists, so a change
that alters any answer, or the rows a `--limit` run keeps, fails here.
Regenerate them only when an answer is meant to change:

    PYTHONPATH=src python tests/test_golden_search.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hgsearch.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_search.json"

CASES = (
    ["search", "--n", "4", "--partition", "2,2", "--d-min", "5", "--d-max", "15"],
    [
        "search", "--n", "4", "--partition", "3,1", "--d-min", "5", "--d-max", "16",
        "--strict-criteria", "--dedup",
    ],
    ["search", "--n", "5", "--partition", "3,1,1", "--d-min", "24", "--d-max", "24", "--limit", "1"],
    # moduli with two and three prime divisors pin the published pivot-basis
    # solve; at d=30 its common denominator is 4
    ["search", "--n", "4", "--partition", "3,1", "--d-min", "18", "--d-max", "20"],
    ["search", "--n", "4", "--partition", "2,2", "--d-min", "24", "--d-max", "30"],
    # strict mode at d = 18, 20 and 24 pins the clause-(iv) membership test
    [
        "search", "--n", "4", "--partition", "2,2", "--d-min", "17", "--d-max", "24",
        "--strict-criteria",
    ],
    [
        "search", "--n", "4", "--partition", "3,1", "--d-min", "17", "--d-max", "20",
        "--strict-criteria",
    ],
    # d=30 has three prime divisors, so its gamma image has four
    # coordinates
    [
        "search", "--n", "4", "--partition", "3,1", "--d-min", "25", "--d-max", "30",
        "--strict-criteria",
    ],
    # n=5 and n=6 pin the split-half beta enumeration; the --limit run
    # keeps the least rows of the sorted answer
    ["search", "--n", "6", "--partition", "3,3", "--d-min", "13", "--d-max", "15"],
    ["search", "--n", "5", "--partition", "2,2,1", "--d-min", "17", "--d-max", "18"],
    ["search", "--n", "6", "--partition", "4,2", "--d-min", "18", "--d-max", "20", "--limit", "2"],
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv[1:]))
def test_search_output_matches_golden(argv):
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)

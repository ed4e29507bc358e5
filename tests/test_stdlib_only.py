"""The package runs on the standard library alone: every absolute import
in src/hgsearch names a standard-library module, and every file parses
under the grammar of the oldest Python that pyproject.toml accepts."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hgsearch"


def python_floor():
    """(major, minor) from pyproject's requires-python = ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    floor = python_floor()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # every check, verify and benchmark round is its own short process, and
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import hgsearch, hgsearch.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

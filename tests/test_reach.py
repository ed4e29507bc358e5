"""The package ships only code that runs: every module-level definition in
src/hgsearch has a caller there, is exported, or is a traced layer of the
benchmark; and the README's Library example runs as written."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import hgsearch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hgsearch"


def _tracer():
    spec = importlib.util.spec_from_file_location("hgsearch_bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    """(module, attribute path) of every function the benchmark's tracer wraps."""
    tracer = _tracer()
    return [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.COUNTS]


def _references(node):
    """The identifiers node refers to: names, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unused_definitions(src=SRC):
    """Module-level functions and classes of src whose name is referred to
    nowhere in src outside their own body, is not in hgsearch.__all__, and
    is not wrapped by the tracer, as module:name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    kept = set(hgsearch.__all__) | {attr.split(".")[0] for _, attr in _traced()}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = _references(node)[node.name]
                if total[node.name] == own and node.name not in kept:
                    out.append(f"{module}:{node.name}")
    return out


def test_every_definition_in_src_has_a_caller():
    assert unused_definitions() == []


def test_the_scan_flags_a_definition_without_a_caller(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "search.py", "a") as fh:
        fh.write("\n\ndef only_tests_call_me(n):\n    return only_tests_call_me(n - 1) if n else 0\n")
    assert unused_definitions(tmp_path) == ["search:only_tests_call_me"]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert '"R": true' in capsys.readouterr().out

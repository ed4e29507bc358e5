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


def _inherited(module, cls, name):
    """Whether name is a dunder, or an attribute that a base of the class
    module.cls of the imported hgsearch package defines."""
    if name.startswith("__") and name.endswith("__"):
        return True
    found = getattr(importlib.import_module(f"hgsearch.{module}"), cls, None)
    return found is not None and any(hasattr(base, name) for base in found.__mro__[1:])


def unused_definitions(src=SRC):
    """Module-level functions and classes of src whose name is referred to
    nowhere in src outside their own body, is not in hgsearch.__all__, and
    is not wrapped by the tracer, as module:name; and the same for the
    methods and properties of module-level classes, as module:Class.name,
    a method being wrapped when the tracer names Class.name.  Dunders and
    overrides of an inherited method (SearchSpec._make, which namedtuple's
    _replace calls) are left out: the base's machinery calls them."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    traced = {attr for _, attr in _traced()}
    kept = set(hgsearch.__all__) | {attr.split(".")[0] for attr in traced}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs + (ast.ClassDef,)):
                own = _references(node)[node.name]
                if total[node.name] == own and node.name not in kept:
                    out.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, defs) or _inherited(module, node.name, method.name):
                        continue
                    name = f"{node.name}.{method.name}"
                    own = _references(method)[method.name]
                    if total[method.name] == own and name not in traced:
                        out.append(f"{module}:{name}")
    return out


def test_every_definition_in_src_has_a_caller():
    assert unused_definitions() == []


def test_the_scan_flags_a_definition_without_a_caller(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "search.py", "a") as fh:
        fh.write("\n\ndef only_tests_call_me(n):\n    return only_tests_call_me(n - 1) if n else 0\n")
    cyclo = (tmp_path / "cyclo.py").read_text()
    method = "    def is_zero(self) -> bool:\n"
    assert method in cyclo
    extra = "    def only_tests_call_me_too(self):\n        return self.only_tests_call_me_too()\n\n"
    (tmp_path / "cyclo.py").write_text(cyclo.replace(method, extra + method, 1))
    assert unused_definitions(tmp_path) == ["cyclo:CycNum.only_tests_call_me_too", "search:only_tests_call_me"]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert '"R": true' in capsys.readouterr().out

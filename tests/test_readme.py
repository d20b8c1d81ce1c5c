"""The README's lists of fixed constants and sweep statuses, and its library
tour, match the code."""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

from safestab import dynamics

README = Path(__file__).resolve().parent.parent / "README.md"


def _bullet(title):
    """The text of README's top-level bullet that starts with ``title``."""
    text = README.read_text()
    start = text.index(f"* **{title}.**")
    end = text.find("\n* **", start)
    return text[start:end if end >= 0 else len(text)]


def _fixed_constants():
    return re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", _bullet("Fixed constants"))


def test_readme_fixed_constants_match_the_code():
    listed = _fixed_constants()
    assert len(listed) >= 10
    for module, name, value in listed:
        mod = importlib.import_module(f"safestab.{module}")
        assert hasattr(mod, name), f"README lists {module}.{name}, which does not exist"
        assert getattr(mod, name) == ast.literal_eval(value), (module, name, value)


def test_readme_sweep_statuses_match_the_code():
    section = _bullet("Sweep rows and observers")
    finished = re.findall(r"runs to the end is `(\w+)`", section)
    early = re.findall(r"^  \* `(\w+)`:", section, re.M)
    assert sorted(finished + early) == sorted(dynamics._STATUS_REASON.values())


def _tour_blocks():
    """The README's python blocks: the tour and the converse pipeline."""
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def _tour_imports(tree) -> dict:
    """The namespace the import statements of a block produce."""
    ns = {}
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    exec(compile(ast.Module(imports, type_ignores=[]), "README", "exec"), ns)
    return ns


def test_readme_tour_names_and_calls_match_the_api():
    # too slow to run in the suite, so it is checked without running it
    tree = ast.parse(_tour_blocks()[0])
    ns = _tour_imports(tree)
    assigned = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            assert node.id in ns or node.id in assigned or hasattr(builtins, node.id), node.id
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ns:
            inspect.signature(ns[node.func.id]).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})


def test_readme_converse_pipeline_runs():
    tour, converse = _tour_blocks()[:2]
    ns = _tour_imports(ast.parse(tour))
    exec(compile(converse, "README", "exec"), ns)
    assert ns["report"].passed

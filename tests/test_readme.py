"""The README's list of fixed constants matches the code."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _fixed_constants():
    text = README.read_text()
    start = text.index("* **Fixed constants.**")
    end = text.index("\n* **", start)
    return re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", text[start:end])


def test_readme_fixed_constants_match_the_code():
    listed = _fixed_constants()
    assert len(listed) >= 10
    for module, name, value in listed:
        mod = importlib.import_module(f"safestab.{module}")
        assert hasattr(mod, name), f"README lists {module}.{name}, which does not exist"
        assert getattr(mod, name) == ast.literal_eval(value), (module, name, value)

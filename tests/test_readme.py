"""The README's lists of fixed constants and sweep statuses match the code."""

import ast
import importlib
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

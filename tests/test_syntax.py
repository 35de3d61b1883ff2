"""The package parses as the oldest Python that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src" / "klbasis").glob("*.py"))


def test_floor_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_refused():
    # the check has teeth: except* (3.11) parses on 3.11 but not at the floor
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)

"""Every source and test file parses as Python 3.10, the oldest version the
package supports (pyproject's requires-python, CI's 3.10 leg)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_parser_rejects_syntax_newer_than_3_10():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))

"""The package parses under the oldest Python it supports.

``pyproject.toml`` declares ``requires-python >= 3.10``. Every module of
``spin_atlas`` is parsed with ``ast.parse(..., feature_version=(3, 10))``,
which rejects the newer syntax the parser can tell apart (``except*`` of
3.11, say) on any newer interpreter. It checks syntax only, not which
library names a module uses.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_floor_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups() == tuple(map(str, FLOOR))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "spin_atlas").glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)

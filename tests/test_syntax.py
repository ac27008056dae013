"""Every module under src/ and tests/ parses as Python 3.10, the oldest
version pyproject.toml supports, so syntax of a later version (such as
`except*`) fails here and not only on a 3.10 interpreter. ast checks only
the grammar features it knows by version: it accepts some later syntax,
and library calls of a later version are not checked at all."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_module_parses_as_the_oldest_supported_version():
    modules = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(modules) > 20
    failures = []
    for path in modules:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not failures


def test_later_syntax_is_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)

"""Checks that back a result must survive `python -O`, which strips
`assert` statements: the package raises its own errors instead.
`instances.py` is exempt; it holds the test-data generators' self-checks.
"""

import ast
from pathlib import Path

import flagstab

PACKAGE = Path(flagstab.__file__).parent


def test_no_assert_statements_outside_instances():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "instances.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

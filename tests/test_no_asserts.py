"""Checks that back a result must survive `python -O`, which strips
`assert` statements: the package raises its own errors instead, and
never a bare `AssertionError`, which callers catching `FlagstabError`
would miss.  `instances.py` is exempt; it holds the test-data
generators' self-checks.
"""

import ast
from pathlib import Path

import flagstab

PACKAGE = Path(flagstab.__file__).parent


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_outside_instances():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "instances.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert found == []


def test_raise_assertion_error_is_detected():
    tree = ast.parse("raise AssertionError('x')\nraise AssertionError\nraise ValueError('y')\n")
    assert [_raises_assertion_error(node) for node in tree.body] == [True, True, False]

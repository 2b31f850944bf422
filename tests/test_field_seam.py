"""One field seam: each `Field` holds its row kernels (`Field._ops`), one of
three kinds chosen from p in `Field.__init__`, and every per-field path
runs through them.  So no code outside `Field` and those kinds reads p to
choose a path: it compares neither p nor `.p` with None or a number, tests
no membership in `_MOD`, and uses neither p nor `.p` as a condition.
"""

import ast
from pathlib import Path

import flagstab

PACKAGE = Path(flagstab.__file__).parent
SEAM = {"Field", "_Rationals", "_ListPrimes", "_PackedPrimes"}


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _conditions(node):
    """The expressions node uses as conditions."""
    if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
        return [node.test]
    if isinstance(node, ast.BoolOp):
        return node.values
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [node.operand]
    if isinstance(node, ast.comprehension):
        return node.ifs
    return []


def _reads_p(node):
    """The expressions of node itself that pick a path by p."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if any(_named(x, "p") for x in operands) and any(
                isinstance(x, ast.Constant) and (x.value is None or type(x.value) is int)
                for x in operands):
            return [node]
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(
                _named(x, "_MOD") for x in node.comparators):
            return [node]
    return [x for x in _conditions(node) if _named(x, "p")]


def _field_tests(sources):
    """`file:line` of each node outside the seam's classes in sources (name
    -> text) that reads p to choose a path."""
    found = []

    def visit(name, node):
        if isinstance(node, ast.ClassDef) and node.name in SEAM:
            return
        found.extend(f"{name}:{x.lineno}" for x in _reads_p(node))
        for child in ast.iter_child_nodes(node):
            visit(name, child)

    for name, text in sources.items():
        visit(name, ast.parse(text, filename=name))
    return found


def test_no_code_outside_the_seam_reads_p_to_choose_a_path():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _field_tests(sources) == []


def test_field_test_is_detected():
    source = (
        "def f(field, p, rng, m):\n"
        "    if p is None:\n"
        "        pass\n"
        "    x = 1 if field.p else 2\n"
        "    y = p and field.p\n"
        "    ok = field.p in _MOD\n"
        "    z = not p\n"
        "    q = p == 2\n"
        "    w = [a for a in m if field.p]\n"
        "    fine = rng.randrange(field.p), m.p.inverse(), p % 5, [r for r in m if r]\n"
        "\n"
        "class Field:\n"
        "    def g(self, p):\n"
        "        return 0 if self.p is not None else p in _MOD\n"
        "\n"
        "class _PackedPrimes:\n"
        "    def h(self, v, p):\n"
        "        return v if p == 2 else -v\n"
    )
    assert _field_tests({"a.py": source}) == [
        "a.py:2", "a.py:4", "a.py:5", "a.py:5", "a.py:6", "a.py:7", "a.py:8", "a.py:9"]

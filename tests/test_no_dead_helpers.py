"""Unused helpers get deleted: every private module-level function and
every private method in the package is named somewhere in the package
besides its own `def`.  A helper that only tests call is dead code too.
"""

import ast
from pathlib import Path

import flagstab

PACKAGE = Path(flagstab.__file__).parent


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_defs(tree):
    """(name, line) of the private functions at module level and the
    private methods of module-level classes."""
    out = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        out += [
            (f.name, f.lineno)
            for f in body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(f.name)
        ]
    return out


def _named(tree):
    """Every name the code reads or writes, bare or as an attribute; an
    import alone does not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _dead_helpers(sources):
    """`file:line name` of each private def in sources (name -> text)
    that no code in sources names."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    named = set().union(*map(_named, trees.values()))
    return [
        f"{name}:{line} {fn}"
        for name, tree in trees.items()
        for fn, line in _private_defs(tree)
        if fn not in named
    ]


def test_every_private_helper_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_helpers(sources) == []


def test_dead_helper_is_detected():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                "class C:\n    def _gone(self):\n        pass\n    def __eq__(self, o):\n"
                "        return False\n",
        "b.py": "import a\nfrom a import _dead\na._used()\n",
    }
    assert _dead_helpers(sources) == ["a.py:4 _dead", "a.py:8 _gone"]

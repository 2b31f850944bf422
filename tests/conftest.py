"""The CLI tests run `python -m flagstab.cli` in subprocesses; put the
package under test first on their PYTHONPATH, so that a bare `pytest` in
a checkout tests `src/` there too."""

import os

import flagstab

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(flagstab.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

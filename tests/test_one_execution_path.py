"""Every codec kernel has one execution path, and this scan keeps it so.

The codec stack once ran every hot kernel two ways behind a
process-wide backend switch (``repro.codes.backend``: ``is_vectorized``
and the ``REPRO_CODEC_BACKEND`` environment variable), and each perf
change had to write its kernel twice.  The scalar twins are gone; their
trajectories live on as ``tests/golden/reference_trajectories.json``.
Routes chosen by the *input* (a batch below ``_VECTOR_INTAKE_MIN``, an
engine above ``_BITMATRIX_MAX_NODES``) are not a fork.  Any module of
``src/`` that imports the switch, asks it, or reads its variable has
started growing the fork back, one kernel at a time.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SWITCH_MODULE = "repro.codes.backend"
SWITCH_CALLS = {"is_vectorized", "active_backend", "use_backend",
                "set_backend"}
SWITCH_ENV = "REPRO_CODEC_BACKEND"


def fork_mentions(tree: ast.AST):
    """Line and spelling of every node of ``tree`` that imports the
    backend switch, calls it, or names its environment variable."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == SWITCH_MODULE:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module == SWITCH_MODULE \
                    or (node.level and module == "backend") \
                    or (module == "repro.codes" and "backend" in names):
                yield node.lineno, f"from {module} import ..."
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in SWITCH_CALLS:
                yield node.lineno, f"{name}()"
        elif isinstance(node, ast.Constant) and node.value == SWITCH_ENV:
            yield node.lineno, repr(node.value)


def test_scan_finds_every_spelling():
    tree = ast.parse("from repro.codes.backend import is_vectorized\n"
                     "import repro.codes.backend\n"
                     "from repro.codes import backend\n"
                     "from .backend import use_backend\n"
                     "fast = backend.is_vectorized()\n"
                     "env = os.environ.get('REPRO_CODEC_BACKEND')\n")
    assert [spelling for _, spelling in fork_mentions(tree)] == [
        "from repro.codes.backend import ...",
        "import repro.codes.backend",
        "from repro.codes import ...",
        "from backend import ...",
        "is_vectorized()",
        "'REPRO_CODEC_BACKEND'"]


def test_no_module_forks_on_a_codec_backend():
    forks = [f"{path.relative_to(SRC)}:{line}: {spelling}"
             for path in sorted(SRC.rglob("*.py"))
             for line, spelling in fork_mentions(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not forks, ("a codec kernel is forking on a backend switch "
                       "again:\n" + "\n".join(forks))

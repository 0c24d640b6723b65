"""Every module of ``src/`` imports first, on its own.

An import cycle hides as long as something else happens to import the
cycle's other end first — a test module, a package ``__init__`` — so a
suite that imports everything up front stays green while
``python -c "import repro.net"`` fails.  This test imports each module
as the first ``repro`` import of one interpreter, dropping every
``repro`` module from ``sys.modules`` between them.  ``__main__``
modules are left out: importing one runs the program.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + ":\\n" + traceback.format_exc(limit=-3))
print("\\n".join(failed))
"""


def module_names():
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_imports_first():
    names = list(module_names())
    assert "repro.net.channel" in names and "repro.sim.transfer" in names
    probe = subprocess.run([sys.executable, "-c", _PROBE, *names],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert not probe.stdout.strip(), (
        "modules that fail as the first import:\n" + probe.stdout)

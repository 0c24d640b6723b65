"""The names the end-to-end benchmark times stay defined.

``benchmarks/e2e/e2e_spans.py`` charges each layer's time to a span by
wrapping a method or a module global *by name*, and it skips a name its
owner does not define itself (an inherited method is covered by the
base-class entry).  So a rename or a deletion in ``src/`` does not
fail the benchmark: the span silently reads 0.  This test resolves
every ``(owner, attribute)`` of the benchmark's patch table, inherited
attributes included, and only reads ``benchmarks/e2e/``.
"""

from __future__ import annotations

import importlib
import pathlib

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def test_every_patched_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    spans = importlib.import_module("e2e_spans")
    table = spans._patch_table()
    assert table
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}"
               f".{attribute} ({span})" for owner, attribute, span, _ in table
               if not hasattr(owner, attribute)]
    assert not missing, ("the e2e benchmark patches names src/ no longer "
                         "defines:\n" + "\n".join(missing))

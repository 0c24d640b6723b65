"""Machine-readable benchmark summaries (the ``BENCH_*.json`` files).

pytest-benchmark's own JSON needs ``--benchmark-json`` and buries the
domain metrics inside ``extra_info``; these recorders give each bench
module a one-call way to publish the numbers that actually track the
project's perf trajectory (reception overhead, goodput, packets per
second) as a small stable JSON file at the repo root.  The conftest's
``pytest_sessionfinish`` hook flushes every recorder that collected
rows.  Every row names the bench module that recorded it, and a flush
merges by ``case`` into the file already on disk: a module that ran in
full this session replaces all of its stored rows, so a case it no
longer records leaves the file (and the gate); a module that ran in
part (``-k``, a node id) refreshes only the rows it re-measured; and
the rows of modules that did not run stay as they are.

The committed ``BENCH_*.json`` files hold only the gated metric rows —
they are the baselines ``tools/check_bench.py`` compares fresh runs
against.  Host-dependent run metadata (timestamp, python version,
machine) lives in the *uncommitted* ``BENCH_runinfo.json`` sidecar, so
a bench run on an identical-perf machine leaves the committed
baselines byte-identical for every deterministic metric.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import Any, Collection, Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: uncommitted sidecar for host-dependent run metadata (gitignored).
RUNINFO_NAME = "BENCH_runinfo.json"

_RECORDERS: List["BenchRecorder"] = []


def module_name(name: str) -> str:
    """A bench module's name as rows store it (no package prefix)."""
    return name.rpartition(".")[2]


class BenchRecorder:
    """Collects one bench module's metric rows for one ``BENCH_<name>.json``.

    Several bench modules may publish into one summary file, each
    through its own recorder (``BenchRecorder(file_name, __name__)``);
    constructing a second recorder for the same file and module hands
    back the first instance.
    """

    _by_key: Dict[Tuple[pathlib.Path, str], "BenchRecorder"] = {}

    def __new__(cls, file_name: str, module: str) -> "BenchRecorder":
        key = (REPO_ROOT / file_name, module_name(module))
        existing = cls._by_key.get(key)
        if existing is not None:
            return existing
        instance = super().__new__(cls)
        cls._by_key[key] = instance
        return instance

    def __init__(self, file_name: str, module: str):
        if getattr(self, "rows", None) is not None:
            return  # shared instance, already initialised
        self.path = REPO_ROOT / file_name
        self.module = module_name(module)
        self.rows: List[Dict[str, Any]] = []
        _RECORDERS.append(self)

    def record(self, case: str, **metrics: Any) -> None:
        """Add one result row (numbers or short strings only)."""
        self.rows.append({"case": case, "module": self.module, **metrics})

    def flush(self, ran_in_full: bool = True) -> None:
        """Merge this session's rows, by ``case``, into the file on disk.

        A case recorded this session replaces the stored row.  When the
        module ran in full, every other stored row of this module goes:
        no test of it records that case any more.  When it ran in part,
        they stay.  Rows of other modules always stay.  A stored row
        that names no module predates the field and counts as this
        module's.  A file that does not parse as a summary is
        overwritten.
        """
        if not self.rows:
            return
        merged: Dict[str, Dict[str, Any]] = {}
        try:
            stored = json.loads(self.path.read_text())["results"]
            merged = {row["case"]: row for row in stored
                      if not (ran_in_full and row.get("module", self.module)
                              == self.module)}
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            pass
        for row in self.rows:
            merged[row["case"]] = row
        payload = {"results": [merged[case] for case in sorted(merged)]}
        self.path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")


def flush_all(ran_in_part: Collection[str] = ()) -> None:
    """Write every recorder that collected rows this session, plus the
    run-metadata sidecar describing the host that produced them.

    ``ran_in_part`` names the modules only some of whose tests ran (see
    :meth:`BenchRecorder.flush`)."""
    partial = {module_name(name) for name in ran_in_part}
    flushed = [recorder for recorder in _RECORDERS if recorder.rows]
    for recorder in flushed:
        recorder.flush(ran_in_full=recorder.module not in partial)
    if flushed:
        runinfo = {
            "generated_unix": round(time.time(), 1),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "files": sorted({recorder.path.name for recorder in flushed}),
        }
        (REPO_ROOT / RUNINFO_NAME).write_text(
            json.dumps(runinfo, indent=2, sort_keys=True) + "\n")

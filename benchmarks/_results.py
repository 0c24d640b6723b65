"""Machine-readable benchmark summaries (the ``BENCH_*.json`` files).

pytest-benchmark's own JSON needs ``--benchmark-json`` and buries the
domain metrics inside ``extra_info``; these recorders give each bench
module a one-call way to publish the numbers that actually track the
project's perf trajectory (reception overhead, goodput, packets per
second) as a small stable JSON file at the repo root.  The conftest's
``pytest_sessionfinish`` hook flushes every recorder that collected
rows, and a flush merges by ``case`` into the file already on disk, so
a partial run (``-k``, or one bench module alone) only touches the
rows it re-measured.

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
from typing import Any, Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: uncommitted sidecar for host-dependent run metadata (gitignored).
RUNINFO_NAME = "BENCH_runinfo.json"

_RECORDERS: List["BenchRecorder"] = []


class BenchRecorder:
    """Collects metric rows for one ``BENCH_<name>.json`` summary.

    One recorder per summary file: constructing a second recorder for
    the same file name hands back the first instance, so several bench
    modules of one session publish into one summary through one row
    list.
    """

    _by_path: Dict[pathlib.Path, "BenchRecorder"] = {}

    def __new__(cls, file_name: str) -> "BenchRecorder":
        path = REPO_ROOT / file_name
        existing = cls._by_path.get(path)
        if existing is not None:
            return existing
        instance = super().__new__(cls)
        cls._by_path[path] = instance
        return instance

    def __init__(self, file_name: str):
        if getattr(self, "rows", None) is not None:
            return  # shared instance, already initialised
        self.path = REPO_ROOT / file_name
        self.rows: List[Dict[str, Any]] = []
        _RECORDERS.append(self)

    def record(self, case: str, **metrics: Any) -> None:
        """Add one result row (numbers or short strings only)."""
        self.rows.append({"case": case, **metrics})

    def flush(self) -> None:
        """Merge this session's rows, by ``case``, into the file on disk.

        A case recorded this session replaces the stored row; every
        other stored row is kept, so a partial run (one bench module of
        the several that publish into one summary) refreshes its own
        rows without stripping the rest.  The price: a case no bench
        records any more (renamed, removed) stays — and stays gated —
        until its row is deleted from the file by hand.  A file that
        does not parse as a summary is overwritten, as it always was.
        """
        if not self.rows:
            return
        merged: Dict[str, Dict[str, Any]] = {}
        try:
            stored = json.loads(self.path.read_text())["results"]
            merged = {row["case"]: row for row in stored}
        except (OSError, ValueError, KeyError, TypeError):
            pass
        for row in self.rows:
            merged[row["case"]] = row
        payload = {"results": [merged[case] for case in sorted(merged)]}
        self.path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")


def flush_all() -> None:
    """Write every recorder that collected rows this session, plus the
    run-metadata sidecar describing the host that produced them."""
    flushed = [recorder for recorder in _RECORDERS if recorder.rows]
    for recorder in flushed:
        recorder.flush()
    if flushed:
        runinfo = {
            "generated_unix": round(time.time(), 1),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "files": sorted(recorder.path.name for recorder in flushed),
        }
        (REPO_ROOT / RUNINFO_NAME).write_text(
            json.dumps(runinfo, indent=2, sort_keys=True) + "\n")

#!/usr/bin/env python
"""bench_memory: sender and receiver peak RSS per object megabyte.

For each family, :func:`repro.api.send_file` streams a random object
through the file transport at 10 % loss with ``extra=64``, and
:func:`repro.api.receive_stream` decodes the directory it wrote, once
per object size, each run in a fresh interpreter that prints its own
``ru_maxrss``.  The slope between the smallest and the largest size —
MB of peak RSS per MB of object — cancels the interpreter's baseline
(numpy, the package, the code caches) and leaves what each end holds
per byte it moves.

A fixed-rate sender caches its whole ``n * P`` encoding by design, so
its slope may be at most ``stretch + 2``; above that the sender is
holding something else that scales with the object, such as
per-block GF(2^8) nibble tables (32x the packets they cover).  Rateless
senders are reported, not gated.  A receiver of any family holds the
object buffer, the ``bytes`` it returns and the decoders of the blocks
still open, so its slope may be at most :data:`RECEIVER_BOUND`; above
that it is keeping finished blocks' decoders or a whole recording.

Usage::

    python tools/bench_memory.py                       # 8 and 32 MiB
    python tools/bench_memory.py --sizes 4 16 --codes tornado-b

Exits non-zero when a slope is over its bound.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CODES = ["tornado-a", "tornado-b", "lt", "raptor"]
SIZES_MIB = [8, 32]
MIB = 1 << 20
#: most MB of receiver peak RSS per object MB, for every family.
RECEIVER_BOUND = 5.0


def child(role: str, code: str, path: str, out_dir: str) -> None:
    """One send of ``path`` into ``out_dir`` (or one receive of
    ``out_dir``) in this interpreter; prints its peak RSS in MiB."""
    from repro.api import receive_stream, send_file
    if role == "send":
        send_file(path, out_dir, code, loss=0.1, extra=64)
    else:
        receive_stream(out_dir)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def peak_rss(role: str, code: str, path: pathlib.Path,
             out_dir: pathlib.Path) -> float:
    """Peak RSS (MiB) of a fresh interpreter running :func:`child`."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", role, code, str(path),
         str(out_dir)],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return float(done.stdout.split()[-1])


def slope(rss: List[float], sizes: List[int]) -> float:
    """MB of peak RSS per object MB, between the end sizes."""
    return (rss[-1] - rss[0]) / (sizes[-1] - sizes[0])


def verdicts(rows: Dict[str, List[float]], sizes: List[int],
             stretches: Dict[str, float]) -> List[str]:
    """One line per fixed-rate family whose slope is over its bound."""
    failures = []
    for code, rss in rows.items():
        bound = stretches[code] + 2
        if math.isfinite(bound) and slope(rss, sizes) > bound:
            failures.append(f"{code}: {slope(rss, sizes):.2f} MB per "
                            f"object MB > stretch + 2 = {bound:.2f}")
    return failures


def receiver_verdicts(rows: Dict[str, List[float]],
                      sizes: List[int]) -> List[str]:
    """One line per family whose receiver slope is over the bound."""
    return [f"{code} receiver: {slope(rss, sizes):.2f} MB per object MB "
            f"> {RECEIVER_BOUND:.2f}"
            for code, rss in rows.items()
            if slope(rss, sizes) > RECEIVER_BOUND]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--codes", nargs="+", default=CODES)
    parser.add_argument("--sizes", nargs="+", type=int, default=SIZES_MIB,
                        help="object sizes in MiB (at least two)")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    sizes = sorted(args.sizes)
    if len(sizes) < 2 or sizes[0] == sizes[-1]:
        parser.error("need two distinct --sizes")
    sys.path.insert(0, str(SRC))
    from repro.codes.registry import build_code
    # n / k of one block of send_file's default plan (256 packets);
    # inf for a rateless family.
    stretches = {code: float(build_code(code, 256).stretch_factor)
                 for code in args.codes}
    sent: Dict[str, List[float]] = {code: [] for code in args.codes}
    received: Dict[str, List[float]] = {code: [] for code in args.codes}
    rng = np.random.default_rng(2024)
    with tempfile.TemporaryDirectory() as tmp:
        for size in sizes:
            obj = pathlib.Path(tmp) / f"object-{size}.bin"
            obj.write_bytes(rng.integers(0, 256, size * MIB,
                                         dtype=np.uint8).tobytes())
            for code in args.codes:
                out_dir = pathlib.Path(tmp) / f"{code}-{size}"
                sent[code].append(peak_rss("send", code, obj, out_dir))
                received[code].append(peak_rss("recv", code, obj, out_dir))
                shutil.rmtree(out_dir)
            obj.unlink()
    print("peak RSS (MiB): send_file at 10 % loss, extra=64, then "
          "receive_stream")
    print(f"{'code':<10}{'end':<6}"
          + "".join(f"{f'{s} MiB':>10}" for s in sizes)
          + f"{'slope':>8}{'bound':>8}")
    for code in args.codes:
        bound = stretches[code] + 2
        for end, rss, limit in (("send", sent[code], bound),
                                ("recv", received[code], RECEIVER_BOUND)):
            print(f"{code:<10}{end:<6}" + "".join(f"{r:>10.1f}" for r in rss)
                  + f"{slope(rss, sizes):>8.2f}"
                  + (f"{limit:>8.2f}" if math.isfinite(limit)
                     else f"{'-':>8}"))
    failures = (verdicts(sent, sizes, stretches)
                + receiver_verdicts(received, sizes))
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Force the decode routes that tier-1-sized inputs never choose.

Each codec input takes one execution path, but the input picks it, and
the small blocks tier-1 can afford all pick the same ones.  An engine's
intake takes a batch of at least ``_VECTOR_INTAKE_MIN`` rows in one
vectorized pass and a smaller batch row by row.  An engine of at most
``_BITMATRIX_MAX_NODES`` nodes keeps its dynamic equations as a packed
bitmatrix (and an LT or Raptor decoder on it may bank rows until the
system is square); a larger one keeps adjacency dicts and peels eagerly.

``per-row`` forces the second route of both on any input: the route of a
receiver fed one packet per call, and of a block above 16k nodes.  It is
also the route the scalar oracle's trajectories were recorded on, so a
test that pins per-route values pins the oracle's on ``per-row``.
``batched`` leaves the thresholds as shipped.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import pytest

from repro.codes import peeling
from repro.codes.lt import decoder as lt_decoder

DECODE_ROUTES = ["batched", "per-row"]


@contextlib.contextmanager
def decode_route(route: str) -> Iterator[str]:
    """Run the block under ``route`` (one of :data:`DECODE_ROUTES`).

    The store is fixed when an engine is built and the intake is chosen
    per call, so build and feed the engines inside the block."""
    if route not in DECODE_ROUTES:
        raise ValueError(f"unknown decode route {route!r}")
    with pytest.MonkeyPatch.context() as patch:
        if route == "per-row":
            patch.setattr(peeling, "_VECTOR_INTAKE_MIN", sys.maxsize)
            patch.setattr(lt_decoder, "_VECTOR_INTAKE_MIN", sys.maxsize)
            patch.setattr(peeling, "_BITMATRIX_MAX_NODES", 0)
        yield route


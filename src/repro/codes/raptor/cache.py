"""Process-wide Raptor geometry + solve-plan cache.

Binding a Raptor code costs two structural builds: the
:class:`~repro.codes.raptor.precode.RaptorGeometry` (the systematic
scan: one batched droplet draw, then O(k) GF(2) rank updates — 2 ms at
k = 256, echelon fill-in dominating from k ~ 4096 up) and the pre-solve
system's :class:`~repro.codes.peeling.SolvePlan` (one ``factor_gf2``
pass over the joint constraint matrix, about the same again).  Both
depend only on the canonical parameter tuple
``(k, eps, c, delta, seed)`` — never on payload bytes — so one process
should pay them once per spec, no matter how many transfer blocks,
:meth:`TransferServer.fork() <repro.transfer.server.TransferServer.fork>`
serving copies, :class:`~repro.transfer.codec.ObjectCodec` rebuilds, or
swarm threshold-pool samples ask for the same code.

The cache is an LRU bounded by what it *holds* — the sum of its
entries' intermediate counts ``k'``, not their number — so sweeping
many specs in one process (the hypothesis suites do) cannot grow memory
without bound, while a transfer of many small blocks, which walks its
per-block specs in order, still finds every one of them on the second
pass.  It is thread-safe.  Plans build lazily on first *encoder* use:
decoder-only consumers (the structural simulations) never pay for a
plan at all.  Hit/miss/eviction counters and the seconds spent in the
two builds back the ``repro codes cache-stats`` CLI.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.codes.peeling import SolvePlan
from repro.codes.raptor.encoder import build_encode_plan
from repro.codes.raptor.precode import RaptorGeometry, raptor_geometry
from repro.errors import ParameterError

__all__ = [
    "GeometryPlanCache",
    "RaptorAssets",
    "SHARED_CACHE",
    "cache_stats",
    "cached_raptor_assets",
    "clear_cache",
]

#: default LRU budget in intermediate symbols (an entry weighs its
#: ``k'``): ~1,900 blocks of k = 256 or 60 of k = 8192 — generous for
#: real serving workloads (one entry per block spec in flight) while
#: keeping parameter sweeps from pinning every geometry they touched.
_DEFAULT_MAXSIZE = 64 * 8192

_Key = Tuple[int, float, float, float, int]


class RaptorAssets:
    """One cache entry: a shared geometry plus its lazily built plan."""

    __slots__ = ("geometry", "_plan", "_lock", "plan_seconds")

    def __init__(self, geometry: RaptorGeometry):
        self.geometry = geometry
        self._plan: Optional[SolvePlan] = None
        self._lock = threading.Lock()
        self.plan_seconds = 0.0

    @property
    def plan_built(self) -> bool:
        """True once some encoder paid for the solve plan
        (``plan_seconds`` then says what it paid)."""
        return self._plan is not None

    def encode_plan(self) -> SolvePlan:
        """The geometry's solve plan, factored on first request."""
        plan = self._plan
        if plan is None:
            with self._lock:
                plan = self._plan
                if plan is None:
                    start = time.perf_counter()
                    plan = build_encode_plan(self.geometry)
                    self.plan_seconds = time.perf_counter() - start
                    self._plan = plan
        return plan


class GeometryPlanCache:
    """LRU mapping of ``(k, eps, c, delta, seed)`` to :class:`RaptorAssets`.

    Keys are the normalised parameter tuple rather than the geometry
    itself (frozen dataclasses holding numpy arrays neither hash nor
    compare usefully), matching the registry's canonical spec form, so
    every constructor path that agrees on parameters shares one entry.
    ``maxsize`` is a budget in intermediate symbols: least recently used
    entries go while the held ``k'`` sum exceeds it (the newest entry
    always stays, however large).
    """

    def __init__(self, maxsize: int = _DEFAULT_MAXSIZE):
        if maxsize <= 0:
            raise ParameterError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[_Key, RaptorAssets]" = OrderedDict()
        self._lock = threading.Lock()
        self.clear()

    def get(self, k: int, eps: float = 0.05, c: float = 0.03,
            delta: float = 0.1, seed: int = 0) -> RaptorAssets:
        """The shared assets for one spec, building them on first use."""
        key: _Key = (int(k), float(eps), float(c), float(delta), int(seed))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
            self._misses += 1
        # Build outside the lock — geometry construction is the slow
        # part, and concurrent misses on *different* keys must not
        # serialise on it.
        start = time.perf_counter()
        built = RaptorAssets(raptor_geometry(int(k), eps=float(eps),
                                             c=float(c), delta=float(delta),
                                             seed=int(seed)))
        elapsed = time.perf_counter() - start
        with self._lock:
            self._geometry_seconds += elapsed
            entry = self._entries.get(key)
            if entry is not None:
                # Lost a same-key race; keep the first entry so geometry
                # identity stays stable for everyone already holding it.
                return entry
            self._entries[key] = built
            self._weight += built.geometry.intermediate_count
            while self._weight > self.maxsize and len(self._entries) > 1:
                _, old = self._entries.popitem(last=False)
                self._weight -= old.geometry.intermediate_count
                self._evicted_plan_seconds += old.plan_seconds
                self._evictions += 1
        return built

    def stats(self) -> Dict[str, float]:
        """Counters for observability: hits, misses, evictions, fill,
        and the seconds the geometry and plan builds have cost."""
        with self._lock:
            return {
                "size": len(self._entries),
                "weight": self._weight,
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "plans_cached": sum(1 for e in self._entries.values()
                                    if e.plan_built),
                "geometry_seconds": round(self._geometry_seconds, 6),
                "plan_seconds": round(self._evicted_plan_seconds + sum(
                    e.plan_seconds for e in self._entries.values()), 6),
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = self._weight = 0
            self._geometry_seconds = self._evicted_plan_seconds = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide instance every :class:`RaptorCode` resolves through.
SHARED_CACHE = GeometryPlanCache()


def cached_raptor_assets(k: int, eps: float = 0.05, c: float = 0.03,
                         delta: float = 0.1, seed: int = 0) -> RaptorAssets:
    """Shared-cache lookup; the one seam :class:`RaptorCode` builds via."""
    return SHARED_CACHE.get(k, eps=eps, c=c, delta=delta, seed=seed)


def cache_stats() -> Dict[str, float]:
    """The shared cache's counters (see :meth:`GeometryPlanCache.stats`)."""
    return SHARED_CACHE.stats()


def clear_cache() -> None:
    """Reset the shared cache (used by tests and benchmarks)."""
    SHARED_CACHE.clear()

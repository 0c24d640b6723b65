"""Process-wide Raptor geometry, solve-plan and generator cache.

Binding a Raptor code costs two structural builds: the
:class:`~repro.codes.raptor.precode.RaptorGeometry` (the systematic
scan: one batched droplet draw, then O(k) GF(2) rank updates — 2 ms at
k = 256, echelon fill-in dominating from k ~ 4096 up) and the pre-solve
system's :class:`~repro.codes.peeling.SolvePlan` (one ``factor_gf2``
pass over the joint constraint matrix, about the same again).  A
structural decoder asks for a third: the generator bit matrix
(:func:`~repro.codes.raptor.encoder.build_generator` — one more
``factor_gf2`` of the same system plus a back-substitution, and
``k' * ceil(k / 64) * 8`` bytes: 9 kB at k = 256, 8.7 MB at k = 8192).
All three depend only on the canonical parameter tuple
``(k, eps, c, delta, seed)`` — never on payload bytes — so one process
should pay them once per spec, no matter how many transfer blocks,
:meth:`TransferServer.fork() <repro.transfer.server.TransferServer.fork>`
serving copies, :class:`~repro.transfer.codec.ObjectCodec` rebuilds,
serve shadows or swarm threshold-pool samples ask for the same code.

The cache is an LRU bounded by what it *holds*: the sum of its
entries' intermediate counts ``k'`` (not their number), and the bytes
of the generators built so far.  Sweeping many specs in one process
(the hypothesis suites do) cannot grow memory without bound, while a
transfer of many small blocks, which walks its per-block specs in
order, still finds every one of them on the second pass.  It is
thread-safe.  Plans and generators build lazily, each on first use by
the consumer that needs it: an encoder pays for the plan, a structural
decoder that sees a repair droplet for the generator, and a consumer
of neither pays for neither.  Hit/miss/eviction counters and the
seconds spent in the three builds back the ``repro codes cache-stats``
CLI.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.codes.peeling import SolvePlan
from repro.codes.raptor.encoder import build_encode_plan, build_generator
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

#: LRU budget for built generators, in bytes: 7 of k = 8192, ~480 of
#: k = 1024, every block of a k = 256 transfer up to ~7,000 blocks.
_GENERATOR_BYTES = 64 << 20

_Key = Tuple[int, float, float, float, int]


class RaptorAssets:
    """One cache entry: a shared geometry plus its lazily built plan
    and generator."""

    __slots__ = ("geometry", "_plan", "_generator", "_lock", "plan_seconds",
                 "generator_seconds", "_on_generator")

    def __init__(self, geometry: RaptorGeometry,
                 on_generator: Callable[[], None]):
        self.geometry = geometry
        self._plan: Optional[SolvePlan] = None
        self._generator: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        self.plan_seconds = 0.0
        self.generator_seconds = 0.0
        #: told once the generator is built (the owning cache's charge).
        self._on_generator = on_generator

    @property
    def plan_built(self) -> bool:
        """True once some encoder paid for the solve plan
        (``plan_seconds`` then says what it paid)."""
        return self._plan is not None

    @property
    def generator_bytes(self) -> int:
        """Bytes the built generator holds (0 before it is built)."""
        return 0 if self._generator is None else self._generator.nbytes

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

    def generator(self) -> np.ndarray:
        """The geometry's generator bit matrix, built on first request
        (:func:`~repro.codes.raptor.encoder.build_generator`)."""
        if self._generator is not None:
            return self._generator
        with self._lock:
            if self._generator is not None:
                return self._generator
            start = time.perf_counter()
            generator = build_generator(self.geometry)
            self.generator_seconds = time.perf_counter() - start
            self._generator = generator
        self._on_generator()
        return generator


class GeometryPlanCache:
    """LRU mapping of ``(k, eps, c, delta, seed)`` to :class:`RaptorAssets`.

    Keys are the normalised parameter tuple rather than the geometry
    itself (frozen dataclasses holding numpy arrays neither hash nor
    compare usefully), matching the registry's canonical spec form, so
    every constructor path that agrees on parameters shares one entry.
    Two budgets bound it: ``maxsize`` in intermediate symbols and
    :data:`_GENERATOR_BYTES` in built generator bytes.  Least recently
    used entries go while either is exceeded (the newest entry always
    stays, however large); building a generator counts as a use.
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
                                             seed=int(seed)),
                             on_generator=functools.partial(self._used, key))
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
            self._evict()
        return built

    def _used(self, key: _Key) -> None:
        """An entry just built its generator: the most recent use, and
        the byte budget may now be exceeded."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._evict()

    def _evict(self) -> None:
        """Drop LRU entries while a budget is exceeded (lock held)."""
        generator_bytes = sum(e.generator_bytes
                              for e in self._entries.values())
        while ((self._weight > self.maxsize
                or generator_bytes > _GENERATOR_BYTES)
               and len(self._entries) > 1):
            _, old = self._entries.popitem(last=False)
            self._weight -= old.geometry.intermediate_count
            generator_bytes -= old.generator_bytes
            self._evicted_plan_seconds += old.plan_seconds
            self._evicted_generator_seconds += old.generator_seconds
            self._evictions += 1

    def stats(self) -> Dict[str, float]:
        """Counters for observability: hits, misses, evictions, fill,
        and the seconds the geometry, plan and generator builds have
        cost."""
        with self._lock:
            entries = list(self._entries.values())
            return {
                "size": len(entries),
                "weight": self._weight,
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "plans_cached": sum(1 for e in entries if e.plan_built),
                "generators_cached": sum(1 for e in entries
                                         if e.generator_bytes),
                "generator_bytes": sum(e.generator_bytes for e in entries),
                "geometry_seconds": round(self._geometry_seconds, 6),
                "plan_seconds": round(self._evicted_plan_seconds + sum(
                    e.plan_seconds for e in entries), 6),
                "generator_seconds": round(
                    self._evicted_generator_seconds
                    + sum(e.generator_seconds for e in entries), 6),
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = self._weight = 0
            self._geometry_seconds = self._evicted_plan_seconds = 0.0
            self._evicted_generator_seconds = 0.0

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

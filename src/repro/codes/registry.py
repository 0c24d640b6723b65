"""Central code registry: one way to name, parameterise and build codes.

The paper's core abstraction is a *single* fountain interface — inject
packets from the stream until you have enough — independent of which
erasure code sits underneath.  This module is that interface's naming
layer: every code family the library ships is registered here under a
**spec string**, and every constructor path (CLI, transfer codec,
layered-multicast sessions, the :mod:`repro.api` facade) resolves specs
through the one global :data:`REGISTRY`.

Spec strings
------------

A spec is ``family`` or ``family:key=value,key=value``::

    "tornado-a"                 # Tornado preset A, default stretch
    "tornado-b:stretch=1.5"     # Tornado B at stretch 1.5
    "lt"                        # LT fountain, tuned robust soliton
    "lt:c=0.05,delta=0.5"       # LT with explicit soliton parameters
    "rs"                        # Cauchy Reed-Solomon at stretch 2
    "rs:construction=vandermonde"

Values parse as int, float, bool (``true``/``false``) or string, in
that order.  :meth:`CodeSpec.to_string` emits a canonical form (sorted
parameters) that round-trips through :meth:`CodeSpec.parse`.

Protocols
---------

The structural contracts every layer programs against (duck-typed
historically; spelled out here so they can be checked):

* :class:`ErasureEncoder` — fixed-rate encode: ``(k, P)`` in,
  ``(n, P)`` out.
* :class:`RatelessEncoder` — unbounded droplet minting by id.
* :class:`IncrementalDecoder` — packet-at-a-time decoding with
  structural (payload-less) and payload modes.

Codes without a native incremental decoder (Reed-Solomon, interleaved)
are adapted by :class:`SetDecoder`, so :func:`incremental_decoder`
returns a working :class:`IncrementalDecoder` for *every* registered
code — this is what lets layered multicast run over RS.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.errors import DecodeFailure, ParameterError, ReproError

__all__ = [
    "ErasureEncoder",
    "IncrementalDecoder",
    "RatelessEncoder",
    "CodeSpec",
    "CodeFamily",
    "CodeRegistry",
    "REGISTRY",
    "SetDecoder",
    "available_codes",
    "block_seed",
    "build_code",
    "collect_cache_stats",
    "incremental_decoder",
    "parse_spec",
    "register_cache_stats",
    "register_code",
]

#: 2**32 / golden ratio, the classic Fibonacci-hashing multiplier.
_GOLDEN = 0x9E3779B1


def block_seed(seed: int, block: int) -> int:
    """A per-block seed derived from one shared transfer seed.

    Golden-ratio mixing keeps the seeds distinct for every
    ``(seed, block)`` pair a transfer can hold, and both ends of a
    session compute them independently from the manifest's one integer.
    (Historically duplicated in ``cli.py`` and ``transfer/codec.py``;
    this is now the only copy.)
    """
    return (int(seed) * _GOLDEN + int(block)) % 2 ** 32


# -- structural contracts ------------------------------------------------------


@runtime_checkable
class ErasureEncoder(Protocol):
    """Fixed-rate encoding surface: ``(k, P)`` source to ``(n, P)`` encoding."""

    k: int

    def encode(self, source: np.ndarray) -> np.ndarray:
        """Produce the encoding block of a ``(k, P)`` source block."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class RatelessEncoder(Protocol):
    """Unbounded droplet minting: any non-negative id yields a payload."""

    def droplet_payload(self, droplet_id: int) -> np.ndarray:
        """The payload of droplet ``droplet_id``."""
        ...  # pragma: no cover - protocol

    def payload_block(self, droplet_ids: Sequence[int]) -> np.ndarray:
        """Materialise several droplets as one ``(count, P)`` block."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class IncrementalDecoder(Protocol):
    """Packet-at-a-time decoding, structural or payload-carrying.

    ``add_packet(index)`` with no payload runs *structurally* — the
    decoder tracks decodability without storing data, the mode the
    large-scale simulations use.  With payloads, ``source_data()``
    returns the reconstructed ``(k, P)`` block once complete.

    The decoder is also the one memory of *what arrived*: it validates
    and dedups ids itself, and the receivers above it
    (:class:`~repro.fountain.client.FountainClient` and its views) read
    every reception counter from here.  Three intake contracts hold for
    every member:

    * ``add_packet(i, p)`` is ``add_packets([i], p[None])`` — one
      intake body, a packet being a batch of one;
    * a batch is validated whole (ids, payload presence and width)
      before any state moves, so a refused batch counts nothing;
    * an arrival that finds the block complete is counted (distinct or
      duplicate) and dropped — it reaches no decoding work.

    *When* it decodes is its own business.  A packet is validated,
    deduplicated and counted on the call that brings it, but while
    ``min_additional_packets`` proves the block cannot complete on this
    arrival a decoder may only *bank* it — the native Tornado, LT and
    Raptor decoders do (``held_rows``), wherever eager decoding would
    not show, and enter everything held as one batch on the arrival
    that makes the system square.  Every member below reads as if each
    packet had been decoded on arrival: the counters and the bound
    never depended on it, completion cannot come earlier than the
    release, and a read of partial progress (``source_known_count``)
    releases first.  No receiver needs a buffer of its own above this.
    """

    @property
    def is_complete(self) -> bool:
        """True once the received set determines the source data."""
        ...  # pragma: no cover - protocol

    @property
    def source_known_count(self) -> int:
        """Source packets recovered (or known recoverable) so far."""
        ...  # pragma: no cover - protocol

    @property
    def packets_added(self) -> int:
        """Wire-distinct ids fed in so far — an id counts on its first
        arrival even when decoding had already recovered its packet."""
        ...  # pragma: no cover - protocol

    @property
    def duplicates_seen(self) -> int:
        """Arrivals whose id had been fed in before."""
        ...  # pragma: no cover - protocol

    @property
    def min_additional_packets(self) -> int:
        """Provable lower bound on the distinct arrivals still needed:
        0 once complete, else >= 1 and >= ``k - packets_added``.  Batch
        feeders cap chunks at it, so one completes on its final packet."""
        ...  # pragma: no cover - protocol

    def add_packet(self, index: int,
                   payload: Optional[np.ndarray] = None) -> bool:
        """Ingest one packet; True when its id had not been seen before."""
        ...  # pragma: no cover - protocol

    def add_packets(self, indices: Sequence[int],
                    payloads: Optional[np.ndarray] = None) -> int:
        """Ingest a batch of packets; returns how many ids were new."""
        ...  # pragma: no cover - protocol

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(k, P)`` source block."""
        ...  # pragma: no cover - protocol


# -- spec strings --------------------------------------------------------------


def _parse_value(text: str) -> Union[int, float, bool, str]:
    """int, then float, then bool, then bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class CodeSpec:
    """A parsed code spec: a family name plus keyword parameters.

    Parameters are stored as a sorted tuple of ``(name, value)`` pairs so
    specs are hashable and two specs with the same content compare equal
    regardless of parameter order in the source string.
    """

    family: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, family: str, **params: Any) -> "CodeSpec":
        """Build a spec programmatically: ``CodeSpec.make("lt", c=0.05)``."""
        return cls(family, tuple(sorted(params.items())))

    @classmethod
    def parse(cls, text: Union[str, "CodeSpec"]) -> "CodeSpec":
        """Parse ``"family"`` or ``"family:k=v,k=v"`` into a spec.

        Purely syntactic — family and parameter *validity* is checked
        against the registry at build time.  Raises
        :class:`~repro.errors.ParameterError` on malformed input with a
        message naming the offending fragment.
        """
        if isinstance(text, CodeSpec):
            return text
        if not isinstance(text, str):
            raise ParameterError(
                f"code spec must be a string or CodeSpec, got "
                f"{type(text).__name__}")
        family, _, tail = text.strip().partition(":")
        family = family.strip()
        if not family:
            raise ParameterError(f"empty code family in spec {text!r}")
        params: Dict[str, Any] = {}
        if tail.strip():
            for pair in tail.split(","):
                name, sep, raw = pair.partition("=")
                name = name.strip()
                if not sep or not name or not raw.strip():
                    raise ParameterError(
                        f"malformed parameter {pair.strip()!r} in spec "
                        f"{text!r}; expected name=value")
                if name in params:
                    raise ParameterError(
                        f"duplicate parameter {name!r} in spec {text!r}")
                params[name] = _parse_value(raw.strip())
        return cls(family, tuple(sorted(params.items())))

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_string(self) -> str:
        """Canonical spec string; round-trips through :meth:`parse`."""
        if not self.params:
            return self.family
        body = ",".join(f"{name}={_format_value(value)}"
                        for name, value in self.params)
        return f"{self.family}:{body}"

    def __str__(self) -> str:
        return self.to_string()


def parse_spec(text: Union[str, CodeSpec]) -> CodeSpec:
    """Module-level alias of :meth:`CodeSpec.parse`."""
    return CodeSpec.parse(text)


# -- the registry --------------------------------------------------------------

#: delivery modes a family can be served through.
MODE_CAROUSEL = "carousel"
MODE_RATELESS = "rateless"
MODE_LAYERED = "layered"


@functools.lru_cache(maxsize=None)
def _factory_parameters(factory: Callable[..., Any]
                        ) -> Tuple[Tuple[str, Any], ...]:
    """Introspect a factory's spec-tunable parameters once, memoised.

    Builds resolve through this on every call (one per transfer block),
    so the ``inspect.signature`` cost must not be paid repeatedly.
    """
    sig = inspect.signature(factory)
    return tuple((name, p.default)
                 for name, p in sig.parameters.items()
                 if name not in ("k", "seed")
                 and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))


@dataclass(frozen=True)
class CodeFamily:
    """One registered code family: a factory plus serving metadata.

    The factory signature is ``factory(k, seed=..., **params)``; the
    keyword parameters beyond ``k`` and ``seed`` define the family's
    spec-string surface (discovered by introspection, so registration
    stays a one-liner).
    """

    name: str
    factory: Callable[..., Any]
    rateless: bool = False
    modes: Tuple[str, ...] = (MODE_CAROUSEL, MODE_LAYERED)
    summary: str = ""

    def parameters(self) -> Dict[str, Any]:
        """Spec-tunable parameter names mapped to their defaults."""
        return dict(_factory_parameters(self.factory))

    def validate_params(self, spec: CodeSpec) -> None:
        known = self.parameters()
        for name, _ in spec.params:
            if name not in known:
                valid = ", ".join(sorted(known)) or "(none)"
                raise ParameterError(
                    f"code family {self.name!r} has no parameter {name!r}; "
                    f"valid parameters: {valid}")

    def build(self, spec: CodeSpec, k: int, seed: int = 0) -> Any:
        self.validate_params(spec)
        try:
            return self.factory(int(k), seed=int(seed), **spec.param_dict)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            # A structurally valid spec carrying an unusable value
            # (e.g. "lt:c=oops") must surface as a clean parameter
            # error, not a factory traceback.
            raise ParameterError(
                f"invalid parameters for code family {self.name!r} "
                f"(spec {spec.to_string()!r}): {exc}") from exc


class CodeRegistry:
    """Maps family names to :class:`CodeFamily` entries."""

    def __init__(self) -> None:
        self._families: Dict[str, CodeFamily] = {}

    def register(self, name: str, factory: Callable[..., Any], *,
                 rateless: bool = False,
                 modes: Optional[Tuple[str, ...]] = None,
                 summary: str = "") -> CodeFamily:
        """Register a family; raises on duplicate names."""
        if name in self._families:
            raise ParameterError(f"code family {name!r} already registered")
        if modes is None:
            modes = ((MODE_RATELESS, MODE_LAYERED) if rateless
                     else (MODE_CAROUSEL, MODE_LAYERED))
        entry = CodeFamily(name=name, factory=factory, rateless=rateless,
                           modes=tuple(modes), summary=summary)
        self._families[name] = entry
        return entry

    def names(self) -> List[str]:
        return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterator[CodeFamily]:
        for name in self.names():
            yield self._families[name]

    def family(self, name: str) -> CodeFamily:
        try:
            return self._families[name]
        except KeyError:
            raise ParameterError(
                f"unknown code family {name!r}; registered families: "
                f"{', '.join(self.names())}") from None

    def spec(self, spec: Union[str, CodeSpec]) -> CodeSpec:
        """Parse and validate a spec against the registered families."""
        parsed = CodeSpec.parse(spec)
        self.family(parsed.family).validate_params(parsed)
        return parsed

    def is_rateless(self, spec: Union[str, CodeSpec]) -> bool:
        return self.family(CodeSpec.parse(spec).family).rateless

    def build(self, spec: Union[str, CodeSpec], k: int,
              seed: int = 0) -> Any:
        """Instantiate a code: ``build("lt:c=0.05", k=1000, seed=7)``."""
        parsed = CodeSpec.parse(spec)
        return self.family(parsed.family).build(parsed, k, seed=seed)


#: The global registry every constructor path resolves through.
REGISTRY = CodeRegistry()


def register_code(name: str, factory: Callable[..., Any], *,
                  rateless: bool = False,
                  modes: Optional[Tuple[str, ...]] = None,
                  summary: str = "") -> CodeFamily:
    """Register a family with the global :data:`REGISTRY`."""
    return REGISTRY.register(name, factory, rateless=rateless, modes=modes,
                             summary=summary)


def build_code(spec: Union[str, CodeSpec], k: int, seed: int = 0) -> Any:
    """Instantiate a code from the global :data:`REGISTRY`."""
    return REGISTRY.build(spec, k, seed=seed)


def available_codes() -> List[CodeFamily]:
    """All registered families, sorted by name."""
    return list(REGISTRY)


# -- cache observability -------------------------------------------------------

#: named providers of build-cache counters (hits/misses/evictions,
#: build seconds...), surfaced by ``repro codes cache-stats``.
#: Providers are callables so registration stays lazy: nothing is built
#: just to be countable.
_CACHE_STATS_PROVIDERS: Dict[str, Callable[[], Dict[str, float]]] = {}


def register_cache_stats(name: str,
                         provider: Callable[[], Dict[str, float]]) -> None:
    """Register a named cache-counter provider; raises on duplicates."""
    if name in _CACHE_STATS_PROVIDERS:
        raise ParameterError(f"cache stats provider {name!r} already "
                             "registered")
    _CACHE_STATS_PROVIDERS[name] = provider


def collect_cache_stats() -> Dict[str, Dict[str, float]]:
    """Every registered cache's counters, keyed by provider name."""
    return {name: dict(provider())
            for name, provider in sorted(_CACHE_STATS_PROVIDERS.items())}


# -- generic incremental decoding ----------------------------------------------


class SetDecoder:
    """Incremental-decoder adapter for codes without a native one.

    Wraps any :class:`~repro.codes.base.ErasureCode` (Reed-Solomon, the
    interleaved baseline) behind the :class:`IncrementalDecoder`
    contract: received indices accumulate in a set, completeness is the
    code's own :meth:`is_decodable`, and payload decoding defers to the
    code's batch :meth:`decode`.

    The decodability check runs on an *attempt schedule*: once
    ``first_attempt`` distinct indices are in (never below ``k``), then
    after every ``retry_step`` more.  The defaults, ``k`` and 1, check
    on every new index from ``k`` on — incremental decoding, O(1)
    amortised for an MDS code; ``(1 + margin) * k`` and a wider step are
    the paper's *statistical* client (Section 7.2), which
    :class:`~repro.fountain.client.FountainClient` selects for any code
    by building this decoder over it.
    """

    def __init__(self, code: Any, payload_size: Optional[int] = None,
                 first_attempt: Optional[int] = None, retry_step: int = 1):
        self.code = code
        self.payload_size = payload_size
        self.retry_step = max(1, int(retry_step))
        self._next_attempt = max(int(code.k), int(first_attempt or 0))
        self._indices: set = set()
        self._payloads: Dict[int, np.ndarray] = {}
        self._structural = False
        self._complete = False
        self._decoded: Optional[np.ndarray] = None
        self._duplicates = 0
        #: decodability checks run so far.
        self.decode_attempts = 0

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def source_known_count(self) -> int:
        if self._complete:
            return int(self.code.k)
        return sum(1 for i in self._indices if i < self.code.k)

    @property
    def packets_added(self) -> int:
        return len(self._indices)

    @property
    def duplicates_seen(self) -> int:
        return self._duplicates

    @property
    def min_additional_packets(self) -> int:
        """Distinct indices still missing before the next scheduled
        attempt — no attempt, so no completion, can come sooner."""
        if self._complete:
            return 0
        return max(1, self._next_attempt - len(self._indices))

    def _check_complete(self) -> None:
        if not self._complete and len(self._indices) >= self._next_attempt:
            self.decode_attempts += 1
            self._complete = bool(self.code.is_decodable(self._indices))
            self._next_attempt = len(self._indices) + self.retry_step

    def add_packet(self, index: int,
                   payload: Optional[np.ndarray] = None) -> bool:
        """Feed one packet; True when it was new (a batch of one)."""
        return bool(self._intake((index,), None if payload is None
                                 else np.asarray(payload)[np.newaxis]))

    def add_packets(self, indices: Sequence[int],
                    payloads: Optional[np.ndarray] = None) -> int:
        """Feed a batch of packets; returns how many ids were new."""
        return self._intake(indices, payloads)

    def _intake(self, indices: Sequence[int],
                payloads: Optional[np.ndarray]) -> int:
        """The body of :meth:`add_packet` and :meth:`add_packets`: the
        batch validated whole, then each id deduplicated and counted,
        its payload kept while the block is still incomplete, and the
        attempt schedule run once."""
        listed = np.asarray(indices, dtype=np.int64).tolist()
        n = self.code.n
        bad = [index for index in listed
               if index < 0 or (n is not None and index >= n)]
        if bad:
            raise ParameterError(f"packet index {bad[0]} outside [0, {n})")
        width = np.shape(payloads)[-1:]
        if (payloads is not None and self.payload_size is not None
                and width != (self.payload_size,)):
            raise ParameterError(
                f"payload carries {width[0] if width else 0} symbols, "
                f"decoder expects {self.payload_size}")
        rows = []
        for row, index in enumerate(listed):
            if index in self._indices:
                self._duplicates += 1
            else:
                self._indices.add(index)
                rows.append(row)
        if rows and not self._complete:
            if payloads is None:
                self._structural = True
            else:
                for row in rows:
                    self._payloads[listed[row]] = np.asarray(payloads[row])
            self._check_complete()
        return len(rows)

    def source_data(self) -> np.ndarray:
        if not self._complete:
            raise DecodeFailure(
                "not enough packets received",
                missing=self.code.k - self.source_known_count)
        if self._decoded is None:
            if self._structural:
                raise DecodeFailure(
                    "decoder ran in structural mode; no payloads retained")
            self._decoded = self.code.decode(self._payloads)
        return self._decoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SetDecoder(code={self.code!r}, "
                f"received={len(self._indices)}, "
                f"complete={self._complete})")


def incremental_decoder(code: Any,
                        payload_size: Optional[int] = None
                        ) -> IncrementalDecoder:
    """A working :class:`IncrementalDecoder` for *any* code.

    Codes with a native ``new_decoder`` (Tornado, LT — both ride the
    shared peeling engine) return it; everything else is adapted through
    :class:`SetDecoder`.  This is the single seam that lets the layered
    protocol, the fountain client and the transfer client treat every
    registered family identically.
    """
    if hasattr(code, "new_decoder"):
        return code.new_decoder(payload_size=payload_size)
    return SetDecoder(code, payload_size=payload_size)


# -- default registrations -----------------------------------------------------


def _register_defaults() -> None:
    from repro.codes.interleaved import InterleavedCode
    from repro.codes.lt.code import LTCode
    from repro.codes.lt.degree import robust_soliton
    from repro.codes.reed_solomon import ReedSolomonCode
    from repro.codes.tornado.presets import tornado_a, tornado_b

    def _tornado_a(k: int, seed: int = 0, stretch: float = 2.0):
        return tornado_a(k, seed=seed, stretch=stretch)

    def _tornado_b(k: int, seed: int = 0, stretch: float = 2.0):
        return tornado_b(k, seed=seed, stretch=stretch)

    def _lt(k: int, seed: int = 0, c: float = 0.03, delta: float = 0.1):
        return LTCode(int(k), degree_dist=robust_soliton(int(k), c=c,
                                                         delta=delta),
                      seed=int(seed))

    def _raptor(k: int, seed: int = 0, eps: float = 0.05, c: float = 0.03,
                delta: float = 0.1):
        from repro.codes.raptor.code import RaptorCode

        return RaptorCode(int(k), eps=float(eps), c=float(c),
                          delta=float(delta), seed=int(seed))

    def _rs(k: int, seed: int = 0, construction: str = "cauchy",
            stretch: float = 2.0):
        # RS constructions are deterministic; ``seed`` is accepted (and
        # ignored) so every family shares one constructor signature.
        n = max(int(k) + 1, int(math.ceil(stretch * int(k))))
        return ReedSolomonCode(int(k), n, construction=construction)

    def _interleaved(k: int, seed: int = 0, block_k: int = 8,
                     stretch: float = 2.0, construction: str = "cauchy"):
        return InterleavedCode(int(k), block_k=int(block_k), stretch=stretch,
                               construction=construction)

    register_code(
        "tornado-a", _tornado_a,
        summary="Tornado preset A: pure XOR peeling, fastest decode")
    register_code(
        "tornado-b", _tornado_b,
        summary="Tornado preset B: inactivation decoding, lowest overhead")
    register_code(
        "lt", _lt, rateless=True,
        summary="LT rateless fountain: robust-soliton droplets, no n")
    def _raptor_cache_stats() -> Dict[str, float]:
        # Lazy import: asking for counters must not drag the raptor
        # modules in before anything has built a raptor code.
        from repro.codes.raptor.cache import cache_stats

        return cache_stats()

    register_code(
        "raptor", _raptor, rateless=True,
        summary="Raptor: systematic precode + weakened fountain, "
                "constant overhead")
    register_cache_stats("raptor-geometry-plan", _raptor_cache_stats)
    register_code(
        "rs", _rs,
        summary="Reed-Solomon MDS baseline (cauchy or vandermonde)")
    register_code(
        "interleaved", _interleaved,
        summary="interleaved RS block code, the Section 6 baseline")


_register_defaults()

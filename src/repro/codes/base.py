"""Common erasure-code interface.

Terminology follows Section 4 of the paper: a code takes source data of
``k`` packets and produces ``n = k + l`` encoding packets of a fixed
length ``P``; ``n / k`` is the *stretch factor*.  All codes here are
systematic — the first ``k`` encoding packets are the source packets —
matching every construction the paper benchmarks.

Packets are numpy arrays of unsigned integers.  A "block of packets" is a
2-D array of shape ``(count, P)`` so whole-block XOR and field operations
vectorise.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import DecodeFailure, ParameterError


@dataclass(frozen=True)
class ReceivedPacket:
    """One encoding packet as seen by a decoder: its index and payload."""

    index: int
    payload: np.ndarray


def as_packet_block(data: np.ndarray, k: int, dtype=np.uint8) -> np.ndarray:
    """Validate/convert ``data`` into a ``(k, P)`` packet block."""
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != k:
        raise ParameterError(
            f"expected a ({k}, P) packet block, got shape {arr.shape}")
    return arr


def bytes_to_packets(data: bytes, packet_size: int,
                     dtype=np.uint8) -> np.ndarray:
    """Split a byte string into fixed-size packets, zero-padding the tail.

    The inverse operation is :func:`packets_to_bytes` with the original
    length.  ``packet_size`` is in bytes; for uint16 symbol packets it must
    be even.
    """
    if packet_size <= 0:
        raise ParameterError("packet_size must be positive")
    itemsize = np.dtype(dtype).itemsize
    if packet_size % itemsize:
        raise ParameterError(
            f"packet_size {packet_size} not a multiple of symbol size {itemsize}")
    padded_len = -(-len(data) // packet_size) * packet_size
    buf = np.frombuffer(data.ljust(padded_len, b"\0"), dtype=np.uint8)
    packets = buf.reshape(-1, packet_size)
    if itemsize == 1:
        return packets.copy()
    # Explicit column count: reshape(n, -1) cannot infer it for 0 rows.
    return packets.copy().view(dtype).reshape(
        packets.shape[0], packet_size // itemsize)


def packets_to_bytes(packets: np.ndarray, length: Optional[int] = None) -> bytes:
    """Concatenate a packet block back into bytes, trimming padding."""
    raw = np.ascontiguousarray(packets).view(np.uint8).tobytes()
    return raw if length is None else raw[:length]


class BlockEncoder:
    """A lazily materialised ``(n, P)`` encoding of one source block.

    Presents the array surface a carousel needs — ``shape``, ``len`` and
    row indexing (scalar or fancy) — while deferring the actual encode
    work.  A digital-fountain sender rarely emits the whole encoding
    before every receiver completes, so rows it never hands out are rows
    it never has to compute.  Indexing returns exactly the rows
    ``code.encode(source)`` would, byte for byte.

    This base implementation runs the full encode on first payload
    access (correct for any code); codes with a cheap partial encode
    override :meth:`_materialise` or ``__getitem__``, and may take the
    :meth:`expect_rows` hint to size that partial encode.  Instances are
    shared freely — e.g. across the forks of a transfer server, even on
    different threads: a cached row is only ever written with its one
    deterministic value, so the worst a concurrent duplicate fill can
    do is write identical bytes twice.
    """

    def __init__(self, code: "ErasureCode", source: np.ndarray):
        self._code = code
        self._source = np.asarray(source)
        self._encoding: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        """The ``(n, P)`` shape of the full encoding (no encode forced)."""
        return (self._code.n, self._source.shape[1])

    def __len__(self) -> int:
        return self._code.n

    def expect_rows(self, rows: np.ndarray) -> None:
        """Hint that the coming requests ask for ``rows`` (0-based
        encoding rows, repeats allowed), so an encoder that computes
        rows in batches can compute exactly these in one.  Requests
        keep ``code.encode(source)``'s bytes whatever the hint said;
        here the hint is ignored."""

    def _materialise(self) -> np.ndarray:
        if self._encoding is None:
            self._encoding = self._code.encode(self._source)
        return self._encoding

    def __getitem__(self, index):
        return self._materialise()[index]


class DecoderBackedCode:
    """Batch decoding for codes that build a native incremental decoder.

    Tornado, LT and Raptor all decode by feeding the decoder
    :meth:`new_decoder` hands back, so the batch surface every layer
    expects of a code is written once, here, on top of it.  For a
    rateless code the indices are droplet ids.
    """

    k: int

    def new_decoder(self, payload_size: Optional[int] = None) -> Any:
        """A fresh incremental decoder over this code's structure."""
        raise NotImplementedError

    def decode(self, received: Mapping[int, np.ndarray]) -> np.ndarray:
        """Batch decode from a mapping of packet index to payload."""
        if not received:
            raise DecodeFailure("no packets received", missing=self.k)
        payloads = np.stack([np.asarray(payload, dtype=np.uint8)
                             for payload in received.values()])
        decoder = self.new_decoder(payload_size=payloads.shape[1])
        decoder.add_packets(np.fromiter(received, dtype=np.int64), payloads)
        return decoder.source_data()

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """Structural decodability of an index set (no payloads touched)."""
        decoder = self.new_decoder()
        decoder.add_packets(np.fromiter(indices, dtype=np.int64))
        return decoder.is_complete

    def packets_to_decode(self, arrival_order: Sequence[int]) -> int:
        """Exact number of leading arrivals (ids, repeats allowed)
        needed to decode; :class:`~repro.errors.DecodeFailure` if none.

        Every code's one threshold scan, on its incremental decoder (the
        native one, else :class:`~repro.codes.registry.SetDecoder`):
        feeds coarse chunks to find the completing chunk, then replays
        the prefix packet by packet — decodability is monotone in the
        received set, so the replay gives the exact count at a fraction
        of the cost of pure single stepping.
        """
        # lazy: the registry imports this module
        from repro.codes.registry import incremental_decoder

        order = np.asarray(arrival_order, dtype=np.int64)
        chunk = max(16, self.k // 64)
        decoder = incremental_decoder(self)
        pos = 0
        while pos < order.size and not decoder.is_complete:
            decoder.add_packets(order[pos:pos + chunk])
            pos += chunk
        if not decoder.is_complete:
            raise DecodeFailure(
                "arrival order never becomes decodable",
                missing=self.k - decoder.source_known_count)
        count = max(0, pos - chunk)
        decoder = incremental_decoder(self)
        decoder.add_packets(order[:count])
        while not decoder.is_complete:
            decoder.add_packet(int(order[count]))
            count += 1
        return count


class RatelessCode(DecoderBackedCode):
    """What every rateless family says about itself, once.

    A rateless code has no ``n`` and no stretch-factor ceiling; its
    ``encode`` is only a finite window of an endless droplet stream.
    LT and Raptor keep their constructors, ``encoder`` and
    ``new_decoder``; ``spec`` is the droplet spec both carry.
    """

    #: A rateless code has no fixed encoding length.
    n: Optional[int] = None
    spec: Any

    @property
    def stretch_factor(self) -> float:
        """Unbounded: the fountain never runs dry."""
        return math.inf

    @property
    def average_degree(self) -> float:
        """Expected XORs per droplet (encode and decode cost per packet;
        O(1) for a Raptor repair droplet thanks to its degree cap)."""
        return self.spec.average_degree

    def encoder(self, source: np.ndarray) -> Any:
        """Bind this code to a ``(k, P)`` source block for droplet output."""
        raise NotImplementedError

    def encode(self, source: np.ndarray, count: Optional[int] = None,
               start: int = 0) -> np.ndarray:
        """Materialise droplets ``start .. start+count`` as a block.

        ``count`` defaults to ``ceil(1.15 * k)`` — enough for the
        decoder to succeed with high probability.  (A rateless code has
        no canonical encoding block; this exists for API symmetry with
        the fixed-rate codes and for tests.)
        """
        if count is None:
            count = int(math.ceil(1.15 * self.k))
        return self.encoder(source).payload_block(
            list(range(start, start + count)))


class ErasureCode(abc.ABC):
    """Abstract systematic erasure code over fixed-length packets.

    Concrete codes provide:

    * :meth:`encode` — source block ``(k, P)`` to encoding block ``(n, P)``.
    * :meth:`decode` — a mapping of received packet indices to payloads
      back to the source block, raising :class:`~repro.errors.DecodeFailure`
      when the received set is insufficient.
    * :meth:`is_decodable` — the *structural* question (does this set of
      indices determine the source data?) answered without touching
      payloads.  The large-scale simulations of Sections 6 use this.
    """

    #: number of source packets
    k: int
    #: number of encoding packets
    n: int

    @property
    def redundancy(self) -> int:
        """Number of redundant packets ``l = n - k``."""
        return self.n - self.k

    @property
    def stretch_factor(self) -> float:
        """The ratio n/k the paper calls the stretch factor."""
        return self.n / self.k

    @abc.abstractmethod
    def encode(self, source: np.ndarray) -> np.ndarray:
        """Produce the ``(n, P)`` encoding of a ``(k, P)`` source block."""

    @abc.abstractmethod
    def decode(self, received: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reconstruct the ``(k, P)`` source block from received packets."""

    @abc.abstractmethod
    def is_decodable(self, indices: Iterable[int]) -> bool:
        """True when the packet index set determines the source data."""

    # the one threshold scan (on SetDecoder for a code without new_decoder)
    packets_to_decode = DecoderBackedCode.packets_to_decode

    def block_encoder(self, source: np.ndarray) -> BlockEncoder:
        """A lazy row-on-demand view of ``encode(source)``.

        Subclasses with partial-encode structure (systematic prefixes,
        per-row redundancy products) override this to return encoders
        that compute only the rows actually requested.
        """
        return BlockEncoder(self, source)

    def decode_packets(self, packets: Iterable[ReceivedPacket]) -> np.ndarray:
        """Convenience wrapper accepting :class:`ReceivedPacket` objects."""
        received: Dict[int, np.ndarray] = {}
        for pkt in packets:
            received[pkt.index] = pkt.payload
        return self.decode(received)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self.k}, n={self.n})"

"""Binding a :class:`BlockPlan` to one erasure code per block.

An :class:`ObjectCodec` instantiates a code for every block of the plan
through the central code registry
(:mod:`repro.codes.registry`) — any registered spec string works, so the
per-block code can be Tornado (``"tornado-a"``/``"tornado-b"``), a
rateless LT code (``"lt"``, ``"lt:c=0.05,delta=0.5"``), or plain
Reed-Solomon (``"rs"``).  Codes are built lazily and cached: a receiver
that only needs block 17 never pays for the other blocks' graph
construction.

The per-instance cache composes with the process-wide Raptor
geometry+plan cache (:mod:`repro.codes.raptor.cache`): raptor blocks
resolve through it inside :class:`~repro.codes.raptor.RaptorCode`, so a
receiver codec rebuilt via :meth:`ObjectCodec.from_manifest`, a
:meth:`TransferServer.fork() <repro.transfer.server.TransferServer.fork>`
serving copy, and repeated simulations of the same transfer all reuse
one systematic scan and one encode solve plan per ``(k, params,
block-seed)`` — the expensive build work is paid once per process, not
once per codec instance.

Per-block seeds are derived from one shared transfer seed with a
golden-ratio mix (:func:`repro.codes.registry.block_seed`), so sender
and receiver agree on every block's code graph / droplet spec from a
single integer in the manifest, and no two blocks share a graph.

:meth:`ObjectCodec.to_manifest` / :meth:`ObjectCodec.from_manifest`
round-trip everything a receiver needs through a plain JSON-able dict —
the transfer layer's "length manifest" (exact file size, packet size,
block geometry, canonical code spec, seed).

The codec also owns the size rule of the wire record
(:attr:`ObjectCodec.header_size`: the 16-byte block header on a
multi-block plan), and :func:`record_size` applies it to a manifest
before any codec exists.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Union

import numpy as np

from repro.codes.registry import REGISTRY, CodeSpec, block_seed
from repro.errors import ParameterError, ProtocolError
from repro.fountain.packets import BLOCK_HEADER_SIZE, HEADER_SIZE
from repro.transfer.blocks import BlockPlan

__all__ = ["ObjectCodec", "block_seed", "record_size"]

#: the fields :meth:`ObjectCodec.from_manifest` cannot do without, and
#: the JSON type of each.  A manifest is read off a wire or a disk:
#: one missing or mistyped is a protocol error that names the field.
_MANIFEST_FIELDS = (("file_size", int), ("packet_size", int),
                    ("block_packets", int), ("code", str), ("seed", int))


def _header_size(num_blocks: int) -> int:
    """The size rule: the block header on a multi-block stream."""
    return BLOCK_HEADER_SIZE if num_blocks > 1 else HEADER_SIZE


def _geometry(manifest: Any) -> Tuple[int, int, int, int]:
    """``(file_size, packet_size, block_packets, num_blocks)`` of an
    untrusted manifest, in O(1) whatever the sizes say: anything but a
    transfer manifest whose fields have their types, sizes of at least
    1, and a block count and header the geometry yields is a
    :class:`~repro.errors.ProtocolError` (ceilings are not checked)."""
    kind = manifest.get("kind") if isinstance(manifest, dict) else None
    if kind != "transfer":
        raise ProtocolError(f"not a transfer manifest (kind={kind!r})")
    for field, type_ in _MANIFEST_FIELDS:
        value = manifest.get(field)
        # bool is an int to isinstance, and never a size or a seed
        if not isinstance(value, type_) or isinstance(value, bool):
            raise ProtocolError(
                f"transfer manifest field {field!r} must be "
                f"{type_.__name__}, got {value!r}")
    sizes = [manifest[field] for field, _ in _MANIFEST_FIELDS[:3]]
    if min(sizes) < 1:
        raise ProtocolError(f"transfer manifest sizes must be positive, "
                            f"got {sizes}")
    file_size, packet_size, block_packets = sizes
    num_blocks = -(-file_size // (block_packets * packet_size))
    aware = _header_size(num_blocks) == BLOCK_HEADER_SIZE
    for field, value in (("num_blocks", num_blocks), ("block_header", aware)):
        if manifest.get(field, value) != value:
            raise ProtocolError(f"manifest claims {field}={manifest[field]!r}"
                                f" but the geometry yields {value!r}")
    return file_size, packet_size, block_packets, num_blocks


def record_size(manifest: Any) -> int:
    """Bytes per wire record of the stream a manifest describes, with
    no plan built: arithmetic on the fields :func:`_geometry` checked."""
    _, packet_size, _, num_blocks = _geometry(manifest)
    return _header_size(num_blocks) + packet_size


class ObjectCodec:
    """One object, many blocks, one code per block.

    Parameters
    ----------
    plan:
        The block geometry (see :class:`~repro.transfer.blocks.BlockPlan`).
    code:
        Per-block code spec — any registry spec string (or parsed
        :class:`~repro.codes.registry.CodeSpec`), e.g. ``"tornado-b"``
        or ``"lt:c=0.05,delta=0.5"``.
    seed:
        Shared transfer seed; block ``b`` uses ``block_seed(seed, b)``.
    """

    def __init__(self, plan: BlockPlan,
                 code: Union[str, CodeSpec, None] = None,
                 seed: int = 2024):
        if code is None:
            code = "tornado-b"
        self.spec = REGISTRY.spec(code)
        self.plan = plan
        self.seed = int(seed)
        self._codes: Dict[int, Any] = {}

    @property
    def code_spec(self) -> str:
        """Canonical spec string (what the manifest records)."""
        return self.spec.to_string()

    @property
    def family(self) -> str:
        """The spec's family name (``"lt"``, ``"tornado-b"``, ...)."""
        return self.spec.family

    @property
    def is_rateless(self) -> bool:
        """True when blocks are served as unbounded droplet streams."""
        return REGISTRY.is_rateless(self.spec)

    @property
    def num_blocks(self) -> int:
        return self.plan.num_blocks

    @property
    def total_k(self) -> int:
        """Source packets across all blocks (= the plan's total)."""
        return self.plan.total_packets

    @property
    def block_aware(self) -> bool:
        """True when records carry the 16-byte block header."""
        return self.header_size == BLOCK_HEADER_SIZE

    @property
    def header_size(self) -> int:
        """Header bytes in front of every payload on the wire."""
        return _header_size(self.plan.num_blocks)

    @property
    def record_size(self) -> int:
        """Bytes per wire record: header plus payload."""
        return self.header_size + self.plan.packet_size

    def code_for(self, block: int) -> Any:
        """The (cached) erasure code of ``block``.

        Caching here keeps one bound code object per block for this
        codec's lifetime; families with process-wide build caches
        (raptor) additionally share the underlying geometry across
        codec instances that agree on ``(k, params, block-seed)``.
        """
        if block not in self._codes:
            spec = self.plan.spec(block)
            self._codes[block] = REGISTRY.build(
                self.spec, spec.k, seed=block_seed(self.seed, block))
        return self._codes[block]

    def check_wire_dtype(self, block: int) -> None:
        """Reject codes whose symbols cannot ride the byte wire format.

        Reed-Solomon blocks beyond 128 packets (n > 256) fall back to
        GF(2^16) and would emit two wire bytes per payload byte — the
        stream's fixed ``packet_size``-byte records cannot carry that,
        so fail fast with an actionable message instead of writing a
        corrupt stream.
        """
        code = self.code_for(block)
        field = getattr(code, "field", None)
        if field is not None and np.dtype(field.dtype).itemsize != 1:
            max_k = 256 // max(2, int(round(code.n / code.k)))
            raise ParameterError(
                f"{self.code_spec}: block {block} (k={code.k}, n={code.n}) "
                f"needs {field!r} symbols wider than one byte, which the "
                "byte-oriented packet stream cannot carry; keep blocks at "
                f"~{max_k} packets or fewer (lower the block size or raise "
                "the packet size)")

    def source_block(self, data: bytes, block: int) -> np.ndarray:
        """Block ``block``'s ``(k, P)`` source array of ``data``."""
        return self.plan.source_block(data, block)

    def encode_block(self, data: bytes, block: int) -> np.ndarray:
        """The ``(n, P)`` encoding of one block (fixed-rate families)."""
        if self.is_rateless:
            raise ParameterError(
                f"{self.code_spec} is rateless — there is no finite "
                "encoding; serve it as a TransferServer's droplet stream")
        self.check_wire_dtype(block)
        return self.code_for(block).encode(self.source_block(data, block))

    def block_encoder(self, data: bytes, block: int) -> Any:
        """A lazy row-on-demand encoder for one block (fixed-rate only).

        Same rows, byte for byte, as :meth:`encode_block` — but a
        carousel that completes its receivers after a partial cycle
        never pays for the encoding rows it did not emit.
        """
        if self.is_rateless:
            raise ParameterError(
                f"{self.code_spec} is rateless — there is no finite "
                "encoding; serve it as a TransferServer's droplet stream")
        self.check_wire_dtype(block)
        return self.code_for(block).block_encoder(
            self.source_block(data, block))

    # -- manifest round-trip ---------------------------------------------------

    def to_manifest(self, **extra: Any) -> dict:
        """A JSON-able dict from which a receiver rebuilds this codec."""
        manifest = {
            "kind": "transfer",
            "code": self.code_spec,
            "seed": self.seed,
            "file_size": self.plan.file_size,
            "packet_size": self.plan.packet_size,
            "block_packets": self.plan.block_packets,
            "num_blocks": self.plan.num_blocks,
            "block_header": self.block_aware,
        }
        manifest.update(extra)
        return manifest

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ObjectCodec":
        """Rebuild the sender's codec from its manifest dict (checked
        as :func:`record_size` checks it)."""
        file_size, packet_size, block_packets, _ = _geometry(manifest)
        plan = BlockPlan(file_size, packet_size, block_packets)
        return cls(plan, code=manifest["code"], seed=manifest["seed"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ObjectCodec(code={self.code_spec!r}, "
                f"blocks={self.num_blocks}, total_k={self.total_k}, "
                f"seed={self.seed})")

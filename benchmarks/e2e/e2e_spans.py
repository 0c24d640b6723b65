"""Spans recorded from outside: timing wrappers on each layer's callables.

Nothing under ``src/`` knows it is being traced.  :func:`install`
replaces public callables (and the per-packet hooks they are built on)
with wrappers *where the callers look them up* — a class attribute for
methods, the importing module's global for ``from x import f`` names —
and :func:`uninstall` puts the originals back.  A wrapper opens a span
(name, start, end, parent, repetition id) on the tracer's stack; a
span's self time is its duration minus what its child spans cover.
Spans aggregate per ``(root, name, parent)`` in memory; the raw spans
of one repetition are kept so a timeline can be drawn from the JSON
the run writes when it ends.

Calls that cannot be wrapped from outside stay in their parent's self
time, and the README names them: the asyncio datagram transport's
``sendto`` and the event loop (in ``net.udp.send``), ``recvfrom`` (in
``net.udp.drain``), ``PeelingEngine._propagate`` and the GF(2)
finisher (in ``codes.peeling``).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: cap on raw spans kept per run (one repetition's worth; the aggregate
#: is complete regardless).
RAW_SPAN_LIMIT = 200_000


class Tracer:
    """An in-memory span recorder with a parent stack.

    ``agg[(root, name, parent)] = [calls, total_s, self_s]`` where
    ``root`` is the outermost open span (``send`` / ``recv`` /
    ``setup``: which side of the transfer the time belongs to).
    """

    def __init__(self) -> None:
        self.agg: Dict[Tuple[str, str, str], List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.raw: List[Tuple[str, float, float, int, int]] = []
        self.keep_raw = False
        self.repetition = -1
        # frames: [name, child_seconds, raw_index]
        self._stack: List[List[Any]] = []

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, keyed by the side of the transfer it ran on
        (``recv/codes.peeling.units``): shadow decoders on the send side
        must not inflate the receiver's counts."""
        root = self._stack[0][0] if self._stack else ""
        key = f"{root}/{name}"
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> List[Any]:
        index = -1
        if self.keep_raw and len(self.raw) < RAW_SPAN_LIMIT:
            index = len(self.raw)
            self.raw.append(None)  # type: ignore[arg-type]
        frame = [name, 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any], start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_name, root, parent_index = parent[0], stack[0][0], parent[2]
        else:
            parent_name, root, parent_index = "", frame[0], -1
        key = (root, frame[0], parent_name)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[1]
        if frame[2] >= 0:
            self.raw[frame[2]] = (frame[0], start, end, parent_index,
                                  self.repetition)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself around a call."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def wrap(self, name: str, fn: Callable[..., Any],
             units: Optional[Callable[..., int]] = None,
             materialise: bool = False) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``units(*args)`` adds a work count to ``counts[name + ".units"]``
        (e.g. equations per ``add_equations`` call).  ``materialise``
        wraps a generator function: the generator is drained inside the
        span and a list returned, so the time lands where it is spent.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if units is not None:
                tracer.count(name + ".units", units(*args))
            frame = tracer._open(name)
            start = clock()
            try:
                if materialise:
                    return list(fn(*args, **kwargs))
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, clock())

        return wrapper

    # -- reading the aggregate -------------------------------------------------

    def self_seconds(self, root: str, names: set) -> float:
        """Summed self time of the spans called ``names`` under ``root``."""
        return sum(row[2] for (r, name, _), row in self.agg.items()
                   if r == root and name in names)

    def calls(self, root: str, name: str) -> int:
        return int(sum(row[0] for (r, n, _), row in self.agg.items()
                       if r == root and n == name))

    def to_json(self) -> Dict[str, Any]:
        return {
            "aggregate": [
                {"root": root, "name": name, "parent": parent,
                 "calls": int(row[0]), "total_s": row[1], "self_s": row[2]}
                for (root, name, parent), row in sorted(self.agg.items())],
            "counts": dict(sorted(self.counts.items())),
            "raw_spans": [
                {"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "repetition": s[4]}
                for i, s in enumerate(self.raw) if s is not None],
        }


# -- the patch table -----------------------------------------------------------

#: span names of the receive-side layers.  Shadow decoders run the same
#: code on the *send* side of the memory and file transports; there the
#: time is charged to the transport's serve metric (see run.py).
DECODE_SPANS = frozenset({
    "transfer.client", "fountain.client", "codes.decode.intake",
    "codes.peeling"})


def _patch_table() -> List[Tuple[Any, str, str, Dict[str, Any]]]:
    """``(owner, attribute, span name, wrap options)`` for every layer.

    Imported lazily so importing this module pulls in nothing from
    ``src/``.  Module owners patch the name *where it is bound*:
    ``udp.py`` does ``from ...base import pack_frame``, so the global
    to replace is ``repro.net.transport.udp.pack_frame``.
    """
    from repro import api
    from repro.codes import base as codes_base
    from repro.codes import peeling, reed_solomon
    from repro.codes.lt import decoder as lt_decoder
    from repro.codes.lt import encoder as lt_encoder
    from repro.codes.raptor import decoder as raptor_decoder
    from repro.codes.raptor import encoder as raptor_encoder
    from repro.codes.tornado import code as tornado_code
    from repro.codes.tornado import decoder as tornado_decoder
    from repro.fountain import client as fountain_client
    from repro.fountain import packets
    from repro.net import channel, loss
    from repro.net.transport import file as file_transport
    from repro.net.transport import memory as memory_transport
    from repro.net.transport import udp
    from repro.transfer import client as transfer_client
    from repro.transfer import server as transfer_server

    engine = peeling.PeelingEngine
    table: List[Tuple[Any, str, str, Dict[str, Any]]] = [
        # send side
        (lt_encoder.LTEncoder, "droplet_payload", "codes.encode", {}),
        (raptor_encoder.RaptorEncoder, "droplet_payload", "codes.encode", {}),
        (codes_base.BlockEncoder, "__getitem__", "codes.encode", {}),
        (reed_solomon._RSBlockEncoder, "__getitem__", "codes.encode", {}),
        (tornado_code._TornadoBlockEncoder, "__getitem__", "codes.encode",
         {}),
        (transfer_server.TransferServer, "_next_packet", "transfer.server",
         {}),
        (packets.EncodingPacket, "to_bytes", "fountain.packets.pack", {}),
        (udp, "pack_frame", "net.base.frame", {}),
        (udp._LossStream, "lost", "net.loss.draw", {}),
        (channel.LossyChannel, "delivery_mask", "net.loss.draw", {}),
        (loss.BernoulliLoss, "losses", "net.loss.draw", {}),
        (udp.UdpTransport, "serve", "net.udp.send", {}),
        (memory_transport.MemoryTransport, "serve", "net.memory.serve", {}),
        (file_transport.FileTransport, "serve", "net.file.serve", {}),
        # receive side
        (udp, "iter_frames", "net.base.parse", {"materialise": True}),
        (api.ReceiverSession, "receive_records", "api.route", {}),
        (transfer_client.TransferClient, "receive_many", "transfer.client",
         {}),
        (fountain_client.FountainClient, "receive_many", "fountain.client",
         {}),
        (engine, "add_equation", "codes.peeling",
         {"units": lambda *args: 1}),
        (engine, "add_equations", "codes.peeling",
         {"units": lambda self, indptr, *rest: max(0, len(indptr) - 1)}),
        (engine, "observe_nodes", "codes.peeling",
         {"units": lambda self, nodes, *rest: len(nodes)}),
        (engine, "maybe_inactivate", "codes.peeling", {}),
    ]
    for decoder in (lt_decoder.LTDecoder, raptor_decoder.RaptorDecoder,
                    tornado_decoder.PeelingDecoder):
        table.append((decoder, "add_packet", "codes.decode.intake", {}))
        table.append((decoder, "add_packets", "codes.decode.intake", {}))
    return table


def _wrap_inactivation(tracer: Tracer, wrapped: Callable[..., Any]
                       ) -> Callable[..., Any]:
    """Count GF(2) finisher runs: ``inactivation_runs`` is a public
    counter on the engine, read either side of ``maybe_inactivate``."""

    @functools.wraps(wrapped)
    def wrapper(self: Any) -> Any:
        before = self.inactivation_runs
        try:
            return wrapped(self)
        finally:
            tracer.count("codes.peeling.inactivation_runs",
                         self.inactivation_runs - before)

    return wrapper


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Put the wrappers in place; returns what :func:`uninstall` needs.

    Subclass overrides are looked up on the class that defines them
    (``vars(owner)``), so a wrapper never shadows an override it did
    not mean to.
    """
    undo: List[Tuple[Any, str, Any]] = []
    for owner, attribute, name, options in _patch_table():
        namespace = vars(owner)
        if attribute not in namespace:
            continue  # inherited: the base-class patch covers it
        original = namespace[attribute]
        wrapper = tracer.wrap(name, original, **options)
        if attribute == "maybe_inactivate":
            wrapper = _wrap_inactivation(tracer, wrapper)
        setattr(owner, attribute, wrapper)
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore every callable :func:`install` replaced."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)

"""LT rateless codes — the digital fountain the paper's carousel approximates.

``python -m pydoc repro.codes.lt`` is meant to read as a usage guide;
here is the short version.

**Encode** (a fountain never runs dry)::

    import numpy as np
    from repro.codes.lt import LTCode

    code = LTCode(k=100, seed=7)          # robust soliton by default
    rng = np.random.default_rng(0)
    source = rng.integers(0, 256, size=(100, 64), dtype=np.uint8)
    encoder = code.encoder(source)
    payload = encoder.droplet_payload(12345)   # any droplet, on demand

**Decode** (any ~1.1k droplets, any order, any subset)::

    decoder = code.new_decoder(payload_size=64)
    for droplet_id in [5, 99, 12345, 7, 42]:   # ... until complete
        decoder.add_packet(droplet_id, encoder.droplet_payload(droplet_id))
    # decoder.is_complete -> True once enough droplets are in
    # decoder.source_data() -> the (k, P) source block

Module map:

* :mod:`repro.codes.lt.degree`  — ideal and robust soliton degree pmfs.
* :mod:`repro.codes.lt.encoder` — :class:`DropletSpec` (the shared
  sender/receiver agreement) and :class:`LTEncoder` (XOR-on-demand
  droplet payloads).
* :mod:`repro.codes.lt.decoder` — :class:`LTDecoder`, the shared
  peeling engine (:mod:`repro.codes.peeling`) in its dynamic-equation
  configuration, with GF(2) inactivation as the low-overhead fallback.
* :mod:`repro.codes.lt.code`    — :class:`LTCode`, the facade mirroring
  :class:`~repro.codes.tornado.code.TornadoCode` so fountain, protocol
  and simulation layers drive both families through one interface.

Streaming droplets over a (lossy) channel is the transfer layer's job:
a :class:`repro.transfer.server.TransferServer` block emits droplet
``t`` as its emission ``t``.
"""

from repro.codes.lt.code import LTCode
from repro.codes.lt.decoder import LTDecoder
from repro.codes.lt.degree import (
    ideal_soliton,
    robust_soliton,
    robust_soliton_normaliser,
    robust_soliton_spike,
)
from repro.codes.lt.encoder import DropletSpec, LTEncoder

__all__ = [
    "LTCode",
    "LTDecoder",
    "LTEncoder",
    "DropletSpec",
    "ideal_soliton",
    "robust_soliton",
    "robust_soliton_normaliser",
    "robust_soliton_spike",
]

"""Network substrate: loss processes, channels and delivery transports.

The paper's channels (Section 2) are best-effort packet channels — IP
multicast, satellite, wireless — whose only failure mode after intra-
packet FEC is *erasure*.  This package provides the loss processes used
across the evaluation (independent Bernoulli loss for Sections 6.1-6.3,
bursty heterogeneous MBone-like traces for Section 6.4), the
:class:`~repro.net.channel.LossyChannel` every simulated crossing draws
its verdicts from, and — lazily, as :mod:`repro.net.transport` — the
memory / file / UDP transports that move a real packet stream.
"""

from repro.net.loss import (
    LossModel,
    BernoulliLoss,
    GilbertElliottLoss,
    TraceLoss,
)
from repro.net.traces import TraceSet, synthesize_mbone_traces
from repro.net.channel import LossyChannel

#: `repro.net.transport` resolved lazily (PEP 562): the transport layer
#: pulls in the transfer stack (for serve-side shadow decoders), which
#: plain loss-model users should not pay for.


def __getattr__(name):
    if name == "transport":
        import importlib

        return importlib.import_module("repro.net.transport")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "transport",
    "LossModel",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "TraceLoss",
    "TraceSet",
    "synthesize_mbone_traces",
    "LossyChannel",
]

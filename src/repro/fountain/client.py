"""The retired single-block client's name, kept for the benchmark.

A single-block stream is a one-block transfer, so
:class:`~repro.transfer.client.TransferClient` is the one receiver of
packet ids: one :class:`~repro.codes.registry.IncrementalDecoder` per
block, fed through :func:`~repro.codes.registry.feed`.  The end-to-end
benchmark's span table still names ``FountainClient.receive_many``.
"""

from repro.transfer.client import TransferClient

# ROADMAP item 4(a) unpins the benchmark's span table and removes this.
FountainClient = TransferClient

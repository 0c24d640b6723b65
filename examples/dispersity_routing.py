#!/usr/bin/env python3
"""Dispersity routing (paper Section 8, first proposed application).

"With packets generated by a digital fountain, the source can inject
packets along multiple paths in the network.  Those packets which
experience congestion are delayed, but the destination can recover the
data once a sufficient number of packets arrive, irrespective of the
paths they took."  (The idea goes back to Rabin's information
dispersal [15].)

We send a file over four parallel paths with very different loss and
delay; the receiver reassembles from whatever arrives first.

Run:  python examples/dispersity_routing.py
"""

import heapq

import numpy as np

from repro import tornado_a
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss

K = 800
PACKET_SIZE = 128
SEED = 3


def main() -> None:
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(K, PACKET_SIZE), dtype=np.uint8)
    code = tornado_a(K, seed=SEED)
    encoding = code.encode(data)

    # Four paths: (name, share of packets, loss process, base delay,
    # per-packet spacing).  The fountain needs no path coordination: we
    # simply stripe the encoding round-robin.
    paths = [
        ("fast+clean", BernoulliLoss(0.02), 5.0, 1.0),
        ("fast+lossy", BernoulliLoss(0.30), 5.0, 1.0),
        ("slow+clean", BernoulliLoss(0.05), 60.0, 2.5),
        ("congested+bursty", GilbertElliottLoss.from_loss_and_burst(0.4, 10),
         20.0, 4.0),
    ]

    # Simulate arrivals as (arrival_time, index) events.
    events = []
    path_rng = np.random.default_rng(1)
    for pi, (name, loss, base_delay, spacing) in enumerate(paths):
        indices = np.arange(pi, code.n, len(paths))
        survived = LossyChannel(loss, path_rng).delivery_mask(indices.size)
        for j, index in enumerate(indices[survived]):
            jitter = float(path_rng.exponential(0.5))
            heapq.heappush(events,
                           (base_delay + j * spacing + jitter, int(index), pi))

    decoder = code.new_decoder(payload_size=PACKET_SIZE)
    received = 0
    per_path = [0] * len(paths)
    finish_time = None
    while events:
        t, index, pi = heapq.heappop(events)
        decoder.add_packet(index, encoding[index])
        received += 1
        per_path[pi] += 1
        if decoder.is_complete:
            finish_time = t
            break
    assert decoder.is_complete, "not enough packets across all paths"
    assert np.array_equal(decoder.source_data(), data)

    print(f"file reassembled at t={finish_time:.1f} after {received} packets "
          f"(overhead {received / K - 1:.1%})")
    for (name, loss, *_), count in zip(paths, per_path):
        print(f"  path {name:>17}: {count:4d} packets used "
              f"(loss {loss.expected_loss_rate():.0%})")
    print("no per-path reliability, no reordering logic — any packets do")


if __name__ == "__main__":
    main()

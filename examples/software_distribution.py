#!/usr/bin/env python3
"""The paper's motivating application: mass software distribution.

A server carousels a software image to many clients that tune in at
*different times* and suffer *different loss rates* (paper Sections 1-2:
"millions of clients want to download a new release of software over
the course of several days").  Every client gets the file after
receiving roughly (1+eps)k packets — whichever ones — regardless of when
it joined and what it lost; nobody ever sends a retransmission request.

Run:  python examples/software_distribution.py
"""

import numpy as np

from repro import tornado_a
from repro.codes.registry import feed, incremental_decoder
from repro.fountain.metrics import ReceptionStats
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.transfer.schedule import carousel_order

K = 1500                 # ~1.5 MB image at 1 KB packets
PACKET_SIZE = 256        # kept small so the demo runs in a blink
SHARED_SEED = 11


def main() -> None:
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(K, PACKET_SIZE), dtype=np.uint8)

    code = tornado_a(K, seed=SHARED_SEED)
    encoding = code.encode(image)
    # The carousel: emission t carries encoding packet order[t % n].
    order = carousel_order(code.n, SHARED_SEED)

    # A heterogeneous client population: join time (slot), loss process.
    clients = [
        ("office fiber", 0, BernoulliLoss(0.01)),
        ("home cable", 1200, BernoulliLoss(0.10)),
        ("congested link", 2500, BernoulliLoss(0.35)),
        ("mobile, bursty", 400, GilbertElliottLoss.from_loss_and_burst(0.25, 8)),
        ("satellite, lossy", 3000, BernoulliLoss(0.50)),
    ]

    print(f"{'client':>18}  {'joined':>7}  {'loss':>6}  {'packets':>8}  "
          f"{'overhead':>8}  {'eta':>6}")
    stream_rng = np.random.default_rng(1)
    # Precompute a long index stream once; clients sample their window.
    horizon = 30 * code.n
    indices = np.resize(order, horizon)
    for name, join_slot, loss_model in clients:
        decoder = incremental_decoder(code, payload_size=PACKET_SIZE)
        deliveries = LossyChannel(loss_model, stream_rng).delivery_mask(
            horizon - join_slot)
        for offset in np.nonzero(deliveries)[0]:
            slot = join_slot + int(offset)
            index = int(indices[slot])
            feed(decoder, (index,), encoding[index][np.newaxis])
            if decoder.is_complete:
                break
        assert decoder.is_complete, f"{name} did not finish in the horizon"
        assert np.array_equal(decoder.source_data(), image)
        stats = ReceptionStats.of_decoder(K, decoder)
        print(f"{name:>18}  {join_slot:>7}  "
              f"{loss_model.expected_loss_rate():>6.0%}  "
              f"{stats.total_received:>8}  "
              f"{stats.reception_overhead:>8.1%}  "
              f"{stats.efficiency:>6.1%}")
    print("\nall clients reconstructed the image; zero feedback packets sent")


if __name__ == "__main__":
    main()

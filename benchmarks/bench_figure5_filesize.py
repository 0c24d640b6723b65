"""Figure 5 — file-size scaling: interleaved decays, fountain does not."""

import pytest

from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.sim.receivers import build_interleaved_pool
from repro.sim.transfer import SlotWindow, packets_until_decode


@pytest.mark.parametrize("total_k", [128, 512, 2048])
def test_interleaved_reception_vs_size(benchmark, total_k):
    window = SlotWindow(total_k, 20, "rs")
    loss = BernoulliLoss(0.5)
    total = benchmark(lambda: packets_until_decode(
        window, window.codec.plan.block_ks, LossyChannel(loss, 1)))
    benchmark.extra_info["efficiency"] = total_k / total


def test_figure5_decay_claim(benchmark):
    """Average interleaved efficiency decays as the file grows."""

    def efficiencies():
        out = []
        for total_k in (128, 1024):
            pool = build_interleaved_pool(
                SlotWindow(total_k, 20, "rs"), BernoulliLoss(0.5),
                pool_size=25, rng=total_k)
            out.append(pool.average_efficiency())
        return out

    small, large = benchmark.pedantic(efficiencies, rounds=1, iterations=1)
    benchmark.extra_info["eff_128"] = small
    benchmark.extra_info["eff_1024"] = large
    assert large < small

"""Every loss verdict is read off a channel, and the channel carries the
process.

A :class:`~repro.net.loss.LossModel` describes a loss process; a
:class:`~repro.net.channel.LossyChannel` runs one, keeping its hidden
state (a Gilbert-Elliott chain's, a trace's read position) from one
chunk of verdicts to the next.  A module that asks a model for verdicts
itself starts a second process each time it asks — per carousel cycle,
per protocol round — and every such restart cuts a burst short.  This
scan keeps the asking in ``net/loss.py`` and ``net/channel.py``; the
other tests hold the channel to one unbroken process.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, TraceLoss

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: the model's own module and the channel, which runs its process.
HOMES = {"net/loss.py", "net/channel.py"}

#: ``net/traces.py`` synthesises each MBone trace with one whole-trace
#: ``losses`` call — one process per trace, so no chain restarts — from
#: Beta-skewed per-trace loss rates, and
#: ``tests/golden/swarm_engine.json`` pins what those traces produce.
EXEMPT = {"net/traces.py"}

#: the methods that hand out verdicts.
ASKS = {"losses", "deliveries", "draw"}

#: draws shaped like a loss count or a loss rate: a module that makes
#: one is modelling a loss process instead of running it.
SHAPED = {"binomial", "beta", "normal", "standard_normal", "poisson",
          "hypergeometric"}


def verdict_calls(tree: ast.AST, names=ASKS):
    """Line and name of every ``<x>.losses(...)``-style call in ``tree``
    (any attribute call in ``names``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in names:
            yield node.lineno, node.func.attr


def test_scan_finds_every_ask():
    tree = ast.parse("a = model.losses(n, rng)\n"
                     "b = self.ambient_loss.deliveries(n, self.rng)\n"
                     "c, s = m.draw(512, g, s)\n"
                     "d = server._draw(n, rows)\n")
    assert [name for _, name in verdict_calls(tree)] == [
        "losses", "deliveries", "draw"]


def test_only_a_channel_asks_a_loss_model():
    leaks = [f"{path.relative_to(SRC)}:{line}: .{name}("
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in HOMES | EXEMPT
             for line, name in verdict_calls(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not leaks, ("a loss process is run outside LossyChannel:\n"
                       + "\n".join(leaks))


def test_shaped_scan_finds_every_draw():
    tree = ast.parse("a = rng.binomial(n, q)\n"
                     "b = rng.beta(a, b) * r\n"
                     "c = rng.standard_normal(s) + rng.normal(0, 1)\n"
                     "d = np.random.default_rng(1).poisson(3)\n"
                     "e = rng.hypergeometric(5, 5, 3)\n"
                     "f = rng.random(9) < p\n")
    assert sorted(name for _, name in verdict_calls(tree, SHAPED)) == [
        "beta", "binomial", "hypergeometric", "normal", "poisson",
        "standard_normal"]


def test_loss_shaped_draws_stay_in_net():
    """No module outside the loss models and the channel draws a loss
    count or rate from a distribution: a receiver's losses are read off
    its own channel, slot by slot."""
    leaks = [f"{path.relative_to(SRC)}:{line}: .{name}("
             for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in HOMES | EXEMPT
             for line, name in verdict_calls(
                 ast.parse(path.read_text(), filename=str(path)), SHAPED)]
    assert not leaks, ("a loss-shaped draw outside net/:\n"
                       + "\n".join(leaks))


def mean_loss_run(lost: np.ndarray) -> float:
    edges = np.diff(np.concatenate([[0], lost.astype(np.int8), [0]]))
    return float(np.mean(np.flatnonzero(edges == -1)
                         - np.flatnonzero(edges == 1)))


def test_bursts_survive_the_channel():
    """Read through a channel's 512-slot chunks, a Gilbert-Elliott
    chain keeps its mean loss run: within 3 % of one long call."""
    model = GilbertElliottLoss.from_loss_and_burst(0.2, 100.0)
    slots = 8_000_000
    through = mean_loss_run(~LossyChannel(model, rng=1).delivery_mask(slots))
    whole = mean_loss_run(model.losses(slots, 2))
    assert abs(through / whole - 1) < 0.03


def test_a_shared_model_runs_one_process_per_channel():
    """Two channels over one model, drawn in turns, each read what it
    reads alone: the model holds no process state of its own."""
    for model in (GilbertElliottLoss.from_loss_and_burst(0.2, 100.0),
                  TraceLoss(np.random.default_rng(0).random(3_000) < 0.3)):
        a, b = LossyChannel(model, rng=3), LossyChannel(model, rng=4)
        turns = [(a.delivery_mask(700), b.delivery_mask(300))
                 for _ in range(10)]
        alone = LossyChannel(model, rng=3).delivery_mask(7_000)
        assert np.concatenate([ta for ta, _ in turns]).tolist() \
            == alone.tolist()
        assert np.concatenate([tb for _, tb in turns]).tolist() \
            == LossyChannel(model, rng=4).delivery_mask(3_000).tolist()


def test_a_channel_keeps_bernoulli_draws_bit_identical():
    """Chunks of a memoryless process are one long draw of its uniforms."""
    mask = LossyChannel(BernoulliLoss(0.3), rng=5).delivery_mask(2_048)
    assert mask.tolist() == (~BernoulliLoss(0.3).losses(2_048, 5)).tolist()


def test_a_standalone_call_keeps_its_draw_order():
    """``losses`` is one fresh chain: the slots' state and loss
    uniforms, then the stationary start state."""
    model = GilbertElliottLoss.from_loss_and_burst(0.25, 8.0)
    rng = np.random.default_rng(6)
    u_state, u_loss = rng.random(500), rng.random(500)
    state = rng.random() < model.stationary_bad_probability
    expected = []
    for u, v in zip(u_state, u_loss):
        state = (u >= model.p_bg) if state else (u < model.p_gb)
        expected.append(v < (model.loss_bad if state else model.loss_good))
    assert model.losses(500, 6).tolist() == expected


def looped_gilbert_draw(model, count, rng, state):
    """The slot-by-slot chain ``GilbertElliottLoss.draw`` ran before
    its scan: the same uniforms, read in the same order."""
    u_state = rng.random(count)
    u_loss = rng.random(count)
    if state is None:
        state = rng.random() < model.stationary_bad_probability
    states = np.empty(count, dtype=bool)
    for t in range(count):
        if state:
            state = not (u_state[t] < model.p_bg)
        else:
            state = u_state[t] < model.p_gb
        states[t] = state
    loss_prob = np.where(states, model.loss_bad, model.loss_good)
    return u_loss < loss_prob, state


@pytest.mark.parametrize("rate,burst", [(0.05, 1.0), (0.2, 6.0),
                                        (0.45, 48.0)])
@pytest.mark.parametrize("start", [None, True, False])
def test_the_scan_is_the_slot_loop(rate, burst, start):
    """Resets, swaps and keeps give every state the loop gives, and the
    state it hands on, at every length (a chain's first slot, a
    channel's chunk, a long run)."""
    model = GilbertElliottLoss.from_loss_and_burst(rate, burst)
    for count in (0, 1, 7, 512, 1_000_000):
        seed = 1000 + count
        got, got_state = model.draw(count, np.random.default_rng(seed),
                                    start)
        want, want_state = looped_gilbert_draw(
            model, count, np.random.default_rng(seed), start)
        assert np.array_equal(got, want), count
        assert bool(got_state) == bool(want_state), count

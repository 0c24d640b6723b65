"""Packet-loss processes.

Three models cover the paper's evaluation:

* :class:`BernoulliLoss` — "each transmission to each receiver is lost
  independently with a fixed probability p" (Section 6 simulations).
* :class:`GilbertElliottLoss` — the classic two-state bursty model, used
  to synthesise MBone-like traces ("all of the networks we describe are
  prone to bursty loss periods", Section 2; trace study Section 6.4).
* :class:`TraceLoss` — replays a recorded boolean loss trace from an
  arbitrary starting offset, which is how Section 6.4 samples the
  Yajnik/Kurose/Towsley traces.
"""

from __future__ import annotations

import abc
from typing import Any, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.utils.rng import RngLike, ensure_rng


class LossModel(abc.ABC):
    """A stationary (or trace-driven) packet-erasure process.

    :meth:`draw` takes a process's state and returns it, and a
    :class:`~repro.net.channel.LossyChannel` keeps it: a model holds no
    process state, so :meth:`losses` is always a fresh process."""

    @abc.abstractmethod
    def draw(self, count: int, rng: np.random.Generator,
             state: Any) -> Tuple[np.ndarray, Any]:
        """``count`` verdicts (True = lost) from ``state`` on, and the
        state after them; None starts a fresh process."""

    @abc.abstractmethod
    def expected_loss_rate(self) -> float:
        """Long-run fraction of packets lost."""

    def losses(self, count: int, rng: RngLike = None) -> np.ndarray:
        """``count`` verdicts of a fresh process; True means lost."""
        return self.draw(count, ensure_rng(rng), None)[0]


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability ``p``."""

    def __init__(self, p: float):
        if not 0 <= p < 1:
            raise ParameterError(f"loss probability {p} outside [0, 1)")
        self.p = float(p)

    def draw(self, count: int, rng: np.random.Generator,
             state: Any) -> Tuple[np.ndarray, Any]:
        if self.p == 0:
            return np.zeros(count, dtype=bool), None
        return rng.random(count) < self.p, None

    def expected_loss_rate(self) -> float:
        return self.p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BernoulliLoss(p={self.p})"


def as_loss_model(loss: Union[float, LossModel]) -> LossModel:
    """A ``loss=`` argument as a model: a probability is Bernoulli."""
    if isinstance(loss, LossModel):
        return loss
    return BernoulliLoss(float(loss))


class GilbertElliottLoss(LossModel):
    """Two-state Markov loss: a good state and a lossy burst state.

    Parameters
    ----------
    p_good_to_bad, p_bad_to_good:
        State transition probabilities per packet slot.
    loss_good, loss_bad:
        Loss probability within each state (classic Gilbert model:
        0 and 1).
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0):
        for name, value in (("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good)):
            if not 0 < value <= 1:
                raise ParameterError(f"{name}={value} outside (0, 1]")
        if not 0 <= loss_good <= 1 or not 0 <= loss_bad <= 1:
            raise ParameterError("state loss rates must lie in [0, 1]")
        self.p_gb = float(p_good_to_bad)
        self.p_bg = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)

    @classmethod
    def from_loss_and_burst(cls, loss_rate: float,
                            mean_burst_length: float) -> "GilbertElliottLoss":
        """Construct from target stationary loss rate and burst length.

        With loss only in the bad state (classic Gilbert), the stationary
        bad-state probability equals the loss rate and the mean burst
        length is ``1 / p_bad_to_good``.
        """
        if not 0 < loss_rate < 1:
            raise ParameterError("loss_rate must lie in (0, 1)")
        if mean_burst_length < 1:
            raise ParameterError("mean burst length must be >= 1")
        p_bg = 1.0 / mean_burst_length
        # stationary pi_bad = p_gb / (p_gb + p_bg) = loss_rate
        p_gb = loss_rate * p_bg / (1 - loss_rate)
        if p_gb > 1:
            raise ParameterError(
                f"loss_rate={loss_rate} with burst {mean_burst_length} "
                "needs p_good_to_bad > 1")
        return cls(p_gb, p_bg)

    @property
    def stationary_bad_probability(self) -> float:
        return self.p_gb / (self.p_gb + self.p_bg)

    def expected_loss_rate(self) -> float:
        pi_bad = self.stationary_bad_probability
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    def draw(self, count: int, rng: np.random.Generator,
             state: Any) -> Tuple[np.ndarray, Any]:
        u_state = rng.random(count)
        u_loss = rng.random(count)
        if state is None:
            state = rng.random() < self.stationary_bad_probability
        # A slot's uniform decides its state from the last one by a
        # reset (to bad when only the good->bad test passes, to good
        # when only the bad->good one does), a swap (both pass) or a
        # keep (neither): every state is the last reset's value — the
        # start state is a reset before slot 0 — flipped once per swap
        # since.
        to_bad = np.empty(count + 1, dtype=bool)
        to_bad[0] = state
        np.less(u_state, self.p_gb, out=to_bad[1:])
        to_good = u_state < self.p_bg
        reset = np.empty(count + 1, dtype=bool)
        reset[0] = True
        np.not_equal(to_bad[1:], to_good, out=reset[1:])
        swaps = np.zeros(count + 1, dtype=np.uint8)
        np.logical_and(to_bad[1:], to_good, out=swaps[1:].view(bool))
        parity = np.bitwise_xor.accumulate(swaps)
        last = np.maximum.accumulate(np.where(reset, np.arange(count + 1), 0))
        states = (to_bad[last] ^ (parity ^ parity[last]).view(bool))[1:]
        if count:
            state = bool(states[-1])  # True = bad
        loss_prob = np.where(states, self.loss_bad, self.loss_good)
        return u_loss < loss_prob, state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GilbertElliottLoss(rate={self.expected_loss_rate():.3f}, "
                f"burst={1 / self.p_bg:.1f})")


class TraceLoss(LossModel):
    """Replays a boolean loss trace cyclically from a given offset.

    A process's state is its read position, which starts at
    ``offset``; a :class:`~repro.net.channel.LossyChannel` keeps it, so
    a channel's ``delivery_mask(a)`` then ``delivery_mask(b)`` reads the
    trace as one ``losses(a + b)`` call does.
    """

    def __init__(self, trace: np.ndarray, offset: int = 0):
        trace = np.asarray(trace, dtype=bool)
        if trace.ndim != 1 or trace.size == 0:
            raise ParameterError("trace must be a non-empty 1-D bool array")
        self.trace = trace
        self.offset = int(offset) % trace.size

    def draw(self, count: int, rng: np.random.Generator,
             state: Any) -> Tuple[np.ndarray, Any]:
        position = self.offset if state is None else state
        idx = (position + np.arange(count)) % self.trace.size
        return self.trace[idx], (position + count) % self.trace.size

    def expected_loss_rate(self) -> float:
        return float(self.trace.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceLoss(len={self.trace.size}, "
                f"rate={self.expected_loss_rate():.3f}, offset={self.offset})")

"""Declarative many-receiver swarm simulations (the paper at population scale).

The paper's headline claim is about *scale*: one cyclic fountain stream
serves arbitrarily many heterogeneous receivers that join at different
times, see independent loss, and still pay near-constant reception
overhead.  This module is the layer that evaluates that claim for whole
populations instead of one receiver at a time:

* :class:`Scenario` — a declarative description of a swarm experiment
  (code spec, file/block geometry, cross-block schedule, and a receiver
  population of :class:`ReceiverGroup` entries with per-receiver loss
  models drawn from :mod:`repro.net.loss` / :mod:`repro.net.traces`,
  join/leave churn and optional layered rate tiers).  Scenarios
  round-trip through JSON, so experiments live in committed files
  (see ``examples/scenarios/``) rather than ad-hoc scripts.
* :class:`SwarmSimulator` — runs the whole population at once, every
  receiver crossing the real stream through its own channel, with
  empirical decode thresholds instead of per-receiver decoders.
* :func:`replay_receivers` — the referee: the same slots and channels
  fed to the real :class:`~repro.transfer.client.TransferClient`.

Structural model
----------------

The stream is what the structural
:class:`~repro.transfer.server.TransferServer` emits, a *sweep* of
``total_k`` slots at a time (``run(policy=...)`` reweights it at each
sweep boundary).  Every receiver reads it through its own
:class:`~repro.net.channel.LossyChannel` from its join slot until it
leaves, so every loss process is exact per slot, and a carousel's
wrap-around duplicates count as the real client counts them.  Receiver
``r`` completes on the slot where its last block ``b`` holds ``T[r,
b]`` distinct packets, ``T`` drawn from the decode thresholds of the
block's own code realisation; that pool is the one approximation, and
``run(spot_check=m)`` measures it on ``m`` replays.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codes.registry import REGISTRY, block_seed
from repro.errors import ParameterError, ProtocolError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, TraceLoss
from repro.net.traces import synthesize_mbone_traces
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.layering import LayerConfig
from repro.sim.overhead import sample_decode_thresholds
from repro.sim.transfer import fresh_arrivals
from repro.transfer.blocks import BlockPlan
from repro.transfer.client import TransferClient
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import SCHEDULES
from repro.transfer.server import TransferServer
from repro.utils.rng import spawn_rng

__all__ = [
    "LOSS_PRESETS",
    "LossSpec",
    "ReceiverGroup",
    "Scenario",
    "SpotCheckResult",
    "SwarmResult",
    "SwarmSimulator",
    "load_scenario",
    "replay_receivers",
    "run_scenario",
]

#: rng stream labels (distinct from the transfer layer's streams).
_POP_STREAM = 0x50F0
_TRACE_STREAM = 0x7ACE
_POOL_STREAM = 0xF001
_CHOICE_STREAM = 0xC40D
_SPOT_STREAM = 0x5B07
_REPLAY_STREAM = 0xBE91
_THIN_STREAM = 0x7819

#: a value that may be a scalar or a ``(low, high)`` uniform range.
Range = Union[float, Tuple[float, float]]

#: loss-spec kinds and the parameters each accepts (with defaults).
_LOSS_KINDS: Dict[str, Dict[str, Any]] = {
    "bernoulli": {"p": 0.1},
    "gilbert": {"rate": 0.18, "burst": 6.0},
    "trace": {"pool": 32, "length": 100_000},
}

_KIND_CODES = {"bernoulli": 0, "gilbert": 1, "trace": 2}

#: named wireless loss presets, usable anywhere a loss spec goes
#: (``LossSpec.preset(name)``, a bare string in scenario JSON, or the
#: CLI's ``--loss-preset``).  Parameter regimes follow the GPRS channel
#: measurements of Usman & Dunlop — slow pedestrian fading shows rarer
#: but much longer loss bursts than vehicular speeds, where fast fading
#: decorrelates the channel — plus an office wireless-LAN testbed regime
#: with deep shadowing outages.  Ranges spread receivers across the
#: regime rather than cloning one channel.
LOSS_PRESETS: Dict[str, Dict[str, Any]] = {
    "gprs-pedestrian": {
        "kind": "gilbert", "rate": [0.02, 0.08], "burst": [8.0, 24.0]},
    "gprs-vehicular": {
        "kind": "gilbert", "rate": [0.05, 0.15], "burst": [3.0, 9.0]},
    "wireless-testbed": {
        "kind": "gilbert", "rate": [0.10, 0.30], "burst": [10.0, 40.0]},
}


def _as_range(value: Any, name: str) -> Range:
    """Normalise a scalar or 2-element sequence into a canonical Range."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ParameterError(
                f"{name} range must be [low, high], got {value!r}")
        low, high = float(value[0]), float(value[1])
        if low > high:
            raise ParameterError(f"{name} range has low > high: {value!r}")
        if low == high:
            return low
        return (low, high)
    return float(value)


def _range_bounds(value: Range) -> Tuple[float, float]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def _draw_range(value: Range, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Materialise ``count`` per-receiver values from a scalar or range."""
    if isinstance(value, tuple):
        return rng.uniform(value[0], value[1], size=count)
    return np.full(count, float(value))


@dataclass(frozen=True)
class LossSpec:
    """Declarative per-receiver loss process of one receiver group.

    ``kind`` selects the process; parameters may be scalars or
    ``[low, high]`` ranges drawn independently per receiver:

    * ``"bernoulli"`` — ``p``: stationary loss rate.
    * ``"gilbert"`` — ``rate``: stationary loss rate, ``burst``: mean
      burst length (a :class:`~repro.net.loss.GilbertElliottLoss`).
    * ``"trace"`` — ``pool``: how many synthetic MBone traces to
      synthesise, ``length``: trace length; each receiver replays a
      random trace from a random offset
      (:func:`~repro.net.traces.synthesize_mbone_traces`).
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise ParameterError(
                f"unknown loss kind {self.kind!r}; choose from "
                f"{sorted(_LOSS_KINDS)}")
        known = _LOSS_KINDS[self.kind]
        normalised = []
        for name, value in sorted(dict(self.params).items()):
            if name not in known:
                raise ParameterError(
                    f"loss kind {self.kind!r} has no parameter {name!r}; "
                    f"valid: {sorted(known)}")
            if self.kind == "trace":
                normalised.append((name, int(value)))
            else:
                normalised.append((name, _as_range(value, name)))
        object.__setattr__(self, "params", tuple(normalised))
        self._validate_bounds()

    def _validate_bounds(self) -> None:
        if self.kind == "bernoulli":
            low, high = _range_bounds(self.param("p"))
            if not 0 <= low <= high < 1:
                raise ParameterError(
                    f"bernoulli loss rate must lie in [0, 1), got "
                    f"{self.param('p')!r}")
        elif self.kind == "gilbert":
            low, high = _range_bounds(self.param("rate"))
            if not 0 < low <= high < 1:
                raise ParameterError(
                    f"gilbert loss rate must lie in (0, 1), got "
                    f"{self.param('rate')!r}")
            blow, _ = _range_bounds(self.param("burst"))
            if blow < 1:
                raise ParameterError("gilbert mean burst must be >= 1")
        else:
            if self.param("pool") <= 0 or self.param("length") <= 0:
                raise ParameterError(
                    "trace pool and length must be positive")

    @classmethod
    def make(cls, kind: str, **params: Any) -> "LossSpec":
        """Build a spec: ``LossSpec.make("bernoulli", p=[0.01, 0.3])``."""
        return cls(kind, tuple(sorted(params.items())))

    @classmethod
    def preset(cls, name: str) -> "LossSpec":
        """A named wireless channel preset from :data:`LOSS_PRESETS`."""
        if name not in LOSS_PRESETS:
            raise ParameterError(
                f"unknown loss preset {name!r}; choose from "
                f"{sorted(LOSS_PRESETS)}")
        return cls.from_dict(dict(LOSS_PRESETS[name]))

    @classmethod
    def from_dict(cls, data: Any) -> "LossSpec":
        if isinstance(data, LossSpec):
            return data
        if isinstance(data, str):
            return cls.preset(data)
        if not isinstance(data, dict) or "kind" not in data:
            raise ParameterError(
                f"loss spec must be a dict with a 'kind' key, a preset "
                f"name, or a LossSpec, got {data!r}")
        params = {k: v for k, v in data.items() if k != "kind"}
        return cls.make(data["kind"], **params)

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"kind": self.kind}
        for name, value in self.params:
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def param(self, name: str, default: Any = None) -> Any:
        """This spec's value for ``name`` (the kind's default otherwise)."""
        for key, value in self.params:
            if key == name:
                return value
        if default is not None:
            return default
        return _LOSS_KINDS[self.kind][name]


@dataclass(frozen=True)
class ReceiverGroup:
    """A homogeneous-by-description slice of the receiver population.

    Parameters
    ----------
    name, count:
        Label and number of receivers in the group.
    loss:
        The group's :class:`LossSpec` (or its dict form).  Ranges inside
        the spec make the group heterogeneous.
    join:
        Stream slot at which receivers join — a scalar or a
        ``[low, high]`` range drawn per receiver (mid-stream joiners,
        flash crowds).
    leave:
        Optional slot at which receivers leave (churn); ``None`` means
        they stay until done.
    rate_fraction:
        Fraction of the stream's slots the receiver listens to, in
        ``(0, 1]`` — a bandwidth tier (modem vs LAN).  Mutually
        exclusive with ``level``.
    level:
        Layered-multicast subscription level; requires the scenario's
        ``layers`` and maps to a rate fraction through
        :class:`~repro.protocol.layering.LayerConfig`.
    """

    name: str
    count: int
    loss: LossSpec = field(
        default_factory=lambda: LossSpec.make("bernoulli", p=0.1))
    join: Range = 0.0
    leave: Optional[Range] = None
    rate_fraction: Optional[Range] = None
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("receiver group needs a name")
        if self.count <= 0:
            raise ParameterError(
                f"group {self.name!r} needs a positive receiver count")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "loss", LossSpec.from_dict(self.loss))
        object.__setattr__(self, "join", _as_range(self.join, "join"))
        if self.leave is not None:
            object.__setattr__(self, "leave", _as_range(self.leave, "leave"))
        if self.rate_fraction is not None and self.level is not None:
            raise ParameterError(
                f"group {self.name!r}: pass rate_fraction or level, "
                "not both")
        if self.rate_fraction is not None:
            rate = _as_range(self.rate_fraction, "rate_fraction")
            low, high = _range_bounds(rate)
            if not 0 < low <= high <= 1:
                raise ParameterError(
                    f"group {self.name!r}: rate_fraction must lie in "
                    f"(0, 1], got {self.rate_fraction!r}")
            object.__setattr__(self, "rate_fraction", rate)
        if self.level is not None:
            object.__setattr__(self, "level", int(self.level))

    @classmethod
    def from_dict(cls, data: Any) -> "ReceiverGroup":
        if isinstance(data, ReceiverGroup):
            return data
        if not isinstance(data, dict):
            raise ParameterError(
                f"receiver group must be a dict, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown receiver-group fields {sorted(unknown)}; "
                f"valid: {sorted(known)}")
        return cls(**data)

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"name": self.name, "count": self.count,
                               "loss": self.loss.to_dict()}
        for name in ("join", "leave", "rate_fraction"):
            value = getattr(self, name)
            if name == "join" and value == 0.0:
                continue
            if value is None:
                continue
            out[name] = list(value) if isinstance(value, tuple) else value
        if self.level is not None:
            out["level"] = self.level
        return out


@dataclass(frozen=True)
class Scenario:
    """One declarative swarm experiment; round-trips through JSON.

    The code is any registry spec string; geometry mirrors the transfer
    layer (``file_size`` bytes cut into blocks of ``block_packets``
    packets of ``packet_size`` bytes each).  ``max_sweeps`` bounds the
    simulated stream length (in full passes over the file) so a
    pathological population terminates loudly instead of spinning;
    ``threshold_trials`` sizes the empirical decode-threshold pool
    sampled *per block* (pool-building cost scales with
    ``num_blocks * threshold_trials`` decoder runs — the dominant cost
    of large scenarios).  ``layers`` enables layered rate tiers for
    groups that set ``level``.
    """

    name: str
    groups: Tuple[ReceiverGroup, ...]
    code: str = "tornado-b"
    file_size: int = 4 << 20
    packet_size: int = 1024
    block_packets: int = 256
    schedule: str = "interleave"
    seed: int = 2024
    max_sweeps: int = 40
    threshold_trials: int = 32
    layers: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("scenario needs a name")
        groups = tuple(ReceiverGroup.from_dict(g) for g in self.groups)
        if not groups:
            raise ParameterError("scenario needs at least one receiver group")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "code", REGISTRY.spec(self.code).to_string())
        if self.schedule not in SCHEDULES:
            raise ParameterError(
                f"unknown schedule {self.schedule!r}; choose from "
                f"{sorted(SCHEDULES)}")
        for name in ("file_size", "packet_size", "block_packets",
                     "max_sweeps", "threshold_trials"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.layers is not None and self.layers < 1:
            raise ParameterError("layers must be >= 1")
        for group in groups:
            if group.level is not None:
                if self.layers is None:
                    raise ParameterError(
                        f"group {group.name!r} sets level={group.level} but "
                        "the scenario has no layers")
                config = LayerConfig(self.layers)
                if not 0 <= group.level <= config.max_level:
                    raise ParameterError(
                        f"group {group.name!r}: level {group.level} outside "
                        f"[0, {config.max_level}]")

    # -- derived geometry ------------------------------------------------------

    def plan(self) -> BlockPlan:
        return BlockPlan(self.file_size, self.packet_size, self.block_packets)

    @property
    def total_receivers(self) -> int:
        return sum(g.count for g in self.groups)

    def group_rate_fraction(self, group: ReceiverGroup) -> Range:
        """The group's effective listen-rate fraction (tiers resolved)."""
        if group.level is not None:
            config = LayerConfig(self.layers)
            return config.level_rate(group.level) / config.block_size
        if group.rate_fraction is None:
            return 1.0
        return group.rate_fraction

    def scaled(self, receivers: int) -> "Scenario":
        """The same scenario with the population scaled to ``receivers``.

        Group proportions are preserved (every group keeps at least one
        receiver) — the handle behind ``repro swarm run --receivers``.
        """
        if receivers <= 0:
            raise ParameterError("receiver count must be positive")
        total = self.total_receivers
        counts = [max(1, int(round(g.count * receivers / total)))
                  for g in self.groups]
        groups = tuple(dataclasses.replace(g, count=c)
                       for g, c in zip(self.groups, counts))
        return dataclasses.replace(self, groups=groups)

    def with_loss(self, loss: Any) -> "Scenario":
        """The same scenario with every group's loss process replaced.

        ``loss`` is a :class:`LossSpec`, its dict form, or a preset
        name from :data:`LOSS_PRESETS` — the handle behind
        ``repro swarm run --loss-preset``.
        """
        spec = LossSpec.from_dict(loss)
        groups = tuple(dataclasses.replace(g, loss=spec)
                       for g in self.groups)
        return dataclasses.replace(self, groups=groups)

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {
            "kind": "swarm-scenario",
            "name": self.name,
            "code": self.code,
            "file_size": self.file_size,
            "packet_size": self.packet_size,
            "block_packets": self.block_packets,
            "schedule": self.schedule,
            "seed": self.seed,
            "max_sweeps": self.max_sweeps,
            "threshold_trials": self.threshold_trials,
            "groups": [g.to_dict() for g in self.groups],
        }
        if self.layers is not None:
            out["layers"] = self.layers
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ProtocolError(
                f"scenario must be a dict, got {type(data).__name__}")
        if data.get("kind", "swarm-scenario") != "swarm-scenario":
            raise ProtocolError(
                f"not a swarm scenario (kind={data.get('kind')!r})")
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {k: v for k, v in data.items() if k != "kind"}
        unknown = set(fields) - known
        if unknown:
            raise ProtocolError(
                f"unknown scenario fields {sorted(unknown)}")
        return cls(**fields)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Scenario":
        path = pathlib.Path(path)
        if not path.exists():
            raise ParameterError(f"no scenario file at {path}")
        try:
            return cls.from_json(path.read_text())
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path: Union[str, pathlib.Path]) -> Scenario:
    """Module-level alias of :meth:`Scenario.load`."""
    return Scenario.load(path)


# -- population materialisation ------------------------------------------------


@dataclass
class _Population:
    """Per-receiver attribute arrays, materialised from the scenario
    (deterministic in its seed, whatever the worker chunking)."""

    group_index: np.ndarray
    kind: np.ndarray
    loss_rate: np.ndarray
    p_gb: np.ndarray
    p_bg: np.ndarray
    trace_id: np.ndarray
    trace_offset: np.ndarray
    join: np.ndarray
    leave: np.ndarray
    rate: np.ndarray
    traces: List[np.ndarray]

    @property
    def size(self) -> int:
        return int(self.group_index.size)

    def rows(self, lo: int, hi: int) -> "_Population":
        """The sub-population of receivers ``lo..hi`` (array views)."""
        sliced = {f.name: getattr(self, f.name)[lo:hi]
                  for f in dataclasses.fields(self)
                  if f.name != "traces"}
        return _Population(traces=self.traces, **sliced)

    def loss_model(self, r: int) -> LossModel:
        """The exact per-packet loss process of receiver ``r`` (replay)."""
        kind = int(self.kind[r])
        if kind == _KIND_CODES["bernoulli"]:
            return BernoulliLoss(float(self.loss_rate[r]))
        if kind == _KIND_CODES["gilbert"]:
            return GilbertElliottLoss(float(self.p_gb[r]),
                                      float(self.p_bg[r]))
        return TraceLoss(self.traces[int(self.trace_id[r])],
                         offset=int(self.trace_offset[r]))


def _materialize(scenario: Scenario) -> _Population:
    """Draw every receiver's attributes from the scenario's groups."""
    rng = spawn_rng(scenario.seed, _POP_STREAM)
    total = scenario.total_receivers
    group_index = np.empty(total, dtype=np.int32)
    kind = np.zeros(total, dtype=np.int8)
    loss_rate = np.zeros(total)
    p_gb = np.zeros(total)
    p_bg = np.zeros(total)
    trace_id = np.full(total, -1, dtype=np.int32)
    trace_offset = np.zeros(total, dtype=np.int64)
    join = np.zeros(total)
    leave = np.full(total, np.inf)
    rate = np.ones(total)
    traces: List[np.ndarray] = []
    lo = 0
    for gi, group in enumerate(scenario.groups):
        hi = lo + group.count
        sl = slice(lo, hi)
        group_index[sl] = gi
        kind[sl] = _KIND_CODES[group.loss.kind]
        join[sl] = _draw_range(group.join, group.count, rng)
        if group.leave is not None:
            leave[sl] = _draw_range(group.leave, group.count, rng)
        rate[sl] = _draw_range(scenario.group_rate_fraction(group),
                               group.count, rng)
        if group.loss.kind == "bernoulli":
            loss_rate[sl] = _draw_range(group.loss.param("p"),
                                        group.count, rng)
        elif group.loss.kind == "gilbert":
            rates = _draw_range(group.loss.param("rate"), group.count, rng)
            bursts = np.maximum(
                _draw_range(group.loss.param("burst"), group.count, rng), 1.0)
            loss_rate[sl] = rates
            p_bg[sl] = 1.0 / bursts
            p_gb[sl] = np.minimum(rates * p_bg[sl] / (1.0 - rates), 1.0)
        else:
            pool = int(group.loss.param("pool"))
            length = int(group.loss.param("length"))
            trace_rng = spawn_rng(scenario.seed, _TRACE_STREAM + gi)
            base = len(traces)
            traces.extend(
                synthesize_mbone_traces(pool, length, rng=trace_rng).traces)
            ids = base + rng.integers(0, pool, size=group.count)
            trace_id[sl] = ids
            trace_offset[sl] = rng.integers(0, length, size=group.count)
            pool_rates = np.array([t.mean() for t in traces[base:]])
            loss_rate[sl] = pool_rates[ids - base]
        lo = hi
    return _Population(group_index=group_index, kind=kind,
                       loss_rate=loss_rate, p_gb=p_gb, p_bg=p_bg,
                       trace_id=trace_id, trace_offset=trace_offset,
                       join=join, leave=leave, rate=rate, traces=traces)


# -- decode thresholds ---------------------------------------------------------


#: ceiling on a trial's thinning rate — keeps the sampled id window
#: finite for near-total-loss receivers (their thresholds are rate-
#: insensitive far before this point).
_POOL_THINNING_MAX = 0.9


def _sample_thresholds(code: Any, trials: int, rng: np.random.Generator,
                       rateless: bool,
                       loss_rates: np.ndarray) -> np.ndarray:
    """Empirical decode thresholds of *this* code realisation.

    Fixed-rate codes receive a random permutation prefix of their
    encoding (the carousel order is itself a seeded random permutation,
    and a loss-thinned subset of it is exchangeable with a uniform
    one); rateless codes receive a loss-thinned droplet-id prefix,
    exactly the stream a receiver on a lossy channel collects.

    ``loss_rates`` carries the *population's* per-receiver effective
    droplet-loss rates; each rateless trial thins at a rate drawn from
    it, so the pool is a mixture matched to the receivers that draw
    from it: within one LT realisation the threshold's tail (not its
    median) depends on the rate.  Interleaving justifies i.i.d.
    thinning even for bursty channels: one block's slots lie far apart
    in the stream.
    """
    if not rateless:
        return sample_decode_thresholds(code, trials, rng)
    thresholds = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        thin = float(loss_rates[rng.integers(0, loss_rates.size)])
        thin = min(max(thin, 0.0), _POOL_THINNING_MAX)
        window = int(np.ceil(4 * code.k / (1.0 - thin)))
        ids = np.nonzero(rng.random(window) > thin)[0]
        thresholds[t] = code.packets_to_decode(ids)
    return thresholds


def _threshold_pools(scenario: Scenario,
                     loss_rates: np.ndarray) -> np.ndarray:
    """A ``(num_blocks, trials)`` table of decode thresholds sampled
    from each block's *own* code realisation (the one every receiver
    shares): much tighter than the mixture over realisations."""
    spec = REGISTRY.spec(scenario.code)
    rateless = REGISTRY.is_rateless(spec)
    plan = scenario.plan()
    pools = np.empty((plan.num_blocks, scenario.threshold_trials),
                     dtype=np.int64)
    for b, k in enumerate(plan.block_ks):
        code = REGISTRY.build(spec, k, seed=block_seed(scenario.seed, b))
        rng = spawn_rng(scenario.seed, _POOL_STREAM + b)
        pools[b] = _sample_thresholds(code, scenario.threshold_trials,
                                      rng, rateless, loss_rates)
    return pools


# -- one receiver's slots ------------------------------------------------------


def _spans(pop: _Population, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every receiver's listening slots ``[lo, hi)`` of a ``limit``-slot
    stream: from its join slot until it leaves."""
    lo = np.ceil(pop.join).astype(np.int64)
    hi = np.minimum(pop.leave, limit).astype(np.int64)
    return lo, hi


def _channels(seed: int, pop: _Population, row: int,
              rid: int) -> List[LossyChannel]:
    """Receiver ``rid``'s channels (``row`` of ``pop``), read from its
    join slot on: its own loss process, and for a rate tier a Bernoulli
    channel dropping the slots it does not listen to."""
    base = int(seed) & 0x7FFFFFFF
    channels = [LossyChannel(pop.loss_model(row), np.random.default_rng(
        [base, _REPLAY_STREAM, rid]))]
    rate = float(pop.rate[row])
    if rate < 1.0:
        channels.append(LossyChannel(BernoulliLoss(1.0 - rate),
                                     np.random.default_rng(
                                         [base, _THIN_STREAM, rid])))
    return channels


def _delivered(channels: List[LossyChannel], count: int) -> np.ndarray:
    """The next ``count`` slots' delivery mask across ``channels``."""
    return np.logical_and.reduce([c.delivery_mask(count) for c in channels])


# -- the exact engine ----------------------------------------------------------


#: receivers whose delivery masks one step of a sweep builds at once.
_ROW_CHUNK = 256
#: most slots of one step: a sweep is read a step at a time, so a
#: receiver's channels stop within a step of its completion.
_STEP = 2048


def _completion_slots(fresh: np.ndarray, order: np.ndarray,
                      edges: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Each row's slot where its last block short of ``need`` reaches
    it: per (row, block), the first slot of the block's run
    (``order[edges[b]:edges[b + 1]]``) where the running fresh count
    does, searched in row tallies offset into one ascending array."""
    rows, width = fresh.shape
    tally = np.zeros((rows, width + 1), dtype=np.int64)
    np.cumsum(fresh[:, order], axis=1, out=tally[:, 1:])
    row, block = np.nonzero(need > 0)
    offset = np.arange(rows) * (width + 1)
    target = tally[row, edges[block]] + need[row, block] + offset[row]
    pos = np.searchsorted((tally[:, 1:] + offset[:, None]).ravel(), target)
    last = np.full(rows, -1)
    np.maximum.at(last, row, order[pos - row * width])
    return last


def _run_rows(scenario: Scenario, pop: _Population, thresholds: np.ndarray,
              first_id: int,
              policy: Optional[AdaptivePolicy] = None
              ) -> Dict[str, Any]:
    """Simulate one slice of the population; returns per-receiver arrays.

    ``pop`` and ``thresholds`` are sliced to this chunk's rows, the
    first of which is receiver ``first_id``.  A sweep is the structural
    server's next ``total_k`` slots; a ``policy`` first reweights it
    from the listening receivers' summed block deficits (the weights
    are returned for a replay).  Each receiver's channels fill its row
    of a step's delivery mask.  A carousel arrival is fresh on the
    first sight of its id, asked only once some block has moved
    ``n_b`` past the receiver's join cursor.  A receiver completes on
    the slot where its last block reaches ``T[r, b]`` fresh arrivals.
    """
    plan = scenario.plan()
    server = TransferServer(
        ObjectCodec(plan, code=scenario.code, seed=scenario.seed),
        schedule=scenario.schedule, seed=scenario.seed)
    k_b = np.asarray(plan.block_ks)
    # carousel periods (a rateless id never repeats) and global ids:
    # block b's index i is id id_base[b] + i
    if server.codec.is_rateless:
        n_b, id_base = np.full(k_b.size, np.inf), np.zeros_like(k_b)
    else:
        n_b = np.array([server.codec.code_for(b).n for b in range(k_b.size)])
        id_base = np.cumsum(n_b) - n_b
    total_n = int(id_base[-1] + n_b[-1]) if np.isfinite(n_b).all() else 0
    total_k = int(k_b.sum())
    lo, hi = _spans(pop, scenario.max_sweeps * total_k)
    received = np.zeros(pop.size)
    done_slot = np.full(pop.size, np.inf)
    have = np.zeros(thresholds.shape, dtype=np.int64)
    channels: List[Optional[List[LossyChannel]]] = [None] * pop.size
    #: every block's cursor at each receiver's join slot, the ids each
    #: receiver past a wrap has seen, and the id every slot carried
    joined = np.zeros(thresholds.shape, dtype=np.int64)
    seen: Dict[int, np.ndarray] = {}
    slot_ids = np.zeros(scenario.max_sweeps * total_k, dtype=np.int64)
    cursor = np.zeros(k_b.size, dtype=np.int64)
    weights_log: List[List[float]] = []
    live = np.flatnonzero(hi > lo)
    for w0 in [sweep * total_k + step
               for sweep in range(scenario.max_sweeps)
               for step in range(0, total_k, _STEP)]:
        w1 = min(w0 + _STEP, (w0 // total_k + 1) * total_k)
        keep = (hi[live] > w0) & np.isinf(done_slot[live])
        for row in live[~keep].tolist():
            channels[row] = None
            seen.pop(row, None)
        live = live[keep]
        if live.size == 0:
            break
        if policy is not None and w0 % total_k == 0:
            heard = live[lo[live] <= w0]
            deficits = np.maximum(thresholds[heard] - have[heard], 0)
            shares = policy.block_shares(deficits.sum(axis=0).tolist(),
                                         k_b.tolist())
            weights_log.append([share / (k / total_k) for share, k
                                in zip(shares, k_b.tolist())])
            server.reweight(weights_log[-1])
        blocks, indices, _ = server.draw_ids(w1 - w0)
        ids = id_base[blocks] + indices
        slot_ids[w0:w1] = ids
        one_hot = np.zeros((w1 - w0, k_b.size), dtype=np.float32)
        one_hot[np.arange(w1 - w0), blocks] = 1.0
        at_slot = cursor + np.concatenate(
            (np.zeros((1, k_b.size), dtype=np.int64),
             np.cumsum(one_hot, axis=0, dtype=np.int64)))
        edges = np.concatenate(([0], np.cumsum(at_slot[-1] - cursor)))
        cursor = at_slot[-1]
        order = np.argsort(blocks, kind="stable")
        listening = live[lo[live] < w1]
        for c in range(0, listening.size, _ROW_CHUNK):
            rows = listening[c:c + _ROW_CHUNK]
            start = np.maximum(lo[rows], w0) - w0
            stop = np.minimum(hi[rows], w1) - w0
            joining = lo[rows] >= w0
            joined[rows[joining]] = at_slot[start[joining]]
            mask = np.zeros((rows.size, w1 - w0), dtype=bool)
            for i, row in enumerate(rows.tolist()):
                if channels[row] is None:
                    channels[row] = _channels(scenario.seed, pop, row,
                                              first_id + row)
                mask[i, start[i]:stop[i]] = _delivered(
                    channels[row], int(stop[i] - start[i]))
            wraps = np.flatnonzero((cursor - joined[rows] > n_b).any(axis=1))
            fresh = mask.copy() if wraps.size else mask
            for i in wraps.tolist():
                row = int(rows[i])
                if row not in seen:
                    # the ids it got before this step, read again off
                    # fresh channels: the verdicts its live ones gave
                    past = slot_ids[lo[row]:w0]
                    seen[row] = np.zeros(total_n, dtype=bool)
                    seen[row][past[_delivered(_channels(
                        scenario.seed, pop, row, first_id + row),
                        past.size)]] = True
                arrived = np.flatnonzero(mask[i])
                fresh[i] = False
                fresh[i, arrived[fresh_arrivals(ids[arrived],
                                                seen[row])]] = True
            need = thresholds[rows] - have[rows]
            have[rows] += np.rint(fresh.astype(np.float32) @ one_hot
                                  ).astype(np.int64)
            received[rows] += np.count_nonzero(mask, axis=1)
            done = np.flatnonzero((have[rows] >= thresholds[rows])
                                  .all(axis=1))
            if done.size:
                last = _completion_slots(fresh[done], order, edges,
                                         need[done])
                late = np.arange(w1 - w0) > last[:, None]
                received[rows[done]] -= np.count_nonzero(mask[done] & late,
                                                         axis=1)
                done_slot[rows[done]] = w0 + last + 1
    out = {"received": received, "done_slot": done_slot}
    if policy is not None:
        out["weights"] = weights_log
    return out


def _simulate_chunk(payload: Tuple) -> Dict[str, Any]:
    """Top-level worker entry point (must be picklable)."""
    scenario_dict, pop, thresholds, first_id = payload
    scenario = Scenario.from_dict(scenario_dict)
    return _run_rows(scenario, pop, thresholds, first_id)


# -- results -------------------------------------------------------------------


def _percentile(values: np.ndarray, q: float) -> Optional[float]:
    if values.size == 0:
        return None
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class SpotCheckResult:
    """Agreement between the engine and exact replays.

    ``structural_overhead`` holds the engine's overheads for the
    sampled ids, ``replay_overhead`` the real-decoder replays of the
    same receivers over the same slots and channel draws: the paired
    difference measures the threshold pool and nothing else.
    """

    receiver_ids: np.ndarray
    structural_overhead: np.ndarray
    replay_overhead: np.ndarray
    replay_completed: np.ndarray
    #: default agreement tolerance (``agrees(tolerance=...)`` overrides).
    tolerance: float = 0.05

    @property
    def structural_mean(self) -> float:
        values = self.structural_overhead
        return float(np.nanmean(values)) if values.size else float("nan")

    @property
    def replay_mean(self) -> float:
        values = self.replay_overhead[self.replay_completed]
        return float(values.mean()) if values.size else float("nan")

    @property
    def mean_difference(self) -> float:
        return abs(self.structural_mean - self.replay_mean)

    def _paired_difference(self) -> np.ndarray:
        """Engine minus replay, over the receivers both completed."""
        paired = ~np.isnan(self.structural_overhead) & self.replay_completed
        return (self.structural_overhead[paired]
                - self.replay_overhead[paired])

    @property
    def paired_mean(self) -> float:
        diff = self._paired_difference()
        return float(diff.mean()) if diff.size else float("nan")

    @property
    def paired_p90(self) -> float:
        diff = self._paired_difference()
        return float(np.percentile(diff, 90)) if diff.size else float("nan")

    @property
    def noise_scale(self) -> float:
        """Standard error of the paired differences (infinite below two
        pairs): a heavy-tailed overhead makes small samples' means
        differ even when the pool is exact, so agreement is judged
        against this scale, not zero."""
        diff = self._paired_difference()
        if diff.size < 2:
            return float("inf")
        return float(np.sqrt(diff.var() / diff.size))

    def agrees(self, tolerance: Optional[float] = None) -> bool:
        """True when the means agree within ``tolerance`` (defaulting
        to :attr:`tolerance`) or within twice :attr:`noise_scale`,
        whichever is looser — once the two sides agree on *whether*
        the sampled receivers finish (within a quarter of them)."""
        if tolerance is None:
            tolerance = self.tolerance
        struct_done = ~np.isnan(self.structural_overhead)
        done_gap = abs(float(struct_done.mean())
                       - float(self.replay_completed.mean()))
        if done_gap > 0.25:
            return False
        if not struct_done.any() and not self.replay_completed.any():
            return True  # both sides agree: nobody completes
        if not np.isfinite(self.noise_scale):
            return False  # under two pairs cannot establish agreement
        bound = max(tolerance, 2.0 * self.noise_scale)
        return bool(self.mean_difference <= bound)

    def to_dict(self) -> dict:
        return {
            "sample_size": int(self.receiver_ids.size),
            "structural_mean_overhead": self.structural_mean,
            "replay_mean_overhead": self.replay_mean,
            "mean_difference": self.mean_difference,
            "paired_difference_mean": self.paired_mean,
            "paired_difference_p90": self.paired_p90,
            "noise_scale": self.noise_scale,
            "replay_completed": int(self.replay_completed.sum()),
        }


@dataclass
class SwarmResult:
    """Per-receiver outcomes plus aggregate views of one swarm run."""

    scenario: Scenario
    #: packets each receiver took until it completed (or left).
    received: np.ndarray
    #: the slot each receiver completed on; inf for one that did not.
    completion_slot: np.ndarray
    group_index: np.ndarray
    total_k: int
    elapsed: float
    spot_check: Optional[SpotCheckResult] = None

    @property
    def completed(self) -> np.ndarray:
        return np.isfinite(self.completion_slot)

    @property
    def overhead(self) -> np.ndarray:
        """Reception overhead of each completed receiver (NaN for the
        rest): ``received / total_k - 1``."""
        return np.where(self.completed, self.received / self.total_k - 1.0,
                        np.nan)

    @property
    def receivers(self) -> int:
        return int(self.received.size)

    @property
    def completion_rate(self) -> float:
        return float(self.completed.mean())

    @property
    def receivers_per_second(self) -> float:
        return self.receivers / self.elapsed if self.elapsed > 0 else 0.0

    def overhead_percentile(self, q: float) -> Optional[float]:
        """Percentile of reception overhead over *completed* receivers."""
        return _percentile(self.overhead[self.completed], q)

    def overhead_cdf(self, points: int = 50
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """(overhead grid, fraction of completed receivers at or below)."""
        values = np.sort(self.overhead[self.completed])
        if values.size == 0:
            return np.array([]), np.array([])
        grid = np.linspace(values[0], values[-1], points)
        frac = np.searchsorted(values, grid, side="right") / values.size
        return grid, frac

    def group_summaries(self) -> List[dict]:
        out = []
        for gi, group in enumerate(self.scenario.groups):
            mask = self.group_index == gi
            done = mask & self.completed
            values = self.overhead[done]
            out.append({
                "group": group.name,
                "receivers": int(mask.sum()),
                "completion_rate": (float(done.sum() / mask.sum())
                                    if mask.any() else 0.0),
                "overhead_p50": _percentile(values, 50),
                "overhead_p99": _percentile(values, 99),
            })
        return out

    def summary(self) -> dict:
        """The aggregate dict the CLI and benchmarks report."""
        values = self.overhead[self.completed]
        slots = self.completion_slot[self.completed]
        out = {
            "scenario": self.scenario.name,
            "code": self.scenario.code,
            "schedule": self.scenario.schedule,
            "receivers": self.receivers,
            "num_blocks": self.scenario.plan().num_blocks,
            "total_k": self.total_k,
            "completed": int(self.completed.sum()),
            "completion_rate": self.completion_rate,
            "overhead_mean": (float(values.mean()) if values.size
                              else None),
            "overhead_p50": _percentile(values, 50),
            "overhead_p90": _percentile(values, 90),
            "overhead_p99": _percentile(values, 99),
            "overhead_max": (float(values.max()) if values.size else None),
            "completion_sweeps_p50": (
                _percentile(slots, 50) / self.total_k if slots.size
                else None),
            "completion_sweeps_p99": (
                _percentile(slots, 99) / self.total_k if slots.size
                else None),
            "elapsed_seconds": self.elapsed,
            "receivers_per_second": self.receivers_per_second,
            "groups": self.group_summaries(),
        }
        if self.spot_check is not None:
            out["spot_check"] = self.spot_check.to_dict()
        return out


# -- exact replay --------------------------------------------------------------


def replay_receivers(scenario: Scenario,
                     receiver_ids: Sequence[int],
                     population: Optional[_Population] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-packet replays through the real transfer client.

    Each receiver crosses the stream's slots from its join slot until
    it leaves through the channels the engine reads, and its survivors
    feed a payload-less :class:`~repro.transfer.client.TransferClient`
    backed by real incremental decoders.  Returns ``(overhead,
    completed)`` arrays aligned with ``receiver_ids``.
    """
    pop = population if population is not None else _materialize(scenario)
    overhead, completed, _ = _replay(scenario, receiver_ids, pop)
    return overhead, completed


def _replay(scenario: Scenario, receiver_ids: Sequence[int],
            pop: _Population,
            weights: Optional[List[List[float]]] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`replay_receivers`, plus each receiver's completion slot.

    ``weights`` are a closed-loop engine run's per-sweep schedule
    weights: the server is reweighted with each at its sweep's first
    slot (past the last, with all ones — the stripe a policy with no
    deficits deals), so the replay crosses the slots that run dealt.
    """
    plan = scenario.plan()
    codec = ObjectCodec(plan, code=scenario.code, seed=scenario.seed)
    total_k = plan.total_packets
    limit = scenario.max_sweeps * total_k
    # Shared across receivers: what every slot of the stream carries,
    # asked of the structural server (no data, ids only).
    server = TransferServer(codec, schedule=scenario.schedule,
                            seed=scenario.seed)
    sweeps = []
    for sweep in range(scenario.max_sweeps):
        if weights is not None:
            server.reweight(weights[sweep] if sweep < len(weights)
                            else [1.0] * plan.num_blocks)
        sweeps.append(server.draw_ids(total_k)[:2])
    slot_block, slot_index = (np.concatenate(part) for part in zip(*sweeps))
    lo, hi = _spans(pop, limit)
    overhead = np.full(len(receiver_ids), np.nan)
    completed = np.zeros(len(receiver_ids), dtype=bool)
    done_slot = np.full(len(receiver_ids), np.inf)
    for i, rid in enumerate(receiver_ids):
        rid = int(rid)
        delivered = np.zeros(limit, dtype=bool)
        if hi[rid] > lo[rid]:
            delivered[lo[rid]:hi[rid]] = _delivered(
                _channels(scenario.seed, pop, rid, rid),
                int(hi[rid] - lo[rid]))
        client = TransferClient(codec, payload_size=None)
        got = client.receive_window(slot_block[delivered],
                                    slot_index[delivered])
        completed[i] = client.is_complete
        if completed[i]:
            overhead[i] = got / total_k - 1.0
            done_slot[i] = np.flatnonzero(delivered)[got - 1] + 1
    return overhead, completed, done_slot


# -- the simulator -------------------------------------------------------------


class SwarmSimulator:
    """Vectorised population-scale simulation of one :class:`Scenario`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.plan = scenario.plan()

    def _thresholds(self, pop: _Population) -> np.ndarray:
        """Per-(receiver, block) decode thresholds, from pools thinned
        at the population's effective loss (channel and rate tier)."""
        effective_loss = 1.0 - (1.0 - pop.loss_rate) * pop.rate
        pools = _threshold_pools(self.scenario, effective_loss)
        rng = spawn_rng(self.scenario.seed, _CHOICE_STREAM)
        choice = rng.integers(0, pools.shape[1],
                              size=(pop.size, pools.shape[0]))
        return pools[np.arange(pools.shape[0])[None, :], choice]

    def run(self, workers: Optional[int] = None,
            spot_check: int = 0,
            policy: Optional[AdaptivePolicy] = None) -> SwarmResult:
        """Simulate the whole population.

        ``workers`` > 1 fans receiver ranges out over a process pool;
        every receiver reads its own channels, so the fan-out simulates
        the same receivers, draw for draw, as one process.
        ``spot_check`` replays that many sampled receivers through the
        exact transfer client and attaches a :class:`SpotCheckResult`.
        ``policy`` closes the loop on the same engine: at each sweep
        boundary the population's summed block deficits drive its
        schedule lever.  A closed loop is single-process (the policy
        sees every receiver's deficits); its spot check replays the
        slots the run dealt.
        """
        start = time.perf_counter()
        scenario = self.scenario
        pop = _materialize(scenario)
        thresholds = self._thresholds(pop)
        if policy is not None and workers is not None and workers > 1:
            raise ParameterError(
                "closed-loop runs are single-process: the policy "
                "aggregates the whole population every sweep")
        if workers is not None and workers > 1:
            bounds = np.linspace(0, pop.size, workers + 1).astype(int)
            payloads = [(scenario.to_dict(), pop.rows(lo, hi),
                         thresholds[lo:hi], int(lo))
                        for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers) as pool_exec:
                parts = list(pool_exec.map(_simulate_chunk, payloads))
            merged = {key: np.concatenate([p[key] for p in parts])
                      for key in parts[0]}
        else:
            merged = _run_rows(scenario, pop, thresholds, 0, policy)
        result = SwarmResult(
            scenario=scenario,
            received=merged["received"],
            completion_slot=merged["done_slot"],
            group_index=pop.group_index,
            total_k=self.plan.total_packets,
            elapsed=time.perf_counter() - start,
        )
        if spot_check > 0:
            rng = spawn_rng(scenario.seed, _SPOT_STREAM)
            ids = rng.choice(pop.size, size=min(spot_check, pop.size),
                             replace=False)
            replay_oh, replay_done, _ = _replay(scenario, ids, pop,
                                                merged.get("weights"))
            result.spot_check = SpotCheckResult(
                receiver_ids=ids,
                structural_overhead=result.overhead[ids],
                replay_overhead=replay_oh,
                replay_completed=replay_done,
            )
        return result


def run_scenario(scenario: Union[Scenario, str, pathlib.Path],
                 workers: Optional[int] = None,
                 spot_check: int = 0,
                 receivers: Optional[int] = None,
                 policy: Optional[AdaptivePolicy] = None) -> SwarmResult:
    """One-call swarm run: scenario object or JSON file path in,
    :class:`SwarmResult` out.  ``receivers`` rescales the population
    proportionally (quick smoke runs of committed scenarios);
    ``policy`` runs the closed loop instead of the open one."""
    if not isinstance(scenario, Scenario):
        scenario = Scenario.load(scenario)
    if receivers is not None:
        scenario = scenario.scaled(receivers)
    return SwarmSimulator(scenario).run(workers=workers,
                                        spot_check=spot_check,
                                        policy=policy)

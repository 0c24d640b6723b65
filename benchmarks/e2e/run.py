#!/usr/bin/env python3
"""End-to-end delivery benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload udp-lt-lossy --seed 7 \\
        --seconds 20 --trace 0

measures one workload for ``--seconds`` seconds in this process, checks
every delivered object byte for byte, prints each metric by name with
its unit, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics.  Without ``--workload`` every
workload runs in turn, each in its own interpreter; ``--selfcheck``
runs the whole benchmark twice over, interleaved, and compares the two
sets against the bounds.  README.md has the definitions.

One process, one thread: nothing is started in the background, the only
children are the blocking ``subprocess.run`` calls of the multi-workload
modes, and everything written lands under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "__init__.py").exists():
    # The benchmark measures the checkout it sits in, never an installed
    # copy: without the program there is nothing to run.
    sys.stderr.write(f"error: no program to benchmark: {ROOT / 'src'} has "
                     "no repro package\n")
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import e2e_spans  # noqa: E402
import e2e_stats  # noqa: E402
import e2e_workloads as wl  # noqa: E402

#: failed repetitions after which a run stops trying.
MAX_FAILURES = 3

#: share of ``--seconds`` that cold set-ups may use before later
#: repetitions set up warm (at least MIN_COLD are always cold).
COLD_SHARE = 0.25
MIN_COLD = 3

#: repetitions of a ``--quick`` run.
QUICK_REPS = 3

with open(ROOT / "BENCHMARK.json") as _spec:
    SPEC = json.load(_spec)


def _unit(section: str, name: str) -> str:
    for metric in SPEC[section]:
        if metric["name"] == name:
            return metric["unit"]
    raise KeyError(name)


class Samples:
    """The verified repetitions of one run, grouped by loss trial."""

    def __init__(self) -> None:
        self.by_trial: Dict[int, List[wl.Repetition]] = {}
        self.traced: Dict[int, List[wl.Repetition]] = {}
        self.cold: List[wl.Repetition] = []

    def add(self, trial: int, rep: wl.Repetition, cold: bool,
            traced: bool) -> None:
        group = self.traced if traced else self.by_trial
        group.setdefault(trial, []).append(rep)
        if cold:
            self.cold.append(rep)


def _repetition(w: wl.Workload, data: bytes, seed: int, trial: int,
                cold: bool, workdir: pathlib.Path, calibrate: Any,
                tracer: Any, shapes: Dict[int, Any]) -> wl.Repetition:
    """set-up -> timed delivery -> verify, and the same work as before."""
    rep = wl.deliver(w, data, seed, trial, cold, workdir, calibrate, tracer)
    work = (rep.packets_used, rep.emitted, rep.shape)
    if shapes.setdefault(trial, work) != work:
        raise wl.DeliveryError(
            f"trial {trial} consumed {rep.packets_used} packets of "
            f"{rep.emitted} in {len(rep.shape)} segments, not "
            f"{shapes[trial][0]} of {shapes[trial][1]} in "
            f"{len(shapes[trial][2])}: the same inputs must do the same "
            "work")
    for kind in ("send", "recv", "setup"):
        e2e_stats.ratio(1.0, rep.seconds(kind))     # zero seconds: failure
    return rep


def measure(w: wl.Workload, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict[str, Any]:
    """Run one workload's repetitions; returns samples and tallies.

    One untimed warm-up, then rounds (one repetition per loss trial)
    until ``seconds`` have passed and every trial has two samples;
    ``quick`` runs exactly QUICK_REPS of one trial.  With ``trace``,
    untraced and traced rounds alternate, so both kinds see the same
    work.  A repetition that raises is counted as failed and the run
    goes on.
    """
    size = wl.QUICK_PACKETS * w.packet_size if quick else w.object_bytes
    trials = 1 if quick else wl.TRIALS
    data = wl.make_object(seed, size)
    samples = Samples()
    tracer = e2e_spans.Tracer() if trace else None
    attempted = failed = 0
    errors: List[str] = []
    shapes: Dict[int, Any] = {}
    undo: List[Any] = []
    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        with e2e_stats.Calibrator() as calibrate:
            setup_spent = 0.0
            cold_count = 0
            deadline = 0.0
            index = -1          # -1 is the untimed warm-up repetition
            while failed <= MAX_FAILURES:
                if index == 0:
                    deadline = time.perf_counter() + seconds
                if quick and index >= QUICK_REPS:
                    break
                # stop only between rounds, so every trial weighs the
                # same in every mean
                if (not quick and index >= 2 * trials
                        and index % trials == 0
                        and time.perf_counter() >= deadline):
                    break
                trial = max(index, 0) % trials
                traced = (trace and index >= 0
                          and (index // trials) % 2 == 1)
                cold = (cold_count < MIN_COLD
                        or setup_spent < COLD_SHARE * seconds)
                if traced and not undo:
                    undo = e2e_spans.install(tracer)
                elif undo and not traced:
                    e2e_spans.uninstall(undo)
                    undo = []
                if traced:
                    tracer.repetition = index
                    tracer.keep_raw = not tracer.raw
                attempted += 1
                try:
                    rep = _repetition(
                        w, data, seed, trial, cold, workdir, calibrate,
                        tracer if traced else None, shapes)
                except Exception as exc:  # the boundary: count it, go on
                    failed += 1
                    errors.append(
                        f"repetition {index}: {type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc(limit=4)}")
                else:
                    if index >= 0:
                        samples.add(trial, rep, cold, traced)
                        if cold:
                            cold_count += 1
                            setup_spent += rep.seconds("setup")
                if traced:
                    tracer.keep_raw = False
                index += 1
    finally:
        if undo:
            e2e_spans.uninstall(undo)
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": w, "size": size, "samples": samples,
            "tracer": tracer, "attempted": attempted, "failed": failed,
            "errors": errors, "trials": trials}


# -- metrics -------------------------------------------------------------------


def _estimate(reps: List[wl.Repetition], kind: str) -> Dict[str, float]:
    """Seconds of ``kind`` in one repetition of this work.

    Every repetition has the same segments; segment ``j``'s cost is
    estimated over the repetitions (best quarter, at reference speed)
    and the segments are added up.
    """
    rows = [[s for s in rep.segments if s.kind == kind] for rep in reps]
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise e2e_stats.MetricError(f"uneven {kind!r} segments")
    return e2e_stats.total_of(
        e2e_stats.summarise([row[j].seconds for row in rows],
                            [row[j].factor for row in rows])
        for j in range(len(rows[0])))


def _over(amount: float, seconds: Dict[str, float]) -> Dict[str, float]:
    return {key: e2e_stats.ratio(amount, value)
            for key, value in seconds.items()}


def end_to_end(run: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of one run (``value`` at reference speed,
    ``median`` and un-normalised ``raw`` beside it, not gated)."""
    size_mb = run["size"] / 1e6
    samples: Samples = run["samples"]
    trials: Dict[str, List[Dict[str, float]]] = {
        "goodput_MBps": [], "send_kpps": [], "recv_MBps": []}
    ratios = []
    for reps in samples.by_trial.values():
        send, recv = _estimate(reps, "send"), _estimate(reps, "recv")
        busy = e2e_stats.total_of([send, recv])
        trials["goodput_MBps"].append(_over(size_mb, busy))
        trials["send_kpps"].append(_over(reps[0].emitted / 1e3, send))
        trials["recv_MBps"].append(_over(size_mb, recv))
        ratios.append(e2e_stats.ratio(reps[0].packets_used, reps[0].total_k))
    out = {name: e2e_stats.mean_of(parts) for name, parts in trials.items()}
    exact = sum(ratios) / len(ratios)
    out["reception_ratio"] = {"value": exact, "median": exact, "raw": exact}
    out["setup_s"] = _estimate(samples.cold, "setup")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_MB"] = {"value": rss, "median": rss, "raw": rss}
    return out


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Self times are summed over the traced repetitions, divided by the
    packets those repetitions emitted (send side) or consumed (receive
    side) and by their speed factor.  A layer a workload does not use
    reads 0.
    """
    samples: Samples = run["samples"]
    tracer: e2e_spans.Tracer = run["tracer"]
    traced = [rep for reps in samples.traced.values() for rep in reps]
    if not traced:
        raise e2e_stats.MetricError("no traced repetition completed")
    n = len(traced)
    timed = [s for rep in traced for s in rep.segments if s.kind != "setup"]
    busy = sum(s.seconds for s in timed)
    factor = busy / sum(s.seconds / s.factor for s in timed)
    emitted = sum(rep.emitted for rep in traced)
    consumed = sum(rep.packets_used for rep in traced)
    decode = set(e2e_spans.DECODE_SPANS)

    def us_per_pkt(root: str, names: set, packets: int) -> float:
        return tracer.self_seconds(root, names) / packets / factor * 1e6

    m: Dict[str, float] = {}
    for name in ("codes.encode", "transfer.server", "fountain.packets.pack",
                 "net.base.frame", "net.loss.draw", "net.udp.send"):
        m[f"{name}.us_per_pkt"] = us_per_pkt("send", {name}, emitted)
    for name in ("net.memory.serve", "net.file.serve"):
        # the shadow decoder these transports run while serving is part
        # of what serving through them costs
        m[f"{name}.us_per_pkt"] = (
            us_per_pkt("send", {name} | decode, emitted)
            if tracer.calls("send", name) else 0.0)
    for name in ("net.udp.drain", "net.base.parse", "api.route",
                 "transfer.client", "fountain.client", "codes.decode.intake",
                 "codes.peeling"):
        m[f"{name}.us_per_pkt"] = us_per_pkt("recv", {name}, consumed)
    # data() may re-encode missing systematic rows: its whole span, not
    # just its self time, is what reassembly costs
    m["transfer.reassemble.ms"] = sum(
        row[1] for (_, name, _), row in tracer.agg.items()
        if name == "transfer.reassemble") / n / factor * 1e3
    m["net.file.read.ms"] = (
        tracer.self_seconds("recv", {"net.file.feed"}) / n / factor * 1e3)

    sender, receiver = [], []
    for rep in samples.cold:
        first, second = [s for s in rep.segments if s.kind == "setup"]
        sender.append(first)
        receiver.append(second)
    for name, parts in (("setup.sender_s", sender),
                        ("setup.receiver_s", receiver)):
        m[name] = e2e_stats.summarise(
            [s.seconds for s in parts], [s.factor for s in parts])["value"]
    m["codes.raptor.cache.misses"] = statistics.mean(
        rep.cache_misses for rep in samples.cold)

    def total(field: str) -> float:
        return sum(getattr(rep, field) for rep in traced)

    m["send.emitted"] = emitted / n
    m["send.dropped_injected"] = total("dropped") / n
    m["send.manifest_frames"] = total("manifest_frames") / n
    m["net.udp.datagrams"] = tracer.calls("recv", "net.base.parse") / n
    m["net.udp.batches"] = total("batches") / n
    m["net.udp.batch_mean"] = (total("records") / total("batches")
                               if total("batches") else 0.0)
    m["net.udp.malformed"] = total("malformed") / n
    m["recv.packets"] = consumed / n
    m["recv.after_complete_share"] = total("after_complete") / consumed
    m["recv.useful_ratio"] = total("total_k") / consumed
    m["codes.peeling.equations"] = (
        tracer.counts.get("recv/codes.peeling.units", 0) / n)
    m["codes.peeling.inactivation_runs"] = (
        tracer.counts.get("recv/codes.peeling.inactivation_runs", 0) / n)

    own = {"send", "recv", "bench.calibrate"}   # the benchmark's own spans
    m["trace.coverage"] = sum(
        row[2] for (_, name, _), row in tracer.agg.items()
        if name not in own) / busy
    # every self time but calibration, the benchmark's loop residual
    # included, over the seconds the segment clock saw
    m["trace.sum_check"] = sum(
        row[2] for (_, name, _), row in tracer.agg.items()
        if name != "bench.calibrate") / busy

    def busy_estimate(groups: Dict[int, List[wl.Repetition]]) -> float:
        return statistics.mean(
            _estimate(reps, "send")["value"] + _estimate(reps, "recv")["value"]
            for reps in groups.values())

    m["trace.overhead"] = e2e_stats.ratio(busy_estimate(samples.traced),
                                          busy_estimate(samples.by_trial))
    return m


# -- reporting -----------------------------------------------------------------


def report(run: Dict[str, Any], trace: bool, out: Any) -> Dict[str, Any]:
    """Print the human-readable metrics; returns the result object."""
    w: wl.Workload = run["workload"]
    attempted, failed = run["attempted"], run["failed"]
    reps = sum(len(v) for v in run["samples"].by_trial.values())
    reps += sum(len(v) for v in run["samples"].traced.values())
    print(f"workload {w.name}: {w.code} over {w.transport}, "
          f"{run['size']} bytes, P={w.packet_size}, loss={w.loss}, "
          f"{run['trials']} loss trial(s), {reps} measured repetitions",
          file=out)
    for error in run["errors"]:
        print(f"  FAILED {error}", file=out)
    print(f"  failed_share = {failed}/{attempted} = "
          f"{failed / attempted:.4f} ratio", file=out)
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for name, s in end_to_end(run).items():
            unit = _unit("end_to_end", name)
            metrics[name] = {"value": s["value"], "unit": unit}
            print(f"  {name} = {s['value']:.6g} {unit}  "
                  f"(median {s['median']:.6g}, raw {s['raw']:.6g})",
                  file=out)
    else:
        values = per_layer(run)
        for metric in SPEC["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = values.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}", file=out)
        print(f"  trace.sum_check = {values['trace.sum_check']:.4f} ratio "
              "(all self times / busy seconds)", file=out)
        path = OUT / f"trace-{w.name}.json"
        path.write_text(json.dumps(run["tracer"].to_json()))
        print(f"  spans written to {path.relative_to(ROOT)}", file=out)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool, out: Any = sys.stdout) -> Dict[str, Any]:
    """Measure, report and return one workload's result object."""
    run = measure(wl.WORKLOADS[name], seed, seconds, trace, quick)
    if not run["samples"].by_trial:
        for error in run["errors"]:
            print(f"  FAILED {error}", file=out)
        raise SystemExit(f"{name}: no repetition completed")
    return report(run, trace, out)


# -- multi-workload modes ------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool,
           quick: bool) -> Dict[str, Any]:
    """One workload in its own interpreter (blocking); its result."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 170)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{name}: exit code {done.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool, quick: bool) -> int:
    failed = 0
    for name in wl.WORKLOADS:
        result = _child(name, seed, seconds, trace, quick)
        print(json.dumps({"workload": name, **result}))
        failed += result["failed"]
    return 1 if failed else 0


def selfcheck(runs: int, seconds: float, quick: bool) -> int:
    """Sets A and B of ``runs`` full runs each, interleaved A B A B;
    prints both medians, their difference and the bound per workload and
    metric, plus each set's spread, and fails on any breach."""
    sets: Dict[str, Dict[Tuple[str, str], List[float]]] = {"A": {}, "B": {}}
    failed = 0
    for index in range(runs):
        for label in ("A", "B"):
            for name in wl.WORKLOADS:
                print(f"-- set {label} run {index + 1}/{runs}: {name}")
                result = _child(name, index + 1, seconds, False, quick)
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    sets[label].setdefault((name, metric), []).append(
                        entry["value"])
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    breaches = 0
    print(f"{'workload':24}{'metric':17}{'median A':>12}{'median B':>12}"
          f"{'worse by':>10}{'bound':>8}{'spread A':>10}{'spread B':>10}")
    for (name, metric), a_values in sets["A"].items():
        b_values = sets["B"][(name, metric)]
        a, b = statistics.median(a_values), statistics.median(b_values)
        worse = (b - a) / a if bounds[metric]["better"] == "lower" \
            else (a - b) / a
        bound = bounds[metric]["bound"]
        spread_a = e2e_stats.spread(a_values)
        spread_b = e2e_stats.spread(b_values)
        breach = abs(worse) > bound or (
            metric != "setup_s" and max(spread_a, spread_b) > bound)
        breaches += breach
        print(f"{name:24}{metric:17}{a:12.5g}{b:12.5g}{worse:10.4f}"
              f"{bound:8.2f}{spread_a:10.4f}{spread_b:10.4f}"
              f"{'  BREACH' if breach else ''}")
    print(f"selfcheck: {breaches} breach(es), {failed} failed repetition(s)")
    return 1 if breaches or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="3 repetitions of a 1 MiB object: a harness "
                             "smoke test, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run sets A and B interleaved and compare "
                             "them against the bounds")
    parser.add_argument("--runs", type=int, default=3,
                        help="full runs per set under --selfcheck")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(max(3, args.runs), args.seconds, args.quick)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.quick)
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())

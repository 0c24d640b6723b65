"""Command-line interface: fountain-transfer files, inspect and simulate codes.

The downstream-adoption surface of the library::

    # file in, packets on disk, file out: the file is cut into blocks,
    # each gets its own small code, and one striped packet stream
    # crosses a (simulated) lossy channel -- the code is any registry
    # spec string
    python -m repro send big.iso out/ --code tornado-b --loss 0.2
    python -m repro send big.iso out/ --code lt:c=0.05,delta=0.5
    python -m repro recv out/ recovered.iso

    # real delivery: spray UDP datagrams at receivers (unicast or a
    # multicast group), paced by a token bucket -- and fetch from the
    # other end (works across processes/hosts)
    python -m repro serve big.iso 127.0.0.1:9000 --pace 5000 --code lt
    python -m repro fetch 127.0.0.1:9000 recovered.iso --timeout 30

    python -m repro codes list        # every registered code spec
    python -m repro codes list --json # the same, machine-readable
    python -m repro codes cache-stats # build-cache hit/miss counters
    python -m repro info --k 1000     # a Tornado code's structure
    python -m repro lt info --k 1000  # a droplet stream's degrees
    python -m repro lt sim --k 1000 --trials 20   # reception overhead

    # population scale: simulate a declarative many-receiver scenario
    # (loss models, join/leave churn, rate tiers — see
    # examples/scenarios/) and report overhead percentiles
    python -m repro swarm run examples/scenarios/flash_crowd.json
    python -m repro swarm compare examples/scenarios/*.json --receivers 2000

Every subcommand builds its erasure code through the central registry
(:mod:`repro.codes.registry`).  There is one sender and one receiver
behind all four transfer commands: ``send``/``recv`` are thin shells
over :func:`repro.api.send_file` / :func:`repro.api.receive_stream`
(``stream.pkt`` + ``manifest.json`` in a directory), and
``serve``/``fetch`` drive the same
:class:`~repro.api.SenderSession` / :class:`~repro.api.ReceiverSession`
over real UDP sockets (:mod:`repro.net.transport.udp`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

import numpy as np

from repro import __version__
from repro.codes.lt import robust_soliton_spike
from repro.codes.registry import (
    REGISTRY,
    CodeSpec,
    build_code,
    collect_cache_stats,
)
from repro.errors import ReproError

MANIFEST_NAME = "manifest.json"


def _lt_spec(args: argparse.Namespace) -> CodeSpec:
    """The LT spec the ``lt`` subcommands' soliton flags describe."""
    return CodeSpec.make("lt", c=args.c, delta=args.delta)


def cmd_info(args: argparse.Namespace) -> int:
    code = build_code(f"tornado-{args.preset}", args.k, seed=args.seed)
    structure = code.structure
    print(f"tornado-{args.preset} k={code.k}: n={code.n}, "
          f"layers={structure.layer_sizes}, cap={structure.cap_size}, "
          f"edges={code.total_edges}, "
          f"avg left degree={code.average_left_degree:.2f}")
    return 0


def _family_rows() -> List[dict]:
    """One JSON-able row per registered family — the single source both
    the human table and ``codes list --json`` format from."""
    return [
        {
            "name": family.name,
            "summary": family.summary,
            "parameters": family.parameters(),
            "modes": list(family.modes),
            "rateless": family.rateless,
        }
        for family in REGISTRY
    ]


def cmd_codes_list(args: argparse.Namespace) -> int:
    """Print every registered code family, its parameters, and modes."""
    rows = _family_rows()
    if getattr(args, "json", False):
        print(json.dumps({"spec_syntax": "family or family:key=value,...",
                          "families": rows}, indent=2, sort_keys=True))
        return 0
    print(f"{len(rows)} registered code families "
          "(spec syntax: family or family:key=value,key=value)\n")
    for row in rows:
        params = row["parameters"]
        param_text = (", ".join(f"{name}={value!r}"
                                for name, value in sorted(params.items()))
                      if params else "(none)")
        print(f"{row['name']}")
        print(f"  {row['summary']}")
        print(f"  parameters: {param_text}")
        print(f"  delivery modes: {', '.join(row['modes'])}")
        print(f"  rateless: {'yes (no n)' if row['rateless'] else 'no'}")
        print()
    return 0


def cmd_codes_cache_stats(args: argparse.Namespace) -> int:
    """Print every registered build-cache's counters (hits/misses/...)."""
    stats = collect_cache_stats()
    if getattr(args, "json", False):
        print(json.dumps({"caches": stats}, indent=2, sort_keys=True))
        return 0
    if not stats:
        print("no build caches registered")
        return 0
    for name, counters in stats.items():
        print(name)
        for key, value in sorted(counters.items()):
            print(f"  {key}: {value}")
    return 0


def cmd_lt_sim(args: argparse.Namespace) -> int:
    code = build_code(_lt_spec(args), args.k, seed=args.seed)
    if args.pure_peeling:
        code.inactivation_limit = 0
    rng = np.random.default_rng(args.seed)
    needed = np.empty(args.trials, dtype=np.int64)
    for trial in range(args.trials):
        # A random droplet subset, as a receiver on a lossy channel (or
        # joining mid-stream) would collect it.
        ids = rng.permutation(8 * code.k)[:4 * code.k]
        needed[trial] = code.packets_to_decode(ids)
    overheads = needed / code.k - 1.0
    print(f"lt k={code.k} (c={args.c}, delta={args.delta}, "
          f"{'pure peeling' if args.pure_peeling else 'inactivation'}): "
          f"{args.trials} trials")
    print(f"  droplets to decode: mean {needed.mean():.1f}, "
          f"max {needed.max()}")
    print(f"  reception overhead: mean {overheads.mean():.4f}, "
          f"max {overheads.max():.4f}, std {overheads.std():.4f}")
    return 0


def cmd_send(args: argparse.Namespace) -> int:
    from repro import api

    report = api.send_file(
        args.input, args.output, code=args.code,
        loss=args.loss,
        packet_size=args.packet_size,
        block_size=args.block_size,
        schedule=args.schedule,
        seed=args.seed,
        loss_seed=args.loss_seed,
        extra=args.extra,
    )
    print(f"sent {report.serve.emitted} packets across a "
          f"{args.loss:.0%}-loss channel; {report.serve.delivered} "
          f"survivors in {report.out_dir / api.STREAM_NAME}")
    print(f"{report.code_spec} x {report.num_blocks} blocks, "
          f"schedule={report.schedule}, "
          f"reception overhead {report.reception_overhead:+.1%}")
    return 0


def cmd_recv(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import DecodeFailure, ProtocolError

    in_dir = pathlib.Path(args.input)
    if not (in_dir / MANIFEST_NAME).exists():
        print(f"error: no {MANIFEST_NAME} in {in_dir}", file=sys.stderr)
        return 2
    try:
        report = api.receive_stream(in_dir, args.output)
    except ProtocolError as exc:
        print(f"error: {in_dir} is not a transfer directory ({exc}) — "
              "`repro send` writes the ones `recv` reads", file=sys.stderr)
        return 2
    except DecodeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"reconstructed {report.file_name or args.output} "
          f"({report.file_size} bytes) from {report.stats.total_received} of "
          f"{report.packets_available} stream packets")
    print(f"{report.code_spec}: all blocks complete; reception overhead "
          f"{report.stats.reception_overhead:+.1%} "
          f"(eta={report.stats.efficiency:.3f})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import api
    from repro.net.transport import UdpTransport

    session = api.SenderSession.for_file(
        args.input, code=args.code,
        packet_size=args.packet_size,
        block_size=args.block_size,
        schedule=args.schedule, seed=args.seed)
    transport = UdpTransport(
        args.destination,
        pace=args.pace,
        loss=args.loss,
        seed=args.loss_seed,
        manifest_interval=args.manifest_interval,
    )
    if args.count is None and args.duration is None:
        print(f"serving {args.input} forever "
              f"({session.code_spec} x {session.num_blocks} blocks) — "
              "interrupt to stop", file=sys.stderr)
    options = {"count": args.count, "duration": args.duration}
    if args.adaptive:
        from repro.protocol.adaptive import AdaptivePolicy

        options["policy"] = AdaptivePolicy()
    try:
        report = session.serve(transport, **options)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("interrupted", file=sys.stderr)
        return 130
    dests = ", ".join(f"{h}:{p}" for h, p in transport.destinations)
    print(f"served {report.emitted} packets ({report.delivered} delivered, "
          f"{report.dropped} loss-injected) to {dests} "
          f"in {report.duration:.2f}s "
          f"({report.packets_per_second:,.0f} pkt/s; "
          f"{report.delivered / max(report.datagrams, 1):.1f} records "
          f"per datagram)")
    if args.adaptive:
        malformed = (f", {report.malformed_frames} malformed"
                     if report.malformed_frames else "")
        print(f"adaptive: {report.feedback_frames} receiver feedback "
              f"frames heard{malformed}")
    print(f"{session.code_spec} x {session.num_blocks} blocks, "
          f"schedule={session.schedule}, k={session.total_k}")
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import DecodeFailure, ProtocolError
    from repro.net.transport import UdpSubscription

    subscription = UdpSubscription(args.source, timeout=args.timeout)
    try:
        with subscription:
            session = api.ReceiverSession.from_subscription(
                subscription, timeout=args.timeout,
                report=True if args.report else None)
            subscription.feed(session, timeout=args.timeout)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not session.is_complete:
        print(f"error: stream ended after {session.packets_used} packets "
              f"with blocks {session.client.incomplete_blocks[:8]} "
              "incomplete", file=sys.stderr)
        return 1
    try:
        data = session.data()
    except DecodeFailure as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pathlib.Path(args.output).write_bytes(data)
    name = session.manifest.get("file_name", args.output)
    print(f"reconstructed {name} ({len(data)} bytes) from "
          f"{session.packets_used} packets over udp "
          f"({subscription.records_yielded / subscription.datagrams:.1f} "
          f"records per datagram heard)")
    print(f"{session.code_spec}: all blocks complete; reception overhead "
          f"{session.stats().reception_overhead:+.1%}")
    if args.report:
        print(f"reported: {subscription.feedback_sent} feedback frames "
              f"sent; {subscription.datagrams} datagrams seen, "
              f"{subscription.malformed} malformed, "
              f"{subscription.manifest_conflicts} conflicting manifests, "
              f"{session.rejected} records rejected")
    return 0


def _swarm_table(summary: dict):
    """One aggregate table: whole population first, then each group."""
    from repro.experiments.report import Table

    def pct(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:+.1%}"

    table = Table(
        title=f"swarm '{summary['scenario']}' — reception overhead",
        header=["group", "receivers", "complete", "p50", "p99"])
    table.add_row("(all)", summary["receivers"],
                  f"{summary['completion_rate']:.1%}",
                  pct(summary["overhead_p50"]), pct(summary["overhead_p99"]))
    for group in summary["groups"]:
        table.add_row(group["group"], group["receivers"],
                      f"{group['completion_rate']:.1%}",
                      pct(group["overhead_p50"]), pct(group["overhead_p99"]))
    return table


def _print_swarm_summary(summary: dict) -> None:
    from repro.experiments.report import render_table

    print(f"{summary['code']} x {summary['num_blocks']} blocks "
          f"(total_k={summary['total_k']}), "
          f"schedule={summary['schedule']}")
    print(f"simulated {summary['receivers']:,} receivers in "
          f"{summary['elapsed_seconds']:.1f}s "
          f"({summary['receivers_per_second']:,.0f} receivers/s)")
    if summary["completion_sweeps_p50"] is not None:
        print(f"completion: p50 {summary['completion_sweeps_p50']:.2f} "
              f"sweeps, p99 {summary['completion_sweeps_p99']:.2f} sweeps")
    print()
    print(render_table(_swarm_table(summary)))


def cmd_swarm_run(args: argparse.Namespace) -> int:
    from repro.sim.swarm import Scenario, run_scenario

    scenario = Scenario.load(args.scenario)
    if args.loss_preset is not None:
        scenario = scenario.with_loss(args.loss_preset)
    policy = None
    if args.adaptive:
        from repro.protocol.adaptive import AdaptivePolicy

        policy = AdaptivePolicy()
    result = run_scenario(scenario, workers=args.workers,
                          spot_check=args.spot_check,
                          receivers=args.receivers, policy=policy)
    summary = result.summary()
    _print_swarm_summary(summary)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote summary to {args.json_out}")
    if result.spot_check is not None:
        spot = result.spot_check
        verdict = "OK" if spot.agrees() else "DISAGREES"
        print(f"\nspot check ({spot.receiver_ids.size} exact replays): "
              f"structural {spot.structural_mean:+.4f} vs replay "
              f"{spot.replay_mean:+.4f} "
              f"(|diff| {spot.mean_difference:.4f}, paired p90 "
              f"{spot.paired_p90:+.4f}, noise scale "
              f"{spot.noise_scale:.4f}) {verdict}")
        if not spot.agrees():
            return 1
    return 0


def cmd_swarm_compare(args: argparse.Namespace) -> int:
    from repro.experiments.report import Table, render_table
    from repro.sim.swarm import run_scenario

    table = Table(
        title="swarm scenario comparison",
        header=["scenario", "code", "schedule", "receivers", "complete",
                "oh p50", "oh p99", "sweeps p50"])
    for path in args.scenarios:
        summary = run_scenario(path, workers=args.workers,
                               receivers=args.receivers).summary()
        sweeps = summary["completion_sweeps_p50"]
        table.add_row(
            summary["scenario"], summary["code"], summary["schedule"],
            summary["receivers"], f"{summary['completion_rate']:.1%}",
            "-" if summary["overhead_p50"] is None
            else f"{summary['overhead_p50']:+.1%}",
            "-" if summary["overhead_p99"] is None
            else f"{summary['overhead_p99']:+.1%}",
            "-" if sweeps is None else f"{sweeps:.2f}")
    print(render_table(table))
    return 0


def cmd_lt_info(args: argparse.Namespace) -> int:
    code = build_code(_lt_spec(args), args.k, seed=args.seed)
    spike = robust_soliton_spike(args.k, c=args.c, delta=args.delta)
    print(f"lt k={code.k}: rateless (no n), "
          f"avg droplet degree={code.average_degree:.2f}, "
          f"spike degree={spike}, "
          f"pmf support={len(code.degree_dist.degrees)} degrees")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Digital-fountain file transfer over erasure codes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a code's structure")
    info.add_argument("--preset", choices=("a", "b"), default="a")
    info.add_argument("--k", type=int, required=True)
    info.add_argument("--seed", type=int, default=2024)
    info.set_defaults(func=cmd_info)

    codes = sub.add_parser(
        "codes", help="inspect the code registry")
    codes_sub = codes.add_subparsers(dest="codes_command", required=True)
    codes_list = codes_sub.add_parser(
        "list", help="print registered code specs, parameters, and modes")
    codes_list.add_argument("--json", action="store_true",
                            help="machine-readable output (same rows as "
                                 "the human table)")
    codes_list.set_defaults(func=cmd_codes_list)
    codes_cache = codes_sub.add_parser(
        "cache-stats",
        help="print build-cache counters (raptor geometry+plan cache: "
             "hits, misses, evictions, fill)")
    codes_cache.add_argument("--json", action="store_true",
                             help="machine-readable output")
    codes_cache.set_defaults(func=cmd_codes_cache_stats)

    send = sub.add_parser(
        "send",
        help="block-segmented transfer: stream a file across a lossy "
             "channel into a packet stream file")
    send.add_argument("input", help="file to send")
    send.add_argument("output", help="directory for stream.pkt + manifest")
    send.add_argument("--code", default="tornado-b",
                      help="per-block code spec (see `repro codes list`), "
                           "e.g. tornado-b, lt, raptor:eps=0.05, rs")
    send.add_argument("--packet-size", type=int, default=1024)
    send.add_argument("--block-size", type=int, default=256 * 1024,
                      help="bytes per block (each block gets its own code)")
    send.add_argument("--schedule", default="interleave",
                      choices=("interleave", "sequential"),
                      help="cross-block striping order")
    send.add_argument("--loss", type=float, default=0.0,
                      help="Bernoulli loss rate of the simulated channel")
    send.add_argument("--loss-seed", type=int, default=None,
                      help="channel seed (defaults to --seed + 1)")
    send.add_argument("--extra", type=int, default=0,
                      help="surviving packets to record beyond the "
                           "decodable minimum (safety margin)")
    send.add_argument("--seed", type=int, default=2024)
    send.set_defaults(func=cmd_send)

    recv = sub.add_parser(
        "recv", help="reconstruct a file from a transfer stream directory")
    recv.add_argument("input", help="directory holding stream.pkt + manifest")
    recv.add_argument("output", help="path for the reconstructed file")
    recv.set_defaults(func=cmd_recv)

    serve = sub.add_parser(
        "serve",
        help="spray a file's packet stream as real UDP datagrams")
    serve.add_argument("input", help="file to serve")
    serve.add_argument("destination", nargs="+",
                       help="host:port destinations (unicast or multicast "
                            "group)")
    serve.add_argument("--code", default="tornado-b",
                       help="per-block code spec (see `repro codes list`)")
    serve.add_argument("--pace", type=float, default=None,
                       help="token-bucket rate in packets per second "
                            "(default: unpaced)")
    serve.add_argument("--loss", type=float, default=0.0,
                       help="injected Bernoulli loss rate (testing)")
    serve.add_argument("--loss-seed", type=int, default=None,
                       help="injected-loss RNG seed")
    serve.add_argument("--count", type=int, default=None,
                       help="stop after this many packets")
    serve.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds")
    serve.add_argument("--manifest-interval", type=int, default=64,
                       help="data packets between in-band manifest "
                            "frames")
    serve.add_argument("--adaptive", action="store_true",
                       help="listen for receiver feedback reports "
                            "and adapt pacing and block schedule "
                            "(receivers opt in with `fetch --report`)")
    serve.add_argument("--packet-size", type=int, default=1024)
    serve.add_argument("--block-size", type=int, default=256 * 1024)
    serve.add_argument("--schedule", default="interleave",
                       choices=("interleave", "sequential"))
    serve.add_argument("--seed", type=int, default=2024)
    serve.set_defaults(func=cmd_serve)

    fetch = sub.add_parser(
        "fetch",
        help="reconstruct a file from the UDP datagrams a `serve` sprays")
    fetch.add_argument("source",
                       help="host:port to listen on (a multicast group "
                            "address joins the group)")
    fetch.add_argument("output", help="path for the reconstructed file")
    fetch.add_argument("--timeout", type=float, default=10.0,
                       help="seconds of silence before giving up")
    fetch.add_argument("--report", action="store_true",
                       help="send periodic feedback reports (loss "
                            "estimate, lagging blocks) back to an "
                            "adaptive sender")
    fetch.set_defaults(func=cmd_fetch)

    swarm = sub.add_parser(
        "swarm",
        help="population-scale simulations from declarative scenario "
             "files (see examples/scenarios/)")
    swarm_sub = swarm.add_subparsers(dest="swarm_command", required=True)

    swarm_run = swarm_sub.add_parser(
        "run", help="simulate one scenario JSON file")
    swarm_run.add_argument("scenario", help="scenario JSON file")
    swarm_run.add_argument("--receivers", type=int, default=None,
                           help="rescale the population to this many "
                                "receivers (group proportions preserved)")
    swarm_run.add_argument("--workers", type=int, default=None,
                           help="fan the population out over N processes")
    swarm_run.add_argument("--spot-check", type=int, default=0,
                           help="validate against this many exact "
                                "TransferClient replays (exit 1 on "
                                "disagreement)")
    swarm_run.add_argument("--loss-preset", default=None,
                           help="override every group's loss process with "
                                "a named wireless preset (gprs-pedestrian, "
                                "gprs-vehicular, wireless-testbed)")
    swarm_run.add_argument("--adaptive", action="store_true",
                           help="run the closed loop: per-sweep feedback "
                                "aggregation drives the adaptive sender's "
                                "block schedule (single-process)")
    swarm_run.add_argument("--json", dest="json_out", default=None,
                           help="also write the summary to this JSON file")
    swarm_run.set_defaults(func=cmd_swarm_run)

    swarm_cmp = swarm_sub.add_parser(
        "compare", help="run several scenarios and tabulate side by side")
    swarm_cmp.add_argument("scenarios", nargs="+",
                           help="scenario JSON files")
    swarm_cmp.add_argument("--receivers", type=int, default=None,
                           help="rescale every population")
    swarm_cmp.add_argument("--workers", type=int, default=None)
    swarm_cmp.set_defaults(func=cmd_swarm_compare)

    lt = sub.add_parser(
        "lt", help="rateless (LT) droplet streams: describe and simulate")
    lt_sub = lt.add_subparsers(dest="lt_command", required=True)

    def _lt_soliton_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--c", type=float, default=0.03,
                       help="robust soliton ripple constant")
        p.add_argument("--delta", type=float, default=0.1,
                       help="robust soliton failure target")

    lt_sim = lt_sub.add_parser(
        "sim", help="simulate reception overhead (no payloads)")
    lt_sim.add_argument("--k", type=int, required=True)
    lt_sim.add_argument("--trials", type=int, default=20)
    lt_sim.add_argument("--pure-peeling", action="store_true",
                        help="disable the GF(2) inactivation fallback")
    _lt_soliton_flags(lt_sim)
    lt_sim.set_defaults(func=cmd_lt_sim)

    lt_info = lt_sub.add_parser("info", help="describe a droplet stream")
    lt_info.add_argument("--k", type=int, required=True)
    _lt_soliton_flags(lt_info)
    lt_info.set_defaults(func=cmd_lt_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

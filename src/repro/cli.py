"""Command-line interface: fountain-encode, decode, and transfer files.

The downstream-adoption surface of the library::

    python -m repro encode big.iso shards/ --preset b --seed 2024
    # ... ship any sufficiently large subset of shards/*.pkt ...
    python -m repro decode shards/ recovered.iso

    # rateless (LT): every shard is a fresh droplet, mint as many as
    # you like -- there is no n
    python -m repro lt encode big.iso shards/ --overhead 0.3
    python -m repro lt decode shards/ recovered.iso
    python -m repro lt sim --k 1000 --trials 20   # reception overhead

    # block-segmented bulk transfer: the file is cut into blocks, each
    # gets its own small code, and one striped packet stream crosses a
    # (simulated) lossy channel -- the code is any registry spec string
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

    # population scale: simulate a declarative many-receiver scenario
    # (loss models, join/leave churn, rate tiers — see
    # examples/scenarios/) and report overhead percentiles
    python -m repro swarm run examples/scenarios/flash_crowd.json
    python -m repro swarm compare examples/scenarios/*.json --receivers 2000

Every subcommand builds its erasure code through the central registry
(:mod:`repro.codes.registry`); ``send``/``recv`` are thin shells over
:func:`repro.api.send_file` / :func:`repro.api.receive_stream`, and
``serve``/``fetch`` drive the :mod:`repro.net.transport` layer
(``--transport udp`` or ``file``).

``encode`` writes one file per encoding packet (12-byte header + payload,
the paper's wire format) plus a tiny manifest; ``decode`` reads whatever
packet files survived and reconstructs the original, refusing cleanly
when too few are present.  ``decode`` dispatches on the manifest's
``code`` field, so ``repro decode`` also reconstructs LT shard
directories (``repro lt decode`` is the self-documenting alias).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import List, Optional

import numpy as np

from repro import __version__
from repro.codes.base import bytes_to_packets, packets_to_bytes
from repro.codes.lt import robust_soliton_spike
from repro.codes.registry import (
    REGISTRY,
    CodeSpec,
    build_code,
    collect_cache_stats,
)
from repro.errors import ReproError
from repro.fountain.packets import EncodingPacket, PacketHeader

MANIFEST_NAME = "manifest.json"
STREAM_NAME = "stream.pkt"


def _lt_spec(args: argparse.Namespace) -> CodeSpec:
    """The LT spec the ``lt`` subcommands' soliton flags describe."""
    return CodeSpec.make("lt", c=args.c, delta=args.delta)


def _write_shards(args: argparse.Namespace, payloads, count: int,
                  manifest: dict, decode_hint: int) -> None:
    """Write ``count`` packet shards plus the manifest; print the summary.

    ``payloads`` maps an encoding index to its payload row; the shard for
    index ``i`` is the paper's wire format (12-byte header + payload).
    """
    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        header = PacketHeader(index=index, serial=index, group=0)
        packet = EncodingPacket(header=header, payload=payloads(index))
        (out_dir / f"{index:06d}.pkt").write_bytes(packet.to_bytes())
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    print(f"wrote {count} packets ({args.packet_size} B payload) "
          f"and {MANIFEST_NAME} to {out_dir}/")
    print(f"any ~{decode_hint}+ of them reconstruct "
          f"{manifest['file_name']} ({manifest['file_size']} bytes)")


def cmd_encode(args: argparse.Namespace) -> int:
    data = pathlib.Path(args.input).read_bytes()
    source = bytes_to_packets(data, args.packet_size)
    code = build_code(f"tornado-{args.preset}", source.shape[0],
                      seed=args.seed)
    encoding = code.encode(source)
    manifest = {
        "version": __version__,
        "code": "tornado",
        "preset": args.preset,
        "seed": args.seed,
        "k": int(code.k),
        "n": int(code.n),
        "packet_size": args.packet_size,
        "file_size": len(data),
        "file_name": pathlib.Path(args.input).name,
    }
    _write_shards(args, lambda index: encoding[index], code.n, manifest,
                  decode_hint=int(1.05 * code.k))
    return 0


def _manifest_spec(manifest: dict) -> CodeSpec:
    """The registry spec a shard manifest's code fields describe."""
    family = manifest.get("code", "tornado")
    if family == "lt":
        return CodeSpec.make("lt", c=manifest.get("c", 0.03),
                             delta=manifest.get("delta", 0.1))
    if family == "tornado":
        return CodeSpec.parse(f"tornado-{manifest['preset']}")
    return CodeSpec.parse(family)


def cmd_decode(args: argparse.Namespace) -> int:
    in_dir = pathlib.Path(args.input)
    manifest_path = in_dir / MANIFEST_NAME
    if not manifest_path.exists():
        print(f"error: no {MANIFEST_NAME} in {in_dir}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("kind") == "transfer":
        print(f"error: {in_dir} is a block-segmented transfer directory — "
              "use `repro recv` to reconstruct it", file=sys.stderr)
        return 2
    code = build_code(_manifest_spec(manifest), manifest["k"],
                      seed=manifest["seed"])
    decoder = code.new_decoder(payload_size=manifest["packet_size"])
    used = 0
    for path in sorted(in_dir.glob("*.pkt")):
        packet = EncodingPacket.from_bytes(path.read_bytes())
        decoder.add_packet(packet.index, packet.payload)
        used += 1
        if decoder.is_complete:
            break
    if not decoder.is_complete:
        missing = code.k - decoder.source_known_count
        print(f"error: {used} packets were not enough "
              f"({missing} source packets unresolved) — "
              "supply more .pkt files", file=sys.stderr)
        return 1
    data = packets_to_bytes(decoder.source_data(), manifest["file_size"])
    pathlib.Path(args.output).write_bytes(data)
    print(f"reconstructed {manifest['file_name']} "
          f"({manifest['file_size']} bytes) from {used} packets "
          f"(overhead {used / manifest['k'] - 1:+.1%})")
    return 0


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


def cmd_lt_encode(args: argparse.Namespace) -> int:
    data = pathlib.Path(args.input).read_bytes()
    source = bytes_to_packets(data, args.packet_size)
    code = build_code(_lt_spec(args), source.shape[0], seed=args.seed)
    count = (args.droplets if args.droplets is not None
             else int(math.ceil((1 + args.overhead) * code.k)))
    if count < code.k:
        raise ReproError(
            f"{count} droplets cannot cover k={code.k} source packets; "
            "raise --droplets/--overhead")
    encoder = code.encoder(source)
    manifest = {
        "version": __version__,
        "code": "lt",
        "seed": args.seed,
        "c": args.c,
        "delta": args.delta,
        "k": int(code.k),
        "packet_size": args.packet_size,
        "file_size": len(data),
        "file_name": pathlib.Path(args.input).name,
    }
    _write_shards(args, encoder.droplet_payload, count, manifest,
                  decode_hint=int(1.1 * code.k))
    print("mint more droplets anytime by raising --droplets — "
          "the fountain has no n")
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
    print(f"sent {report.sent} packets across a {args.loss:.0%}-loss "
          f"channel; {report.survivors} survivors in "
          f"{report.out_dir / api.STREAM_NAME}")
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
    except ProtocolError:
        print(f"error: {in_dir} is not a transfer directory — "
              "use `repro decode` for shard directories", file=sys.stderr)
        return 2
    except DecodeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"reconstructed {report.file_name or args.output} "
          f"({report.file_size} bytes) from {report.packets_used} of "
          f"{report.packets_available} stream packets")
    print(f"{report.code_spec}: all blocks complete; reception overhead "
          f"{report.stats.reception_overhead:+.1%} "
          f"(eta={report.stats.efficiency:.3f})")
    return 0


def _serve_transport(args: argparse.Namespace):
    """The sender-side transport the serve flags describe."""
    from repro.net import transport as tx

    if args.transport == "udp":
        return tx.UdpTransport(
            args.destination,
            pace=args.pace,
            loss=args.loss,
            seed=args.loss_seed,
            manifest_interval=args.manifest_interval,
        )
    if args.transport == "file":
        if len(args.destination) != 1:
            raise ReproError(
                "file transport takes exactly one destination directory")
        return tx.FileTransport(args.destination[0], loss=args.loss,
                                seed=args.loss_seed)
    raise ReproError(
        f"transport {args.transport!r} is not servable from the CLI; "
        "use udp or file (memory is an in-process API transport)")


def _check_serve_flags(args: argparse.Namespace) -> None:
    """Reject flags the chosen transport would silently ignore."""
    if args.transport == "udp" and args.extra:
        raise ReproError("--extra only applies to --transport file")
    if args.transport == "file":
        for flag, value in (("--pace", args.pace),
                            ("--duration", args.duration)):
            if value is not None:
                raise ReproError(f"{flag} only applies to --transport udp")
        if args.manifest_interval != 64:
            raise ReproError(
                "--manifest-interval only applies to --transport udp")
        if args.adaptive:
            raise ReproError(
                "--adaptive only applies to --transport udp (a recorded "
                "stream has no feedback return path)")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import api

    _check_serve_flags(args)
    session = api.SenderSession.for_file(
        args.input, code=args.code,
        packet_size=args.packet_size,
        block_size=args.block_size,
        schedule=args.schedule, seed=args.seed)
    transport = _serve_transport(args)
    options = {}
    if args.transport == "udp":
        if args.count is None and args.duration is None:
            print(f"serving {args.input} forever "
                  f"({session.code_spec} x {session.num_blocks} blocks) — "
                  "interrupt to stop", file=sys.stderr)
        options = {"count": args.count, "duration": args.duration}
        if args.adaptive:
            from repro.protocol.adaptive import AdaptivePolicy

            options["policy"] = AdaptivePolicy()
    else:
        options = {"count": args.count, "extra": args.extra}
    try:
        report = session.serve(transport, **options)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("interrupted", file=sys.stderr)
        return 130
    dests = ", ".join(f"{h}:{p}" for h, p in transport.destinations) \
        if args.transport == "udp" else args.destination[0]
    print(f"served {report.emitted} packets ({report.delivered} delivered, "
          f"{report.dropped} loss-injected) to {dests} "
          f"in {report.duration:.2f}s "
          f"({report.packets_per_second:,.0f} pkt/s)")
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
    from repro.net import transport as tx

    if args.transport == "udp":
        subscription = tx.UdpSubscription(args.source,
                                          timeout=args.timeout)
    elif args.transport == "file":
        subscription = tx.FileTransport(args.source).subscribe()
    else:
        raise ReproError(
            f"transport {args.transport!r} is not fetchable from the CLI; "
            "use udp or file")
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
          f"{session.packets_used} packets over {args.transport}")
    print(f"{session.code_spec}: all blocks complete; reception overhead "
          f"{session.stats().reception_overhead:+.1%}")
    if args.report and args.transport == "udp":
        print(f"reported: {subscription.feedback_sent} feedback frames "
              f"sent; {subscription.datagrams} datagrams seen, "
              f"{subscription.malformed} malformed, "
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
              f"(|diff| {spot.mean_difference:.4f}, noise scale "
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
        description="Digital-fountain encode/decode (Tornado codes).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into packet shards")
    enc.add_argument("input", help="file to encode")
    enc.add_argument("output", help="directory for packet shards")
    enc.add_argument("--preset", choices=("a", "b"), default="b",
                     help="tornado-a (fast) or tornado-b (low overhead)")
    enc.add_argument("--packet-size", type=int, default=1024)
    enc.add_argument("--seed", type=int, default=2024)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct a file from shards")
    dec.add_argument("input", help="directory holding .pkt shards")
    dec.add_argument("output", help="path for the reconstructed file")
    dec.set_defaults(func=cmd_decode)

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
        help="spray a file's packet stream over a transport "
             "(real UDP datagrams, or a recorded stream directory)")
    serve.add_argument("input", help="file to serve")
    serve.add_argument("destination", nargs="+",
                       help="host:port destinations (unicast or multicast "
                            "group) for udp; one directory for file")
    serve.add_argument("--transport", default="udp",
                       choices=("udp", "file"),
                       help="delivery transport (default: udp)")
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
                       help="udp: stop after this many seconds")
    serve.add_argument("--extra", type=int, default=0,
                       help="file: extra survivors beyond the decodable "
                            "minimum")
    serve.add_argument("--manifest-interval", type=int, default=64,
                       help="udp: data packets between in-band manifest "
                            "frames")
    serve.add_argument("--adaptive", action="store_true",
                       help="udp: listen for receiver feedback reports "
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
        help="reconstruct a file from a transport subscription "
             "(listen on a UDP address, or read a stream directory)")
    fetch.add_argument("source",
                       help="host:port to listen on (multicast group "
                            "joins it) for udp; a directory for file")
    fetch.add_argument("output", help="path for the reconstructed file")
    fetch.add_argument("--transport", default="udp",
                       choices=("udp", "file"),
                       help="delivery transport (default: udp)")
    fetch.add_argument("--timeout", type=float, default=10.0,
                       help="udp: seconds of silence before giving up")
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
        "lt", help="rateless (LT) encode/decode/simulate — a true fountain")
    lt_sub = lt.add_subparsers(dest="lt_command", required=True)

    def _lt_soliton_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--c", type=float, default=0.03,
                       help="robust soliton ripple constant")
        p.add_argument("--delta", type=float, default=0.1,
                       help="robust soliton failure target")

    lt_enc = lt_sub.add_parser("encode",
                               help="mint droplet shards from a file")
    lt_enc.add_argument("input", help="file to encode")
    lt_enc.add_argument("output", help="directory for droplet shards")
    lt_enc.add_argument("--packet-size", type=int, default=1024)
    lt_enc.add_argument("--overhead", type=float, default=0.30,
                        help="mint (1+overhead)*k droplets")
    lt_enc.add_argument("--droplets", type=int, default=None,
                        help="explicit droplet count (overrides --overhead)")
    _lt_soliton_flags(lt_enc)
    lt_enc.set_defaults(func=cmd_lt_encode)

    lt_dec = lt_sub.add_parser("decode",
                               help="reconstruct a file from droplet shards")
    lt_dec.add_argument("input", help="directory holding .pkt shards")
    lt_dec.add_argument("output", help="path for the reconstructed file")
    lt_dec.set_defaults(func=cmd_decode)

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

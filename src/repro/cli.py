"""Command-line entry point: ``domo`` — simulate, reconstruct, compare.

Subcommands::

    domo simulate  --nodes 100 --duration 120 --seed 1
        Run a collection-network simulation and print trace statistics.
    domo estimate  --nodes 100 --seed 1
        Simulate, run Domo's estimated-value reconstruction, report error.
    domo compare   --nodes 100 --seed 1
        The Fig. 6 comparison: Domo vs MNT vs MessageTracing.
    domo faults    --nodes 16 --rates 0.1,0.3 --seed 7
        Seeded fault-injection campaign through the hardened pipeline.
    domo stream    trace.jsonl --lateness-ms 2000 [--follow]
        Incremental reconstruction over a JSON Lines packet stream
        (``-`` reads stdin; ``--follow`` tails a growing file).
    domo serve     --socket domo.sock [--port 7734]
        Multi-stream reconstruction service over unix/TCP sockets
        (newline-delimited records in, strict-JSON query replies out).
    domo route     --shards 3 --state-dir tier/ --socket domo.sock
        Sharded serve tier: consistent-hash router over N supervised
        shard processes with live stream migration (MIGRATE/DRAIN).

Operational errors — a missing, truncated or non-JSON trace file —
print a one-line message and exit with code 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__

from repro.analysis.experiments import (
    evaluate_accuracy,
    evaluate_bounds,
    evaluate_displacement,
)
from repro.analysis.scenarios import paper_scenario
from repro.analysis.tables import format_stats_table
from repro.backends import DEFAULT_BACKEND, available_backends, backend_names
from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.obs.spans import span
from repro.sim import simulate_network


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds")
    parser.add_argument("--period", type=float, default=8.0,
                        help="per-node generation period, seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=str, default=None,
                        help="load a saved trace instead of simulating")
    parser.add_argument("--save-trace", type=str, default=None,
                        help="save the (simulated) trace to this path")
    parser.add_argument(
        "--validate", choices=("off", "strict", "repair", "drop"),
        default="repair",
        help="trace-ingestion validation mode (default: repair — "
             "quarantine impossible records, distrust suspect S(p) fields)")


def _scenario(args):
    return paper_scenario(
        num_nodes=args.nodes,
        seed=args.seed,
        duration_ms=args.duration * 1000.0,
        packet_period_ms=args.period * 1000.0,
    )


def _validation_config(args):
    from repro.core.validation import ValidationConfig

    return ValidationConfig(mode=getattr(args, "validate", "repair"))


def _obtain_trace(args):
    """Load the trace from disk or simulate it, honoring --save-trace."""
    from repro.sim.io import load_trace, save_trace

    if args.trace:
        trace = load_trace(args.trace, validation=_validation_config(args))
        report = trace.validation_report
        if report is not None and not report.clean:
            summary = report.as_dict()
            print(
                f"validation: {summary['quarantined_packets']} quarantined, "
                f"{summary['distrusted_sums']} distrusted, "
                f"{summary['malformed_records']} malformed records dropped",
                file=sys.stderr,
            )
    else:
        trace = simulate_network(_scenario(args))
    if args.save_trace:
        save_trace(trace, args.save_trace)
    return trace


def _cmd_simulate(args) -> int:
    trace = _obtain_trace(args)
    if args.save_stream:
        from repro.sim.io import save_packets_jsonl

        written = save_packets_jsonl(
            trace.received, args.save_stream, sort_by_arrival=True
        )
        print(f"stream records   : {written} -> {args.save_stream}",
              file=sys.stderr)
    delays = []
    hops = []
    for p in trace.received:
        truth = trace.truth_of(p.packet_id)
        delays.extend(truth.node_delays())
        hops.append(p.path_length - 1)
    print(f"received packets : {trace.num_received}")
    print(f"lost packets     : {len(trace.lost_packets)}")
    print(f"delivery ratio   : {trace.delivery_ratio:.3f}")
    print(f"mean path length : {np.mean(hops):.2f} hops")
    print(f"mean node delay  : {np.mean(delays):.2f} ms")
    print(f"p95 node delay   : {np.percentile(delays, 95):.2f} ms")
    return 0


def _domo_config(args) -> DomoConfig:
    """DomoConfig honoring --workers, --validate, and --backend knobs."""
    workers = getattr(args, "workers", None)
    return DomoConfig(
        parallel=workers is not None and workers > 1,
        max_workers=workers,
        validation=_validation_config(args),
        backend=getattr(args, "backend", None) or DEFAULT_BACKEND,
    )


def _cli_config(args) -> dict:
    """The parsed arguments as a plain dict, for the RunReport config."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "handler"
    }


def _run_with_metrics(args, command: str, body) -> int:
    """Run a command body, honoring ``--metrics-out``.

    ``body`` returns ``(exit_code, stats_dict)``. Without --metrics-out it
    just runs (its spans land in the process-default registry and are
    discarded). With it, the body runs under an isolated registry and a
    root ``run`` span, and a ``domo.run_report/1`` JSON is written.
    """
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        code, _ = body()
        return code
    from repro.obs.registry import isolated_registry
    from repro.obs.report import build_run_report, write_run_report

    with isolated_registry() as registry:
        with span("run"):
            code, stats = body()
        report = build_run_report(
            command,
            argv=list(sys.argv[1:]),
            config=_cli_config(args),
            stats=stats,
            registry=registry,
        )
    write_run_report(metrics_out, report)
    print(f"metrics report        : {metrics_out}", file=sys.stderr)
    return code


def _format_backends() -> str:
    """One line per registered estimator backend."""
    lines = []
    for name, backend in available_backends().items():
        default = "  (default)" if name == DEFAULT_BACKEND else ""
        relaxation = str(backend.supports_relaxation).lower()
        lines.append(f"{name:16s} relaxation={relaxation}{default}")
    return "\n".join(lines)


def _cmd_estimate(args) -> int:
    from repro.obs.solver_telemetry import format_telemetry_report

    if args.list_backends:
        print(_format_backends())
        return 0

    def body() -> tuple[int, dict]:
        with span("setup"):
            trace = _obtain_trace(args)
        domo = DomoReconstructor(_domo_config(args))
        with span("estimate"):
            estimate = domo.estimate(trace)
        with span("score"):
            errors = []
            for p in trace.received:
                truth = trace.truth_of(p.packet_id).node_delays()
                errors.extend(
                    abs(a - b)
                    for a, b in zip(estimate.delays_of(p.packet_id), truth)
                )
        print(f"reconstructed delays : {len(errors)}")
        print(f"mean error           : {np.mean(errors):.3f} ms")
        print(f"fraction < 4 ms      : {np.mean(np.asarray(errors) < 4):.2f}")
        print(f"time per delay       : {estimate.time_per_delay_ms:.2f} ms")
        if args.solver_stats:
            print()
            print("solver telemetry")
            print(format_telemetry_report(estimate.stats))
        stats = dict(estimate.stats)
        stats.update(
            reconstructed_delays=len(errors),
            mean_error_ms=float(np.mean(errors)) if errors else 0.0,
            windows_used=estimate.windows_used,
            solve_time_s=estimate.solve_time_s,
        )
        return 0, stats

    return _run_with_metrics(args, "estimate", body)


def _cmd_compare(args) -> int:
    trace = _obtain_trace(args)
    accuracy = evaluate_accuracy(trace)
    print(format_stats_table(
        [("Domo", accuracy.domo), ("MNT", accuracy.mnt)],
        value_label="estimation error (ms)",
        thresholds=(4.0,),
    ))
    bounds = evaluate_bounds(trace, max_packets=args.bound_packets)
    print()
    print(format_stats_table(
        [("Domo", bounds.domo), ("MNT", bounds.mnt)],
        value_label="delay bound width (ms)",
    ))
    displacement = evaluate_displacement(trace)
    print()
    print(format_stats_table(
        [
            ("Domo", displacement.domo),
            ("MessageTracing", displacement.message_tracing),
        ],
        value_label="event displacement",
    ))
    return 0


def _cmd_report(args) -> int:
    if args.metrics_json:
        return _cmd_report_metrics(args)
    from repro.analysis.report import generate_report

    trace = _obtain_trace(args)
    print(generate_report(trace))
    return 0


def _cmd_report_metrics(args) -> int:
    """Pretty-print (and optionally gate) a ``--metrics-out`` JSON file."""
    import json

    from repro.obs.report import format_run_report, validate_report

    with open(args.metrics_json, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    problems = validate_report(data)
    print(format_run_report(data))
    for problem in problems:
        print(f"schema problem: {problem}", file=sys.stderr)
    if args.check is not None:
        coverage = data.get("span_coverage")
        covered = isinstance(coverage, (int, float)) and coverage >= args.check
        if problems or not covered:
            print(
                f"check failed: coverage={coverage} "
                f"(threshold {args.check}), {len(problems)} schema "
                f"problem(s)",
                file=sys.stderr,
            )
            return 1
        print(f"check passed: coverage={coverage:.4f}", file=sys.stderr)
    return 0 if not problems else 1


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rates must be comma-separated numbers, got {text!r}"
        ) from None
    if not rates or not all(0.0 <= r <= 1.0 for r in rates):
        raise argparse.ArgumentTypeError(
            f"rates must lie in [0, 1], got {text!r}"
        )
    return rates


def _cmd_faults(args) -> int:
    from repro.faults import (
        DEFAULT_INJECTORS,
        format_campaign_table,
        make_injector,
        run_campaign,
    )

    def body() -> tuple[int, dict]:
        with span("setup"):
            trace = _obtain_trace(args)
        if args.kinds:
            injectors = [
                make_injector(kind.strip()) for kind in args.kinds.split(",")
            ]
        else:
            injectors = list(DEFAULT_INJECTORS)
        with span("campaign"):
            result = run_campaign(
                trace,
                injectors=injectors,
                rates=args.rates,
                seed=args.seed,
                config=_domo_config(args),
            )
        print(format_campaign_table(result))
        stats = {
            "cells": len(result.cells),
            "failures": len(result.failures),
            "undetected": len(result.undetected()),
            "baseline_error_ms": result.baseline_error_ms,
            "rates": list(args.rates),
        }
        return (0 if result.clean else 1), stats

    return _run_with_metrics(args, "faults", body)


def _follow_lines(
    handle, poll_interval: float, idle_timeout: float, sleep=None
):
    """Tail a growing file: yield complete lines, polling on EOF.

    Splits raw chunks on newlines itself rather than trusting
    ``readline``: at EOF ``readline`` returns whatever partial text the
    producer has written so far, and a record cut mid-write must be
    buffered until its newline lands — not parsed as a truncated (and
    therefore corrupt) record. A final *unterminated* line is yielded
    only once the idle timeout expires, so a producer that never wrote
    the last newline still gets its record processed instead of lost.
    ``sleep`` is injectable for tests.
    """
    import time

    if sleep is None:
        sleep = time.sleep
    buffer = ""
    idle = 0.0
    while True:
        chunk = handle.read(65536)
        if chunk:
            idle = 0.0
            buffer += chunk
            while True:
                cut = buffer.find("\n")
                if cut < 0:
                    break
                yield buffer[: cut + 1]
                buffer = buffer[cut + 1:]
            continue
        if idle >= idle_timeout:
            if buffer:
                yield buffer
            return
        sleep(poll_interval)
        idle += poll_interval


def _read_chunks(chunks):
    """Pull chunks one at a time, charging read/parse time to a span.

    The explicit ``next()`` keeps the file I/O and JSON decoding of each
    chunk inside ``span("read")`` while the downstream ingest/poll work
    is charged to the engine's own spans.
    """
    iterator = iter(chunks)
    while True:
        with span("read"):
            chunk = next(iterator, None)
        if chunk is None:
            return
        yield chunk


def _cmd_stream(args) -> int:
    from dataclasses import replace

    from repro.sim.io import read_packets_jsonl_chunks
    from repro.stream import StreamingReconstructor, format_stream_report

    config = _domo_config(args)
    if args.window_span_ms is not None:
        config = replace(config, window_span_ms=args.window_span_ms)

    def body() -> tuple[int, dict]:
        committed_windows = 0
        committed_estimates = 0

        def consume(batch) -> None:
            nonlocal committed_windows, committed_estimates
            for cw in batch:
                committed_windows += 1
                committed_estimates += cw.num_estimates
                if args.verbose:
                    print(
                        f"window {cw.solve_index:4d} committed: "
                        f"{cw.num_estimates} estimates, "
                        f"seal->commit {1e3 * cw.seal_to_commit_s:.1f} ms",
                        file=sys.stderr,
                    )

        with StreamingReconstructor(
            config, lateness_ms=args.lateness_ms
        ) as engine:
            # A producer killed mid-write leaves a torn final line; every
            # mode except strict skips it and counts it in the report.
            tail_kwargs = dict(
                tolerate_truncated_tail=args.validate != "strict",
                report=engine.report,
            )
            try:
                if args.path == "-":
                    chunks = read_packets_jsonl_chunks(
                        sys.stdin, args.chunk, **tail_kwargs
                    )
                    for chunk in _read_chunks(chunks):
                        engine.ingest(chunk)
                        consume(engine.poll())
                elif args.follow:
                    # Tailing reads whatever text appears after EOF, which
                    # is meaningless inside a gzip stream — reject up front
                    # instead of yielding UnicodeDecodeError garbage. (The
                    # non-follow path is gzip-aware via iter_packets_jsonl.)
                    if args.path.endswith(".gz"):
                        raise ValueError(
                            "--follow cannot tail a gzip-compressed file; "
                            "decompress it or drop --follow"
                        )
                    with open(args.path, "r", encoding="utf-8") as handle:
                        lines = _follow_lines(
                            handle, args.poll_interval, args.idle_timeout
                        )
                        chunks = read_packets_jsonl_chunks(
                            lines, args.chunk, **tail_kwargs
                        )
                        for chunk in _read_chunks(chunks):
                            engine.ingest(chunk)
                            consume(engine.poll())
                else:
                    chunks = read_packets_jsonl_chunks(
                        args.path, args.chunk, **tail_kwargs
                    )
                    for chunk in _read_chunks(chunks):
                        engine.ingest(chunk)
                        consume(engine.poll())
            except KeyboardInterrupt:
                print("interrupted: flushing open windows", file=sys.stderr)
            consume(engine.flush())
            telemetry = engine.telemetry
            stats = engine.stats()

        print(f"committed windows     : {committed_windows}")
        print(f"committed estimates   : {committed_estimates}")
        print(format_stream_report(telemetry))
        stats.update(
            committed_windows=committed_windows,
            committed_estimates=committed_estimates,
        )
        return 0, stats

    return _run_with_metrics(args, "stream", body)


def _free_port(host: str) -> int:
    """Bind-and-release a TCP port so ``--port 0`` resolves *before* the
    first supervised spawn — every restarted child rebinds the same
    address and clients can reconnect without rediscovery."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _serve_child_argv(args, *, port) -> list[str]:
    """The child command line for ``--supervise``: the same serve
    invocation, minus ``--supervise`` itself, with the port pinned."""
    argv = [sys.executable, "-m", "repro.cli", "serve"]
    if args.socket is not None:
        argv += ["--socket", args.socket]
    if port is not None:
        argv += ["--host", args.host, "--port", str(port)]
    argv += [
        "--max-sessions", str(args.max_sessions),
        "--lateness-ms", str(args.lateness_ms),
        "--chunk", str(args.chunk),
        "--queue-capacity", str(args.queue_capacity),
        "--validate", args.validate,
        "--adoption-grace-ms", str(args.adoption_grace_ms),
        "--max-line-bytes", str(args.max_line_bytes),
    ]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if getattr(args, "backend", None):
        argv += ["--backend", args.backend]
    if args.wal_dir is not None:
        argv += [
            "--wal-dir", args.wal_dir,
            "--fsync", args.fsync,
            "--snapshot-interval", str(args.snapshot_interval),
        ]
    if args.metrics_out:
        argv += ["--metrics-out", args.metrics_out]
    return argv


def _cmd_serve_supervised(args) -> int:
    from repro.serve.durability.supervisor import CrashLoopError, Supervisor

    port = args.port
    if port == 0:
        port = _free_port(args.host)
        print(f"supervisor: resolved --port 0 to {port}", file=sys.stderr)
    supervisor = Supervisor(
        _serve_child_argv(args, port=port),
        max_restarts=args.max_restarts,
        backoff_s=args.backoff_ms / 1000.0,
    )
    try:
        return supervisor.run()
    except CrashLoopError as exc:
        print(f"domo serve: CrashLoopError: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.durability import DurabilityConfig, WalCorruptionError
    from repro.serve.durability.recovery import RecoveryError
    from repro.serve.server import ReconstructionServer

    if args.socket is None and args.port is None:
        raise ValueError("domo serve needs --socket and/or --port")
    if args.supervise:
        return _cmd_serve_supervised(args)

    durability = None
    if args.wal_dir is not None:
        from pathlib import Path

        durability = DurabilityConfig(
            wal_dir=Path(args.wal_dir),
            fsync=args.fsync,
            snapshot_interval=args.snapshot_interval,
        )

    def on_ready(server) -> None:
        for endpoint in server.endpoints:
            print(f"serving on {endpoint}", file=sys.stderr)

    server = ReconstructionServer(
        _domo_config(args),
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        lateness_ms=args.lateness_ms,
        chunk=args.chunk,
        queue_capacity=args.queue_capacity,
        metrics_out=args.metrics_out,
        argv=list(sys.argv[1:]),
        on_ready=on_ready,
        durability=durability,
        adoption_grace_s=args.adoption_grace_ms / 1000.0,
        max_line_bytes=args.max_line_bytes,
    )
    # The server wraps itself in an isolated registry + root "run" span
    # and writes its own RunReport at drain, so no _run_with_metrics.
    try:
        report = asyncio.run(server.run())
    except (WalCorruptionError, RecoveryError) as exc:
        # Keep the exception's name in the one-line error: a supervisor
        # breaker tripping on repeated boot failures carries this stderr
        # tail, and "WalCorruptionError: ..." tells the operator what to
        # fix where a bare message would not.
        print(
            f"domo: error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 2
    stats = report.stats
    print(
        f"drained: {stats.get('sessions', 0)} session(s), "
        f"{stats.get('server', {}).get('records_accepted', 0)} record(s) "
        f"accepted",
        file=sys.stderr,
    )
    if args.metrics_out:
        print(f"metrics report        : {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_route(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve.protocol import MAX_ADMIN_LINE_BYTES
    from repro.serve.router import RouterServer, ShardSpec

    if args.socket is None and args.port is None:
        raise ValueError("domo route needs --socket and/or --port")
    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i in range(args.shards):
        name = f"shard-{i}"
        shard_dir = state_dir / name
        shard_dir.mkdir(parents=True, exist_ok=True)
        shard_socket = str(state_dir / f"{name}.sock")
        metrics_path = str(shard_dir / "report.json")
        shard_argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", shard_socket,
            "--wal-dir", str(shard_dir / "wal"),
            "--fsync", args.fsync,
            "--snapshot-interval", str(args.snapshot_interval),
            "--max-sessions", str(args.max_sessions),
            "--lateness-ms", str(args.lateness_ms),
            "--chunk", str(args.chunk),
            "--queue-capacity", str(args.queue_capacity),
            "--validate", args.validate,
            "--adoption-grace-ms", str(args.adoption_grace_ms),
            # IMPORT lines carry a whole exported stream; the socket is
            # internal, so the hostile-client line cap does not apply.
            "--max-line-bytes", str(MAX_ADMIN_LINE_BYTES),
            "--metrics-out", metrics_path,
        ]
        if args.workers is not None:
            shard_argv += ["--workers", str(args.workers)]
        if getattr(args, "backend", None):
            shard_argv += ["--backend", args.backend]
        specs.append(
            ShardSpec(
                name, shard_socket, argv=shard_argv,
                metrics_path=metrics_path,
            )
        )

    def on_ready(router) -> None:
        for endpoint in router.endpoints:
            print(
                f"routing on {endpoint} over {args.shards} shard(s)",
                file=sys.stderr,
            )

    router = RouterServer(
        specs,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        state_dir=str(state_dir),
        failover_deadline_s=args.failover_deadline_ms / 1000.0,
        supervisor_max_restarts=args.max_restarts,
        supervisor_backoff_s=args.backoff_ms / 1000.0,
        metrics_out=args.metrics_out,
        argv=list(sys.argv[1:]),
        on_ready=on_ready,
    )
    # Like serve, the router wraps itself in an isolated registry and a
    # root "run" span and writes its own (tier-wide) RunReport at drain.
    report = asyncio.run(router.run())
    stats = report.stats["router"]
    print(
        f"router drained: {stats['streams']} stream(s), "
        f"{stats['records_accepted']} record(s) forwarded, "
        f"{stats['migrations']} migration(s)",
        file=sys.stderr,
    )
    if args.metrics_out:
        print(f"metrics report        : {args.metrics_out}", file=sys.stderr)
    return 0


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", type=str, default=None, choices=backend_names(),
        metavar="NAME",
        help="estimator backend (default %s); list them with "
             "'domo estimate --list-backends'" % DEFAULT_BACKEND,
    )


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write a machine-readable run report (counters, histograms, "
             "stage trace; schema domo.run_report/1) to this JSON file; "
             "inspect it with 'domo report PATH'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domo",
        description="Domo delay tomography (ICDCS'14) reproduction",
    )
    parser.add_argument(
        "--version", action="version",
        version=(
            f"domo {__version__}\n"
            f"backends: {', '.join(backend_names())} "
            f"(default {DEFAULT_BACKEND})"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run the simulator")
    _add_scenario_arguments(simulate)
    simulate.add_argument(
        "--save-stream", type=str, default=None,
        help="also write the received packets as JSON Lines in "
             "sink-arrival order (the input format of 'domo stream')",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    estimate = commands.add_parser("estimate", help="Domo estimation demo")
    _add_scenario_arguments(estimate)
    estimate.add_argument(
        "--workers", type=_positive_int, default=None,
        help="solve windows on a process pool with this many workers "
             "(>1 enables parallel execution; results are identical)",
    )
    estimate.add_argument(
        "--solver-stats", action="store_true",
        help="print per-run solver telemetry (iterations, residuals, "
             "window timings, status tally)",
    )
    _add_backend_argument(estimate)
    estimate.add_argument(
        "--list-backends", action="store_true",
        help="list the registered estimator backends and exit",
    )
    _add_metrics_out(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    compare = commands.add_parser("compare", help="Domo vs MNT vs MsgTracing")
    _add_scenario_arguments(compare)
    compare.add_argument("--bound-packets", type=int, default=100,
                         help="packets whose bounds are LP-solved")
    compare.set_defaults(handler=_cmd_compare)

    report = commands.add_parser(
        "report",
        help="operator-style diagnostic report, or pretty-print a "
             "--metrics-out JSON file",
    )
    _add_scenario_arguments(report)
    report.add_argument(
        "metrics_json", nargs="?", default=None,
        help="a run-report JSON written by --metrics-out; when given, "
             "pretty-print it instead of generating a trace diagnostic")
    report.add_argument(
        "--check", type=float, default=None, metavar="COVERAGE",
        help="with a metrics JSON: exit 1 unless the report is "
             "schema-valid and its span coverage is >= this fraction "
             "(e.g. 0.95); for CI gating")
    report.set_defaults(handler=_cmd_report)

    faults = commands.add_parser(
        "faults", help="seeded fault-injection campaign"
    )
    _add_scenario_arguments(faults)
    faults.add_argument(
        "--rates", type=_parse_rates, default=(0.1, 0.2, 0.3),
        help="comma-separated fault rates (default 0.1,0.2,0.3)")
    faults.add_argument(
        "--kinds", type=str, default=None,
        help="comma-separated injector kinds (default: all)")
    _add_metrics_out(faults)
    faults.set_defaults(handler=_cmd_faults)

    stream = commands.add_parser(
        "stream",
        help="incremental reconstruction over a JSON Lines packet stream",
    )
    stream.add_argument(
        "path", type=str,
        help="JSONL trace ('domo simulate --save-stream'); '-' reads stdin")
    stream.add_argument(
        "--lateness-ms", type=float, default=5_000.0,
        help="watermark allowance for out-of-order arrivals before a "
             "window seals (default 5000; 'inf' defers all work to the "
             "end-of-stream flush)")
    stream.add_argument(
        "--follow", action="store_true",
        help="keep tailing the file for new records instead of stopping "
             "at end-of-file")
    stream.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between polls of a followed file (default 0.5)")
    stream.add_argument(
        "--idle-timeout", type=float, default=10.0,
        help="stop following after this many idle seconds (default 10)")
    stream.add_argument(
        "--chunk", type=_positive_int, default=256,
        help="packets per ingest call (default 256)")
    stream.add_argument(
        "--window-span-ms", type=float, default=None,
        help="explicit window span; default: auto from packet density")
    stream.add_argument(
        "--workers", type=_positive_int, default=None,
        help="solve sealed windows on a process pool with this many "
             "workers (>1 enables parallel execution)")
    stream.add_argument(
        "--validate", choices=("off", "strict", "repair", "drop"),
        default="repair",
        help="trace-ingestion validation mode (default: repair); strict "
             "also refuses a truncated final JSONL line instead of "
             "skipping and counting it")
    stream.add_argument(
        "--verbose", action="store_true",
        help="log each window commit to stderr as it happens")
    _add_backend_argument(stream)
    _add_metrics_out(stream)
    stream.set_defaults(handler=_cmd_stream)

    serve = commands.add_parser(
        "serve",
        help="multi-stream reconstruction service over unix/TCP sockets",
    )
    serve.add_argument(
        "--socket", type=str, default=None, metavar="PATH",
        help="listen on this unix-domain socket")
    serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="listen on this TCP port (0 picks a free one)")
    serve.add_argument(
        "--max-sessions", type=_positive_int, default=64,
        help="admission limit on concurrently active streams "
             "(default 64); excess streams get a clean error line")
    serve.add_argument(
        "--workers", type=_positive_int, default=None,
        help="solve sealed windows on a shared process pool with this "
             "many workers (>1 enables parallel execution)")
    serve.add_argument(
        "--lateness-ms", type=float, default=float("inf"),
        help="watermark allowance per stream (default 'inf': all "
             "sealing deferred to FLUSH/shutdown, making served results "
             "bit-identical to 'domo estimate' for any interleaving)")
    serve.add_argument(
        "--chunk", type=_positive_int, default=256,
        help="max records per engine ingest call (default 256)")
    serve.add_argument(
        "--queue-capacity", type=_positive_int, default=1024,
        help="per-stream ingest queue bound; a full queue pauses that "
             "connection's reader (backpressure) instead of buffering "
             "without bound (default 1024)")
    serve.add_argument(
        "--validate", choices=("off", "strict", "repair", "drop"),
        default="repair",
        help="ingest validation mode for every stream (default: repair)")
    serve.add_argument(
        "--wal-dir", type=str, default=None, metavar="DIR",
        help="enable durability: write-ahead-log every ingest batch "
             "under this directory and snapshot engine state, so a "
             "killed server recovers every acknowledged record on "
             "restart (one subdirectory per stream)")
    serve.add_argument(
        "--fsync", choices=("always", "interval", "never"),
        default="interval",
        help="WAL fsync policy (default interval: bounded-loss batching "
             "of disk syncs; 'always' syncs every append; 'never' "
             "still survives process death, not power loss)")
    serve.add_argument(
        "--snapshot-interval", type=int, default=256, metavar="N",
        help="snapshot a stream's engine state every N WAL records so "
             "recovery replays at most N records (default 256; 0 "
             "disables periodic snapshots — recovery replays the "
             "whole WAL)")
    serve.add_argument(
        "--adoption-grace-ms", type=float, default=250.0, metavar="MS",
        help="how long a drained stream stays queryable for adoption "
             "by a new connection before eviction (default 250)")
    serve.add_argument(
        "--max-line-bytes", type=_positive_int, default=1 << 20,
        metavar="N",
        help="per-connection readline limit (default 1 MiB); a router "
             "raises this on its internal shard sockets so IMPORT "
             "lines carrying a whole exported stream fit")
    serve.add_argument(
        "--supervise", action="store_true",
        help="run the server in a supervised child process: restart it "
             "on crash with exponential backoff, give up with a named "
             "CrashLoopError when it keeps dying at boot (e.g. a "
             "corrupt WAL)")
    serve.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="with --supervise: consecutive fast failures tolerated "
             "before the crash-loop breaker trips (default 5)")
    serve.add_argument(
        "--backoff-ms", type=float, default=200.0, metavar="MS",
        help="with --supervise: base restart delay, doubled per "
             "consecutive fast failure (default 200)")
    _add_backend_argument(serve)
    _add_metrics_out(serve)
    serve.set_defaults(handler=_cmd_serve)

    route = commands.add_parser(
        "route",
        help="sharded serve tier: consistent-hash router over N "
             "supervised shard processes",
    )
    route.add_argument(
        "--shards", type=_positive_int, default=2, metavar="N",
        help="number of shard processes to spawn (default 2), each a "
             "full durable reconstruction server with its own WAL dir")
    route.add_argument(
        "--state-dir", type=str, required=True, metavar="DIR",
        help="tier state root: per-shard sockets, WAL dirs, shutdown "
             "reports, and the router's routing.json live here")
    route.add_argument(
        "--socket", type=str, default=None, metavar="PATH",
        help="client-facing unix-domain socket")
    route.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="client-facing TCP bind address (default 127.0.0.1)")
    route.add_argument(
        "--port", type=int, default=None,
        help="client-facing TCP port (0 picks a free one)")
    route.add_argument(
        "--replicas", type=_positive_int, default=64, metavar="N",
        help="virtual points per shard on the consistent-hash ring "
             "(default 64)")
    route.add_argument(
        "--failover-deadline-ms", type=float, default=15000.0,
        metavar="MS",
        help="total ceiling on one shard failover (reconnect dials + "
             "backoff), bounding the client-visible stall (default "
             "15000)")
    route.add_argument(
        "--max-sessions", type=_positive_int, default=64,
        help="per-shard admission limit on active streams (default 64)")
    route.add_argument(
        "--workers", type=_positive_int, default=None,
        help="per-shard solver pool workers (>1 enables parallel "
             "execution inside each shard)")
    route.add_argument(
        "--lateness-ms", type=float, default=float("inf"),
        help="per-stream watermark allowance (default 'inf': sealing "
             "deferred to FLUSH/shutdown for bit-parity with "
             "'domo estimate')")
    route.add_argument(
        "--chunk", type=_positive_int, default=256,
        help="per-shard max records per engine ingest call (default 256)")
    route.add_argument(
        "--queue-capacity", type=_positive_int, default=1024,
        help="per-stream ingest queue bound on each shard (default 1024)")
    route.add_argument(
        "--validate", choices=("off", "strict", "repair", "drop"),
        default="repair",
        help="ingest validation mode for every stream (default: repair)")
    route.add_argument(
        "--fsync", choices=("always", "interval", "never"),
        default="interval",
        help="shard WAL fsync policy (default interval)")
    route.add_argument(
        "--snapshot-interval", type=int, default=256, metavar="N",
        help="shard snapshot cadence in WAL records (default 256)")
    route.add_argument(
        "--adoption-grace-ms", type=float, default=250.0, metavar="MS",
        help="shard-side eviction grace for orphaned streams "
             "(default 250)")
    route.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="per-shard crash-loop breaker: consecutive fast failures "
             "tolerated before the shard is given up on (default 5)")
    route.add_argument(
        "--backoff-ms", type=float, default=200.0, metavar="MS",
        help="per-shard base restart delay, doubled per consecutive "
             "fast failure (default 200)")
    _add_backend_argument(route)
    _add_metrics_out(route)
    route.set_defaults(handler=_cmd_route)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        # Operational failures (unreadable/corrupt trace files, strict
        # validation rejections) get a one-line error, not a traceback.
        print(f"domo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

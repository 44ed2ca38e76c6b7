"""The serve-wal workload: open-loop records into a durable ``domo serve``.

Each round sends four 49-node / 120 s traces (~720 records each); a
run's rounds together send ``paper_scenario`` seeds 1..4 x rounds,
assigned to rounds and streams in an order the workload seed shuffles,
so the run's pooled accuracy does not depend on the seed. The four
traces of a round are interleaved by sink arrival and sent on one
feeder connection at a fixed ``RATE`` records/s, on a schedule that
does not wait for the server (open loop). A second
connection polls ``RESULTS --since`` for every stream each ``POLL_S``.
The server runs with ``--wal-dir`` and the default fsync and snapshot
settings, so the protocol, WAL, snapshot, queue and RESULTS reads all
sit on the path from a record to its window's estimates.

A window's latency runs from the scheduled send time of the record that
sealed it to the first RESULTS reply that carries it, so it includes
any stall of the generator and up to one poll period; a window the
server holds until the round's FLUSH is first served after it. Every
served window must equal, bit for bit, the window an in-process
``StreamingReconstructor(DomoConfig(), lateness_ms=LATENESS_MS)`` commits
from the same per-stream records; 2000 ms exceeds the largest end-to-end
delay of these traces, so the reference does not depend on chunking.
"""

from __future__ import annotations

import gc
import json
import signal
import subprocess
import sys
import threading
import time

from repro.core.pipeline import DomoConfig
from repro.serve.client import connect
from repro.serve.durability import DurabilityConfig, stream_state_dir
from repro.serve.durability.recovery import StreamDurability
from repro.serve.durability.snapshot import snapshot_files
from repro.serve.protocol import (
    committed_window_to_json,
    encode_record,
    encode_response,
    parse_line,
)
from repro.serve.session import SessionManager
from repro.stream.engine import StreamingReconstructor

from common import (
    child_env,
    emit,
    load_packets,
    mae_terms,
    median,
    order_violation_ms,
    panel_order,
    percentile,
    simulate_traces,
    time_import_and_load,
)
from layers import LayerTrace, captured_windows

STREAMS = 4
NODES = 49
DURATION_MS = 120_000.0
LATENESS_MS = 2000.0
#: records/s; the server saturates near 800/s on a 2-core machine.
RATE = 300.0
#: RESULTS poll period per stream; latency has a floor of up to this.
POLL_S = 0.020
SETUP_REPEATS = 5
#: nominal length of one round: ~2,900 records at RATE plus the tail of
#: seals and the final FLUSH. A run makes ``seconds // ROUND_S`` rounds.
ROUND_S = 12.0
#: FLUSH a round's streams this long after its last scheduled send if a
#: window sealed by a record has still not been served by then.
ROUND_GRACE_S = 5.0


def run(seed: int, seconds: float, traced: bool, workdir) -> None:
    config = DomoConfig()
    rounds = 1 if traced else max(1, int(seconds // ROUND_S))
    seeds = panel_order(seed, STREAMS * rounds)
    inputs = [
        RoundInput(
            config,
            seeds[r * STREAMS:(r + 1) * STREAMS],
            workdir / f"round{r}",
            traced,
        )
        for r in range(rounds)
    ]
    paths = [path for round_input in inputs for path in round_input.paths]

    setups = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            loaded = time_import_and_load(paths)
            server = Server(workdir / f"server{attempt}")
            setups.append((loaded, server.boot_s))
        results = [
            live_round(server.port, r, round_input)
            for r, round_input in enumerate(inputs)
        ]
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    failed = sum(r.failed for r in results)
    attempted = sum(r.attempted for r in results)
    if traced:
        _emit_traced(config, inputs[0], setups, results, workdir)
        return
    abs_error = 0.0
    hops = 0
    for round_input in inputs:
        for trace, ref in zip(round_input.traces, round_input.refs):
            total, n = mae_terms(trace, ref.arrival_times)
            abs_error += total
            hops += n
    latency_ms = [ms for r in results for ms in r.latency_ms]
    emit(
        correct=sum(r.mismatches for r in results) == 0,
        attempted=attempted,
        failed=failed,
        values={
            "setup_s": median(
                s["import_s"] + s["load_s"] + boot for s, boot in setups
            ),
            "packets_per_s": median(r.records_per_s for r in results),
            "latency_p50_ms": percentile(latency_ms, 50),
            "mae_ms": abs_error / hops,
            "peak_rss_mb": peak_rss_mb,
        },
        traced=False,
    )


class RoundInput:
    """One round's four traces, their files, send order and references."""

    def __init__(self, config, seeds, directory, traced: bool) -> None:
        self.traces, self.paths = simulate_traces(
            seeds, NODES, DURATION_MS, directory
        )
        self.streams = [load_packets(path) for path in self.paths]
        #: (stream, position in stream) in global send order.
        self.merged = sorted(
            (
                (j, pos)
                for j, packets in enumerate(self.streams)
                for pos in range(len(packets))
            ),
            key=lambda item: (
                self.streams[item[0]][item[1]].sink_arrival_ms, item
            ),
        )
        self.refs = [
            Reference(config, packets, traced) for packets in self.streams
        ]


class Reference:
    """One stream fed record by record through an in-process engine.

    Keeps each committed window's RESULTS row (JSON round-tripped, as a
    client parses it), the stream position of the record whose ingest
    sealed it, and the stream-layer timings of the run.
    """

    def __init__(self, config, packets, traced: bool) -> None:
        self.rows: dict[int, dict] = {}
        self.sealed_by: dict[int, int] = {}
        self.arrival_times: dict = {}
        self.estimates: dict[int, dict] = {}
        self.seconds = {"ingest": 0.0, "poll": 0.0, "flush": 0.0}
        self.seal_to_commit_ms: list[float] = []

        def absorb(committed) -> None:
            for cw in committed:
                self.rows[cw.solve_index] = json.loads(
                    json.dumps(committed_window_to_json(cw))
                )
                self.arrival_times.update(cw.arrival_times)
                self.estimates[cw.solve_index] = cw.estimates
                self.seal_to_commit_ms.append(1000.0 * cw.seal_to_commit_s)

        with captured_windows() as self.captured:
            engine = StreamingReconstructor(config, lateness_ms=LATENESS_MS)
            for pos, packet in enumerate(packets):
                before = engine.telemetry.windows_sealed
                t0 = time.perf_counter()
                engine.ingest([packet])
                t1 = time.perf_counter()
                committed = engine.poll()
                t2 = time.perf_counter()
                self.seconds["ingest"] += t1 - t0
                self.seconds["poll"] += t2 - t1
                after = engine.telemetry.windows_sealed
                for solve_index in range(before, after):
                    self.sealed_by[solve_index] = pos
                absorb(committed)
            t0 = time.perf_counter()
            committed = engine.flush()
            self.seconds["flush"] += time.perf_counter() - t0
            absorb(committed)
            self.peak_resident_packets = engine.telemetry.peak_resident_packets
            engine.close()
        if not traced:
            del self.captured, self.estimates


class Server:
    """A ``domo serve --wal-dir`` subprocess, timed until HEALTH is ok."""

    def __init__(self, state_dir) -> None:
        state_dir.mkdir()
        self._stderr_path = state_dir / "stderr.log"
        started = time.perf_counter()
        with open(self._stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0",
                    "--wal-dir", str(state_dir / "wal"),
                    "--lateness-ms", str(LATENESS_MS),
                ],
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        try:
            self.port = self._wait_for_port(started + 60.0)
            with connect(port=self.port) as client:
                if not client.health().get("ok"):
                    raise RuntimeError("server HEALTH is not ok")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_for_port(self, deadline: float) -> int:
        marker = "serving on tcp:"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited during boot: "
                    + self._stderr_path.read_text()
                )
            for line in self._stderr_path.read_text().splitlines():
                if line.startswith(marker):
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("server did not report its port in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class RoundResult:
    """What one live round measured, and how many operations failed."""

    def __init__(self) -> None:
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []
        self.backlog: list[int] = []
        self.records_per_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0


def live_round(port, round_no, round_input) -> RoundResult:
    """Send every record once on fresh stream ids; poll until served."""
    streams, merged, refs = (
        round_input.streams, round_input.merged, round_input.refs
    )
    names = [f"r{round_no}-s{j}" for j in range(len(streams))]
    lines = [encode_record(names[j], streams[j][pos]) for j, pos in merged]
    send_index = {item: g for g, item in enumerate(merged)}
    # Windows sealed by a record carry a latency sample; the rest are
    # sealed by the final FLUSH.
    due_windows = {
        (j, solve_index): send_index[(j, pos)]
        for j, ref in enumerate(refs)
        for solve_index, pos in ref.sealed_by.items()
    }
    out = RoundResult()
    sent = [0]
    gc.collect()
    with connect(port=port) as feeder, connect(port=port) as poller:
        t_start = time.perf_counter() + 0.05

        def feed() -> None:
            for g, line in enumerate(lines):
                due = t_start + g / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                out.late_ms.append(1000.0 * (time.perf_counter() - due))
                feeder.send_raw(line)
                sent[0] = g + 1

        sender = threading.Thread(target=feed, daemon=True)
        sender.start()
        cursors = [-1] * len(names)
        durable = [0] * len(names)
        served: list[dict[int, dict]] = [{} for _ in names]
        first_seen: dict[tuple[int, int], float] = {}
        all_durable_at = None
        deadline = t_start + len(lines) / RATE + ROUND_GRACE_S
        while True:
            cycle = time.perf_counter()
            for j, name in enumerate(names):
                reply = poller.command(f"RESULTS {name} --since {cursors[j]}")
                seen_at = time.perf_counter()
                if not reply.get("ok"):
                    continue  # the stream's first record has not arrived
                for row in reply["windows"]:
                    served[j][row["solve_index"]] = row
                    first_seen.setdefault((j, row["solve_index"]), seen_at)
                cursors[j] = reply["last_solve_index"]
                durable[j] = reply["records_durable"]
            out.backlog.append(sent[0] - sum(durable))
            if all_durable_at is None and sum(durable) == len(lines):
                all_durable_at = time.perf_counter()
            if all_durable_at is not None and all(
                key in first_seen for key in due_windows
            ):
                break
            if time.perf_counter() > deadline:
                break
            time.sleep(max(0.0, cycle + POLL_S - time.perf_counter()))
        sender.join(timeout=ROUND_GRACE_S)
        held = sorted(set(due_windows) - set(first_seen))
        for j, name in enumerate(names):
            poller.command(f"FLUSH {name}")
            reply = poller.command(f"RESULTS {name} --since {cursors[j]}")
            seen_at = time.perf_counter()
            for row in reply.get("windows", []):
                served[j][row["solve_index"]] = row
                first_seen.setdefault((j, row["solve_index"]), seen_at)
        feeder.command("HEALTH")  # collects any async rejections first
        rejected = len(feeder.async_errors)

    for key, g in due_windows.items():
        if key in first_seen:
            scheduled = t_start + g / RATE
            out.latency_ms.append(1000.0 * (first_seen[key] - scheduled))
    if held:
        # A latency defect, not a wrong output: the window is checked
        # below like every other, and its latency runs to the FLUSH.
        print(
            f"round {round_no}: windows (stream, solve index) sealed by a "
            f"record but first served after FLUSH: {held}",
            file=sys.stderr,
        )
    for j, ref in enumerate(refs):
        out.mismatches += sum(
            served[j].get(index) != row for index, row in ref.rows.items()
        )
        out.mismatches += len(set(served[j]) - set(ref.rows))
        out.attempted += len(ref.rows)
    out.attempted += len(lines)
    out.failed += rejected + out.mismatches
    if all_durable_at is not None:
        out.records_per_s = len(lines) / (all_durable_at - t_start)
    else:
        out.failed += 1
    return out


def _emit_traced(config, round_input, setups, results, workdir):
    streams, merged, refs = (
        round_input.streams, round_input.merged, round_input.refs
    )
    layer = LayerTrace()
    traced_s = 0.0
    mismatches = 0
    for packets, ref in zip(streams, refs):
        t0 = time.perf_counter()
        validated = layer.validate(packets, config)
        kept = layer.solve_windows(ref.captured, config.solve_spec())
        estimates: dict = {}
        for window_estimates in kept:
            estimates.update(window_estimates)
        vectors = layer.assemble(validated, estimates, config.omega_ms)
        traced_s += time.perf_counter() - t0
        mismatches += abs(len(kept) - len(ref.estimates)) + sum(
            window != ref.estimates.get(index)
            for index, window in enumerate(kept)
        )
        mismatches += sum(
            vectors[pid] != times for pid, times in ref.arrival_times.items()
        )
    untraced_s = sum(sum(ref.seconds.values()) for ref in refs)

    values = layer.metrics()
    values.update(session_layers(config, streams, merged, workdir))
    values.update(
        {
            "order_violation_ms": max(
                order_violation_ms(ref.arrival_times.values(), config.omega_ms)
                for ref in refs
            ),
            "stream.ingest.s": sum(ref.seconds["ingest"] for ref in refs),
            "stream.poll.s": sum(ref.seconds["poll"] for ref in refs),
            "stream.flush.s": sum(ref.seconds["flush"] for ref in refs),
            "stream.seal_to_commit_ms_p50": percentile(
                [ms for ref in refs for ms in ref.seal_to_commit_ms], 50
            ),
            "stream.peak_resident_packets": max(
                ref.peak_resident_packets for ref in refs
            ),
            "serve.latency_p90_ms": percentile(
                [ms for r in results for ms in r.latency_ms], 90
            ),
            "serve.backlog_records_p90": percentile(
                [b for r in results for b in r.backlog], 90
            ),
            "load.late_ms_p99": percentile(
                [ms for r in results for ms in r.late_ms], 99
            ),
            "setup.import_s": median(s["import_s"] for s, _ in setups),
            "setup.load_trace_s": median(s["load_s"] for s, _ in setups),
            "setup.server_boot_s": median(boot for _, boot in setups),
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    emit(
        correct=mismatches == 0 and sum(r.mismatches for r in results) == 0,
        attempted=layer.windows + sum(r.attempted for r in results),
        failed=mismatches
        + layer.midpoint_windows
        + sum(r.failed for r in results),
        values=values,
        traced=True,
    )


def session_layers(config, streams, merged, workdir) -> dict:
    """Replay the records in-process through the serve tier's layers.

    Each record is encoded and parsed as on the wire and fed to its
    ``SessionManager`` session (WAL on, default durability settings);
    the WAL append cost is timed on a second, otherwise idle log.
    """
    names = [f"replay-s{j}" for j in range(len(streams))]
    durability = DurabilityConfig(wal_dir=workdir / "replay-wal")
    manager = SessionManager(
        config, lateness_ms=LATENESS_MS, durability=durability
    )
    wal = StreamDurability(
        DurabilityConfig(wal_dir=workdir / "append-wal"), "append", "append"
    )
    encode_s = parse_s = 0.0
    ingest_ms, append_us, snapshot_ms, results_ms = [], [], [], []
    snapshot_bytes = 0
    try:
        for j, pos in merged:
            t0 = time.perf_counter()
            line = encode_record(names[j], streams[j][pos])
            t1 = time.perf_counter()
            record = parse_line(line.decode("utf-8"))
            t2 = time.perf_counter()
            encode_s += t1 - t0
            parse_s += t2 - t1
            session = manager.get_or_create(record.stream)
            t0 = time.perf_counter()
            session.ingest([record.packet])
            t1 = time.perf_counter()
            wal.log_batch([record.packet])
            t2 = time.perf_counter()
            ingest_ms.append(1000.0 * (t1 - t0))
            append_us.append(1e6 * (t2 - t1))
        for name in names:
            session = manager.get(name)
            t0 = time.perf_counter()
            session.snapshot()
            snapshot_ms.append(1000.0 * (time.perf_counter() - t0))
            newest = snapshot_files(stream_state_dir(durability.wal_dir, name))
            snapshot_bytes += newest[-1][1].stat().st_size
            t0 = time.perf_counter()
            encode_response(
                {
                    "ok": True,
                    "stream": name,
                    "windows": session.results_since(),
                }
            )
            results_ms.append(1000.0 * (time.perf_counter() - t0))
    finally:
        wal.close()
        manager.close()
    return {
        "serve.protocol.encode_us": 1e6 * encode_s / len(merged),
        "serve.protocol.parse_us": 1e6 * parse_s / len(merged),
        "serve.session.ingest_ms": median(ingest_ms),
        "serve.durability.wal_append_us": median(append_us),
        "serve.durability.snapshot_ms": median(snapshot_ms),
        "serve.durability.snapshot_bytes": snapshot_bytes,
        "serve.results.encode_ms": median(results_ms),
    }

"""The batch workload: serial ``DomoReconstructor(DomoConfig()).estimate``.

Every run reconstructs the same panel of ``paper_scenario`` traces, 100
nodes / 120 s at scenario seeds 1-5 (seed 1 is the ROADMAP reference
trace); the workload seed sets the order of the passes and the warm-up
trace. The panel is fixed because one trace's cost is bimodal across
scenario seeds: traces whose windows stop at the QP's 4000-iteration
cap take about twice as long as the rest (2.2-6.0 s per pass), so a
run over a fresh random draw of traces measured the draw more than the
program. Throughput is the panel's packets over the sum of each trace's
median pass time.
"""

from __future__ import annotations

import gc
import time

from repro.core.pipeline import DomoConfig, DomoReconstructor

from common import (
    emit,
    load_packets,
    mae_terms,
    median,
    order_violation_ms,
    panel_order,
    peak_rss_mb,
    percentile,
    simulate_traces,
    time_import_and_load,
)
from layers import LayerTrace, captured_windows

NODES = 100
DURATION_MS = 120_000.0
#: every run reconstructs ``paper_scenario`` seeds 1..PANEL.
PANEL = 5

SETUP_REPEATS = 5
#: packets of the first trace reconstructed by the untimed warm-up pass.
WARMUP_PACKETS = 300

#: per-layer metrics only the serve-wal workload exercises.
SERVE_ONLY_LAYERS = (
    "stream.ingest.s",
    "stream.poll.s",
    "stream.flush.s",
    "stream.seal_to_commit_ms_p50",
    "stream.peak_resident_packets",
    "serve.protocol.encode_us",
    "serve.protocol.parse_us",
    "serve.session.ingest_ms",
    "serve.durability.wal_append_us",
    "serve.durability.snapshot_ms",
    "serve.durability.snapshot_bytes",
    "serve.results.encode_ms",
    "serve.latency_p90_ms",
    "serve.backlog_records_p90",
    "load.late_ms_p99",
)


def run(seed: int, seconds: float, traced: bool, workdir) -> None:
    traces, paths = simulate_traces(
        panel_order(seed, PANEL), NODES, DURATION_MS, workdir
    )
    setups = [time_import_and_load(paths) for _ in range(SETUP_REPEATS)]
    # The program receives only the packets read back from the files.
    inputs = [load_packets(path) for path in paths]
    if traced:
        _run_traced(inputs, setups)
    else:
        _run_timed(traces, inputs, setups, seconds)


def _run_timed(traces, inputs, setups, seconds: float) -> None:
    config = DomoConfig()
    reconstructor = DomoReconstructor(config)
    count = len(inputs)
    references: list[dict | None] = [None] * count
    abs_error = 0.0
    hops = 0

    # Untimed warm-up: lazy imports and caches settle before timing.
    reconstructor.estimate(inputs[0][:WARMUP_PACKETS])

    pass_s: list[list[float]] = [[] for _ in range(count)]
    passes = windows = bad_passes = midpoint_windows = 0
    started = time.perf_counter()
    while passes < count or time.perf_counter() - started < seconds:
        j = passes % count
        gc.collect()
        t0 = time.perf_counter()
        result = reconstructor.estimate(inputs[j])
        pass_s[j].append(time.perf_counter() - t0)
        passes += 1
        windows += result.windows_used
        midpoint_windows += result.stats["relax_rung_histogram"].get(
            "midpoints", 0
        )
        if references[j] is None:
            references[j] = result.estimates
            total, n = mae_terms(traces[j], result.arrival_times)
            abs_error += total
            hops += n
        elif result.estimates != references[j]:
            bad_passes += 1
        del result  # a growing heap would slow the passes after it

    packets = [len(p) for p in inputs]
    trace_s = [median(times) for times in pass_s]
    # A batch caller gets every packet's estimate when ``estimate``
    # returns, so each packet waited its trace's pass time. Each trace
    # counts once, whether or not the run reached its second pass.
    latency_ms = [
        1000.0 * elapsed
        for n, elapsed in zip(packets, trace_s)
        for _ in range(n)
    ]
    emit(
        correct=bad_passes == 0,
        attempted=passes + windows,
        failed=bad_passes + midpoint_windows,
        values={
            "setup_s": median(s["import_s"] + s["load_s"] for s in setups),
            "packets_per_s": sum(packets) / sum(trace_s),
            "latency_p50_ms": percentile(latency_ms, 50),
            "mae_ms": abs_error / hops,
            "peak_rss_mb": peak_rss_mb(),
        },
        traced=False,
    )


def _run_traced(inputs, setups) -> None:
    config = DomoConfig()
    reconstructor = DomoReconstructor(config)
    reconstructor.estimate(inputs[0][:WARMUP_PACKETS])  # as in the timed run
    layer = LayerTrace()
    untraced_s = traced_s = 0.0
    mismatches = 0
    violation = 0.0
    for packets in inputs:
        gc.collect()
        with captured_windows() as captured:
            t0 = time.perf_counter()
            result = reconstructor.estimate(packets)
            untraced_s += time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        validated = layer.validate(packets, config)
        estimates: dict = {}
        for kept in layer.solve_windows(captured, config.solve_spec()):
            estimates.update(kept)
        vectors = layer.assemble(validated, estimates, config.omega_ms)
        traced_s += time.perf_counter() - t0
        if estimates != result.estimates or vectors != result.arrival_times:
            mismatches += 1
        violation = max(
            violation,
            order_violation_ms(result.arrival_times.values(), config.omega_ms),
        )
        del result, captured

    values = layer.metrics()
    values.update(
        {
            "order_violation_ms": violation,
            "setup.import_s": median(s["import_s"] for s in setups),
            "setup.load_trace_s": median(s["load_s"] for s in setups),
            "setup.server_boot_s": 0.0,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    # Batch reaches the streaming engine only inside ``estimate`` and
    # never the serve tier; those layers are measured on serve-wal.
    values.update(dict.fromkeys(SERVE_ONLY_LAYERS, 0.0))
    emit(
        correct=mismatches == 0,
        attempted=len(inputs) + layer.windows,
        failed=mismatches + layer.midpoint_windows,
        values=values,
        traced=True,
    )

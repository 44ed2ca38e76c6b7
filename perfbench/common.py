"""Helpers shared by every workload: inputs, set-up timing, statistics.

Nothing here imports :mod:`repro` at module scope, so ``run.py`` can
report a missing source tree before any import fails.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Refuses (``ValueError``) when fewer than ten samples lie beyond the
    percentile: a p90 needs 100 samples, a p99 needs 1,000, a median 20.
    """
    data = sorted(values)
    n = len(data)
    if n * (100.0 - q) < 1000.0:
        raise ValueError(
            f"p{q:g} needs at least ten samples beyond it; got {n} samples"
        )
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def panel_order(seed: int, count: int) -> list[int]:
    """The panel of scenario seeds ``1..count``, shuffled by the workload seed.

    Every run of a workload reconstructs the same scenarios, so its
    accuracy and per-trace cost do not depend on which traces a seed
    happened to draw; the workload seed sets the order they are fed in.
    """
    order = list(range(1, count + 1))
    random.Random(seed).shuffle(order)
    return order


def mae_terms(trace, arrival_times) -> tuple[float, int]:
    """(sum of |estimated - true| per-hop delay in ms, number of hops)."""
    total = 0.0
    count = 0
    for packet in trace.received:
        truth = trace.truth_of(packet.packet_id).node_delays()
        times = arrival_times[packet.packet_id]
        for hop, true_delay in enumerate(truth):
            total += abs((times[hop + 1] - times[hop]) - true_delay)
            count += 1
    return total, count


def order_violation_ms(arrival_vectors, omega_ms: float) -> float:
    """Largest Eq. (5) order-row violation, ``max(0, omega - gap)``.

    Every consecutive pair of a packet's arrival times must be at least
    ``omega_ms`` apart; ground truth reads exactly 0.0.
    """
    worst = 0.0
    for times in arrival_vectors:
        for earlier, later in zip(times, times[1:]):
            worst = max(worst, omega_ms - (later - earlier))
    return worst


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


_LOADER = """
import json, sys, time
started = time.perf_counter()
import repro
from repro.sim.io import iter_packets_jsonl
imported = time.perf_counter()
count = sum(len(list(iter_packets_jsonl(path))) for path in sys.argv[1:])
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - started,
                  "load_s": loaded - imported, "packets": count}))
"""


def time_import_and_load(paths) -> dict:
    """Import ``repro`` and load the trace files in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _LOADER, *map(str, paths)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def simulate_traces(seeds, nodes: int, duration_ms: float, directory: Path):
    """One ``paper_scenario`` trace per seed, saved as the program's input.

    Each trace's received packets are written, in the sink's arrival
    order, to a JSONL file. Returns ``(traces, paths)``; the traces keep
    the simulator's ground truth, which only the checks read.
    """
    from repro.analysis.scenarios import paper_scenario
    from repro.sim.io import save_packets_jsonl
    from repro.sim.simulator import simulate_network

    directory.mkdir(exist_ok=True)
    traces, paths = [], []
    for i, seed in enumerate(seeds):
        trace = simulate_network(
            paper_scenario(num_nodes=nodes, seed=seed, duration_ms=duration_ms)
        )
        path = directory / f"trace{i}.jsonl"
        save_packets_jsonl(trace.received, path)
        traces.append(trace)
        paths.append(path)
    return traces, paths


def load_packets(path: Path) -> list:
    """A trace file read back the way the program reads one."""
    from repro.sim.io import iter_packets_jsonl

    return list(iter_packets_jsonl(path))


def median(values) -> float:
    return float(statistics.median(values))


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units a run must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(
    correct: bool, attempted: int, failed: int, values: dict, traced: bool
) -> None:
    """Print the one-line result object the benchmark contract expects.

    ``values`` maps metric names to numbers; the names must be exactly
    the ``per_layer`` (traced) or ``end_to_end`` list of BENCHMARK.json,
    whose units are attached.
    """
    spec = benchmark_spec()["per_layer" if traced else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, extra "
            f"{sorted(set(values) - set(units))}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )

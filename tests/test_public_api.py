"""Smoke tests of the top-level package API."""

import os
import subprocess
import sys

import repro


def test_version():
    assert repro.__version__


def test_import_does_not_load_scipy_optimize():
    """Only the bound LPs need scipy.optimize; ``import repro`` must not
    pay for it (every CLI call and shard restart imports the package)."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src_dir, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print('scipy.optimize' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_readme_quickstart_flow():
    """The README's quickstart snippet must work verbatim (small scale)."""
    from repro import DomoConfig, DomoReconstructor, NetworkConfig, simulate_network

    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=3_000.0,
            seed=1,
        )
    )
    domo = DomoReconstructor(DomoConfig())
    estimate = domo.estimate(trace)
    packet = trace.received[0]
    delays = estimate.delays_of(packet.packet_id)
    assert len(delays) == packet.path_length - 1
    truth = trace.truth_of(packet.packet_id).node_delays()
    assert len(truth) == len(delays)


def test_metrics_exports():
    assert repro.average_displacement(["a", "b"], ["b", "a"]) == 1.0

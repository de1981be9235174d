"""The ``serve`` check's measurement: a real daemon under concurrent load.

:func:`run_bench` boots ``python -m repro serve`` as a real subprocess
on a seeded fixture snapshot, drives the seeded request stream through
it at every configured concurrency level, then SIGTERMs the daemon and
records the clean-drain contract (exit code 0, every admitted request
answered, ``--save-store`` flushed).

The report is a pure function of (tree, scale) — per-kind request
counts, hit/miss counts, summed per-probe ``candidates_tested``, the
warm-reuse fraction, the daemon's final ``StoreStats`` counters and the
drain record, identical across hosts and concurrency levels — so the
``serve`` check of :mod:`repro.bench.checks` diffs it **verbatim**
against the committed ``benchmarks/BENCH_serve_smoke_baseline.json``.
It carries no latency or throughput: those are ``perfbench/``'s
(``python3 perfbench/run.py --workload serve_mixed``).
"""

import os
import signal
import subprocess
import sys
import tempfile

from repro.api import Session
from repro.bench.driver import REPO_ROOT
from repro.serve import (
    ServeClient,
    build_fixture_session,
    build_request_stream,
    run_concurrent,
)

SCALES = {
    # Tiny and exact: what the ``serve`` check gates on.
    "smoke": {
        "bases": 12,
        "requests": 240,
        "concurrency": (1, 4),
        "seed": 20110611,
    },
}


def _boot_daemon(snapshot, save_store):
    """Start ``python -m repro serve``; returns (process, host, port).

    The daemon inherits stderr: a pipe nobody reads would stall it once
    full, and its degrade warnings belong on the operator's console.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            snapshot,
            "--port",
            "0",
            "--save-store",
            save_store,
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("SERVE_READY "):
        process.kill()
        raise SystemExit(f"daemon failed to boot: {line!r}")
    fields = dict(part.split("=", 1) for part in line.split()[1:])
    return process, fields["host"], int(fields["port"])


def run_bench(scale):
    """One full bench pass; returns the report document."""
    config = SCALES[scale]
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "fixture")
        build_fixture_session(
            bases=config["bases"], seed=config["seed"]
        ).save(snapshot)
        flushed = os.path.join(tmp, "flushed")
        requests = build_request_stream(
            Session.open(snapshot), config["requests"], seed=config["seed"]
        )
        process, host, port = _boot_daemon(snapshot, flushed)
        try:
            runs = []
            for concurrency in config["concurrency"]:
                result = run_concurrent(
                    host, port, requests, concurrency=concurrency
                )
                runs.append(
                    {
                        "concurrency": concurrency,
                        "counters": result.deterministic_counters(),
                        "warm_reuse_fraction": result.warm_reuse_fraction(),
                    }
                )
            with ServeClient(host, port) as client:
                final_stats = client.stats()
            # Clean-drain contract: SIGTERM must answer everything
            # admitted, flush the save path, and exit 0.
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=60)
            drain = {
                "exit_code": code,
                "flushed_bases": Session.open(flushed).basis_count(),
            }
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        return {
            "scale": scale,
            "seed": config["seed"],
            "requests": len(requests),
            "runs": runs,
            "final_store_counters": dict(final_stats.counters),
            "final_store_bases": dict(final_stats.bases),
            "drain": drain,
        }

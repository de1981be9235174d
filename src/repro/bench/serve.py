"""Serving-daemon benchmark: open-loop load against a real daemon process.

Usage (``benchmarks/bench_serve.py`` is this module's ``main``)::

    PYTHONPATH=src python benchmarks/bench_serve.py
        [--scale smoke|quick] [--store DIR] [--out BENCH_serve.json]

Boots ``python -m repro serve`` as a real subprocess on a seeded fixture
snapshot (or ``--store``), drives the open-loop Poisson load generator
at every configured concurrency level, then SIGTERMs the daemon and
records the clean-drain contract (exit code 0, every admitted request
answered, ``--save-store`` flushed).

The report splits along the determinism line the other benchmarks use:

* **Deterministic** (pure functions of snapshot + seed + request count;
  identical across hosts and concurrency levels): per-kind request
  counts, hit/miss counts, summed per-probe ``candidates_tested``, the
  warm-reuse fraction, the daemon's final ``StoreStats`` counters and
  the drain record.  The ``serve`` check of :mod:`repro.bench.checks`
  diffs these **exactly** against the committed
  ``benchmarks/BENCH_serve_smoke_baseline.json``.
* **Informational** (host-dependent, never gated): wall-clock seconds,
  p50/p99 latency, throughput.

Exit status 0 on success, 1 on a drain violation.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile

from repro.api import Session
from repro.bench.driver import REPO_ROOT, write_document
from repro.serve import (
    ServeClient,
    build_fixture_session,
    build_request_stream,
    run_open_loop,
)

SCALES = {
    # Tiny and exact: what the ``serve`` check gates on.
    "smoke": {
        "bases": 12,
        "requests": 240,
        "rate": 800.0,
        "concurrency": (1, 4),
        "seed": 20110611,
    },
    # Laptop-sized: enough load for meaningful p99s.
    "quick": {
        "bases": 24,
        "requests": 2000,
        "rate": 4000.0,
        "concurrency": (1, 4, 8),
        "seed": 20110611,
    },
}


def _boot_daemon(snapshot, save_store):
    """Start ``python -m repro serve``; returns (process, host, port)."""
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
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("SERVE_READY "):
        process.kill()
        stderr = process.stderr.read()
        raise SystemExit(
            f"daemon failed to boot: {line!r}\n{stderr}"
        )
    fields = dict(part.split("=", 1) for part in line.split()[1:])
    return process, fields["host"], int(fields["port"])


def run_bench(scale, store=None):
    """One full bench pass; returns the report document."""
    config = SCALES[scale]
    with tempfile.TemporaryDirectory() as tmp:
        if store is None:
            snapshot = os.path.join(tmp, "fixture")
            build_fixture_session(
                bases=config["bases"], seed=config["seed"]
            ).save(snapshot)
        else:
            snapshot = store
        flushed = os.path.join(tmp, "flushed")
        probe_session = Session.open(snapshot)
        requests = build_request_stream(
            probe_session, config["requests"], seed=config["seed"]
        )
        process, host, port = _boot_daemon(snapshot, flushed)
        try:
            runs = []
            for concurrency in config["concurrency"]:
                result = run_open_loop(
                    host,
                    port,
                    requests,
                    rate=config["rate"],
                    concurrency=concurrency,
                    seed=config["seed"] + concurrency,
                )
                runs.append(result.summarize())
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
            "store": store or "(seeded fixture)",
            "runs": runs,
            "final_store_counters": dict(final_stats.counters),
            "final_store_bases": dict(final_stats.bases),
            "drain": drain,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="quick"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="serve this snapshot instead of the seeded fixture",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the full report (timing included) to this JSON file",
    )
    args = parser.parse_args(argv)

    document = run_bench(args.scale, store=args.store)

    for run in document["runs"]:
        print(
            f"concurrency={run['concurrency']}: "
            f"p50={run['latency_p50_ms']:.3f}ms "
            f"p99={run['latency_p99_ms']:.3f}ms "
            f"throughput={run['throughput_rps']:.0f}rps "
            f"warm={run['warm_reuse_fraction']:.2%}"
        )
    print(
        f"drain: exit={document['drain']['exit_code']} "
        f"flushed_bases={document['drain']['flushed_bases']}"
    )
    if document["drain"]["exit_code"] != 0:
        print("FAIL: daemon did not drain cleanly on SIGTERM")
        return 1
    if args.out:
        write_document(args.out, document)
        print(f"report written to {args.out}")
    return 0

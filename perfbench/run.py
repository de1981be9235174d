"""The repo benchmark: one command, four workloads.

Three ways in:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what the benchmark driver calls).  Prints
    every metric by name with its unit, then — as the last line of
    standard output — one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
    the per-layer metrics with ``--trace 1``.

``python3 perfbench/run.py [--seed N] [--repeats R] [--out FILE]``
    The whole suite: per workload ``R`` untraced runs and one traced run,
    each in a fresh child process; medians, quartiles and sample counts
    go to ``perfbench/raw/`` and to the screen.

``python3 perfbench/run.py --compare A.json B.json``
    Two suite documents side by side, each end-to-end metric against its
    bound from ``BENCHMARK.json``; exits non-zero outside a bound.

Names, units, bounds and the run length live in ``BENCHMARK.json``;
sizes are constants in the workload modules and never calibrated at run
time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pb_common as common  # noqa: E402

sys.path.insert(0, common.SRC_DIR)

WORKLOADS = ("sweep_reuse", "sweep_simulate", "store_churn", "serve_mixed")


def load_declaration() -> dict:
    with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def make_workload(name: str, seed: int, scale: str, tally: common.Tally):
    if name in ("sweep_reuse", "sweep_simulate"):
        from pb_sweeps import SweepWorkload

        return SweepWorkload(name, seed, scale, tally)
    if name == "store_churn":
        from pb_churn import ChurnWorkload

        return ChurnWorkload(seed, scale, tally)
    if name == "serve_mixed":
        from pb_serve import ServeWorkload

        return ServeWorkload(seed, scale, tally)
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# One run


def measure(name: str, seed: int, seconds: float, scale: str) -> dict:
    """An untraced run: set up ``SETUP_REPEATS`` times, then timed
    rounds for ``seconds``, then the oracles.  Like the rounds' times,
    a set-up's is divided by how slow the host was around it."""
    tally = common.Tally()
    workload = make_workload(name, seed, scale, tally)
    gauge = common.HostGauge()
    setups, setup_hosts = [], []
    with common.degrade_watch() as warned:
        try:
            for repeat in range(common.SETUP_REPEATS):
                if repeat:
                    workload.teardown()
                gauge.sample(3)
                started = common.clock()
                workload.setup()
                setups.append(common.clock() - started)
                gauge.sample(3)
                setup_hosts.append(gauge.take())
            rounds = common.run_rounds(workload.timed_round, seconds)
            workload.verify()
        finally:
            workload.teardown()
    metrics = common.end_to_end(rounds, workload.repeating)
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    metrics["setup_s"] = common.median(
        [t / host for t, host in zip(setups, setup_hosts)]
    )
    degraded = warned + list(workload.degraded)
    return {
        "metrics": metrics,
        "tally": tally,
        "degraded": degraded,
        "sizes": workload.sizes,
        "detail": {
            "setups_s": setups,
            "setup_hosts": setup_hosts,
            "rounds": [_round_row(r) for r in rounds],
            "unit_medians_ms": (
                [1e3 * u for u in common.unit_medians(rounds)]
                if workload.repeating
                else None
            ),
        },
    }


def trace_layers(
    name: str, seed: int, seconds: float, scale: str, tally: common.Tally
):
    """A traced pass over one workload: untraced and traced rounds in
    turn (their ratio is the tracing overhead), the trace oracles, and
    the layer metrics this workload can speak for."""
    workload = make_workload(name, seed, scale, tally)
    timed, traced = [], []
    try:
        workload.setup()

        def pair(k):
            timed.append(workload.timed_round(k))
            traced.append(workload.traced_round(k))
            return traced[-1]

        common.run_rounds(
            pair, seconds, common.MIN_ROUNDS if scale == "full" else 1
        )
        workload.verify_trace()
        layers = common.median_layers(traced)
        layers.update(workload.trace_extras(timed, traced))
    finally:
        workload.teardown()
    layers.update(workload.lifecycle_layers())
    layers["trace.overhead_ratio"] = common.median(
        [r.seconds / r.ops for r in traced]
    ) / common.median([r.seconds / r.ops for r in timed])
    detail = {
        "timed_rounds": [_round_row(r) for r in timed],
        "traced_rounds": [_round_row(r) for r in traced],
    }
    return layers, workload, detail


def trace(name: str, seed: int, seconds: float, scale: str) -> dict:
    """A traced run.  The selected workload is traced at its full size
    and speaks for every layer it exercises; the other three are traced
    at smoke size only so that every declared name is a measurement in
    every run (see README, "Reading a traced run")."""
    tally = common.Tally()
    with common.degrade_watch() as warned:
        layers, workload, detail = trace_layers(
            name, seed, seconds, scale, tally
        )
        degraded = list(workload.degraded)
        detail["own_layers"] = sorted(layers)
        for other in WORKLOADS:
            if other == name:
                continue
            context, other_workload, _ = trace_layers(
                other, seed, 0.0, "smoke", tally
            )
            degraded += list(other_workload.degraded)
            for key, value in context.items():
                layers.setdefault(key, value)
    return {
        "metrics": layers,
        "tally": tally,
        "degraded": warned + degraded,
        "sizes": workload.sizes,
        "detail": detail,
        "spans": workload.last_log,
    }


def _round_row(r: common.Round) -> dict:
    return {
        "ops": r.ops,
        "seconds": r.seconds,
        "host": r.host,
        "ops_per_s": r.ops_per_s,
        "units": len(r.latencies),
        "p50_ms": 1e3 * common.percentile(r.latencies, 50),
        "p95_ms": 1e3 * common.percentile(r.latencies, 95),
        "probes": r.probes,
        "misses": r.misses,
        "extra": r.extra,
    }


def run_one(args) -> int:
    declaration = load_declaration()
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    scale = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else float(args.seconds)
    runner = trace if args.trace else measure
    outcome = runner(args.workload, args.seed, seconds, scale)
    tally = outcome["tally"]
    if outcome["degraded"]:
        tally.fail("degraded run: " + "; ".join(outcome["degraded"]))
    names = [entry["name"] for entry in declared]
    measured = outcome["metrics"]
    if set(measured) != set(names):
        raise SystemExit(
            "measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(names))}"
        )
    metrics = {
        entry["name"]: {
            "value": float(measured[entry["name"]]),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    for entry in declared:
        value = metrics[entry["name"]]["value"]
        print(f"{args.workload:15s} {entry['name']:40s} {value:16.6f} "
              f"{entry['unit']}")
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }
    if args.raw_out:
        document = dict(
            result,
            workload=args.workload,
            trace=bool(args.trace),
            provenance=common.provenance(
                args.seed, outcome["sizes"], outcome["degraded"]
            ),
            notes=tally.notes,
            detail=outcome["detail"],
        )
        os.makedirs(os.path.dirname(args.raw_out) or ".", exist_ok=True)
        with open(args.raw_out, "w") as handle:
            json.dump(document, handle, indent=1, default=list)
        spans = outcome.get("spans")
        if spans is not None:
            trace_path = os.path.join(
                os.path.dirname(args.raw_out),
                f"trace_{args.workload}.json",
            )
            with open(trace_path, "w") as handle:
                json.dump(spans.as_rows(), handle)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The suite


def _child(workload, seed, seconds, traced, raw_out, smoke) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--raw-out", raw_out,
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} run exited with {done.returncode}")
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args) -> int:
    declaration = load_declaration()
    seconds = declaration["run_seconds"]
    os.makedirs(common.RAW_DIR, exist_ok=True)
    document = {
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": seconds,
        "claim": None,
        "workloads": {},
    }
    failed = 0
    for workload in WORKLOADS:
        runs = []
        for repeat in range(args.repeats):
            raw = os.path.join(common.RAW_DIR, f"{workload}_r{repeat}.json")
            result = _child(
                workload, args.seed, seconds, False, raw, args.smoke
            )
            with open(raw) as handle:
                invalid = bool(json.load(handle)["provenance"]["degraded"])
            runs.append(dict(result, invalid=invalid))
            print(f"# {workload} repeat {repeat + 1}/{args.repeats} done",
                  file=sys.stderr)
        raw = os.path.join(common.RAW_DIR, f"{workload}_trace.json")
        traced = _child(workload, args.seed, seconds, True, raw, args.smoke)
        with open(raw) as handle:
            traced_document = json.load(handle)
        # Only the layers this workload speaks for (the rest of a traced
        # run's names come from smoke-size context passes).
        own = traced_document["detail"]["own_layers"]
        valid = [r for r in runs if not r["invalid"]]
        summary = {}
        for entry in declaration["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in valid]
            q1, q2, q3 = common.quartiles(values)
            summary[entry["name"]] = {
                "unit": entry["unit"], "median": q2, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failures = sum(r["failed"] for r in runs) + traced["failed"]
        failed += failures
        document["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {
                entry["name"]: traced["metrics"][entry["name"]]
                for entry in declaration["per_layer"]
                if entry["name"] in own
            },
            "attempted": attempted,
            "failed": failures,
            "failed_share": failures / attempted,
            "invalid_repeats": len(runs) - len(valid),
            "provenance": traced_document["provenance"],
        }
    print_suite(document, declaration)
    out = args.out or os.path.join(common.RAW_DIR, f"suite_{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"# suite document written to {out}", file=sys.stderr)
    return 1 if failed else 0


def print_suite(document: dict, declaration: dict) -> None:
    for workload, body in document["workloads"].items():
        print(f"== {workload}  (failed_share {body['failed_share']:.6f}, "
              f"{body['attempted']} attempted)")
        for name, row in body["end_to_end"].items():
            print(f"  {name:40s} {row['median']:14.4f} {row['unit']:6s} "
                  f"[q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}]")
        for name, row in body["per_layer"].items():
            print(f"  {name:40s} {row['value']:14.6f} {row['unit']}")


# ---------------------------------------------------------------------------
# Comparing two suite documents


def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload and end-to-end metric.

    A metric is *worse* when B's median moved in the bad direction by
    more than the bound (a share of A's median); it is *unresolved* when
    the run-to-run spread of either side exceeds the bound, because then
    the medians cannot tell.
    """
    declaration = load_declaration()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    worst = 0
    print(f"{'workload':15s} {'metric':14s} {'A median':>12s} "
          f"{'A iqr':>8s} {'B median':>12s} {'B iqr':>8s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for entry in declaration["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            row_a = a["workloads"][workload]["end_to_end"][name]
            row_b = b["workloads"][workload]["end_to_end"][name]
            change = (row_b["median"] - row_a["median"]) / row_a["median"]
            if entry["better"] == "higher":
                change = -change
            spreads = [
                (row["q3"] - row["q1"]) / abs(row["median"])
                for row in (row_a, row_b)
            ]
            if change > bound:
                verdict, worst = "WORSE", 1
            elif max(spreads) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:15s} {name:14s} {row_a['median']:12.4f} "
                  f"{spreads[0]:8.1%} {row_b['median']:12.4f} "
                  f"{spreads[1]:8.1%} {change:+9.1%} {bound:6.0%}  {verdict}")
        for side, doc in (("A", a), ("B", b)):
            if doc["workloads"][workload]["failed"]:
                print(f"{workload:15s} {side} has failed operations")
                worst = 1
    return worst


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw-out", default=None,
                        help="also write the full run document here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes, one round (tests)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=None,
                        help="where the suite document goes")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    # A terminated run still unwinds: daemons stopped, scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(common.SRC_DIR, "repro")):
        raise SystemExit(
            f"perfbench measures the program under {common.SRC_DIR}; "
            "it is not there"
        )
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = load_declaration()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

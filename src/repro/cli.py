"""Command-line interface: run Jigsaw query files from a shell.

Usage::

    python -m repro run scenario.sql [--samples N] [--fingerprint M]
                                     [--store DIR] [--save-store DIR]
    python -m repro graph scenario.sql [--samples N]
    python -m repro explain scenario.sql
    python -m repro serve --store DIR [--port P] [--save-store DIR]
    python -m repro store info DIR | verify DIR
    python -m repro store compact DIR [--out DIR]
    python -m repro store evict DIR --max-bases N [--max-bytes B]
                                    [--keep value|recent] [--out DIR]

``run`` executes the batch pipeline (explore + OPTIMIZE) and prints the
answer; ``graph`` renders the query's GRAPH clause as an ASCII chart over
its x parameter; ``explain`` parses and binds the query, reporting the
scenario structure without simulating.  ``--save-store`` persists the
per-column basis stores after a run and ``--store`` warm-starts a later
run from them (one snapshot surface: :class:`repro.api.Session`):
repeated queries over the same scenario then pay only fingerprint rounds
for covered points.  Models are resolved against
:func:`repro.blackbox.default_registry`; applications embedding the library
register their own boxes and call the same functions programmatically.

``serve`` opens a snapshot as a warm :class:`~repro.api.Session` and
serves estimate/match/refine over the socket protocol
(:mod:`repro.serve`), printing one parseable ``SERVE_READY`` line when
listening; SIGTERM drains and exits 0, Ctrl-C drains and exits 130.
``store`` inspects (``info``) or load-checks (``verify``) a snapshot
without serving it, and runs the lifecycle maintenance passes offline:
``compact`` rewrites a snapshot tombstone-free at the current format
version (so it also migrates older snapshots), ``evict`` applies a
reuse-value-aware :class:`~repro.core.basis.EvictionPolicy` bound and
rewrites.

Sweeps are fault tolerant (see :mod:`repro.core.supervise`):
``--shard-timeout``/``--shard-retries`` tune the supervision policy,
``--checkpoint DIR`` persists completed-shard outcomes so an interrupted
run resumes from where it stopped, and Ctrl-C exits with code 130 after
flushing any ``--save-store`` snapshot — never a half-written one (saves
are atomic).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.blackbox import BlackBoxRegistry, default_registry
from repro.core.adaptive import (
    AdaptiveBudget,
    fixed_budget_samples,
    saved_fraction,
)
from repro.core.supervise import SupervisionPolicy
from repro.errors import JigsawError
from repro.interactive.plotting import render_graph
from repro.lang.binder import BoundQuery, compile_query
from repro.scenario import ScenarioRunner
from repro.util.tables import format_table


def _load(path: str, registry: Optional[BlackBoxRegistry]) -> BoundQuery:
    with open(path) as handle:
        source = handle.read()
    return compile_query(source, registry or default_registry())


def _command_explain(args: argparse.Namespace) -> int:
    bound = _load(args.query, None)
    scenario = bound.scenario
    rows = []
    for spec in scenario.parameters:
        if spec.is_chain:
            rows.append([f"@{spec.name}", "CHAIN", "(evolved)"])
        else:
            values = spec.values()
            preview = ", ".join(f"{v:g}" for v in values[:6])
            if len(values) > 6:
                preview += ", ..."
            rows.append([f"@{spec.name}", type(spec).__name__, preview])
    print(format_table(["parameter", "kind", "values"], rows))
    print(f"\noutput columns : {', '.join(scenario.output_columns)}")
    print(f"parameter space: {scenario.space.size()} points")
    print(f"optimize clause: {'yes' if bound.selector else 'no'}")
    print(f"graph clause   : {'yes' if bound.graph else 'no'}")
    return 0


def _adaptive_policy(args: argparse.Namespace) -> Optional[AdaptiveBudget]:
    """Build the stopping policy from ``--rtol``/``--confidence`` (or None)."""
    if args.rtol is None:
        return None
    return AdaptiveBudget(rtol=args.rtol, confidence=args.confidence)


def _supervision_policy(
    args: argparse.Namespace,
) -> Optional[SupervisionPolicy]:
    """Build the shard-supervision policy from ``--shard-timeout`` /
    ``--shard-retries`` (None keeps the library default)."""
    overrides = {}
    if args.shard_timeout is not None:
        overrides["timeout"] = args.shard_timeout
    if args.shard_retries is not None:
        overrides["max_attempts"] = args.shard_retries
    return SupervisionPolicy(**overrides) if overrides else None


def _build_runner(
    bound: BoundQuery, args: argparse.Namespace
) -> ScenarioRunner:
    return ScenarioRunner(
        bound.scenario,
        samples_per_point=args.samples,
        fingerprint_size=args.fingerprint,
        workers=args.workers,
        adaptive=_adaptive_policy(args),
        supervision=_supervision_policy(args),
        checkpoint=args.checkpoint,
    )


def _adaptive_note(args, stats) -> str:
    """Header annotation for an adaptive run: rounds saved vs fixed budget."""
    fixed = fixed_budget_samples(
        stats.points_total,
        stats.points_reused,
        args.samples,
        args.fingerprint,
    )
    saved = saved_fraction(stats.rounds_executed, fixed)
    return (
        f" [adaptive rtol={args.rtol:g} @ {args.confidence:.0%}: "
        f"saved {saved:.0%} of {fixed} fixed-budget rounds]"
    )


def _warm_start(runner: ScenarioRunner, args: argparse.Namespace) -> str:
    """Apply ``--store`` (load) before a run; returns the header note."""
    if not args.store:
        return ""
    runner.load_stores(args.store)
    return (
        f" [warm store: {runner.basis_count()} bases from {args.store}]"
    )


def _save_after(runner: ScenarioRunner, args: argparse.Namespace) -> None:
    """Apply ``--save-store`` after a run (atomic snapshot write)."""
    if args.save_store:
        runner.save_stores(args.save_store)
        print(
            f"stores saved to {args.save_store} "
            f"({runner.basis_count()} bases)",
            file=sys.stderr,
        )


def _interrupted(runner: ScenarioRunner, args: argparse.Namespace) -> int:
    """Ctrl-C landing: flush recoverable state, exit with code 130.

    Completed shards are already persisted by ``--checkpoint`` (each
    record is written atomically as it arrives); any bases the stores
    gathered are flushed to ``--save-store`` here via the atomic snapshot
    writer, so no half-written snapshot can be left behind either way.
    """
    try:
        _save_after(runner, args)
    except JigsawError as error:
        print(f"error while flushing stores: {error}", file=sys.stderr)
    note = ""
    if args.checkpoint:
        note = f"; completed shards checkpointed in {args.checkpoint}"
    print(f"interrupted{note}", file=sys.stderr)
    return 130


def _command_run(args: argparse.Namespace) -> int:
    bound = _load(args.query, None)
    runner = _build_runner(bound, args)
    warm_note = _warm_start(runner, args)
    try:
        result = runner.run()
    except KeyboardInterrupt:
        return _interrupted(runner, args)
    _save_after(runner, args)
    stats = result.stats
    sharding = ""
    if result.parallel is not None:
        sharding = (
            f" [{result.parallel.workers} workers, "
            f"{result.parallel.bases_collapsed} shard bases collapsed]"
        )
    adaptive_note = ""
    if args.rtol is not None:
        adaptive_note = _adaptive_note(args, stats)
    print(
        f"explored {stats.points_total} points | "
        f"{stats.rounds_executed} rounds "
        f"(reuse {stats.reuse_fraction:.0%}, {stats.bases_created} bases)"
        + sharding
        + adaptive_note
        + warm_note
    )
    if bound.selector is None:
        print("query has no OPTIMIZE clause; printing per-point expectations")
        rows = []
        for key, columns in sorted(result.metrics.items()):
            label = ", ".join(f"{n}={v:g}" for n, v in key)
            rows.append(
                [label]
                + [columns[c].expectation for c in bound.scenario.output_columns]
            )
        print(
            format_table(
                ["point"] + list(bound.scenario.output_columns), rows
            )
        )
        return 0
    answer = result.optimize(bound.selector)
    print(
        f"feasible groups: {len(answer.feasible_groups)} / "
        f"{len(answer.groups)}"
    )
    if answer.best is None:
        print("no feasible group satisfies the constraints")
        return 1
    best = answer.best_parameters()
    print(
        "best: " + ", ".join(f"@{name}={value:g}" for name, value in best.items())
    )
    return 0


def _command_graph(args: argparse.Namespace) -> int:
    bound = _load(args.query, None)
    if bound.graph is None:
        print("query has no GRAPH clause", file=sys.stderr)
        return 2
    runner = _build_runner(bound, args)
    _warm_start(runner, args)
    try:
        result = runner.run()
    except KeyboardInterrupt:
        return _interrupted(runner, args)
    _save_after(runner, args)
    x_parameter = bound.graph.x_parameter
    x_values = sorted(
        {params[x_parameter] for params in result.points.values()}
    )
    series = {}
    for metric, column, _ in bound.graph.series:
        points = []
        for x in x_values:
            matching = [
                result.metrics[key]
                for key, params in result.points.items()
                if params[x_parameter] == x
            ]
            values = [
                columns[column].expectation
                if metric == "expect"
                else columns[column].stddev
                for columns in matching
            ]
            points.append(sum(values) / len(values))
        series[f"{metric} {column}"] = points
    print(render_graph(x_parameter, x_values, series))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve a snapshot over the socket protocol until told to stop."""
    from repro.api import Session
    from repro.serve import BasisServer

    session = Session.open(args.store, mmap=not args.no_mmap)
    server = BasisServer(
        session,
        host=args.host,
        port=args.port,
        save_path=args.save_store,
    )
    server.start()
    # Handlers go in before the readiness line: an orchestrator may
    # signal the moment it reads it, and must still get a drain.
    server.install_signal_handlers()
    host, port = server.address
    # One parseable line for orchestrators (CI, the serve check):
    # everything needed to connect, nothing that varies per host.
    print(
        f"SERVE_READY host={host} port={port} "
        f"bases={session.basis_count()}",
        flush=True,
    )
    return server.serve_forever(install_signals=False)


def _command_store(args: argparse.Namespace) -> int:
    """Inspect, load-check, compact, or evict a snapshot directory."""
    import json

    from repro.core.persist import snapshot_info

    info = snapshot_info(args.path)
    if args.action == "info":
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    from repro.api import CompactRequest, EvictRequest, Session

    if args.action in ("compact", "evict"):
        # Lifecycle rewrites materialize the arrays (no mmap): the write
        # may replace the very files a mapped load would keep pages from.
        session = Session.open(args.path, mmap=False)
        target = args.out or args.path
        if args.action == "compact":
            response = session.compact(CompactRequest())
            session.save(target)
            print(
                f"compacted: dropped {sum(response.rows_dropped.values())} "
                f"tombstoned row(s); saved "
                f"{sum(response.bases.values())} bases to {target} "
                f"[version {snapshot_info(target)['version']}]"
            )
            return 0
        if args.max_bases is None and args.max_bytes is None:
            print(
                "error: evict needs --max-bases and/or --max-bytes",
                file=sys.stderr,
            )
            return 2
        response = session.evict(
            EvictRequest(
                max_bases=args.max_bases,
                max_bytes=args.max_bytes,
                keep=args.keep,
            )
        )
        session.save(target)
        evicted_total = sum(len(ids) for ids in response.evicted.values())
        print(
            f"evicted {evicted_total} basis/bases "
            f"({json.dumps({k: list(v) for k, v in sorted(response.evicted.items())})}); "
            f"saved {sum(response.bases.values())} bases to {target}"
        )
        return 0
    # verify: actually load every store (mmap) through the Session
    # surface, so index rebuild + CRC + compatibility checks all run.
    session = Session.open(args.path)
    counts = {
        name: len(store) for name, store in session.stores.items()
    }
    recorded = {
        name: entry["bases"] for name, entry in info["stores"].items()
    }
    if counts != recorded:
        print(
            f"error: snapshot at {args.path} loads {counts} bases but "
            f"records {recorded}",
            file=sys.stderr,
        )
        return 2
    print(
        f"snapshot OK: {sum(counts.values())} bases across "
        f"{len(counts)} store(s) [version {info['version']}]"
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be strictly between 0 and 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Jigsaw query runner"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("run", _command_run),
        ("graph", _command_graph),
        ("explain", _command_explain),
    ):
        sub = subparsers.add_parser(name)
        sub.add_argument("query", help="path to a Jigsaw query file")
        sub.add_argument("--samples", type=int, default=200)
        sub.add_argument("--fingerprint", type=int, default=10)
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help=(
                "shard the sweep across this many processes (per-point "
                "estimates are bit-identical to --workers 1)"
            ),
        )
        sub.add_argument(
            "--rtol",
            type=_positive_float,
            default=None,
            help=(
                "adaptive sampling: stop each point once the confidence "
                "interval on every output's mean is within this relative "
                "tolerance (--samples stays the hard cap); omit for the "
                "fixed budget"
            ),
        )
        sub.add_argument(
            "--confidence",
            type=_open_unit_float,
            default=0.95,
            help="confidence level for --rtol stopping (default 0.95)",
        )
        sub.add_argument(
            "--store",
            default=None,
            help=(
                "warm-start the per-column basis stores from this snapshot "
                "directory (must match the query's mapping families, "
                "tolerances, and seed bank; incompatible snapshots are "
                "refused)"
            ),
        )
        sub.add_argument(
            "--save-store",
            default=None,
            help=(
                "after the run, save the (possibly warm-started) basis "
                "stores to this snapshot directory for later --store runs"
            ),
        )
        sub.add_argument(
            "--checkpoint",
            default=None,
            help=(
                "persist completed-shard outcomes to this directory as the "
                "sweep runs; an interrupted run re-invoked with the same "
                "arguments resumes from them (results stay bit-identical "
                "to an uninterrupted run)"
            ),
        )
        sub.add_argument(
            "--shard-timeout",
            type=_positive_float,
            default=None,
            help=(
                "per-shard-attempt deadline in seconds; a shard past it is "
                "abandoned and retried on a fresh pool (default: none)"
            ),
        )
        sub.add_argument(
            "--shard-retries",
            type=_positive_int,
            default=None,
            help=(
                "total attempts per shard before degrading to in-process "
                "recomputation (default 3; crashes and timeouts are "
                "retried, application errors are not)"
            ),
        )
        sub.set_defaults(handler=handler)

    serve = subparsers.add_parser(
        "serve", help="serve a snapshot over the socket protocol"
    )
    serve.add_argument(
        "--store",
        required=True,
        help="snapshot directory to serve (opened zero-copy via mmap)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to listen on (0 picks a free one; see SERVE_READY)",
    )
    serve.add_argument(
        "--save-store",
        default=None,
        help=(
            "flush the (possibly refined) stores to this snapshot "
            "directory on shutdown (atomic)"
        ),
    )
    serve.add_argument(
        "--no-mmap",
        action="store_true",
        help="materialize arrays instead of memory-mapping the snapshot",
    )
    serve.set_defaults(handler=_command_serve)

    store = subparsers.add_parser(
        "store",
        help="inspect, verify, compact, or evict a snapshot directory",
    )
    store.add_argument(
        "action",
        choices=("info", "verify", "compact", "evict"),
        help=(
            "info: print the manifest summary; verify: load-check it; "
            "compact: rewrite tombstone-free at the current snapshot "
            "version (migrates older formats); evict: apply an eviction "
            "policy and rewrite"
        ),
    )
    store.add_argument("path", help="snapshot directory")
    store.add_argument(
        "--max-bases",
        type=int,
        default=None,
        help="evict: bound each store to this many bases",
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict: bound each store's resident sample bytes",
    )
    store.add_argument(
        "--keep",
        choices=("value", "recent"),
        default="value",
        help=(
            "evict: ranking — 'value' retires the least-hit bases first, "
            "'recent' the oldest (default value)"
        ),
    )
    store.add_argument(
        "--out",
        default=None,
        help=(
            "compact/evict: write the result here instead of rewriting "
            "the snapshot in place"
        ),
    )
    store.set_defaults(handler=_command_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Interrupts inside a sweep are flushed by the command handlers;
        # this is the boundary for everything outside one.
        print("interrupted", file=sys.stderr)
        return 130
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except JigsawError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

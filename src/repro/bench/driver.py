"""Regenerate every table and figure of the paper's evaluation as text.

Usage (``benchmarks/run_all.py`` is this module's ``main``)::

    python benchmarks/run_all.py [--scale smoke|quick|paper] [--workers N]
                                 [--only FIGURE] [--rtol R [--confidence C]]
                                 [--warm-store DIR]
                                 [--checkpoint DIR] [--out results.txt]
                                 [--bench-out BENCH_run_all.json]
                                 [--data-out figure_data.json]

``quick`` (default) runs laptop-sized sweeps in seconds on the batch
sampling engine; ``paper`` runs the paper-sized configurations (1000
samples/point over the full parameter spaces); ``smoke`` is the tiny
deterministic configuration the CI checks (:mod:`repro.bench.checks`)
compare against their committed baselines.  Either way the *shapes* — who
wins, by roughly what factor, where crossovers fall — are the reproduced
quantity; absolute times depend on the host.

Alongside the text report, a machine-readable ``BENCH_run_all.json`` is
written with per-figure work counters (samples drawn, candidates tested,
reuse fraction).  It carries no clock and no host-derived key — a pure
function of (tree, flags), so a rerun rewrites it byte for byte; the time
series live in the text report only, and every wall-clock claim is
``perfbench/``'s to make.  ``--data-out`` additionally dumps each
figure's deterministic data points (``FigureResult.data``) for exact
estimate comparisons.

**One rule guards every bench document** (:func:`incompatibility`): it
may only replace, be merged into, or be diffed against a document
produced under the same conditions — its :func:`provenance`.  A run under
other conditions is written only where ``--bench-out`` points elsewhere.
"""

import argparse
import json
import os
import sys
from typing import Dict, Optional

from repro.bench.figures import FIGURES
from repro.core.adaptive import AdaptiveBudget
from repro.errors import EstimatorError
from repro.util import timing

REPO_ROOT = os.path.dirname(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
)


def provenance(document: dict) -> Dict[str, object]:
    """The conditions a bench document was produced under.

    Read from the tags documents already carry, with the defaults of the
    documents that predate each tag (a missing ``workers`` key is a
    serial run, and so on), so every committed baseline loads unchanged:

    * ``scale`` — workload sizes;
    * ``workers`` — the serial run is the reference: sharded counters
      equal it by the replay-merge contract, which is the claim the
      ``smoke:workers=4`` check tests, so a sharded run must never
      become what it is tested against;
    * ``adaptive`` — an adaptive stopping policy draws fewer samples by
      design;
    * ``warm_store`` — a warm start reuses prior-run bases, so its
      counters reflect cross-run amortization.
    """
    return {
        "scale": document.get("scale"),
        "workers": document.get("workers", 1),
        "adaptive": document.get("adaptive"),
        "warm_store": bool(document.get("warm_store", False)),
    }


def incompatibility(existing: object, candidate: dict) -> Optional[str]:
    """Why ``candidate`` may not replace or be compared with ``existing``.

    None when both were produced under the same conditions; otherwise a
    sentence naming the first differing provenance field (or that
    ``existing`` is not a bench document at all).
    """
    if not (
        isinstance(existing, dict)
        and isinstance(existing.get("figures"), dict)
        and all(isinstance(e, dict) for e in existing["figures"].values())
    ):
        return "existing file has an unrecognized shape"
    theirs, ours = provenance(existing), provenance(candidate)
    for field, value in ours.items():
        if theirs[field] != value:
            return (
                f"existing baseline has {field}={theirs[field]!r}, "
                f"this run has {field}={value!r}"
            )
    return None


def load_document(path: str):
    """The JSON document at ``path``; ValueError (naming the path) when
    it is absent or unparsable — the one loader of every driver and gate."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read {path}: {error}") from None


def write_document(path: str, document) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _merge_partial(existing: Optional[dict], bench: dict) -> dict:
    """Fold a ``--only`` run into the compatible baseline it would replace.

    A partial run must never erase the other figures' entries: update
    just the selected figure.  Whenever the result covers fewer than all
    figures it carries a ``partial`` key listing what it does cover, and
    any figure entry stitched in by an ``--only`` run stays listed under
    ``merged_figures`` — so nobody mistakes the file for one full-suite
    measurement (a plain full run writes neither key).
    """
    merged_figures = set(bench["figures"])
    if existing is not None:
        merged_figures |= set(existing.get("merged_figures", ()))
        figures = dict(existing["figures"])
        figures.update(bench["figures"])
        bench = dict(existing, **bench)
        bench["figures"] = figures
    else:
        bench = dict(bench)
    bench["merged_figures"] = sorted(merged_figures)
    if set(bench["figures"]) >= {figure.name for figure in FIGURES}:
        bench.pop("partial", None)
    else:
        bench["partial"] = sorted(bench["figures"])
    return bench


def _reconcile(bench_out: str, bench: dict, partial: bool) -> Optional[dict]:
    """The document to write at ``bench_out``, or None after refusing.

    The file there is the counter baseline acceptance criteria compare
    against, so a run under other conditions — or over a file this
    driver cannot read — leaves it untouched.
    """
    existing = None
    if os.path.exists(bench_out):
        try:
            existing = load_document(bench_out)
            reason = incompatibility(existing, bench)
        except ValueError as error:
            reason = str(error)
        if reason is not None:
            print(
                f"not overwriting {bench_out}: {reason}; pass --bench-out "
                f"to write elsewhere",
                file=sys.stderr,
            )
            return None
    return _merge_partial(existing, bench) if partial else bench


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=("smoke", "quick", "paper"),
        default="quick",
        help="workload sizes: smoke (CI checks), quick (seconds) or "
        "paper (minutes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the explorer sweeps (fig8-11) across this many "
        "processes; deterministic counters are bit-identical to the "
        "serial run by the engine's replay-merge invariant",
    )
    parser.add_argument(
        "--only", default=None, help="run one experiment, e.g. --only fig9"
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=None,
        help="adaptive per-point stopping at this relative tolerance for "
        "the explorer sweeps; figures then record samples_saved_fraction",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for --rtol stopping (default 0.95)",
    )
    parser.add_argument(
        "--warm-store",
        default=None,
        help="persist the explorer sweeps' basis stores under this "
        "directory (one snapshot per sweep, see repro.core.persist) and "
        "warm-start from any snapshots already there: a rerun draws only "
        "fingerprint rounds for covered points and reproduces the cold "
        "estimates exactly; figures then record warm_reuse_fraction",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="persist the explorer sweeps' completed-shard outcomes under "
        "this directory as they run; an interrupted run (exit code 130) "
        "re-invoked with the same arguments resumes from them, with "
        "counters bit-identical to an uninterrupted run (delete the "
        "directory after a completed run)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    parser.add_argument(
        "--bench-out",
        default=os.path.join(REPO_ROOT, "BENCH_run_all.json"),
        help="machine-readable per-figure counters (empty string disables)",
    )
    parser.add_argument(
        "--data-out",
        default=None,
        help="also write each figure's deterministic data points "
        "(FigureResult.data) to this JSON file",
    )
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    figures = FIGURES
    if args.only is not None:
        figures = tuple(f for f in FIGURES if f.name == args.only)
        if not figures:
            parser.error(
                f"unknown experiment {args.only!r}; choose from "
                f"{sorted(figure.name for figure in FIGURES)}"
            )
    adaptive = None
    if args.rtol is not None:
        try:
            adaptive = AdaptiveBudget(
                rtol=args.rtol, confidence=args.confidence
            )
        except EstimatorError as error:
            parser.error(str(error))
    elif args.confidence != 0.95:
        print("--confidence has no effect without --rtol", file=sys.stderr)
    warm_store = args.warm_store or None
    if not any(figure.sweep for figure in figures):
        # Nothing selected consumes the sweep options: the run is
        # bit-identical to one without them, so don't tag (and later
        # refuse to merge) a document they never influenced.
        selected = "/".join(figure.name for figure in figures)
        if adaptive is not None:
            print(
                f"--rtol has no effect on {selected}; running fixed-budget",
                file=sys.stderr,
            )
        if warm_store is not None:
            print(
                f"--warm-store has no effect on {selected}; running cold",
                file=sys.stderr,
            )
        adaptive = warm_store = None
    checkpoint = args.checkpoint or None
    sweep_options = {
        "workers": args.workers,
        "adaptive": adaptive,
        "warm_store": warm_store,
        "checkpoint": checkpoint,
    }

    # Provenance tags beyond scale/workers are written only when set, so
    # default documents stay byte-identical to the ones that predate them.
    bench = {
        "scale": args.scale,
        "workers": args.workers,
        "figures": {},
    }
    if adaptive is not None:
        bench["adaptive"] = {
            "rtol": adaptive.rtol,
            "confidence": adaptive.confidence,
        }
    if warm_store is not None:
        bench["warm_store"] = True

    sections = []
    data_doc = {}
    for figure in figures:
        started = timing.perf_counter()
        print(
            f"running {figure.name} ({args.scale} scale)...", file=sys.stderr
        )
        try:
            result = figure.runner(
                args.scale, **(sweep_options if figure.sweep else {})
            )
        except KeyboardInterrupt:
            # Figure sweeps flush completed-shard records through
            # --checkpoint as they arrive (each write is atomic), so
            # everything finished before Ctrl-C is already on disk; the
            # partially measured figure is discarded and the same
            # invocation resumes it.
            note = (
                f"; re-run with --checkpoint {checkpoint} to resume"
                if checkpoint
                else ""
            )
            print(f"interrupted during {figure.name}{note}", file=sys.stderr)
            return 130
        elapsed = timing.perf_counter() - started
        if isinstance(result, str):
            text, counters = result, {}
        else:
            text, counters = result.to_text(), result.counters
            data_doc[figure.name] = result.data
        bench["figures"][figure.name] = {
            key: round(float(value), 6) for key, value in counters.items()
        }
        sections.append(f"{text}\n  [regenerated in {elapsed:.1f}s]")

    report = ("\n\n" + "=" * 76 + "\n\n").join(sections)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"\nwritten to {args.out}", file=sys.stderr)
    if args.data_out:
        write_document(args.data_out, data_doc)
        print(f"figure data written to {args.data_out}", file=sys.stderr)
    if args.bench_out:
        bench = _reconcile(args.bench_out, bench, args.only is not None)
        if bench is not None:
            write_document(args.bench_out, bench)
            print(
                f"bench counters written to {args.bench_out}",
                file=sys.stderr,
            )
    return 0

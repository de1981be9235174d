"""The named checks CI gates on: a derived run answers exactly as its reference.

Usage (``benchmarks/check_regression.py`` is this module's ``main``)::

    PYTHONPATH=src python benchmarks/check_regression.py CHECK [CHECK ...]
    PYTHONPATH=src python benchmarks/check_regression.py --refresh smoke golden serve

Every check is one instance of the same contract — *the derived run
answers exactly as the reference run* — so each is a ``measure`` (run the
derived configuration, return its evidence) and a pure ``judge``
(evidence + committed baselines -> failure strings, empty = pass):

=========  ==========================================================
smoke      the whole figure suite at ``--scale smoke``; every
           deterministic counter equals the committed serial baseline.
           ``smoke:workers=4`` shards the sweeps — by the replay-merge
           contract the *same* baseline must still match.
warm       cold pass saving every sweep's store, then warm reruns
           serial and with 4 workers: cold == baseline, warm reproduces
           the cold estimates exactly with strictly fewer samples,
           warm serial == warm sharded.
faults     the suite at 4 workers with shard 1's first attempt of every
           sweep crashed: the supervised retry must reproduce the
           serial baseline, and the injection must actually have fired.
lifecycle  a warmed store evicted to half its size answers every probe
           exactly like a store rebuilt from only the survivors; a
           store built by adds with no read between them (its index
           keys them late, in bulk) snapshots to the same bytes and
           answers the same as one probed after every add; the
           committed version-1, -2 and -3 snapshot fixtures still
           load.
golden     per-figure data points (estimates, reuse decisions, jump
           counts) equal ``benchmarks/golden/*.json`` float-for-float.
serve      a real daemon under concurrent load at smoke scale: request
           counters, final store counters and the SIGTERM drain record
           equal the committed serve baseline.
=========  ==========================================================

Counters are pure functions of the fixed seed bank, so any drift is a
real behaviour change — a bug, or an intentional change that ships with
``--refresh`` (which re-measures and rewrites the baseline files of the
named checks, printing what changed) and an explanation.  The measured
documents carry no clock and no host-derived key, so they equal the
committed files verbatim and a refresh of an unchanged tree rewrites
them byte for byte; no check bounds wall clock (CI's job timeout is the
runaway guard, ``perfbench/`` the ruler).

Exit status 0 when every named check passes, 1 otherwise.
"""

import argparse
import hashlib
import inspect
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import EstimateRequest, MatchRequest
from repro.bench import driver, serve
from repro.bench.driver import (
    REPO_ROOT,
    incompatibility,
    load_document,
    write_document,
)
from repro.bench.figures import FIGURES
from repro.core import persist
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.fingerprint import Fingerprint
from repro.serve import build_fixture_session, build_request_stream
from repro.testing import FaultPlan, use_faults

BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks")
SMOKE_BASELINE = "BENCH_smoke_baseline.json"
SERVE_BASELINE = "BENCH_serve_smoke_baseline.json"
#: Committed older-format snapshots (see ROADMAP subsystem notes): the
#: lifecycle check proves the version-compat branches still read them.
V1_FIXTURE = os.path.join(REPO_ROOT, "tests", "unit", "data", "snapshot_v1")
V2_FIXTURE = os.path.join(REPO_ROOT, "tests", "unit", "data", "snapshot_v2")
V3_FIXTURE = os.path.join(REPO_ROOT, "tests", "unit", "data", "snapshot_v3")

#: Every check measures at the one scale the baselines were committed at.
SCALE = "smoke"

#: Figures whose data points are pinned under ``benchmarks/golden/``.
GOLDEN = {figure.name: figure for figure in FIGURES if figure.golden}
_SWEEP_FIGURES = frozenset(f.name for f in FIGURES if f.sweep)

#: Counters only a --warm-store run records; ignored when a warm-driver
#: cold pass is compared with the (cold, untagged) committed baseline.
WARM_ONLY_KEYS = frozenset({"warm_reuse_fraction", "warm_loaded_bases"})
#: Per-point data a warm rerun must reproduce exactly.  Work counters in
#: the digests (points_reused, bases_created) legitimately differ — warm
#: runs reuse prior-run bases — but the *estimates* may not move a bit.
WARM_EXACT_DATA_KEYS = ("mean_expectation", "mean_stddev")


def exact_diff(expected, actual, path="$") -> List[str]:
    """Recursive exact diff; one string per difference, naming its path."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        differences = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                differences.append(f"{path}.{key}: unexpected")
            elif key not in actual:
                differences.append(f"{path}.{key}: missing")
            else:
                differences.extend(
                    exact_diff(expected[key], actual[key], f"{path}.{key}")
                )
        return differences
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        differences = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            differences.extend(exact_diff(left, right, f"{path}[{index}]"))
        return differences
    if expected != actual:
        return [f"{path}: {actual!r} != expected {expected!r}"]
    return []


def gated(document, ignored=frozenset()):
    """Copy of a JSON document as it would read back from disk (so tuples
    and float formatting compare equal to a committed file's), without
    its ``ignored`` keys."""
    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key not in ignored
            }
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    return strip(json.loads(json.dumps(document)))


def _run_suite(*options: str) -> Tuple[dict, dict]:
    """One in-process smoke pass of the figure driver: (bench, data)."""
    with tempfile.TemporaryDirectory() as scratch:
        bench_path = os.path.join(scratch, "bench.json")
        data_path = os.path.join(scratch, "data.json")
        driver.main(
            [
                "--scale", SCALE,
                "--bench-out", bench_path,
                "--data-out", data_path,
                *options,
            ]
        )
        return load_document(bench_path), load_document(data_path)


def _drift_from_smoke_baseline(bench: dict, baselines: dict) -> List[str]:
    """Counters of ``bench`` that differ from the committed serial, cold,
    fixed-budget, numpy baseline's."""
    baseline = baselines[SMOKE_BASELINE]
    reason = incompatibility(baseline, {"scale": SCALE})
    if reason is not None:
        return [f"{SMOKE_BASELINE} is not the reference run: {reason}"]
    return exact_diff(baseline["figures"], bench["figures"], "figures")


# -- smoke ------------------------------------------------------------------


def _measure_smoke(workers="1") -> dict:
    return _run_suite("--workers", str(workers))[0]


# -- warm -------------------------------------------------------------------


def _measure_warm() -> dict:
    """Cold pass (saves every sweep's store), warm rerun, warm rerun x4."""
    passes = {}
    with tempfile.TemporaryDirectory() as stores:
        for tag, workers in (("cold", "1"), ("warm", "1"), ("warm4", "4")):
            bench, data = _run_suite(
                "--warm-store", stores, "--workers", workers
            )
            passes[tag] = {"bench": bench, "data": data}
    return passes


def _estimates(data: dict) -> dict:
    return {
        key: {m: point[m] for m in WARM_EXACT_DATA_KEYS if m in point}
        for key, point in data.items()
    }


def _storeless(figures: dict) -> dict:
    """The entries of figures with no store to persist (fig7/fig12/...)."""
    return {
        name: entry
        for name, entry in figures.items()
        if name not in _SWEEP_FIGURES
    }


def _judge_warm(passes: dict, baselines: dict) -> List[str]:
    cold, warm, warm4 = (passes[tag] for tag in ("cold", "warm", "warm4"))
    # (a) Warm plumbing over an empty store directory is bitwise-neutral.
    failures = [
        f"cold pass drifted from baseline at {difference}"
        for difference in _drift_from_smoke_baseline(
            gated(cold["bench"], WARM_ONLY_KEYS), baselines
        )
    ]
    # (b) Warm rerun: exact estimates, strictly fewer samples.
    for figure in sorted(_SWEEP_FIGURES):
        cold_samples, warm_samples = (
            run["bench"]["figures"].get(figure, {}).get("samples_drawn")
            for run in (cold, warm)
        )
        if cold_samples is None or warm_samples is None:
            failures.append(f"{figure}: samples_drawn missing from a run")
        elif not warm_samples < cold_samples:
            failures.append(
                f"{figure}: warm rerun drew {warm_samples} samples, not "
                f"strictly fewer than the cold run's {cold_samples}"
            )
        failures += exact_diff(
            _estimates(cold["data"].get(figure, {})),
            _estimates(warm["data"].get(figure, {})),
            f"warm estimates of {figure}",
        )
    # (b') Figures with no store must be untouched by warm plumbing.
    failures += exact_diff(
        _storeless(cold["bench"]["figures"]),
        _storeless(warm["bench"]["figures"]),
        "warm counters of a figure without a store",
    )
    failures += exact_diff(
        _storeless(cold["data"]),
        _storeless(warm["data"]),
        "warm data of a figure without a store",
    )
    # (c) Warm serial and warm sharded agree exactly.
    failures += exact_diff(
        warm["bench"]["figures"],
        warm4["bench"]["figures"],
        "warm 4-worker counters",
    )
    failures += exact_diff(warm["data"], warm4["data"], "warm 4-worker data")
    return failures


# -- faults -----------------------------------------------------------------


def _measure_faults() -> dict:
    plan = FaultPlan({(1, 1): "crash"})
    with use_faults(plan):
        bench, _ = _run_suite("--workers", "4")
    return {"bench": bench, "fault_fired": bool(plan.triggered)}


def _judge_faults(evidence: dict, baselines: dict) -> List[str]:
    failures = _drift_from_smoke_baseline(evidence["bench"], baselines)
    if not evidence["fault_fired"]:
        failures.append(
            "fault plan never fired: the injection seam is disconnected, "
            "so the check exercised nothing"
        )
    return failures


# -- lifecycle --------------------------------------------------------------

_LIFECYCLE_BASES = 32
_V1_EXPECTED = {"version": 1, "bases": 5, "hits": 0, "answers_probe": True}
_V2_EXPECTED = {"version": 2, "bases": 6, "hits": 5, "answers_probe": True}
_V3_EXPECTED = {"version": 3, "bases": 6, "hits": 6, "answers_probe": True}


def _answer(store: BasisStore, fingerprint, renumbered=None) -> dict:
    """One probe's whole answer: basis, bitwise mapping, work done."""
    before = store.stats.candidates_tested
    match = store.match(fingerprint)
    answer = {
        "candidates_tested": store.stats.candidates_tested - before,
        "basis": None,
        "mapping": None,
    }
    if match is not None:
        basis_id = match.basis.basis_id
        if renumbered is not None:
            basis_id = renumbered.get(basis_id, f"retired id {basis_id}")
        answer["basis"] = basis_id
        answer["mapping"] = persist.encode_mapping(match.mapping)
    return answer


def _load_fixture(path: str) -> dict:
    """An older-format snapshot loaded by this tree (version-1 snapshots
    predate reuse counters: they restore cold)."""
    try:
        version = persist.snapshot_info(path)["version"]
        loaded = persist.load_store(path, mmap=False)
        hits = sum(basis.hits for basis in loaded.bases)
        answers = loaded.match(loaded.bases[0].fingerprint) is not None
    except Exception as error:  # noqa: BLE001
        # Not a degrade: whatever stops the fixture loading is the
        # finding, and the judge fails the check on it by name.
        return {"error": f"{type(error).__name__}: {error}"}
    return {
        "version": version,
        "bases": len(loaded),
        "hits": hits,
        "answers_probe": answers,
    }


def _empty_like(store: BasisStore) -> BasisStore:
    """A fresh store that matches the way ``store`` does."""
    fresh = BasisStore(
        mapping_family=type(store.mapping_family)(),
        index_strategy=type(store.index).strategy,
    )
    fresh.columnar_min_candidates = store.columnar_min_candidates
    fresh.columnar_check.exhaust()
    return fresh


def _built_by_adds(source, fingerprints, read_between: bool) -> dict:
    """``source``'s bases added to a fresh store — the index read after
    every add, or not once — then evicted to half and saved: the
    snapshot's bytes (a digest per file) and every probe's answer."""
    store = _empty_like(source)
    for basis in source.bases:
        # A twin: no store sees a key the other one's reads computed.
        fingerprint = Fingerprint(basis.fingerprint.values)
        store.add(fingerprint, basis.samples)
        if read_between:
            store.index.candidates(fingerprint)
    store.evict(EvictionPolicy(max_bases=_LIFECYCLE_BASES // 2))
    with tempfile.TemporaryDirectory(prefix="repro-lifecycle-") as scratch:
        path = os.path.join(scratch, "snapshot")
        persist.save_store(store, path)
        snapshot = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as handle:
                snapshot[name] = hashlib.sha256(handle.read()).hexdigest()
    return {
        "snapshot": snapshot,
        "answers": [_answer(store, fp) for fp in fingerprints],
    }


def _measure_lifecycle() -> dict:
    """Warm a fixture store with a deterministic probe stream, evict half
    of it by the reuse-value policy, and answer every probe from both the
    lived-in store and a fresh store built from only the survivors."""
    session = build_fixture_session(bases=_LIFECYCLE_BASES, seed=2026)
    store = session.store()
    store.columnar_check.exhaust()
    fingerprints = [
        Fingerprint(request.fingerprint)
        for request in build_request_stream(
            session, 200, seed=9, stats_every=0
        )
        if isinstance(request, (MatchRequest, EstimateRequest))
    ]
    burst = {  # from the whole fixture, before anything is evicted
        "keyed_on_arrival": _built_by_adds(store, fingerprints, True),
        "keyed_late": _built_by_adds(store, fingerprints, False),
    }
    for fingerprint in fingerprints:  # warm: bump reuse counters
        store.match(fingerprint)
    evicted = store.evict(EvictionPolicy(max_bases=_LIFECYCLE_BASES // 2))

    rebuild = _empty_like(store)
    renumbered = {}
    for new_id, basis in enumerate(store.bases):
        renumbered[basis.basis_id] = new_id
        rebuild.add(basis.fingerprint, basis.samples)
    return {
        "eviction": {"survivors": len(store), "evicted": len(evicted)},
        "lived": [_answer(store, fp, renumbered) for fp in fingerprints],
        "rebuilt": [_answer(rebuild, fp) for fp in fingerprints],
        "burst": burst,
        "v1_fixture": _load_fixture(V1_FIXTURE),
        "v2_fixture": _load_fixture(V2_FIXTURE),
        "v3_fixture": _load_fixture(V3_FIXTURE),
    }


def _judge_lifecycle(evidence: dict, baselines: dict) -> List[str]:
    half = _LIFECYCLE_BASES // 2
    return (
        exact_diff(
            {"survivors": half, "evicted": _LIFECYCLE_BASES - half},
            evidence["eviction"],
            "eviction",
        )
        + exact_diff(evidence["rebuilt"], evidence["lived"], "lived")
        + exact_diff(
            evidence["burst"]["keyed_on_arrival"],
            evidence["burst"]["keyed_late"],
            "burst.keyed_late",
        )
        + exact_diff(_V1_EXPECTED, evidence["v1_fixture"], "v1_fixture")
        + exact_diff(_V2_EXPECTED, evidence["v2_fixture"], "v2_fixture")
        + exact_diff(_V3_EXPECTED, evidence["v3_fixture"], "v3_fixture")
    )


# -- golden -----------------------------------------------------------------


def golden_path(figure: str) -> str:
    return os.path.join(BASELINE_DIR, "golden", f"{figure}.json")


def measure_golden(figure: str) -> dict:
    """One figure's golden document (data points + provenance)."""
    result = GOLDEN[figure].runner(SCALE)
    return {"figure": figure, "scale": SCALE, "data": result.data}


def _measure_golden() -> dict:
    return {f"golden/{name}.json": measure_golden(name) for name in GOLDEN}


def _judge_golden(measured: dict, baselines: dict) -> List[str]:
    return exact_diff(baselines, gated(measured))


# -- serve ------------------------------------------------------------------


def _judge_serve(report: dict, baselines: dict) -> List[str]:
    return exact_diff(baselines, {SERVE_BASELINE: report})


# -- the registry and its one runner ----------------------------------------


@dataclass(frozen=True)
class Check:
    """``measure(**params)`` runs the derived configuration and returns
    its evidence; ``judge(evidence, baselines)`` is pure and returns
    failure strings; ``baselines`` are the files under ``benchmarks/``
    the judge reads; ``committed(evidence)`` — for the checks that own
    baseline files — maps each to the document ``--refresh`` writes."""

    proves: str
    measure: Callable[..., object]
    judge: Callable[[object, dict], List[str]]
    baselines: Tuple[str, ...] = ()
    committed: Optional[Callable[[object], Dict[str, object]]] = None


CHECKS: Dict[str, Check] = {
    "smoke": Check(
        "every figure's deterministic counters equal the committed serial "
        "baseline",
        _measure_smoke,
        _drift_from_smoke_baseline,
        (SMOKE_BASELINE,),
        lambda bench: {SMOKE_BASELINE: bench},
    ),
    "warm": Check(
        "cold pass matches the baseline; warm reruns (serial and 4 "
        "workers) reproduce cold estimates exactly with strictly fewer "
        "samples",
        _measure_warm,
        _judge_warm,
        (SMOKE_BASELINE,),
    ),
    "faults": Check(
        "one shard crashed and was retried in every sweep; counters still "
        "equal the serial baseline",
        _measure_faults,
        _judge_faults,
        (SMOKE_BASELINE,),
    ),
    "lifecycle": Check(
        "an evicted store answers exactly like a survivors-only rebuild; "
        "a store whose index keyed a burst of adds late snapshots and "
        "answers like one keyed on arrival; the version-1, -2 and -3 "
        "snapshot fixtures still load",
        _measure_lifecycle,
        _judge_lifecycle,
    ),
    "golden": Check(
        f"data points of {len(GOLDEN)} figures equal the golden files",
        _measure_golden,
        _judge_golden,
        tuple(f"golden/{name}.json" for name in GOLDEN),
        lambda measured: measured,
    ),
    "serve": Check(
        "served counters, final store counters and the SIGTERM drain "
        "equal the committed serve baseline",
        lambda: serve.run_bench(SCALE),
        _judge_serve,
        (SERVE_BASELINE,),
        lambda report: {SERVE_BASELINE: report},
    ),
}


def parse_spec(spec: str) -> Tuple[Check, Dict[str, str]]:
    """``name[:key=value[,key=value]]`` -> (check, measure parameters);
    ValueError when the name or a parameter is not one the check takes."""
    name, _, tail = spec.partition(":")
    if name not in CHECKS:
        raise ValueError(
            f"unknown check {name!r}; choose from {sorted(CHECKS)}"
        )
    params = {}
    for part in filter(None, tail.split(",")):
        key, _, value = part.partition("=")
        params[key] = value
    try:
        inspect.signature(CHECKS[name].measure).bind(**params)
    except TypeError as error:
        raise ValueError(f"check {name!r}: {error}") from None
    return CHECKS[name], params


def load_baselines(check: Check) -> dict:
    return {
        file: load_document(os.path.join(BASELINE_DIR, file))
        for file in check.baselines
    }


def run_check(spec: str) -> List[str]:
    """Failure strings of one named check (empty = pass)."""
    check, params = parse_spec(spec)
    try:
        baselines = load_baselines(check)
    except ValueError as error:
        return [str(error)]
    return check.judge(check.measure(**params), baselines)


def refresh(check: Check) -> List[str]:
    """Re-measure and rewrite the check's baseline files; returns what
    changed against the previous ones."""
    evidence = check.measure()
    try:
        changes = check.judge(evidence, load_baselines(check))
    except ValueError as error:
        changes = [f"no usable previous baseline ({error})"]
    for file, document in check.committed(evidence).items():
        write_document(os.path.join(BASELINE_DIR, file), document)
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "checks",
        nargs="+",
        metavar="CHECK",
        help=f"one of {', '.join(CHECKS)}, optionally parametrised "
        f"(smoke:workers=4)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="after an intentional change: re-measure the named checks "
        "and rewrite their committed baseline files instead of gating",
    )
    args = parser.parse_args(argv)
    selected = []
    for spec in args.checks:
        try:
            check, params = parse_spec(spec)
        except ValueError as error:
            parser.error(str(error))
        if args.refresh and (params or check.committed is None):
            parser.error(
                f"--refresh {spec}: only an unparametrised "
                f"{'/'.join(n for n, c in CHECKS.items() if c.committed)} "
                f"owns baseline files"
            )
        selected.append((spec, check))

    status = 0
    for spec, check in selected:
        if args.refresh:
            changes = refresh(check)
            print(
                f"{spec} baseline refreshed; "
                + ("what changed:" if changes else "nothing changed.")
            )
            for change in changes:
                print(f"  - {change}")
            continue
        failures = run_check(spec)
        if not failures:
            print(f"{spec} check passed: {check.proves}")
            continue
        status = 1
        print(f"{spec} check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
    if status:
        print(
            "\nIf the change is intentional, refresh the baselines and "
            "commit the diff alongside an explanation:\n"
            "  PYTHONPATH=src python benchmarks/check_regression.py "
            "--refresh smoke golden serve",
            file=sys.stderr,
        )
    return status

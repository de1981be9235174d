"""The benchmark checks itself: names, units, span accounting, oracles.

Runs every workload at its tiny ``smoke`` sizes (a few seconds in all,
one real daemon subprocess included) and asserts that

* what the workloads emit is exactly what ``BENCHMARK.json`` declares,
* the stage spans of a traced sweep account for its wall clock,
* every oracle *fails* when it is fed a lying store or response, and
* ``--compare`` tells worse from unresolved from fine.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERFBENCH_DIR)

import pb_common as common  # noqa: E402
import run  # noqa: E402
from pb_churn import ChurnWorkload, check_against_rebuild  # noqa: E402
from pb_serve import ServeWorkload, check_wire_answer  # noqa: E402
from pb_sweeps import SweepWorkload  # noqa: E402

from repro.api.messages import EstimateRequest, encode_response  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.core.basis import BasisStore  # noqa: E402
from repro.core.fingerprint import Fingerprint  # noqa: E402

SEED = 7
DECLARATION = run.load_declaration()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(section):
    return {entry["name"]: entry["unit"] for entry in DECLARATION[section]}


# -- the declaration itself --------------------------------------------------


def test_declaration_matches_the_contract():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DECLARATION["paths"] == ["perfbench"]
    assert [w["name"] for w in DECLARATION["workloads"]] == list(run.WORKLOADS)
    assert len(DECLARATION["per_layer"]) == 49
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARATION[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {e["name"]: e["bound"] for e in DECLARATION["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for entry in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("lower", "higher")


# -- what a run emits --------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    outcome = run.measure(workload, SEED, 0.0, "smoke")
    assert set(outcome["metrics"]) == set(declared("end_to_end"))
    assert all(value > 0 for value in outcome["metrics"].values())
    assert outcome["tally"].attempted > 0
    assert outcome["tally"].failed == 0, outcome["tally"].notes
    assert outcome["degraded"] == []
    assert not glob_scratch()


@pytest.fixture(scope="module")
def traced():
    return run.trace("sweep_reuse", SEED, 0.0, "smoke")


def test_traced_run_emits_exactly_the_per_layer_metrics(traced):
    assert set(traced["metrics"]) == set(declared("per_layer"))
    assert traced["tally"].failed == 0, traced["tally"].notes
    assert not glob_scratch()


def test_stage_spans_account_for_the_traced_sweep_wall(traced):
    spans = traced["spans"].spans
    wall = sum(end - start for name, start, end, _, _ in spans
               if name == "explorer.point")
    stages = sum(end - start for name, start, end, _, parent in spans
                 if parent == "explorer.point")
    assert abs(stages - wall) <= 0.05 * wall
    ops = {op for _, _, _, op, _ in spans}
    roots = [s for s in spans if s[4] is None]
    assert len(roots) == len(ops)


def test_a_stall_in_one_round_does_not_move_a_repeating_workload():
    """Unit ``i`` of every round is one measurement repeated: its
    latency is the median over rounds, so one stalled round shows in
    none of the reported figures."""
    def a_round(*latencies):
        return common.Round(ops=40, seconds=sum(latencies),
                            latencies=list(latencies), probes=40, misses=4)

    quiet = [a_round(0.01, 0.02, 0.03, 0.04) for _ in range(5)]
    stalled = a_round(0.01, 0.92, 0.03, 0.04)
    calm = common.end_to_end(quiet, repeating=True)
    assert common.end_to_end(quiet[:4] + [stalled], repeating=True) == calm
    assert calm["ops_per_s"] == pytest.approx(400.0)
    assert calm["p50_ms"] == pytest.approx(25.0)
    assert calm["miss_fraction"] == pytest.approx(0.1)
    # Without repeated units the figures are medians over rounds.
    windows = common.end_to_end(quiet[:4] + [stalled], repeating=False)
    assert windows["ops_per_s"] == pytest.approx(400.0)
    assert windows["p50_ms"] == pytest.approx(25.0)


def test_command_line_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH_DIR, "run.py"),
         "--workload", "store_churn", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared("end_to_end")
    for name in declared("end_to_end"):
        assert re.search(rf"^store_churn\s+{re.escape(name)}\s", done.stdout,
                         re.MULTILINE)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails and
    prints no result."""
    shutil.copy(os.path.join(common.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERFBENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("raw", "__pycache__", "results"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_reuse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def glob_scratch():
    """Scratch directories this process left behind."""
    if not os.path.isdir(common.RAW_DIR):
        return []
    mine = re.compile(rf"tmp-\w+-{os.getpid()}-")
    return [n for n in os.listdir(common.RAW_DIR) if mine.match(n)]


# -- every oracle catches a liar ----------------------------------------------


class ShiftedMetricsStore(BasisStore):
    """Answers reuse with metrics that are off by a little."""

    def metrics_for(self, basis, mapping):
        honest = super().metrics_for(basis, mapping)
        return dataclasses.replace(
            honest, expectation=honest.expectation * (1 + 1e-6) + 1e-6
        )


class ForgetfulStore(BasisStore):
    """Denies its first hit of every batch."""

    def match_batch(self, fingerprints, tested_out=None):
        results = super().match_batch(fingerprints, tested_out)
        for position, result in enumerate(results):
            if result is not None:
                results[position] = None
                break
        return results


def test_full_simulation_oracle_catches_wrong_reuse_metrics():
    tally = common.Tally()
    honest = SweepWorkload("sweep_reuse", SEED, "smoke", tally)
    honest.setup()
    honest.timed_round(0)
    honest.verify()
    assert tally.failed == 0

    tally = common.Tally()
    lying = SweepWorkload(
        "sweep_reuse", SEED, "smoke", tally,
        store_factory=lambda strategy: ShiftedMetricsStore(
            index_strategy=strategy
        ),
    )
    lying.setup()
    lying.timed_round(0)
    lying.verify()
    assert tally.failed > 0


def test_replay_oracle_catches_a_changed_decision():
    tally = common.Tally()
    workload = SweepWorkload("sweep_simulate", SEED, "smoke", tally)
    workload.setup()
    workload.timed_round(0)
    workload.traced_round(0)
    workload.verify_trace()
    assert tally.failed == 0
    results = next(iter(workload.last_run.values()))
    results[0] = dataclasses.replace(results[0], reused=not results[0].reused)
    workload.verify_trace()
    assert tally.failed >= 1


def test_rebuild_oracle_catches_a_store_that_forgets():
    rng = np.random.default_rng(SEED)
    tally = common.Tally()
    workload = ChurnWorkload(SEED, "smoke", tally)
    for kind in (BasisStore, ForgetfulStore):
        store = kind(index_strategy="sorted_sid")
        for fingerprint, samples in workload._new_bases(rng, 40):
            store.add(fingerprint, samples)
        before = tally.failed
        check_against_rebuild(store, workload._probes(rng, store, 16), tally)
        assert (tally.failed > before) == (kind is ForgetfulStore)


def test_wire_oracle_catches_a_wrong_answer():
    store = BasisStore()
    values = (0.5, -1.25, 3.0, 2.0, -0.75)
    store.add(Fingerprint(values), np.arange(20.0))
    replica = Session(store)
    request = EstimateRequest(
        fingerprint=tuple(2.0 * v + 1.0 for v in values), request_id=5
    )
    body = encode_response(replica.handle(request))
    assert body["matched"]
    tally = common.Tally()
    check_wire_answer(replica, request, json.loads(json.dumps(body)), tally)
    assert tally.failed == 0
    body["basis_id"] += 1
    check_wire_answer(replica, request, body, tally)
    assert tally.failed == 1


def test_error_responses_and_silence_count_as_failures():
    tally = common.Tally()
    workload = ServeWorkload(SEED, "smoke", tally)
    error = json.dumps({"kind": "error", "id": 0, "code": "ApiError",
                        "message": "no"}).encode()
    workload.conns = [
        types.SimpleNamespace(
            done=[(0, 0.0, 0.1, error)],
            pending=collections.deque([(1, 0.2), (2, 0.3)]),
            frames=[b""] * 4,
        )
    ]
    workload.first_pass = [{}]
    workload._account()
    workload.conns = []
    assert tally.attempted == 3 and tally.failed == 3


# -- comparing two sets of runs ------------------------------------------------


def suite_document(scale=1.0, wobble=0.01):
    rows = {}
    for entry in DECLARATION["end_to_end"]:
        worse = scale if entry["better"] == "lower" else 1.0 / scale
        rows[entry["name"]] = {
            "unit": entry["unit"], "median": 100.0 * worse,
            "q1": 100.0 * worse * (1 - wobble),
            "q3": 100.0 * worse * (1 + wobble), "n": 5,
        }
    return {
        "workloads": {
            name: {"end_to_end": rows, "failed": 0}
            for name in run.WORKLOADS
        }
    }


def test_compare_separates_worse_unresolved_and_fine(tmp_path, capsys):
    paths = {}
    for label, document in (
        ("base", suite_document()),
        ("same", suite_document(1.02)),
        ("worse", suite_document(1.30)),
        ("noisy", suite_document(1.0, wobble=0.2)),
    ):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump(document, handle)
    assert run.compare(paths["base"], paths["same"]) == 0
    assert "WORSE" not in capsys.readouterr().out
    assert run.compare(paths["base"], paths["worse"]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(paths["base"], paths["noisy"]) == 0
    assert "unresolved" in capsys.readouterr().out

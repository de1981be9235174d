"""Chaos suite: sweeps under injected faults stay bit-identical to serial.

The fault-tolerance contract (ISSUE 6): under every fault plan — worker
crashes, flaky shards that fail twice then succeed, retry exhaustion with
graceful degradation, hangs reaped by supervision deadlines, interrupts
resumed from checkpoints — a sweep's estimates, reuse decisions, and
deterministic counters are **bitwise identical** to an undisturbed serial
run, for workers 1, 2, and 4.  Shards are pure functions of the seed
bank, so recovery is always recomputation and recomputation is always
exact; these tests pin that end to end over both sharded engines
(:class:`~repro.core.parallel.ParallelExplorer` and
:class:`~repro.scenario.ScenarioRunner`), the resumable checkpoint layer,
and the CLI boundary.

Worker counts parametrize over {1, 2, 4} capped by pytest's ``--workers``
option (see the root ``conftest.py``); CI runs the suite with
``--workers 4`` so the real fork-pool paths are always covered.

Interrupt faults fire at *collection* time, and pooled collection order
is nondeterministic — an interrupt can land before any shard was
accepted.  Tests that assert exact resume counts therefore force inline
execution (monkeypatching ``fork_available``) or use the
run-to-completion-then-rerun pattern; parity assertions need no such
care, since they hold for every collection order.
"""

import multiprocessing
import threading

import pytest

from repro.blackbox import default_registry
from repro.blackbox.synth_basis import SynthBasisModel
from repro.bench.workloads import capacity_workload
from repro.cli import main as cli_main
from repro.core import parallel
from repro.core.explorer import ParameterExplorer
from repro.core.parallel import ParallelExplorer, fork_available, run_shards
from repro.core.persist import snapshot_info
from repro.core.supervise import SupervisionPolicy
from repro.errors import JigsawError, SnapshotCompatibilityError
from repro.lang import compile_query
from repro.scenario import ScenarioRunner
from repro.testing import FaultPlan, corrupt_array_file, use_faults

SAMPLES = 40

QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 6 STEP BY 2;
DECLARE PARAMETER @feature_release AS SET (2, 4);
SELECT DemandModel(@current_week, @feature_release) AS demand
INTO results;
"""

#: Fault plans address shard 0 so they fire for every worker count (the
#: single-worker layout has only shard 0).  Policies disable backoff —
#: retry *content* is under test, not pacing — and give the hang plan a
#: short real deadline so the pooled reaper path runs in test time.
SCENARIOS = {
    "crash_once": (
        lambda: FaultPlan({(0, 1): "crash"}),
        SupervisionPolicy(backoff_base=0.0),
    ),
    "flaky_fail_twice": (
        lambda: FaultPlan.fail_n_then_succeed(0, failures=2),
        SupervisionPolicy(backoff_base=0.0),
    ),
    "exhaust_then_degrade": (
        lambda: FaultPlan({(0, a): "crash" for a in (1, 2, 3)}),
        SupervisionPolicy(max_attempts=3, backoff_base=0.0),
    ),
    "hang_reaped_by_deadline": (
        lambda: FaultPlan({(0, 1): "hang"}),
        SupervisionPolicy(
            timeout=0.5, backoff_base=0.0, poll_interval=0.02
        ),
    ),
}


def pytest_generate_tests(metafunc):
    if "workers" in metafunc.fixturenames:
        cap = metafunc.config.getoption("workers")
        counts = [w for w in (1, 2, 4) if w <= cap] or [1]
        metafunc.parametrize("workers", counts)
    if "fault_case" in metafunc.fixturenames:
        metafunc.parametrize("fault_case", sorted(SCENARIOS))


def _serial_exploration():
    workload = capacity_workload(weeks=10, purchase_step=4)
    explorer = ParameterExplorer(
        workload.simulation(),
        samples_per_point=SAMPLES,
        fingerprint_size=workload.fingerprint_size,
    )
    return explorer.run(workload.points)


def _parallel_explorer(workers, **kwargs):
    workload = capacity_workload(weeks=10, purchase_step=4)
    explorer = ParallelExplorer(
        workload.simulation(),
        workers=workers,
        samples_per_point=SAMPLES,
        fingerprint_size=workload.fingerprint_size,
        **kwargs,
    )
    return explorer, workload.points


def _assert_exploration_parity(result, serial):
    assert result.stats == serial.stats
    assert len(result.points) == len(serial.points)
    for key, serial_point in serial.points.items():
        point = result.points[key]
        assert point.metrics == serial_point.metrics, key
        assert point.reused == serial_point.reused
        assert point.basis_id == serial_point.basis_id
        assert point.mapping == serial_point.mapping
        assert point.fingerprint.values == serial_point.fingerprint.values


def _scenario():
    return compile_query(QUERY, default_registry()).scenario


def _scenario_runner(workers, **kwargs):
    return ScenarioRunner(
        _scenario(),
        samples_per_point=SAMPLES,
        fingerprint_size=10,
        workers=workers,
        **kwargs,
    )


def _serial_scenario_result():
    return _scenario_runner(1).run()


def _assert_scenario_parity(result, serial):
    assert result.points == serial.points
    assert result.metrics == serial.metrics
    assert result.stats == serial.stats


class TestExplorerChaosParity:
    """ParallelExplorer under every fault plan: bit-identical to serial."""

    def test_faulted_sweep_matches_serial(self, workers, fault_case):
        make_plan, policy = SCENARIOS[fault_case]
        serial = _serial_exploration()
        explorer, points = _parallel_explorer(
            workers, supervision=policy
        )
        with use_faults(make_plan()) as plan:
            result = explorer.run(points)
        _assert_exploration_parity(result, serial)
        assert plan.triggered, "fault plan never fired"
        report = result.parallel.supervision
        assert report is not None
        if fault_case == "exhaust_then_degrade":
            assert report.degraded_shards == (0,)
        else:
            assert report.degraded_shards == ()
            assert report.retries >= 1


class TestPointsAxisChaosParity:
    """A SynthBasis sweep draws each block's fingerprint rounds as one
    points x seeds matrix inside real forked workers; with a shard crashed
    and retried, the merged sweep is still bitwise the serial one."""

    def test_crashed_shard_retried_matches_serial(self, workers):
        make_plan, policy = SCENARIOS["crash_once"]
        # Two blocks or more per shard at every worker count; half the
        # points are fractional and truncate.
        space = [{"point": value / 2} for value in range(7, 2800, 5)]
        serial = ParameterExplorer(
            SynthBasisModel(basis_count=9), samples_per_point=SAMPLES
        ).run(space)
        explorer = ParallelExplorer(
            SynthBasisModel(basis_count=9),
            workers=workers,
            samples_per_point=SAMPLES,
            supervision=policy,
        )
        with use_faults(make_plan()) as plan:
            result = explorer.run(space)
        _assert_exploration_parity(result, serial)
        assert plan.triggered, "fault plan never fired"
        assert result.parallel.supervision.retries >= 1
        assert serial.stats.points_reused > len(space) // 2


class TestScenarioChaosParity:
    """ScenarioRunner under every fault plan: bit-identical to serial."""

    def test_faulted_sweep_matches_serial(self, workers, fault_case):
        make_plan, policy = SCENARIOS[fault_case]
        serial = _serial_scenario_result()
        runner = _scenario_runner(workers, supervision=policy)
        with use_faults(make_plan()) as plan:
            result = runner.run()
        _assert_scenario_parity(result, serial)
        assert plan.triggered, "fault plan never fired"
        if fault_case == "exhaust_then_degrade":
            assert result.parallel.supervision.degraded_shards == (0,)


class TestCheckpointResume:
    def test_completed_checkpoint_resumes_every_shard(
        self, tmp_path, workers
    ):
        serial = _serial_exploration()
        explorer, points = _parallel_explorer(
            workers, checkpoint=str(tmp_path / "ckpt")
        )
        first = explorer.run(points)
        _assert_exploration_parity(first, serial)
        assert first.parallel.shards_resumed == 0

        rerun, points = _parallel_explorer(
            workers, checkpoint=str(tmp_path / "ckpt")
        )
        resumed = rerun.run(points)
        _assert_exploration_parity(resumed, serial)
        shard_count = len(first.parallel.shard_sizes)
        assert resumed.parallel.shards_resumed == shard_count
        # Nothing was left to supervise.
        assert resumed.parallel.supervision is None

    def test_interrupted_sweep_resumes_only_the_remainder(
        self, tmp_path, monkeypatch
    ):
        # Inline execution (no fork pool) accepts shards in order, which
        # makes the interrupt point — and therefore the resume count —
        # deterministic: shard 0 lands in the checkpoint, shard 1 dies.
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        serial = _serial_exploration()
        explorer, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        with use_faults(FaultPlan({(1, 1): "interrupt"})) as plan:
            with pytest.raises(KeyboardInterrupt):
                explorer.run(points)
        assert plan.triggered == [(1, 1, "interrupt")]

        rerun, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        result = rerun.run(points)
        _assert_exploration_parity(result, serial)
        assert result.parallel.shards_resumed == 1

    def test_scenario_checkpoint_round_trip(self, tmp_path, workers):
        serial = _serial_scenario_result()
        runner = _scenario_runner(
            workers, checkpoint=str(tmp_path / "ckpt")
        )
        _assert_scenario_parity(runner.run(), serial)
        resumed = _scenario_runner(
            workers, checkpoint=str(tmp_path / "ckpt")
        ).run()
        _assert_scenario_parity(resumed, serial)
        assert resumed.parallel.shards_resumed == len(
            resumed.parallel.shard_sizes
        )

    def test_single_worker_checkpoint_stays_bit_identical(self, tmp_path):
        # --checkpoint with one worker routes through the sharded engine;
        # the replay invariant keeps even the counters serial.
        serial = _serial_scenario_result()
        checkpointed = _scenario_runner(
            1, checkpoint=str(tmp_path / "ckpt")
        ).run()
        _assert_scenario_parity(checkpointed, serial)

    def test_mismatched_configuration_is_refused(self, tmp_path):
        explorer, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        explorer.run(points)
        other, points = _parallel_explorer(
            4, checkpoint=str(tmp_path / "ckpt")
        )
        with pytest.raises(SnapshotCompatibilityError) as excinfo:
            other.run(points)
        assert isinstance(excinfo.value, JigsawError)

    def test_corrupt_checkpoint_recomputes_everything(self, tmp_path):
        serial = _serial_exploration()
        explorer, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        explorer.run(points)
        corrupt_array_file(str(tmp_path / "ckpt"))
        rerun, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        result = rerun.run(points)
        assert result.parallel.shards_resumed == 0
        _assert_exploration_parity(result, serial)

    def test_corruption_injected_at_the_last_write(
        self, tmp_path, monkeypatch
    ):
        # Each record rewrites the whole directory, so only damage to the
        # *final* write survives; schedule exactly that, then prove the
        # resume detects it and recomputes instead of loading garbage.
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        serial = _serial_exploration()
        explorer, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        with use_faults(FaultPlan(corrupt_checkpoint_after=2)) as plan:
            first = explorer.run(points)
        assert plan.checkpoints_written == 2
        assert plan.checkpoints_corrupted == 1
        _assert_exploration_parity(first, serial)

        rerun, points = _parallel_explorer(
            2, checkpoint=str(tmp_path / "ckpt")
        )
        result = rerun.run(points)
        assert result.parallel.shards_resumed == 0
        _assert_exploration_parity(result, serial)


class TestCliInterruptBoundary:
    @pytest.fixture
    def query_file(self, tmp_path):
        optimize = QUERY + (
            "OPTIMIZE SELECT @feature_release FROM results\n"
            "WHERE MAX(EXPECT demand) < 100\n"
            "GROUP BY feature_release\n"
            "FOR MAX @feature_release;\n"
        )
        path = tmp_path / "scenario.sql"
        path.write_text(optimize)
        return str(path)

    def test_interrupt_exits_130_with_valid_flushed_state(
        self, tmp_path, query_file, capsys
    ):
        checkpoint = str(tmp_path / "ckpt")
        store = str(tmp_path / "store")
        argv = [
            "run", query_file,
            "--samples", "30",
            "--checkpoint", checkpoint,
            "--save-store", store,
        ]
        with use_faults(FaultPlan({(0, 1): "interrupt"})) as plan:
            assert cli_main(argv) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert checkpoint in captured.err
        assert plan.triggered == [(0, 1, "interrupt")]
        # The flushed snapshot is complete and loadable — interruption
        # must never leave a half-written snapshot behind.
        assert snapshot_info(store)["version"] >= 1

        # Re-invoking the same command completes and prints exactly what
        # an undisturbed run prints.
        assert cli_main(argv) == 0
        resumed_out = capsys.readouterr().out
        assert cli_main(["run", query_file, "--samples", "30"]) == 0
        undisturbed_out = capsys.readouterr().out
        # The resumed header carries a sharding annotation; the counters
        # and the answer in front of it are the serial run's, exactly.
        assert resumed_out.splitlines()[0].startswith(
            undisturbed_out.splitlines()[0]
        )
        assert "best: @feature_release=4" in resumed_out
        assert "best: @feature_release=4" in undisturbed_out

    def test_supervision_flags_are_plumbed(self, query_file, capsys):
        assert (
            cli_main(
                [
                    "run", query_file,
                    "--samples", "30",
                    "--shard-retries", "2",
                    "--shard-timeout", "30",
                ]
            )
            == 0
        )
        assert "explored 8 points" in capsys.readouterr().out

    def test_interrupt_outside_a_sweep_exits_130(self, tmp_path, capsys):
        # The main() boundary handles interrupts that fire before any
        # runner exists (here: during query loading).
        class Interrupting:
            def __call__(self, *args, **kwargs):
                raise KeyboardInterrupt

        path = tmp_path / "boom.sql"
        path.write_text(QUERY)
        import repro.cli as cli

        original = cli._load
        cli._load = Interrupting()
        try:
            assert cli_main(["run", str(path)]) == 130
        finally:
            cli._load = original
        assert "interrupted" in capsys.readouterr().err


def _blocked_shard(event, index):
    if index == 0:
        if not event.wait(timeout=60):
            raise RuntimeError("release event never arrived")
    return index


def _releasing_shard(event, index):
    if index == 0:
        event.set()
    return index


def _fan_out(runner, context):
    """Two shards on two workers through :func:`run_shards`, no
    checkpoint: the outcomes in shard order."""
    outcomes, _, _ = run_shards(
        runner,
        context,
        2,
        2,
        policy=None,
        checkpoint=None,
        config=dict,
        encode=None,
        decode=None,
    )
    return outcomes


class TestConcurrentSweeps:
    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_fan_outs_overlap_instead_of_serializing(self):
        """Two sweeps fan out concurrently (regression: the old single
        context slot held its lock for the pool's lifetime, so sweep B
        could not start until sweep A finished — this exact shape then
        deadlocked, since A's shard waits on an event only B sets)."""
        event = multiprocessing.get_context("fork").Event()
        outcome = {}

        def sweep_a():
            outcome["a"] = _fan_out(_blocked_shard, event)

        def sweep_b():
            outcome["b"] = _fan_out(_releasing_shard, event)

        thread_a = threading.Thread(target=sweep_a, daemon=True)
        thread_a.start()
        thread_b = threading.Thread(target=sweep_b, daemon=True)
        thread_b.start()
        thread_b.join(timeout=60)
        thread_a.join(timeout=60)
        assert not thread_a.is_alive(), "sweep A never finished"
        assert not thread_b.is_alive(), "sweep B never finished"
        assert outcome["a"] == [0, 1]
        assert outcome["b"] == [0, 1]

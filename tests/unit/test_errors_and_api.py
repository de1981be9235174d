"""Tests for the exception hierarchy and the public API surface."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_jigsaw_error(self):
        for name in (
            "MappingError",
            "FingerprintError",
            "IndexError_",
            "EstimatorError",
            "MarkovError",
            "OptimizationError",
            "SchemaError",
            "QueryError",
            "ParseError",
            "BindingError",
            "InteractiveError",
            "ExecutionError",
            "ShardError",
            "ShardCrashError",
            "ShardTimeoutError",
            "ShardRetryExhaustedError",
            "PersistError",
            "SnapshotCorruptionError",
            "SnapshotCompatibilityError",
            "ApiError",
            "ServeError",
            "ProtocolError",
        ):
            error_type = getattr(errors, name)
            assert issubclass(error_type, errors.JigsawError), name

    def test_protocol_error_is_a_serve_error(self):
        assert issubclass(errors.ProtocolError, errors.ServeError)

    def test_shard_errors_are_execution_errors(self):
        for name in (
            "ShardCrashError",
            "ShardTimeoutError",
            "ShardRetryExhaustedError",
        ):
            error_type = getattr(errors, name)
            assert issubclass(error_type, errors.ShardError), name
            assert issubclass(error_type, errors.ExecutionError), name

    def test_shard_error_carries_address(self):
        error = errors.ShardCrashError(
            "worker died", shard_index=3, attempt=2
        )
        assert error.shard_index == 3
        assert error.attempt == 2

    def test_shard_timeout_carries_deadline(self):
        error = errors.ShardTimeoutError(
            "too slow", shard_index=1, attempt=1, timeout=2.5
        )
        assert error.timeout == 2.5
        assert error.shard_index == 1

    def test_retry_exhausted_carries_failure_history(self):
        failures = [
            errors.ShardCrashError("died", shard_index=0, attempt=1),
            errors.ShardTimeoutError(
                "slow", shard_index=0, attempt=2, timeout=1.0
            ),
        ]
        error = errors.ShardRetryExhaustedError(
            "gave up", shard_index=0, attempts=2, failures=failures
        )
        assert error.attempts == 2
        assert error.attempt == 2
        assert error.failures == tuple(failures)

    def test_parse_error_carries_position(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_parse_error_without_position(self):
        error = errors.ParseError("bad token")
        assert "line" not in str(error)

    def test_catching_the_family(self):
        with pytest.raises(errors.JigsawError):
            raise errors.MarkovError("boom")


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_string(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_subpackage_exports_resolve(self):
        import repro.api as api
        import repro.bench as bench
        import repro.blackbox as blackbox
        import repro.core as core
        import repro.interactive as interactive
        import repro.lang as lang
        import repro.probdb as probdb
        import repro.scenario as scenario
        import repro.serve as serve
        import repro.util as util

        for module in (
            api,
            bench,
            blackbox,
            core,
            interactive,
            lang,
            probdb,
            scenario,
            serve,
            util,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    module.__name__,
                    name,
                )


class TestCliExitCodes:
    """The CLI's exit-code contract: 0 success, 2 errors, 130 interrupt."""

    def test_jigsaw_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.sql"
        bad.write_text("SELECT FROM;")
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        from repro.cli import main

        assert main(["explain", "/no/such/query.sql"]) == 2
        assert "error" in capsys.readouterr().err

    def test_interrupt_exits_130(self, tmp_path, capsys):
        from repro.cli import main
        from repro.testing import FaultPlan, use_faults

        query = tmp_path / "q.sql"
        query.write_text(
            "DECLARE PARAMETER @week AS RANGE 0 TO 2 STEP BY 2;\n"
            "SELECT DemandModel(@week, 1) AS demand INTO results;\n"
        )
        with use_faults(FaultPlan({(0, 1): "interrupt"})):
            code = main(
                [
                    "run", str(query),
                    "--samples", "20",
                    "--checkpoint", str(tmp_path / "ckpt"),
                ]
            )
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_store_verify_success_exits_0(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serve import build_fixture_session

        snap = tmp_path / "snap"
        build_fixture_session(bases=4).save(str(snap))
        assert main(["store", "verify", str(snap)]) == 0
        assert "snapshot OK" in capsys.readouterr().out

    def test_store_info_missing_snapshot_exits_2(self, capsys):
        from repro.cli import main

        assert main(["store", "info", "/no/such/snapshot"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_missing_snapshot_exits_2(self, capsys):
        from repro.cli import main

        assert main(["serve", "--store", "/no/such/snapshot"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_unbindable_host_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serve import build_fixture_session

        snap = tmp_path / "snap"
        build_fixture_session(bases=2).save(str(snap))
        code = main(
            ["serve", "--store", str(snap), "--host", "203.0.113.7"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_warm_start_flags_still_work(self, tmp_path, capsys):
        """The pre-Session ``--store``/``--save-store`` spellings keep
        working after the entry points were rerouted through
        repro.api.Session."""
        from repro.cli import main

        query = tmp_path / "q.sql"
        query.write_text(
            "DECLARE PARAMETER @week AS RANGE 0 TO 2 STEP BY 2;\n"
            "SELECT DemandModel(@week, 1) AS demand INTO results;\n"
        )
        snap = tmp_path / "snap"
        assert (
            main(
                [
                    "run", str(query),
                    "--samples", "20",
                    "--save-store", str(snap),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "run", str(query),
                    "--samples", "20",
                    "--store", str(snap),
                ]
            )
            == 0
        )
        assert "warm store" in capsys.readouterr().out


class TestDemandObservedVariant:
    def test_observed_demand_is_deterministic(self):
        from repro.blackbox import DemandObservedMarkovStep

        model = DemandObservedMarkovStep()
        value = model.observed_demand(52.0, 5, 1234)
        assert value == model.observed_demand(52.0, 5, 1234)

    def test_demand_at_reflects_release_state(self):
        from repro.blackbox import MarkovStepModel

        model = MarkovStepModel()
        unreleased = model.demand_at(model.pending_release, 30, 77)
        released = model.demand_at(5.0, 30, 77)
        # A released feature adds demand growth for the same seed.
        assert released > unreleased

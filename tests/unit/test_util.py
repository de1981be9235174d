"""Unit tests for shared utilities: stats, timing, tables."""

import ast
import pathlib
import sys
import time

import numpy as np
import pytest

import repro
from repro.util.stats import RunningStats, histogram, quantiles
from repro.util.tables import format_table
from repro.util.timing import (
    FakeClock,
    InvocationCounter,
    Stopwatch,
    perf_counter,
    set_clock,
    use_clock,
)

DATA = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


class TestRunningStats:
    def test_matches_numpy(self):
        stats = RunningStats()
        stats.add_many(DATA)
        array = np.asarray(DATA)
        assert stats.count == len(DATA)
        assert stats.mean == pytest.approx(array.mean())
        assert stats.variance == pytest.approx(array.var())
        assert stats.sample_variance == pytest.approx(array.var(ddof=1))
        assert stats.stddev == pytest.approx(array.std())
        assert stats.minimum == array.min()
        assert stats.maximum == array.max()

    def test_merge_equals_pooled(self):
        left = RunningStats()
        left.add_many(DATA[:3])
        right = RunningStats()
        right.add_many(DATA[3:])
        merged = left.merge(right)
        pooled = RunningStats()
        pooled.add_many(DATA)
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean)
        assert merged.variance == pytest.approx(pooled.variance)
        assert merged.minimum == pooled.minimum
        assert merged.maximum == pooled.maximum

    def test_merge_with_empty(self):
        filled = RunningStats()
        filled.add_many(DATA)
        empty = RunningStats()
        assert filled.merge(empty).mean == pytest.approx(filled.mean)
        assert empty.merge(filled).count == filled.count

    def test_copy_independent(self):
        original = RunningStats()
        original.add(1.0)
        duplicate = original.copy()
        duplicate.add(100.0)
        assert original.count == 1

    def test_empty_accessors_raise(self):
        empty = RunningStats()
        for accessor in ("mean", "variance", "minimum", "maximum"):
            with pytest.raises(ValueError):
                getattr(empty, accessor)

    def test_sample_variance_needs_two(self):
        stats = RunningStats()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.sample_variance


class TestQuantilesHistogram:
    def test_quantiles_match_numpy(self):
        result = quantiles(DATA, [0.25, 0.5, 0.75])
        expected = np.quantile(DATA, [0.25, 0.5, 0.75])
        assert result == pytest.approx(list(expected))

    def test_quantiles_validation(self):
        with pytest.raises(ValueError):
            quantiles([], [0.5])
        with pytest.raises(ValueError):
            quantiles(DATA, [1.5])

    def test_histogram_counts_sum(self):
        counts, edges = histogram(DATA, bins=4)
        assert sum(counts) == len(DATA)
        assert len(edges) == 5

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            histogram([], bins=4)
        with pytest.raises(ValueError):
            histogram(DATA, bins=0)


class TestStopwatch:
    def test_measures_elapsed(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.01

    def test_accumulates(self):
        watch = Stopwatch()
        with watch:
            pass
        first = watch.elapsed
        with watch:
            time.sleep(0.005)
        assert watch.elapsed > first

    def test_reset(self):
        watch = Stopwatch()
        with watch:
            pass
        watch.reset()
        assert watch.elapsed == 0.0

    def test_reads_injected_clock(self):
        """Stopwatch goes through the swappable clock, so a FakeClock
        makes its measurements exact (the de-flaking mechanism)."""
        with use_clock(FakeClock(tick=0.5)):
            watch = Stopwatch()
            with watch:
                pass
            assert watch.elapsed == 0.5


class TestClockInjection:
    def test_fake_clock_ticks_per_reading(self):
        clock = FakeClock(start=10.0, tick=2.0)
        assert clock() == 12.0
        assert clock() == 14.0
        assert clock.now == 14.0

    def test_advance_and_validation(self):
        clock = FakeClock(tick=0.0)
        clock.advance(3.0)
        assert clock() == 3.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            FakeClock(tick=-0.5)

    def test_use_clock_scopes_and_restores(self):
        import time as real_time

        fake = FakeClock(start=100.0, tick=1.0)
        with use_clock(fake):
            assert perf_counter() == 101.0
            assert perf_counter() == 102.0
        # Restored: readings track the real clock again.
        assert abs(perf_counter() - real_time.perf_counter()) < 1.0

    def test_set_clock_returns_previous(self):
        fake = FakeClock()
        previous = set_clock(fake)
        try:
            assert perf_counter() == 1.0
        finally:
            assert set_clock(previous) is fake


    def test_timing_is_the_only_module_that_reads_the_os_clock(self):
        """Everything under ``src/repro`` that measures time reads the
        injectable clock, so ``use_clock`` swaps it completely and no
        library object carries a reading a test cannot fake.  (Sleeping
        — ``supervise``'s injectable ``time.sleep`` — is not reading.)"""
        readers = {"perf_counter", "time", "monotonic", "process_time"}
        readers |= {f"{name}_ns" for name in readers}
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "util" / "timing.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    and node.attr in readers
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "time"
                    and readers & {alias.name for alias in node.names}
                ):
                    offenders.append(
                        f"{path.relative_to(root)}:{node.lineno}"
                    )
        assert offenders == []

    def test_the_library_imports_only_stdlib_numpy_and_itself(self):
        """The host rule (ROADMAP): a dependency no session can install
        is code no session can run or measure, so nothing under
        ``src/repro`` may import one — not at module level, not inside a
        function, not behind ``try:``."""
        allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:  # not an import, or a relative one (inside repro)
                    continue
                offenders += [
                    f"{path.relative_to(root)}:{node.lineno} {module}"
                    for module in modules
                    if module.partition(".")[0] not in allowed
                ]
        assert offenders == []


class TestInvocationCounter:
    def test_record_and_count(self):
        counter = InvocationCounter()
        counter.record("samples")
        counter.record("samples", 5)
        assert counter.count("samples") == 6
        assert counter.count("other") == 0

    def test_as_dict_and_reset(self):
        counter = InvocationCounter()
        counter.record("a")
        assert counter.as_dict() == {"a": 1}
        counter.reset()
        assert counter.as_dict() == {}

    def test_repr(self):
        counter = InvocationCounter()
        counter.record("x", 3)
        assert "x=3" in repr(counter)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 20]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_float_formatting(self):
        text = format_table(["v"], [[0.00001], [12345.6789], [0.5], [0.0]])
        assert "1e-05" in text
        assert "0.5" in text
        assert "0" in text

"""Unit tests for :class:`repro.core.persist.SweepCheckpoint`.

The checkpoint's contract: records accumulate atomically per completed
shard, a reload round-trips them exactly, corruption degrades to
recompute-all (never blocks a sweep), and an intact checkpoint from a
different sweep configuration is refused with a typed error.
"""

import json
import os

import numpy as np
import pytest

from repro.core.persist import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    SweepCheckpoint,
)
from repro.errors import JigsawError, SnapshotCompatibilityError
from repro.testing import corrupt_array_file

CONFIG = {"engine": "test", "shard_sizes": [2, 2], "seed_master": 7}


def _record(checkpoint, index):
    checkpoint.record(
        index,
        {"kind": "outcome", "index": index},
        {"values": np.arange(4, dtype=np.float64) + index},
    )


class TestSweepCheckpoint:
    def test_missing_directory_loads_empty(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path / "absent"), CONFIG)
        assert checkpoint.load() == {}

    def test_record_and_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)
        _record(writer, 1)

        reader = SweepCheckpoint(path, CONFIG)
        records = reader.load()
        assert sorted(records) == [0, 1]
        meta, arrays = records[1]
        assert meta == {"kind": "outcome", "index": 1}
        np.testing.assert_array_equal(
            arrays["values"], np.arange(4, dtype=np.float64) + 1
        )

    def test_each_record_is_immediately_durable(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)
        # A fresh reader (a restarted run) sees the completed shard even
        # though the writer never finished its sweep.
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0]
        _record(writer, 1)
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0, 1]

    def test_loaded_records_survive_later_appends(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)

        resumed = SweepCheckpoint(path, CONFIG)
        resumed.load()
        _record(resumed, 1)
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0, 1]

    def test_config_mismatch_refuses_with_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        other = dict(CONFIG, shard_sizes=[1, 1, 1, 1])
        with pytest.raises(SnapshotCompatibilityError) as excinfo:
            SweepCheckpoint(path, other).load()
        assert isinstance(excinfo.value, JigsawError)

    def test_corrupt_arrays_degrade_to_recompute_all(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        corrupt_array_file(path)
        assert SweepCheckpoint(path, CONFIG).load() == {}

    def test_corrupt_manifest_degrades_to_recompute_all(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        with open(os.path.join(path, MANIFEST_NAME), "a") as handle:
            handle.write("garbage")
        assert SweepCheckpoint(path, CONFIG).load() == {}

    def test_newer_version_refuses_rather_than_discarding(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["body"]["version"] = CHECKPOINT_VERSION + 1
        import zlib

        from repro.core.persist import _canonical

        manifest["crc32"] = zlib.crc32(_canonical(manifest["body"]))
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        # A *newer* intact checkpoint is a compatibility problem, not
        # corruption: silently recomputing would discard valid work.
        with pytest.raises(SnapshotCompatibilityError):
            SweepCheckpoint(path, CONFIG).load()

    def test_checkpoint_magic_distinct_from_store_snapshots(self, tmp_path):
        from repro.core.persist import SNAPSHOT_MAGIC

        assert CHECKPOINT_MAGIC != SNAPSHOT_MAGIC
        # A store snapshot is not a checkpoint: magic mismatch reads as
        # corruption, which degrades to recompute-all.
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["body"]["magic"] = SNAPSHOT_MAGIC
        import zlib

        from repro.core.persist import _canonical

        manifest["crc32"] = zlib.crc32(_canonical(manifest["body"]))
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        assert SweepCheckpoint(path, CONFIG).load() == {}


def _config_on_disk(path):
    with open(os.path.join(path, MANIFEST_NAME)) as handle:
        return json.load(handle)["body"]["config"]


def _tree(path):
    """Every file under ``path`` with its bytes."""
    found = {}
    for root, _, names in os.walk(path):
        for name in names:
            with open(os.path.join(root, name), "rb") as handle:
                found[os.path.join(root, name)] = handle.read()
    return found


class TestSweepEngineConfigs:
    """What the sweep engines write as a checkpoint's identity.

    One engine serves both sweeps since the scenario runner stopped
    keeping its own: a plain explorer's config must stay what it always
    was (so checkpoints written by older builds resume), and a scenario's
    must name what shapes its shard records — the column list and whether
    anything is reused — so neither a different query nor a checkpoint
    from the runner's own former engine is ever decoded as this one.
    """

    QUERY = (
        "DECLARE PARAMETER @current_week AS RANGE 0 TO 5 STEP BY 1;\n"
        "SELECT DemandModel(@current_week, 3) AS demand,\n"
        "       CASE WHEN demand > 2.0 THEN 1 ELSE 0 END AS high\n"
        "INTO results;\n"
    )

    def _runner(self, path, query=None, **overrides):
        from repro.blackbox import default_registry
        from repro.lang import compile_query
        from repro.scenario import ScenarioRunner

        scenario = compile_query(
            query or self.QUERY, default_registry()
        ).scenario
        return ScenarioRunner(
            scenario, samples_per_point=30, checkpoint=path, **overrides
        )

    def test_plain_store_config_is_the_one_older_builds_wrote(self, tmp_path):
        from repro.core.adaptive import AdaptiveBudget
        from repro.core.parallel import ParallelExplorer
        from repro.core.seeds import SeedBank

        path = str(tmp_path / "ckpt")
        ParallelExplorer(
            lambda p, s: p["x"] * (s % 7) + p["y"],
            workers=2,
            samples_per_point=40,
            fingerprint_size=8,
            seed_bank=SeedBank(11),
            adaptive=AdaptiveBudget(rtol=0.05),
            checkpoint=path,
        ).run([{"x": float(i), "y": 0.5} for i in range(6)])
        # Literal: read off a checkpoint PR 23's tree wrote for this sweep.
        assert _config_on_disk(path) == {
            "adaptive": {
                "atol": "0x0.0p+0",
                "confidence": "0x1.e666666666666p-1",
                "max_samples": None,
                "method": "clt",
                "min_samples": 32,
                "rtol": "0x1.999999999999ap-5",
            },
            "engine": "explorer",
            "fingerprint_size": 8,
            "samples_per_point": 40,
            "seed_master": 11,
            "shard_sizes": [3, 3],
            "space": "55f2a7fa",
        }

    def test_scenario_config_names_columns_and_reuse(self, tmp_path):
        path = str(tmp_path / "ckpt")
        self._runner(path).run()
        assert _config_on_disk(path)["store"] == {
            "columns": ["demand", "high"],
            "use_fingerprints": True,
        }

    def test_scenario_resume_refuses_another_column_list(self, tmp_path):
        path = str(tmp_path / "ckpt")
        self._runner(path).run()
        renamed = self.QUERY.replace("AS high", "AS busy")
        with pytest.raises(SnapshotCompatibilityError):
            self._runner(path, query=renamed).run()

    def test_scenario_resume_refuses_flipped_reuse(self, tmp_path):
        path = str(tmp_path / "ckpt")
        self._runner(path).run()
        with pytest.raises(SnapshotCompatibilityError):
            self._runner(path, use_fingerprints=False).run()

    def test_former_scenario_engine_checkpoint_is_refused_untouched(
        self, tmp_path
    ):
        path = str(tmp_path / "ckpt")
        self._runner(path).run()
        current = _config_on_disk(path)
        # The config the runner's own engine wrote through PR 23, and its
        # per-column array layout (fp{point}c{column}).
        former = {
            "engine": "scenario",
            "space": current["space"],
            "shard_sizes": current["shard_sizes"],
            "samples_per_point": 30,
            "fingerprint_size": 10,
            "seed_master": current["seed_master"],
            "columns": ["demand", "high"],
            "use_fingerprints": True,
            "adaptive": None,
        }
        old_path = str(tmp_path / "old-ckpt")
        SweepCheckpoint(old_path, former).record(
            0,
            {
                "records": [{"samples": False}] * 6,
                "stats": {
                    "points_total": 6,
                    "points_reused": 6,
                    "rounds_executed": 60,
                    "bases_created": 0,
                },
            },
            {
                f"fp{point}c{column}": np.zeros(10)
                for point in range(6)
                for column in range(2)
            },
        )
        before = _tree(old_path)
        with pytest.raises(SnapshotCompatibilityError, match="move it aside"):
            self._runner(old_path).run()
        assert _tree(old_path) == before

"""Mutation proof for the check registry (``repro.bench.checks``).

CI runs the named checks against the committed baselines; this suite
proves each of them can actually *fail*.  Every check is measured once
(the expensive half), then its pure ``judge`` is fed a doctored copy of
the evidence or of the committed baselines: a counter moved by one must
fail the check with a message naming that counter.  The documents carry
no clock and no host-derived key, so what a check measures *is* what is
committed — verbatim — and ``--refresh`` on an unchanged tree rewrites
the same bytes.  (The root ``conftest.py`` runs this module last:
measuring six checks saturates the CPU for seconds.)
"""

import copy
import dataclasses
import os
import shutil
import signal
import subprocess
import sys

import pytest

from repro.bench import checks, serve
from repro.bench.checks import SERVE_BASELINE, SMOKE_BASELINE
from repro.serve import build_fixture_session

_EVIDENCE = {}


def _evidence(name):
    """The check's real evidence, measured once per test session."""
    if name not in _EVIDENCE:
        _EVIDENCE[name] = checks.CHECKS[name].measure()
    return copy.deepcopy(_EVIDENCE[name])


def _judge(name, evidence=None, baselines=None):
    check = checks.CHECKS[name]
    return check.judge(
        _evidence(name) if evidence is None else evidence,
        checks.load_baselines(check) if baselines is None else baselines,
    )


def _doctor(document, path, delta):
    for key in path[:-1]:
        document = document[key]
    document[path[-1]] += delta


#: check -> (side to doctor, path to one gated counter).
MUTATIONS = {
    "smoke": (
        "baselines", [SMOKE_BASELINE, "figures", "fig9", "samples_drawn"]
    ),
    "warm": (
        "evidence",
        ["warm", "data", "fig10", "bases=10|array", "mean_expectation"],
    ),
    "faults": (
        "evidence", ["bench", "figures", "fig11", "candidates_tested"]
    ),
    "lifecycle": ("evidence", ["lived", 0, "candidates_tested"]),
    "golden": (
        "baselines", ["golden/fig12.json", "data", "branching=0.1", "jumps"]
    ),
    "serve": (
        "baselines", [SERVE_BASELINE, "runs", 1, "counters", "hits"]
    ),
}


def _judge_doctored(name, side, path, delta):
    sides = {
        "evidence": _evidence(name),
        "baselines": checks.load_baselines(checks.CHECKS[name]),
    }
    _doctor(sides[side], path, delta)
    return _judge(name, **sides)


def _sandboxed(name, tmp_path, monkeypatch):
    """The named check, re-registered to read and write a temp copy of
    the committed baselines and to "measure" the session's evidence."""
    _evidence(name)  # by the real measure, before it is stubbed
    shutil.copytree(checks.BASELINE_DIR, tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(checks, "BASELINE_DIR", str(tmp_path))
    monkeypatch.setitem(
        checks.CHECKS,
        name,
        dataclasses.replace(
            checks.CHECKS[name], measure=lambda: _evidence(name)
        ),
    )
    return checks.CHECKS[name]


class TestEveryCheckCanFail:
    def test_mutation_table_covers_the_registry(self):
        assert set(MUTATIONS) == set(checks.CHECKS)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_undoctored_check_passes(self, name):
        assert _judge(name) == []

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_doctored_gated_counter_fails_naming_it(self, name):
        side, path = MUTATIONS[name]
        failures = _judge_doctored(name, side, path, 1)
        assert failures
        assert all(path[-1] in failure for failure in failures), failures

    def test_faults_check_fails_when_the_plan_never_fires(self):
        evidence = _evidence("faults")
        assert evidence["fault_fired"] is True
        evidence["fault_fired"] = False
        (failure,) = _judge("faults", evidence)
        assert "never fired" in failure

    def test_warm_check_fails_unless_strictly_fewer_samples(self):
        passes = _evidence("warm")
        figures = passes["warm"]["bench"]["figures"]
        figures["fig9"]["samples_drawn"] = (
            passes["cold"]["bench"]["figures"]["fig9"]["samples_drawn"]
        )
        failures = _judge("warm", passes)
        assert any("strictly fewer" in failure for failure in failures)

    def test_warm_check_fails_when_sharded_rerun_disagrees(self):
        passes = _evidence("warm")
        passes["warm4"]["bench"]["figures"]["fig8"]["matches_found"] += 1
        (failure,) = _judge("warm", passes)
        assert "4-worker" in failure and "matches_found" in failure

    def test_lifecycle_check_fails_when_late_keying_shows(self):
        evidence = _evidence("lifecycle")
        late = evidence["burst"]["keyed_late"]
        assert len(late["snapshot"]) >= 3  # the manifest and its arrays
        assert any(answer["basis"] is not None for answer in late["answers"])
        late["snapshot"]["manifest.json"] = "0" * 64
        late["answers"][0]["candidates_tested"] += 1
        failures = _judge("lifecycle", evidence)
        assert len(failures) == 2
        assert all("burst.keyed_late" in failure for failure in failures)

    def test_lifecycle_check_fails_on_an_unloadable_v1_fixture(self):
        evidence = _evidence("lifecycle")
        evidence["v1_fixture"] = {"error": "SnapshotCorruptionError: boom"}
        failures = _judge("lifecycle", evidence)
        assert any("v1_fixture.error" in failure for failure in failures)

    def test_lifecycle_check_fails_when_the_v2_fixture_drifts(self):
        evidence = _evidence("lifecycle")
        assert evidence["v2_fixture"]["hits"] == 5
        evidence["v2_fixture"]["hits"] = 0
        (failure,) = _judge("lifecycle", evidence)
        assert "v2_fixture.hits" in failure

    def test_lifecycle_check_fails_when_the_v3_fixture_drifts(self):
        evidence = _evidence("lifecycle")
        assert evidence["v3_fixture"]["bases"] == 6
        evidence["v3_fixture"]["bases"] = 7
        (failure,) = _judge("lifecycle", evidence)
        assert "v3_fixture.bases" in failure

    def test_smoke_check_refuses_a_baseline_from_other_conditions(self):
        baselines = checks.load_baselines(checks.CHECKS["smoke"])
        baselines[SMOKE_BASELINE]["workers"] = 4
        (failure,) = _judge("smoke", baselines=baselines)
        assert "workers=4" in failure

    @pytest.mark.parametrize(
        "name, file", [("smoke", SMOKE_BASELINE), ("serve", SERVE_BASELINE)]
    )
    def test_measured_document_is_the_committed_one_verbatim(
        self, name, file
    ):
        """No projection between what is measured and what is committed:
        a key that varied by run or by host would show here."""
        committed = checks.load_baselines(checks.CHECKS[name])[file]
        assert _evidence(name) == committed


class TestExactDiff:
    def test_names_every_kind_of_difference(self):
        expected = {"a": 1, "b": [1, 2], "c": {"d": 1.0}, "gone": 0}
        actual = {"a": 2, "b": [1, 2, 3], "c": {"d": 1.0}, "new": 0}
        assert checks.exact_diff(expected, actual) == [
            "$.a: 2 != expected 1",
            "$.b: length 3 != 2",
            "$.gone: missing",
            "$.new: unexpected",
        ]

    def test_gated_reads_as_from_disk_without_the_ignored_keys(self):
        """The warm check's cold pass carries warm-only counters the
        cold baseline has not; tuples compare as the lists JSON holds."""
        document = {"fig9": {"warm_loaded_bases": 0.0, "points": (3,)}}
        assert checks.gated(document) == {
            "fig9": {"warm_loaded_bases": 0.0, "points": [3]}
        }
        assert checks.gated(document, checks.WARM_ONLY_KEYS) == {
            "fig9": {"points": [3]}
        }


class TestEntryPoint:
    def test_spec_parameters_reach_the_measurement(self):
        check, params = checks.parse_spec("smoke:workers=4")
        assert check is checks.CHECKS["smoke"]
        assert params == {"workers": "4"}

    @pytest.mark.parametrize(
        "spec",
        [
            "smok",
            "smoke:shards=4",
            "smoke:backend=numpy",
            "warm:workers=4",
            "serve:store=x",
        ],
    )
    def test_unknown_check_or_parameter_is_a_usage_error(self, spec):
        with pytest.raises(ValueError):
            checks.parse_spec(spec)
        with pytest.raises(SystemExit):
            checks.main([spec])

    @pytest.mark.parametrize("spec", ["warm", "lifecycle", "smoke:workers=4"])
    def test_refresh_only_for_unparametrised_baseline_owners(self, spec):
        with pytest.raises(SystemExit):
            checks.main(["--refresh", spec])

    def test_thin_main_reports_pass_and_exits_zero(self):
        done = subprocess.run(
            [sys.executable, "benchmarks/check_regression.py", "lifecycle"],
            cwd=checks.REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert done.returncode == 0, done.stderr
        assert "lifecycle check passed" in done.stdout

    def test_absent_baseline_is_a_clean_failure_before_measuring(
        self, tmp_path, monkeypatch, capsys
    ):
        """No traceback, no daemon booted: the shared loader names the
        unreadable file and the check fails."""

        def never(**params):
            raise AssertionError("measured without a baseline to judge by")

        monkeypatch.setattr(checks, "BASELINE_DIR", str(tmp_path))
        for name in ("serve", "smoke"):
            monkeypatch.setitem(
                checks.CHECKS,
                name,
                dataclasses.replace(checks.CHECKS[name], measure=never),
            )
        (tmp_path / SMOKE_BASELINE).write_text("{not json")
        assert checks.main(["serve", "smoke"]) == 1
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / SERVE_BASELINE}" in err
        assert f"cannot read {tmp_path / SMOKE_BASELINE}" in err

    @pytest.mark.parametrize("name", ["smoke", "golden", "serve"])
    def test_refresh_rewrites_what_the_check_then_passes_against(
        self, name, tmp_path, monkeypatch, capsys
    ):
        """Doctor a copy of the committed baselines so the check fails,
        ``--refresh`` it (reporting the counter that changed), and the
        same check passes — with the committed files never touched."""
        check = _sandboxed(name, tmp_path, monkeypatch)
        _, path = MUTATIONS[name]
        stale = checks.load_baselines(check)
        _doctor(stale, path, 1)
        checks.write_document(str(tmp_path / path[0]), stale[path[0]])

        assert checks.main([name]) == 1
        assert "--refresh" in capsys.readouterr().err
        assert checks.main(["--refresh", name]) == 0
        assert path[-1] in capsys.readouterr().out
        assert checks.main([name]) == 0

    @pytest.mark.parametrize("name", ["smoke", "golden", "serve"])
    def test_refresh_of_an_unchanged_tree_rewrites_the_same_bytes(
        self, name, tmp_path, monkeypatch
    ):
        """What CI's ``--refresh ... && git diff --exit-code`` steps prove:
        the committed baselines are exactly what the tree produces."""
        check = _sandboxed(name, tmp_path, monkeypatch)
        assert checks.refresh(check) == []
        for file in check.baselines:
            committed = os.path.join(checks.REPO_ROOT, "benchmarks", file)
            with open(committed, "rb") as ours, open(
                tmp_path / file, "rb"
            ) as theirs:
                assert theirs.read() == ours.read(), file


class TestServeDaemonBoot:
    def test_daemon_stderr_reaches_the_parent(
        self, tmp_path, monkeypatch, capfd
    ):
        """The daemon inherits stderr, so a degrade ``RuntimeWarning`` is
        on the operator's console (and no unread pipe can fill and stall
        it).  The warning comes from a ``sitecustomize`` on the child's
        ``PYTHONPATH``: whatever the daemon process warns, we see."""
        (tmp_path / "sitecustomize.py").write_text(
            "import warnings\n"
            "warnings.warn('kernel degraded (says the test)', "
            "RuntimeWarning)\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        snapshot = str(tmp_path / "snapshot")
        build_fixture_session(bases=4).save(snapshot)
        process, _, _ = serve._boot_daemon(
            snapshot, str(tmp_path / "flushed")
        )
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        assert "kernel degraded (says the test)" in capfd.readouterr().err

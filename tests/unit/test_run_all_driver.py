"""Driver-level tests for ``repro.bench.driver`` (``benchmarks/run_all.py``).

``BENCH_run_all.json`` is the committed counter baseline, so the
driver must never let a run produced under other conditions — another
scale, worker count, stopping policy, warm store or backend — replace it
or be merged into it, nor clobber a file it cannot read.  One predicate,
``incompatibility()``, decides that; it is pinned here as a table, then
exercised end to end through ``main`` with stubbed figure runners
(tmp-path baselines, ``--only`` merges, ``partial`` / ``merged_figures``
marking), plus real smoke-sized runs proving the ``--workers`` counters
are bit-identical to the serial driver run.
"""

import dataclasses
import json

import pytest

from repro.bench import driver
from repro.bench.figures import FIGURES
from repro.bench.harness import FigureResult, Series

ALL_FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


def _stub_result(name, counter):
    return FigureResult(
        figure=name,
        caption="stub",
        x_label="x",
        y_label="y",
        series=[Series("Stub", [(0.0, 1.0)])],
        counters={"samples_drawn": counter},
    )


def _install_stubs(monkeypatch, counter=1.0, interrupt=None):
    """Swap every declared figure's runner for an instant stub.

    The stubs keep the declared calling convention: a sweep figure must
    be handed exactly the four sweep options, the others none."""

    def stub(figure):
        def answer():
            if figure.name == interrupt:
                raise KeyboardInterrupt
            if figure.name == "fig7":
                return "Figure 7 stub"
            return _stub_result(figure.name, counter)

        if figure.sweep:
            return lambda scale, *, workers, adaptive, warm_store, checkpoint: answer()
        return lambda scale: answer()

    monkeypatch.setattr(
        driver,
        "FIGURES",
        tuple(dataclasses.replace(f, runner=stub(f)) for f in FIGURES),
    )


def _read(path):
    with open(path) as handle:
        return json.load(handle)


def _document(**tags):
    return {"scale": "quick", "workers": 1, "figures": {"fig9": {}}, **tags}


class TestFigureDeclarations:
    def test_every_figure_declared_once_in_suite_order(self):
        assert tuple(figure.name for figure in FIGURES) == ALL_FIGURES

    def test_sweep_figures_are_the_explorer_figures(self):
        assert [f.name for f in FIGURES if f.sweep] == [
            "fig8", "fig9", "fig10", "fig11"
        ]


class TestIncompatibility:
    ADAPTIVE = {"rtol": 0.05, "confidence": 0.95}

    @pytest.mark.parametrize(
        "existing, candidate, names",
        [
            (_document(), _document(), None),
            (_document(), _document(scale="smoke"), "scale"),
            (_document(), _document(workers=4), "workers"),
            (_document(workers=4), _document(), "workers"),
            (_document(), _document(adaptive=ADAPTIVE), "adaptive"),
            (_document(adaptive=ADAPTIVE), _document(), "adaptive"),
            (
                _document(adaptive=ADAPTIVE),
                _document(adaptive={"rtol": 0.1, "confidence": 0.95}),
                "adaptive",
            ),
            (_document(), _document(warm_store=True), "warm_store"),
            (_document(warm_store=True), _document(), "warm_store"),
            (_document(warm_store=False), _document(), None),
            (_document(), _document(backend="other"), "backend"),
            (_document(backend="other"), _document(), "backend"),
            # The first differing field is the one named.
            (_document(), _document(scale="smoke", workers=4), "scale"),
            # Keys that are not provenance never matter.
            (
                _document(partial=["fig9"]),
                _document(merged_figures=["fig9"]),
                None,
            ),
        ],
    )
    def test_names_the_first_differing_field(
        self, existing, candidate, names
    ):
        reason = driver.incompatibility(existing, candidate)
        if names is None:
            assert reason is None
        else:
            assert f"{names}=" in reason

    def test_legacy_baseline_without_workers_key_is_serial(self):
        """Pre-PR-2 baselines carry no ``workers`` key: they were serial."""
        legacy = _document()
        del legacy["workers"]
        assert driver.incompatibility(legacy, _document()) is None
        assert "workers=1" in driver.incompatibility(
            legacy, _document(workers=4)
        )

    @pytest.mark.parametrize(
        "existing",
        [
            [1, 2, 3],
            {"scale": "quick"},
            {"scale": "quick", "figures": [1, 2, 3]},
            {"scale": "quick", "figures": {"fig9": 3.0}},
        ],
    )
    def test_unrecognized_shape_is_incompatible(self, existing):
        assert "unrecognized shape" in driver.incompatibility(
            existing, _document()
        )


class TestFullRuns:
    def test_writes_complete_baseline(self, tmp_path, monkeypatch):
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        driver.main(["--bench-out", str(out)])
        bench = _read(out)
        assert set(bench["figures"]) == set(ALL_FIGURES)
        assert bench["scale"] == "quick"
        assert bench["workers"] == 1
        assert "partial" not in bench
        assert "merged_figures" not in bench
        assert bench["figures"]["fig9"] == {"samples_drawn": 1.0}
        assert bench["figures"]["fig7"] == {}
        # No clock- and no host-derived key: the document is a function
        # of (tree, flags) alone.
        assert set(bench) == {"scale", "workers", "figures"}

    def test_interrupt_during_figure_exits_130(
        self, tmp_path, monkeypatch, capsys
    ):
        _install_stubs(monkeypatch, interrupt="fig9")
        out = tmp_path / "bench.json"
        code = driver.main(
            [
                "--bench-out", str(out),
                "--checkpoint", str(tmp_path / "ckpt"),
            ]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted during fig9" in err
        # The operator is told how to resume the interrupted sweep.
        assert "--checkpoint" in err

    def test_interrupt_without_checkpoint_suggests_nothing(
        self, monkeypatch, capsys
    ):
        _install_stubs(monkeypatch, interrupt="fig9")
        assert driver.main(["--bench-out", ""]) == 130
        err = capsys.readouterr().err
        assert "interrupted during fig9" in err
        assert "--checkpoint" not in err

    @pytest.mark.parametrize(
        "other_conditions, names",
        [
            (["--scale", "smoke"], "scale"),
            (["--workers", "4"], "workers"),
            (["--rtol", "0.05"], "adaptive"),
            (["--warm-store", "stores"], "warm_store"),
        ],
    )
    def test_run_under_other_conditions_never_replaces_baseline(
        self, tmp_path, monkeypatch, capsys, other_conditions, names
    ):
        """...in either direction, and the tagged document lands intact
        where ``--bench-out`` points elsewhere."""
        _install_stubs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.json"
        driver.main(["--bench-out", str(out)])
        before = _read(out)
        driver.main(["--bench-out", str(out), *other_conditions])
        assert _read(out) == before
        err = capsys.readouterr().err
        assert "not overwriting" in err and f"{names}=" in err

        elsewhere = tmp_path / "elsewhere.json"
        driver.main(["--bench-out", str(elsewhere), *other_conditions])
        tagged = _read(elsewhere)
        assert driver.provenance(tagged) != driver.provenance(before)
        driver.main(["--bench-out", str(elsewhere)])
        assert _read(elsewhere) == tagged
        assert "not overwriting" in capsys.readouterr().err

    def test_default_documents_carry_no_optional_tags(
        self, tmp_path, monkeypatch
    ):
        """Cold, fixed-budget, default-backend documents stay untagged,
        byte-compatible with the baselines that predate the tags."""
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        driver.main(["--bench-out", str(out)])
        assert not {"adaptive", "warm_store", "backend"} & set(_read(out))

    def test_full_run_never_clobbers_an_unreadable_file(
        self, tmp_path, monkeypatch, capsys
    ):
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        out.write_text("{not json at all")
        driver.main(["--bench-out", str(out)])
        assert out.read_text() == "{not json at all"
        assert "not overwriting" in capsys.readouterr().err

    def test_warm_store_without_consuming_figures_runs_cold(
        self, tmp_path, monkeypatch, capsys
    ):
        """fig12 has no store to persist: the document must stay untagged
        (it is bit-identical to a cold run) and merge cleanly."""
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        driver.main(["--bench-out", str(out)])
        driver.main(
            [
                "--bench-out", str(out), "--only", "fig12",
                "--warm-store", str(tmp_path / "s"), "--rtol", "0.05",
            ]
        )
        bench = _read(out)
        assert "warm_store" not in bench and "adaptive" not in bench
        assert bench["merged_figures"] == ["fig12"]
        err = capsys.readouterr().err
        assert "--warm-store has no effect" in err
        assert "--rtol has no effect" in err

    def test_invalid_stopping_policy_is_a_usage_error(self, monkeypatch):
        _install_stubs(monkeypatch)
        with pytest.raises(SystemExit):
            driver.main(["--bench-out", "", "--rtol", "-1"])

    def test_unavailable_backend_is_a_usage_error(self, monkeypatch):
        _install_stubs(monkeypatch)
        with pytest.raises(SystemExit):
            driver.main(["--bench-out", "", "--backend", "cupy"])


class TestOnlyMerge:
    def _seed_baseline(self, monkeypatch, out):
        _install_stubs(monkeypatch, counter=1.0)
        driver.main(["--bench-out", str(out)])
        return _read(out)

    def test_merges_into_compatible_baseline(self, tmp_path, monkeypatch):
        out = tmp_path / "bench.json"
        before = self._seed_baseline(monkeypatch, out)
        _install_stubs(monkeypatch, counter=9.0)
        driver.main(["--bench-out", str(out), "--only", "fig9"])
        merged = _read(out)
        assert merged["figures"]["fig9"]["samples_drawn"] == 9.0
        for name in ALL_FIGURES:
            if name != "fig9":
                assert merged["figures"][name] == before["figures"][name]
        assert merged["merged_figures"] == ["fig9"]
        assert "partial" not in merged  # still covers every figure

    def test_only_without_baseline_marks_partial(
        self, tmp_path, monkeypatch
    ):
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        driver.main(["--bench-out", str(out), "--only", "fig10"])
        bench = _read(out)
        assert set(bench["figures"]) == {"fig10"}
        assert bench["partial"] == ["fig10"]
        assert bench["merged_figures"] == ["fig10"]

    def test_refuses_malformed_json(self, tmp_path, monkeypatch, capsys):
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        out.write_text("{not json at all")
        driver.main(["--bench-out", str(out), "--only", "fig9"])
        assert out.read_text() == "{not json at all"
        assert "not overwriting" in capsys.readouterr().err

    def test_refuses_unrecognized_shape(
        self, tmp_path, monkeypatch, capsys
    ):
        _install_stubs(monkeypatch)
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"figures": [1, 2, 3]}))
        driver.main(["--bench-out", str(out), "--only", "fig9"])
        assert _read(out) == {"figures": [1, 2, 3]}
        assert "not overwriting" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "other_conditions, names",
        [
            (["--scale", "smoke"], "scale"),
            (["--workers", "2"], "workers"),
            (["--warm-store", "stores"], "warm_store"),
        ],
    )
    def test_refuses_merge_under_other_conditions(
        self, tmp_path, monkeypatch, capsys, other_conditions, names
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.json"
        before = self._seed_baseline(monkeypatch, out)
        driver.main(
            ["--bench-out", str(out), "--only", "fig9", *other_conditions]
        )
        assert _read(out) == before
        err = capsys.readouterr().err
        assert "not overwriting" in err and f"{names}=" in err

    def test_unknown_figure_rejected(self, monkeypatch):
        _install_stubs(monkeypatch)
        with pytest.raises(SystemExit):
            driver.main(["--only", "fig99", "--bench-out", ""])


class TestRealRuns:
    def test_single_experiment_via_only_flag(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        # --bench-out '' disables the bench JSON write: a test run must
        # never touch the committed BENCH_run_all.json baseline.
        driver.main(
            ["--only", "fig12", "--out", str(out_file), "--bench-out", ""]
        )
        assert "Figure 12" in capsys.readouterr().out
        assert "Figure 12" in out_file.read_text()

    def test_real_smoke_fig10_counters_identical(self, tmp_path):
        """A real (unstubbed) sharded driver run reproduces the serial
        counters exactly — the acceptance invariant behind CI's
        ``smoke:workers=4`` check."""
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        driver.main(
            [
                "--scale", "smoke", "--only", "fig10",
                "--bench-out", str(serial_out),
            ]
        )
        driver.main(
            [
                "--scale", "smoke", "--only", "fig10",
                "--bench-out", str(sharded_out), "--workers", "4",
            ]
        )
        serial = _read(serial_out)["figures"]["fig10"]
        sharded = _read(sharded_out)["figures"]["fig10"]
        assert sharded == serial

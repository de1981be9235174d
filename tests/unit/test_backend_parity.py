"""Backend seam parity and self-verification degrade semantics.

Three contracts are enforced here:

* **Parity** — every available compute backend produces *bitwise* the
  same draws, mapping parameters, match decisions, and
  ``candidates_tested`` counters as the numpy reference, across all
  five mapping families and all three index strategies.  ``numpy`` is
  the one backend that ships, so the parametrization pins the plumbing;
  ``TestAddingABackend`` runs the registration recipe end to end with a
  faithful stand-in.
* **Degrade** — all three fast paths (backend kernels, the fastrng
  draw stream, the columnar matcher — single-probe kernels and the
  block probe's pair pass alike) run under the one
  ``VerifyThenDegrade`` harness: a lying path is caught by the first-N
  cross-check, warns exactly once, and answers through the reference
  from then on; the degrade is scoped to the instance (one bad store
  never poisons the process), visible via
  ``describe()``/``fast_path_status()``, and re-armable only through
  the test-only reset hooks.
* **Refusal** — unknown or unavailable backend names raise a typed
  :class:`~repro.errors.BackendError` (CLI exit code 2); selection
  never falls back silently.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.blackbox import fastrng
from repro.core.backend import (
    VERIFY_CALLS,
    ComputeBackend,
    NumpyBackend,
    active_backend,
    backend_available,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.core.basis import PAIR_PASS_MIN_PROBES, BasisStore
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
    ScaleMappingFamily,
    ShiftMappingFamily,
)
from repro.errors import BackendError, JigsawError

AVAILABLE = tuple(
    name for name in backend_names() if backend_available(name)
)


@pytest.fixture
def registry(monkeypatch):
    """Registrations and selections made by one test are undone after it
    (the registry and the process-active backend are module state)."""
    from repro.core import backend as backend_module

    monkeypatch.setattr(
        backend_module, "_REGISTRY", dict(backend_module._REGISTRY)
    )
    monkeypatch.setattr(backend_module, "_ACTIVE", backend_module._ACTIVE)
    register_backend(
        "absent", NumpyBackend, available=lambda: False, requires="nosuchpkg"
    )


#: (family factory, per-probe transform builder): the transform maps a
#: stored base row to a probe the family must match.  All transforms are
#: strictly increasing, so the monotone family accepts them too.
FAMILIES = {
    "linear": (LinearMappingFamily, lambda i, row: 1.5 * row + float(i % 3)),
    "identity": (IdentityMappingFamily, lambda i, row: row.copy()),
    "shift": (ShiftMappingFamily, lambda i, row: row + float(i % 5) - 2.0),
    "scale": (ScaleMappingFamily, lambda i, row: (1.0 + 0.5 * (i % 3)) * row),
    "monotone": (
        MonotoneMappingFamily,
        lambda i, row: 2.0 * row + float(i % 2),
    ),
}

STRATEGIES = ("array", "normalization", "sorted_sid")

KINDS = (
    fastrng.KIND_NORMAL,
    fastrng.KIND_UNIFORM,
    fastrng.KIND_EXPONENTIAL,
    fastrng.KIND_NORMAL,
)


def _probe_mix(family_key, bases):
    """Deterministic probes: matching images plus guaranteed misses."""
    transform = FAMILIES[family_key][1]
    probes = []
    for i, row in enumerate(bases):
        values = transform(i, row)
        if i % 4 == 3:
            values = values.copy()
            values[i % len(values)] += 0.37  # break the relation: a miss
        probes.append(Fingerprint(values))
    return probes


def _match_digest(store, probes):
    """Everything parity pins: decisions, params, and work counters."""
    digest = []
    for probe in probes:
        before = store.stats.candidates_tested
        result = store.match(probe)
        work = store.stats.candidates_tested - before
        if result is None:
            digest.append((None, None, work))
        else:
            digest.append((result.basis.basis_id, result.mapping, work))
    return digest


class TestKernelParity:
    @pytest.mark.parametrize("name", AVAILABLE)
    def test_draw_matrix_bitwise_matches_scalar(self, name):
        backend = create_backend(name)
        # Enough seeds for ziggurat-rejection lanes (~1.5% per draw).
        seeds = np.arange(3000, dtype=np.uint64)
        matrix = fastrng.draw_matrix(seeds, KINDS, backend=backend)
        scalar = fastrng._draw_matrix_scalar(seeds, KINDS)
        assert np.array_equal(matrix, scalar)
        assert backend.degraded_kernels() == ()

    @pytest.mark.parametrize("name", AVAILABLE)
    @pytest.mark.parametrize("family_key", sorted(FAMILIES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_match_parity_with_reference(self, name, family_key, strategy):
        factory = FAMILIES[family_key][0]
        rng = np.random.default_rng(20110614)
        bases = rng.standard_normal((24, 10))
        probes = _probe_mix(family_key, bases)

        reference = BasisStore(
            mapping_family=factory(), index_strategy=strategy,
            backend=NumpyBackend(),
        )
        under_test = BasisStore(
            mapping_family=factory(), index_strategy=strategy, backend=name
        )
        # Force the columnar engine so the backend kernels actually run
        # (small candidate sets would otherwise scalar-match).
        reference.columnar_min_candidates = 0
        under_test.columnar_min_candidates = 0
        for row in bases:
            reference.add(Fingerprint(row), row)
            under_test.add(Fingerprint(row), row)

        assert _match_digest(under_test, probes) == _match_digest(
            reference, probes
        )
        assert under_test.backend.degraded_kernels() == ()

    @pytest.mark.parametrize("name", AVAILABLE)
    @pytest.mark.parametrize("size", [8, 32, 256, 1024])
    def test_backend_kernels_bitwise_match_reference(self, name, size):
        """Block sizes on both sides of where a JIT kernel would start to
        pay, full-range seeds, and calls past the verification window —
        where nothing but this test compares the backend to numpy."""
        backend = create_backend(name)
        reference = NumpyBackend()
        rng = np.random.default_rng(7)
        for _ in range(VERIFY_CALLS + 2):  # beyond the verification window
            seeds = rng.integers(0, 2**63, size=size, dtype=np.uint64)
            ours = backend.draw_block(seeds, KINDS)
            theirs = reference.draw_block(seeds, KINDS)
            assert np.array_equal(ours[0], theirs[0])
            assert np.array_equal(ours[1], theirs[1])
            sources = rng.standard_normal((size, 10))
            alpha = 1.0 + 0.25 * (np.arange(size, dtype=np.float64) % 7)
            beta = np.arange(size, dtype=np.float64) % 5 - 2.0
            target = alpha[3] * sources[3] + beta[3]
            assert np.array_equal(
                backend.affine_validate(sources, alpha, beta, target, 1e-8),
                reference.affine_validate(sources, alpha, beta, target, 1e-8),
            )
        assert backend.degraded_kernels() == ()


class _LyingAffineBackend(ComputeBackend):
    """Self-identifies as accelerated, flips one validation bit."""

    name = "lying-affine"

    def _affine_validate(self, sources, alpha, beta, target, tol):
        valid = super()._affine_validate(sources, alpha, beta, target, tol)
        valid = valid.copy()
        valid[0] = not valid[0]
        return valid


class _LyingDrawBackend(ComputeBackend):
    name = "lying-draw"

    def _draw_block(self, seeds, kinds):
        out, ok = super()._draw_block(seeds, kinds)
        out = out.copy()
        out[0, 0] += 1.0
        return out, ok


class _StreamLyingBackend(ComputeBackend):
    """Corrupts draws *and* opts out of kernel-level verification, so the
    lie can only be caught by the fastrng whole-pipeline self-test."""

    name = "stream-liar"
    is_reference = True

    def _draw_block(self, seeds, kinds):
        out, ok = super()._draw_block(seeds, kinds)
        out = out.copy()
        out += 1.0
        return out, ok


class _RaisingDrawBackend(_StreamLyingBackend):
    """The vector path crashes outright instead of disagreeing."""

    name = "stream-crasher"

    def _draw_block(self, seeds, kinds):
        raise ValueError("boom")


class _LyingLinearFamily(LinearMappingFamily):
    """Claims no candidate ever matches (a broken vectorized kernel)."""

    def find_matrix(self, sources, target, rel_tol=1e-9, abs_tol=1e-12,
                    keys=None, backend=None):
        plausible, build = super().find_matrix(
            sources, target, rel_tol, abs_tol, keys, backend
        )
        return np.zeros_like(plausible), build


def _lying_columnar_store():
    store = BasisStore(
        mapping_family=_LyingLinearFamily(), index_strategy="array"
    )
    store.columnar_min_candidates = 0
    store.add(Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0)), np.arange(4.0))
    return store


def _kernel_site():
    backend = _LyingDrawBackend()
    seeds = np.arange(16, dtype=np.uint64)

    def digest(be):
        out, ok = be.draw_block(seeds, KINDS)
        return out.tobytes(), ok.tobytes()

    return (
        lambda: digest(backend), digest(NumpyBackend()),
        backend.describe, "lying-draw[degraded:draw_block]",
    )


def _stream_site():
    backend = _StreamLyingBackend()
    seeds = np.arange(12, dtype=np.uint64)
    return (
        lambda: fastrng.draw_matrix(seeds, KINDS, backend=backend).tobytes(),
        fastrng._draw_matrix_scalar(seeds, KINDS).tobytes(),
        backend.describe, "stream-liar[scalar-draws]",
    )


def _columnar_site():
    store = _lying_columnar_store()
    probe = Fingerprint((1.0, 3.0, 2.0, 5.0, -1.0))  # 2 * base + 1

    def digest():
        tested = []
        (result,) = store.match_batch([probe], tested_out=tested)
        return result.basis.basis_id, result.mapping, tested

    return (
        digest, (0, AffineMapping(2.0, 1.0), [1]),
        lambda: store.backend.describe(store.columnar_check),
        "numpy[scalar-match]",
    )


class _LyingPairFamily(LinearMappingFamily):
    """A broken explicit-pair front: every mapping it builds is shifted."""

    def find_pairs(self, *args, **kwargs):
        first, build = super().find_pairs(*args, **kwargs)

        def shifted(probe):
            mapping = build(probe)
            return AffineMapping(mapping.alpha, mapping.beta + 1.0)

        return first, shifted


def _pair_pass_site():
    """A selective store — one candidate a probe, ``columnar_check``'s own
    budget never touched — whose block probe's pair pass lies."""
    store = BasisStore(mapping_family=_LyingPairFamily())
    base = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
    store.add(base, np.arange(4.0))
    probes = [
        Fingerprint(tuple(2.0 * v + shift for v in base.values))
        for shift in range(PAIR_PASS_MIN_PROBES)
    ]

    def digest():
        tested = []
        results = store.match_batch(probes, tested_out=tested)
        return [(r.basis.basis_id, r.mapping) for r in results], tested

    return (
        digest,
        (
            [
                (0, AffineMapping(2.0, float(shift)))
                for shift in range(PAIR_PASS_MIN_PROBES)
            ],
            [1] * PAIR_PASS_MIN_PROBES,
        ),
        lambda: store.backend.describe(store.columnar_check),
        "numpy[scalar-match]",
    )


class TestDegradeSemantics:
    @pytest.mark.parametrize(
        "site", [_kernel_site, _stream_site, _columnar_site, _pair_pass_site]
    )
    def test_each_site_warns_once_degrades_for_good_serves_reference(
        self, site
    ):
        call, reference_bits, describe, degraded_descriptor = site()
        with pytest.warns(RuntimeWarning) as caught:
            assert call() == reference_bits
        assert len(caught) == 1
        assert describe() == degraded_descriptor
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            for _ in range(VERIFY_CALLS + 2):
                assert call() == reference_bits
        assert describe() == degraded_descriptor

    def test_degrade_is_store_scoped_not_process_wide(self):
        liar = _LyingAffineBackend()
        store = BasisStore(backend=liar)
        # Route every probe through the columnar engine (the backend's
        # affine kernel); tiny candidate sets would scalar-match instead.
        store.columnar_min_candidates = 0
        rng = np.random.default_rng(3)
        bases = rng.standard_normal((8, 10))
        for row in bases:
            store.add(Fingerprint(row), row)
        clean = BasisStore(backend=NumpyBackend())
        clean.columnar_min_candidates = 0
        for row in bases:
            clean.add(Fingerprint(row), row)
        probes = [Fingerprint(2.0 * row + 1.0) for row in bases]
        with pytest.warns(RuntimeWarning, match="lying-affine"):
            lied = _match_digest(store, probes)
        assert lied == _match_digest(clean, probes)
        assert store.backend.degraded_kernels() == ("affine_validate",)
        assert "degraded:affine_validate" in store.backend.describe()
        # The process-active backend never saw the liar.
        assert active_backend().degraded_kernels() == ()

    def test_stream_lie_degrades_fast_path_per_instance(self):
        backend = _StreamLyingBackend()
        seeds = np.arange(12, dtype=np.uint64)
        with pytest.warns(RuntimeWarning, match="disagreed with .*scalar draw"):
            assert not fastrng.fast_path_available(backend)
        # Degraded instances answer through the scalar path: bitwise
        # equal to the reference stream regardless of the lie.
        matrix = fastrng.draw_matrix(seeds, KINDS, backend=backend)
        assert np.array_equal(
            matrix, fastrng._draw_matrix_scalar(seeds, KINDS)
        )
        status = fastrng.fast_path_status(backend)
        assert status["fast_path"] == "degraded"
        assert "scalar-draws" in status["backend"]
        # Instance-scoped: the process-active backend is untouched.
        assert fastrng.fast_path_status()["fast_path"] in ("ok", "untested")

        # warn-once: re-probing a degraded instance stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not fastrng.fast_path_available(backend)

        # The test-only reset re-arms both the probe and the warning.
        fastrng.reset_fast_path(backend)
        assert fastrng.fast_path_status(backend)["fast_path"] == "untested"
        with pytest.warns(RuntimeWarning, match="scalar draw path"):
            assert not fastrng.fast_path_available(backend)

    def test_crashing_self_test_names_the_exception(self):
        backend = _RaisingDrawBackend()
        with pytest.warns(RuntimeWarning, match="raised ValueError: boom"):
            assert not fastrng.fast_path_available(backend)
        seeds = np.arange(12, dtype=np.uint64)
        assert np.array_equal(
            fastrng.draw_matrix(seeds, KINDS, backend=backend),
            fastrng._draw_matrix_scalar(seeds, KINDS),
        )

    def test_fast_path_status_reports_clean_backend(self):
        backend = NumpyBackend()
        assert fastrng.fast_path_status(backend) == {
            "backend": "numpy",
            "fast_path": "untested",
            "degraded_kernels": (),
        }
        assert fastrng.fast_path_available(backend)
        assert fastrng.fast_path_status(backend)["fast_path"] == "ok"

    def test_reset_verification_rearms_kernel_checks(self):
        backend = _LyingDrawBackend()
        seeds = np.arange(8, dtype=np.uint64)
        with pytest.warns(RuntimeWarning):
            backend.draw_block(seeds, KINDS)
        assert backend.degraded_kernels() == ("draw_block",)
        backend.reset_verification()
        assert backend.degraded_kernels() == ()
        assert backend._checks["draw_block"].remaining == VERIFY_CALLS
        with pytest.warns(RuntimeWarning):
            backend.draw_block(seeds, KINDS)


class TestSelectionAndRefusal:
    def test_unknown_name_refused_with_typed_error(self):
        with pytest.raises(BackendError, match="unknown compute backend"):
            create_backend("nope")
        assert issubclass(BackendError, JigsawError)

    def test_unavailable_name_refused_not_defaulted(self, registry):
        assert "absent" in backend_names()
        assert not backend_available("absent")
        with pytest.raises(BackendError, match="requires 'nosuchpkg'"):
            create_backend("absent")

    def test_registry_ships_numpy_only(self):
        assert backend_names() == ("numpy",)
        assert backend_available("numpy")

    def test_use_backend_rejects_non_backends(self):
        with pytest.raises(BackendError, match="ComputeBackend"):
            use_backend(42)

    def test_resolve_semantics(self):
        assert resolve_backend(None) is active_backend()
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance
        fresh = resolve_backend("numpy")
        assert fresh is not active_backend()
        assert fresh.name == "numpy"

    def test_cli_refuses_unknown_backend_with_exit_2(self, capsys):
        from repro.cli import main

        assert main(["store", "info", "ignored", "--backend", "nope"]) == 2
        assert "unknown compute backend" in capsys.readouterr().err

    def test_cli_refuses_unavailable_backend_with_exit_2(
        self, registry, capsys
    ):
        from repro.cli import main

        assert main(["store", "info", "ignored", "--backend", "absent"]) == 2
        assert "not available on this host" in capsys.readouterr().err


class _FaithfulBackend(ComputeBackend):
    """What an accelerated backend is: its own code for some kernels,
    the reference's bits.  (Same operations in the same order, spelled
    without the reference's in-place buffer.)"""

    name = "faithful"

    def _draw_block(self, seeds, kinds):
        out, ok = super()._draw_block(seeds, kinds)
        return out.copy(), ok.copy()

    def _affine_validate(self, sources, alpha, beta, target, tol):
        deviation = np.abs(alpha[:, None] * sources + beta[:, None] - target)
        bound = tol[:, None] if np.ndim(tol) else tol
        return (deviation <= bound).all(axis=1)


class TestAddingABackend:
    """ROADMAP's "Adding a backend" recipe, executed: subclass, override
    kernels, register, select by name."""

    def test_overridden_kernels_are_verified_inherited_ones_are_not(self):
        budgets = {
            kernel: check.remaining
            for kernel, check in _FaithfulBackend()._checks.items()
        }
        assert budgets == {
            "draw_block": VERIFY_CALLS,
            "affine_validate": VERIFY_CALLS,
            "sid_orders": 0,
            "normal_forms": 0,
        }

    def test_registered_name_serves_a_sharded_sweep_bitwise(
        self, registry, tmp_path
    ):
        """Selection by registry name, through the figure driver, with
        shard workers that rebuild the backend from that name
        (``_inheritable_backend_name``): counters equal the committed
        numpy baseline's and nothing degraded."""
        from repro.bench import checks, driver
        from repro.core.parallel import _inheritable_backend_name

        built_in = tmp_path / "built_in"

        def factory():
            with open(built_in, "a") as log:
                log.write(f"{os.getpid()}\n")
            return _FaithfulBackend()

        register_backend("faithful", factory)
        out = tmp_path / "bench.json"
        arguments = ["--scale", "smoke", "--only", "fig9", "--workers", "2"]
        assert driver.main(
            [*arguments, "--backend", "faithful", "--bench-out", str(out)]
        ) == 0
        bench = json.loads(out.read_text())
        baseline = checks.load_baselines(checks.CHECKS["smoke"])
        assert bench["backend"] == "faithful"
        assert bench["figures"]["fig9"] == (
            baseline[checks.SMOKE_BASELINE]["figures"]["fig9"]
        )
        serving = active_backend()
        assert isinstance(serving, _FaithfulBackend)
        assert serving.describe() == "faithful"
        assert serving._checks["affine_validate"].remaining < VERIFY_CALLS
        assert _inheritable_backend_name() == "faithful"
        builders = {int(pid) for pid in built_in.read_text().split()}
        assert builders > {os.getpid()}  # the driver, and shard workers


class TestBackendReporting:
    def test_session_stats_report_serving_backend(self, tmp_path):
        from repro.api.messages import decode_response, encode_response
        from repro.serve import build_fixture_session

        session = build_fixture_session(bases=4, seed=11)
        response = session.stats()
        assert response.backend == {"default": "numpy"}
        roundtrip = decode_response(encode_response(response))
        assert roundtrip.backend == response.backend

    def test_session_stats_report_columnar_degrade(self):
        from repro.api import Session

        store = _lying_columnar_store()
        session = Session(store)
        assert session.stats().backend == {"default": "numpy"}
        with pytest.warns(RuntimeWarning, match="columnar FindMapping"):
            store.match(Fingerprint((1.0, 3.0, 2.0, 5.0, -1.0)))
        assert session.stats().backend == {"default": "numpy[scalar-match]"}

    def test_stats_decoding_tolerates_streams_without_backend(self):
        from repro.api.messages import decode_response, encode_response
        from repro.api.messages import StatsResponse

        encoded = encode_response(StatsResponse(counters={}, bases={}))
        encoded.pop("backend")  # a pre-backend peer's wire document
        decoded = decode_response(encoded)
        assert decoded.backend == {}

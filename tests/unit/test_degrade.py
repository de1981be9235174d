"""Kernel parity and self-verification degrade semantics.

The numpy kernels are called directly, and past the first few calls
nothing at run time compares them with a slower path, so
``TestKernelParity`` pins them here: the vector draw block and the dense
affine check against per-row scalar references, and the columnar matcher
against the scalar matcher across all five mapping families and all
three index strategies, decisions, parameters and work counters alike.

Every fast path that has a slower path to be checked against runs under
the one ``VerifyThenDegrade`` harness (:mod:`repro.core.backend`): the
fastrng draw stream (one process-wide self-test), and per store the
columnar matcher and the block probe's pair pass (its own-tail table
included).  A lying path is
caught by the first-N cross-check, warns exactly once, and answers
through the reference from then on; a store's degrade is scoped to that
store, every degrade is visible in the ``describe()`` descriptor and
``StatsResponse.backend``, and the stream check is re-armed only by the
test-only :func:`~repro.blackbox.fastrng.reset_fast_path`.

The lies are planted at the module kernels with ``monkeypatch``:
``fastrng._vector_draw_block`` for the stream, and
``mapping.affine_validate`` (which nothing checks on its own) or a
broken mapping family for the matchers.
"""

import os
import warnings

import numpy as np
import pytest

from repro.blackbox import fastrng
from repro.core import mapping, parallel
from repro.core.backend import VERIFY_CALLS, active_backend
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

KINDS = (
    fastrng.KIND_NORMAL,
    fastrng.KIND_UNIFORM,
    fastrng.KIND_EXPONENTIAL,
    fastrng.KIND_NORMAL,
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

BASE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
PROBE = Fingerprint((1.0, 3.0, 2.0, 5.0, -1.0))  # 2 * BASE + 1


@pytest.fixture(autouse=True)
def fresh_stream_check():
    """The stream self-test is process state: each test starts it armed
    and leaves it armed, so a planted lie neither hides behind an earlier
    pass nor outlives its test."""
    fastrng.reset_fast_path()
    yield
    fastrng.reset_fast_path()


def _lying_draw_block(monkeypatch):
    real = fastrng._vector_draw_block

    def lying(seeds, kinds):
        out, ok = real(seeds, kinds)
        return out + 1.0, ok

    monkeypatch.setattr(fastrng, "_vector_draw_block", lying)


def _lying_affine_validate(monkeypatch):
    """Flip the first row's verdict of every call."""
    real = mapping.affine_validate

    def lying(*args):
        valid = real(*args).copy()
        valid[0] = not valid[0]
        return valid

    monkeypatch.setattr(mapping, "affine_validate", lying)


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
    """Decisions, mapping parameters and work counters, probe by probe."""
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


class _LyingLinearFamily(LinearMappingFamily):
    """Claims no candidate ever matches (a broken vectorized kernel)."""

    def find_matrix(self, sources, target, rel_tol=1e-9, abs_tol=1e-12,
                    keys=None):
        plausible, build = super().find_matrix(
            sources, target, rel_tol, abs_tol, keys
        )
        return np.zeros_like(plausible), build


def _columnar_store(family=None):
    store = BasisStore(
        mapping_family=family or LinearMappingFamily(),
        index_strategy="array",
    )
    store.columnar_min_candidates = 0
    store.add(BASE, np.arange(4.0))
    return store


def _one_probe_digest(store):
    def digest():
        tested = []
        (result,) = store.match_batch([PROBE], tested_out=tested)
        return result.basis.basis_id, result.mapping, tested

    return digest


def _stream_site(monkeypatch):
    _lying_draw_block(monkeypatch)
    seeds = np.arange(12, dtype=np.uint64)
    return (
        lambda: fastrng.draw_matrix(seeds, KINDS).tobytes(),
        fastrng._draw_matrix_scalar(seeds, KINDS).tobytes(),
        active_backend().describe,
        "numpy[scalar-draws]",
    )


def _columnar_site(monkeypatch):
    store = _columnar_store(_LyingLinearFamily())
    return (
        _one_probe_digest(store),
        (0, AffineMapping(2.0, 1.0), [1]),
        lambda: active_backend().describe(store.columnar_check),
        "numpy[scalar-match]",
    )


def _affine_site(monkeypatch):
    """A wrong dense kernel under a faithful family: nothing checks the
    kernel itself, so the store's ``columnar_check`` has to."""
    store = _columnar_store()
    _lying_affine_validate(monkeypatch)
    return (
        _one_probe_digest(store),
        (0, AffineMapping(2.0, 1.0), [1]),
        lambda: active_backend().describe(store.columnar_check),
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


def _pair_pass_site(monkeypatch):
    """A selective store — one candidate a probe, ``columnar_check``'s own
    budget never touched — whose block probe's pair pass lies."""
    store = BasisStore(mapping_family=_LyingPairFamily())
    store.add(BASE, np.arange(4.0))
    probes = [
        Fingerprint(tuple(2.0 * v + shift for v in BASE.values))
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
        lambda: active_backend().describe(store.columnar_check),
        "numpy[scalar-match]",
    )


#: A cold block whose first probe misses and whose others are images of
#: it: every tail after the first is the block's own, answered by the
#: own-tail table (the only ``find_pairs`` launch on an empty store).
OWN_TAIL_PROBES = [BASE] + [
    Fingerprint(tuple(2.0 * v + shift for v in BASE.values))
    for shift in range(1, PAIR_PASS_MIN_PROBES)
]

#: What the scalar loop answers for them: ``(root values, mapping,
#: tested)``, ``None`` for the root's miss.
OWN_TAIL_ANSWERS = [(None, None, 0)] + [
    (BASE.values, AffineMapping(2.0, float(shift)), 1)
    for shift in range(1, PAIR_PASS_MIN_PROBES)
]


def _own_tail_digest(store):
    """Sweep the cold block in Algorithm 3's order, then retire what it
    added, so every call starts from an empty store."""

    def digest():
        handle = store.block_probe(OWN_TAIL_PROBES)
        answers, added = [], []
        for i, probe in enumerate(OWN_TAIL_PROBES):
            result, tested = handle.match(i)
            if result is None:
                added.append(store.add(probe, np.arange(4.0)).basis_id)
                answers.append((None, None, tested))
            else:
                answers.append(
                    (result.basis.fingerprint.values, result.mapping, tested)
                )
        for basis_id in added:
            store.remove(basis_id)
        return answers

    return digest


def _own_tail_site(monkeypatch):
    """The own-tail table lies; ``pair_checks_left`` catches it."""
    store = BasisStore(mapping_family=_LyingPairFamily())
    return (
        _own_tail_digest(store),
        OWN_TAIL_ANSWERS,
        lambda: active_backend().describe(store.columnar_check),
        "numpy[scalar-match]",
    )


def test_draw_matrix_bitwise_matches_scalar():
    # Enough seeds for ziggurat-rejection lanes (~1.5% per draw).
    seeds = np.arange(3000, dtype=np.uint64)
    matrix = fastrng.draw_matrix(seeds, KINDS)
    assert np.array_equal(matrix, fastrng._draw_matrix_scalar(seeds, KINDS))
    assert fastrng.fast_path_status() == {
        "backend": "numpy",
        "fast_path": "ok",
    }


def _scalar_affine_validate(sources, alpha, beta, target, tol):
    """``affine_validate`` spelled one entry at a time in Python floats."""
    targets = target if target.ndim == 2 else [target] * len(sources)
    tols = tol if np.ndim(tol) else [tol] * len(sources)
    return np.array(
        [
            all(
                abs(float(a) * float(x) + float(b) - float(t)) <= float(bound)
                for x, t in zip(row, goal)
            )
            for row, a, b, goal, bound in zip(
                sources, alpha, beta, targets, tols
            )
        ],
        dtype=bool,
    )


class TestKernelParity:
    @pytest.mark.parametrize("size", [8, 32, 256, 1024])
    def test_draw_block_bitwise_matches_scalar_past_the_window(self, size):
        """Block sizes small and large, full-range seeds, and calls past
        the stream self-test, where nothing else compares the block with
        the per-seed ``Generator``."""
        assert fastrng.fast_path_available()
        rng = np.random.default_rng(7)
        accepted = 0
        for _ in range(VERIFY_CALLS + 2):
            seeds = rng.integers(0, 2**63, size=size, dtype=np.uint64)
            out, ok = fastrng._vector_draw_block(seeds, KINDS)
            scalar = fastrng._draw_matrix_scalar(seeds, KINDS)
            assert np.array_equal(out[ok], scalar[ok])
            assert np.array_equal(fastrng.draw_matrix(seeds, KINDS), scalar)
            accepted += int(ok.sum())
        # Rejection lanes are the exception (~1.5% per normal or
        # exponential draw), so the block path did answer most rows.
        assert accepted > 0.8 * size * (VERIFY_CALLS + 2)
        assert fastrng.fast_path_status()["fast_path"] == "ok"

    @pytest.mark.parametrize("size", [8, 32, 256, 1024])
    def test_affine_validate_matches_scalar_rows(self, size):
        """One shared target (the single probe) and one target and bound
        per row (the block probe's ragged pair set), with rows that pass
        exactly, pass within the bound and miss by one entry."""
        rng = np.random.default_rng(size)
        sources = rng.standard_normal((size, 10))
        alpha = 1.0 + 0.25 * (np.arange(size, dtype=np.float64) % 7)
        beta = np.arange(size, dtype=np.float64) % 5 - 2.0
        shared = alpha[3] * sources[3] + beta[3]
        assert mapping.affine_validate(sources, alpha, beta, shared, 1e-8)[3]
        assert np.array_equal(
            mapping.affine_validate(sources, alpha, beta, shared, 1e-8),
            _scalar_affine_validate(sources, alpha, beta, shared, 1e-8),
        )
        targets = alpha[:, None] * sources + beta[:, None]
        targets[::3] += 1e-9  # inside the looser bounds only
        targets[1::4, size % 10] += 0.5  # a miss in one entry
        bounds = np.where(np.arange(size) % 2 == 0, 1e-8, 1e-12)
        valid = mapping.affine_validate(sources, alpha, beta, targets, bounds)
        assert valid.any() and not valid.all()
        assert np.array_equal(
            valid,
            _scalar_affine_validate(sources, alpha, beta, targets, bounds),
        )

    @pytest.mark.parametrize("family_key", sorted(FAMILIES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_columnar_matches_scalar(self, family_key, strategy):
        factory = FAMILIES[family_key][0]
        rng = np.random.default_rng(20110614)
        bases = rng.standard_normal((24, 10))
        probes = _probe_mix(family_key, bases)

        def store(min_candidates):
            built = BasisStore(
                mapping_family=factory(), index_strategy=strategy
            )
            built.columnar_min_candidates = min_candidates
            for row in bases:
                built.add(Fingerprint(row), row)
            return built

        columnar = store(0)  # every probe through the matrix kernels
        scalar = store(len(bases) + 1)  # no probe ever reaches them
        assert _match_digest(columnar, probes) == _match_digest(
            scalar, probes
        )
        assert any(result[0] is not None for result in _match_digest(
            scalar, probes
        ))
        # Equal answers from a degraded store would be the scalar
        # matcher's: the kernels must have passed their own check.
        assert columnar.columnar_check.remaining == 0
        assert active_backend().describe(columnar.columnar_check) == "numpy"


def _worker_stream(seeds, index):
    """One shard's view of the draw stream: where it ran, the self-test
    state it started from, and the bits it drew."""
    return (
        os.getpid(),
        fastrng.fast_path_status(),
        fastrng.draw_matrix(seeds, KINDS).tobytes(),
    )


class TestDegradeSemantics:
    @pytest.mark.parametrize(
        "site",
        [
            _stream_site,
            _columnar_site,
            _affine_site,
            _pair_pass_site,
            _own_tail_site,
        ],
    )
    def test_each_site_warns_once_degrades_for_good_serves_reference(
        self, site, monkeypatch
    ):
        call, reference_bits, describe, degraded_descriptor = site(
            monkeypatch
        )
        with pytest.warns(RuntimeWarning) as caught:
            assert call() == reference_bits
        assert len(caught) == 1
        assert describe() == degraded_descriptor
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            for _ in range(VERIFY_CALLS + 2):
                assert call() == reference_bits
        assert describe() == degraded_descriptor

    def test_a_lying_own_tail_table_falls_back_to_find(self):
        """Caught on the block's first own tail, spending one check; the
        rest of the block is answered by ``_find`` from scratch."""
        store = BasisStore(mapping_family=_LyingPairFamily())
        lists = []
        find = store._find

        def logged(fingerprint, candidates):
            lists.append(list(candidates))
            return find(fingerprint, candidates)

        store._find = logged
        with pytest.warns(RuntimeWarning) as caught:
            answers = _own_tail_digest(store)()
        assert [str(w.message) for w in caught] == [
            "columnar FindMapping pair pass disagreed with the scalar find "
            "loop; this instance answers through the scalar find loop from "
            "now on"
        ]
        assert answers == OWN_TAIL_ANSWERS
        assert store.pair_checks_left == VERIFY_CALLS - 1
        assert (
            active_backend().describe(store.columnar_check)
            == "numpy[scalar-match]"
        )
        # Probe 1 was answered by the check itself; probes 2.. by _find.
        assert lists == [[0]] * (PAIR_PASS_MIN_PROBES - 2)

    def test_a_wrong_affine_kernel_is_caught_by_every_store(
        self, monkeypatch
    ):
        rng = np.random.default_rng(3)
        bases = rng.standard_normal((8, 10))
        probes = [Fingerprint(2.0 * row + 1.0) for row in bases]

        def store():
            built = BasisStore()
            # Route every probe through the columnar engine; tiny
            # candidate sets would scalar-match instead.
            built.columnar_min_candidates = 0
            for row in bases:
                built.add(Fingerprint(row), row)
            return built

        clean = _match_digest(store(), probes)
        _lying_affine_validate(monkeypatch)
        for _ in range(2):
            lied_to = store()
            with pytest.warns(RuntimeWarning, match="columnar FindMapping"):
                assert _match_digest(lied_to, probes) == clean
            assert (
                active_backend().describe(lied_to.columnar_check)
                == "numpy[scalar-match]"
            )
        # Store-scoped: the process descriptor never saw the lie.
        assert active_backend().describe() == "numpy"

    def test_a_degraded_store_leaves_its_neighbours_clean(self):
        liar = _columnar_store(_LyingLinearFamily())
        clean = _columnar_store()
        with pytest.warns(RuntimeWarning, match="columnar FindMapping"):
            _one_probe_digest(liar)()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the clean store never warns
            for _ in range(VERIFY_CALLS + 2):
                assert _one_probe_digest(clean)() == (
                    0, AffineMapping(2.0, 1.0), [1],
                )
        assert clean.columnar_check.remaining == 0
        assert active_backend().describe(clean.columnar_check) == "numpy"
        assert (
            active_backend().describe(liar.columnar_check)
            == "numpy[scalar-match]"
        )

    @pytest.mark.parametrize("lie", [False, True], ids=["clean", "lying"])
    def test_forked_workers_inherit_the_stream_check(self, lie, monkeypatch):
        """Workers fork with the parent's self-test state, like any other
        module state: a passed check is not re-run (``ok``, not
        ``untested``), and a degraded one keeps answering scalar bits."""
        seeds = np.arange(12, dtype=np.uint64)
        if lie:
            _lying_draw_block(monkeypatch)
            with pytest.warns(RuntimeWarning, match="scalar draw path"):
                assert not fastrng.fast_path_available()
        else:
            assert fastrng.fast_path_available()
        status = fastrng.fast_path_status()
        outcomes, resumed, _ = parallel.run_shards(
            _worker_stream, seeds, 2, 2,
            policy=None, checkpoint=None, config=dict,
            encode=None, decode=None,
        )
        assert resumed == 0
        scalar = fastrng._draw_matrix_scalar(seeds, KINDS).tobytes()
        for pid, worker_status, bits in outcomes:
            assert pid != os.getpid()
            assert worker_status == status
            assert bits == scalar

    def test_stream_lie_degrades_the_fast_path(self, monkeypatch):
        _lying_draw_block(monkeypatch)
        seeds = np.arange(12, dtype=np.uint64)
        with pytest.warns(RuntimeWarning, match="disagreed with .*scalar draw"):
            assert not fastrng.fast_path_available()
        # A degraded stream answers through the scalar path: bitwise
        # equal to the reference stream regardless of the lie.
        assert np.array_equal(
            fastrng.draw_matrix(seeds, KINDS),
            fastrng._draw_matrix_scalar(seeds, KINDS),
        )
        assert fastrng.fast_path_status() == {
            "backend": "numpy[scalar-draws]",
            "fast_path": "degraded",
        }

        # warn-once: re-probing a degraded stream stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not fastrng.fast_path_available()

        # The test-only reset re-arms both the probe and the warning.
        fastrng.reset_fast_path()
        assert fastrng.fast_path_status()["fast_path"] == "untested"
        with pytest.warns(RuntimeWarning, match="scalar draw path"):
            assert not fastrng.fast_path_available()

    def test_crashing_self_test_names_the_exception(self, monkeypatch):
        def crashing(seeds, kinds):
            raise ValueError("boom")

        monkeypatch.setattr(fastrng, "_vector_draw_block", crashing)
        with pytest.warns(RuntimeWarning, match="raised ValueError: boom"):
            assert not fastrng.fast_path_available()
        seeds = np.arange(12, dtype=np.uint64)
        assert np.array_equal(
            fastrng.draw_matrix(seeds, KINDS),
            fastrng._draw_matrix_scalar(seeds, KINDS),
        )

    def test_fast_path_status_reports_a_clean_stream(self):
        assert fastrng.fast_path_status() == {
            "backend": "numpy",
            "fast_path": "untested",
        }
        assert fastrng.fast_path_available()
        assert fastrng.fast_path_status()["fast_path"] == "ok"


class TestBackendReporting:
    def test_session_stats_report_serving_backend(self):
        from repro.api.messages import decode_response, encode_response
        from repro.serve import build_fixture_session

        session = build_fixture_session(bases=4, seed=11)
        response = session.stats()
        assert response.backend == {"default": "numpy"}
        roundtrip = decode_response(encode_response(response))
        assert roundtrip.backend == response.backend

    def test_session_stats_report_columnar_degrade(self):
        from repro.api import Session

        store = _columnar_store(_LyingLinearFamily())
        session = Session(store)
        assert session.stats().backend == {"default": "numpy"}
        with pytest.warns(RuntimeWarning, match="columnar FindMapping"):
            store.match(PROBE)
        assert session.stats().backend == {"default": "numpy[scalar-match]"}

    def test_stats_decoding_tolerates_streams_without_backend(self):
        from repro.api.messages import (
            StatsResponse,
            decode_response,
            encode_response,
        )

        encoded = encode_response(StatsResponse(counters={}, bases={}))
        encoded.pop("backend")  # a pre-backend peer's wire document
        decoded = decode_response(encoded)
        assert decoded.backend == {}

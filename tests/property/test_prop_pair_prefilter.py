"""Soundness of the block probe's ratio prefilter (``mapping._ratio_screen``).

The broadcast front of the pair kernel (``LinearMappingFamily.find_block``)
fits and validates only the (probe x candidate) pairs the prefilter keeps,
so the prefilter must never drop a pair Algorithm 2 accepts:

(a) over hostile float64 rows — signed zeros, subnormals, infinities, NaN,
    magnitudes near 1e±300, constant rows and sources whose first distinct
    entry comes late (mixed anchor columns) — a pair the prefilter drops
    has no mapping under ``LinearMappingFamily.find``;
(b) on the screen's own edge — ``t = alpha * s + beta`` over eight orders
    of magnitude of ``|alpha|`` and offsets up to 1e6 times the spread,
    the last entry walked to the last value ``find`` accepts and the first
    it rejects (adjacent floats) — the accepted side is always kept, and,
    for a source and a target near the origin, a last entry two
    tolerances out is dropped;
(c) block probes with the shared front forced agree with the scalar loop,
    probe by probe, on all three index strategies: basis id, mapping bits
    and candidates tested;
(d) ``find_block(state=...)``, the targets' state cut from a larger
    stack's as a block probe keeps it, gives ``find_block()``'s bits.

The default profile keeps the tier-1 run short; CI runs this module with
``--hypothesis-profile=ci`` (registered in the root ``conftest.py``).
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.basis import BasisStore
from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
    rows_anchor_columns,
)
from repro.core.index import INDEX_STRATEGIES
from repro.core.mapping import (
    LinearMappingFamily,
    _ratio_screen,
    _targets_state,
    rows_ratio_columns,
)

FAMILY = LinearMappingFamily()

#: Only the run length comes from the profile.
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

HOSTILE = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -2.2250738585072014e-308,
    1e-300,
    -1e-300,
    1e300,
    -1e300,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
    1.0,
    -1.0,
    0.5,
    3.0,
]

entries = st.one_of(
    st.sampled_from(HOSTILE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=-1e3, max_value=1e3),
)
ALPHAS = [1.0, -1.0, 0.5, -2.0, 3.0, 1e-8, -1e8, 1e300, 5e-324]
BETAS = [0.0, 2.5, -1.0, 1e6, -1e300]
#: Moves of one entry, in probe tolerances: both sides of the screen.
NUDGES = [0.5, 0.999, 1.001, 2.0, -0.5, -0.999, -1.001, -2.0]


def screen(sources, targets):
    """The prefilter's keep mask ``(targets, sources)``, all sources as
    one group (mixed anchors: one gather per pair) — checked equal to one
    group per source (a shared anchor column: the common case)."""
    anchors = rows_anchor_columns(sources, DEFAULT_REL_TOL)
    ratio, slack = rows_ratio_columns(sources, anchors)
    varying, tol = _targets_state(targets, DEFAULT_REL_TOL, DEFAULT_ABS_TOL)
    whole = _ratio_screen(targets, anchors[1], ratio, slack, varying, tol)
    single = np.hstack(
        [
            _ratio_screen(
                targets,
                anchors[1][[r]],
                ratio[[r]],
                slack[[r]],
                varying,
                tol,
            )
            for r in range(len(sources))
        ]
    )
    np.testing.assert_array_equal(whole, single)
    return whole


def probe_tolerance(values):
    return _targets_state(
        np.asarray(values, dtype=float)[None], DEFAULT_REL_TOL, DEFAULT_ABS_TOL
    )[1][0]


@st.composite
def hostile_cases(draw):
    size = draw(st.sampled_from([1, 2, 3, 5, 8]))
    row = st.lists(entries, min_size=size, max_size=size)
    sources = draw(st.lists(row, min_size=1, max_size=5))
    # Constant rows, and rows whose anchor column is ``late``.
    for value, late in draw(
        st.lists(
            st.tuples(st.sampled_from(HOSTILE), st.integers(1, size)),
            max_size=3,
        )
    ):
        sources.append([value] * late + [value + 1.0] * (size - late))
    targets = []
    for kind in draw(
        st.lists(
            st.sampled_from(["fresh", "image", "image", "nudged"]),
            min_size=1,
            max_size=6,
        )
    ):
        if kind == "fresh":
            targets.append(draw(row))
            continue
        source = np.asarray(draw(st.sampled_from(sources)), dtype=float)
        alpha, beta = draw(st.sampled_from(ALPHAS)), draw(st.sampled_from(BETAS))
        column = draw(st.integers(0, size - 1))
        nudge = draw(st.sampled_from(NUDGES)) if kind == "nudged" else 0.0
        with np.errstate(all="ignore"):
            image = alpha * source + beta
            image[column] += nudge * probe_tolerance(image)
        targets.append(image.tolist())
    return (
        np.asarray(sources, dtype=float),
        np.asarray(targets, dtype=float),
    )


@_SETTINGS
@given(case=hostile_cases())
def test_dropped_pairs_have_no_mapping(case):
    """(a) The prefilter drops only pairs ``find`` rejects."""
    sources, targets = case
    with np.errstate(all="ignore"):
        keep = screen(sources, targets)
        for t, s in zip(*np.nonzero(~keep)):
            assert (
                FAMILY.find(Fingerprint(sources[s]), Fingerprint(targets[t]))
                is None
            )


@_SETTINGS
@given(
    size=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_alpha=st.floats(min_value=-8.0, max_value=8.0),
    negative=st.booleans(),
    offset=st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6)),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    shift=st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6)),
    upward=st.booleans(),
)
def test_the_screens_edge_is_kept(
    size, seed, log_alpha, negative, offset, log_scale, shift, upward
):
    """(b) Adjacent last entries, one ``find`` accepts and one it rejects:
    the accepted one is always kept.  The source sits ``shift`` spreads
    from the origin, the target ``offset`` spreads: a far source and a
    near target make the kernel round by a good part of the target's
    tolerance.  With both near, a last entry two tolerances out is
    dropped."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    centred = np.concatenate([[0.0, 1.0], rng.uniform(-1.0, 1.0, size - 2)])
    source = (centred + shift) * scale
    alpha = (-1.0 if negative else 1.0) * 10.0**log_alpha
    image = alpha * (centred * scale)
    image += offset * np.ptp(image)
    basis = Fingerprint(source)

    def with_last(value):
        values = image.copy()
        values[-1] = value
        return values

    def accepted(value):
        return FAMILY.find(basis, Fingerprint(with_last(value))) is not None

    def kept(value):
        return bool(screen(source[None], with_last(value)[None])[0, 0])

    step = (1.0 if upward else -1.0) * probe_tolerance(image)
    accept, reject = image[-1], image[-1] + 4.0 * step
    assume(accepted(accept) and not accepted(reject))
    while np.nextafter(accept, reject) != reject:
        middle = accept + (reject - accept) / 2.0
        if middle in (accept, reject):
            middle = np.nextafter(accept, reject)
        if accepted(middle):
            accept = middle
        else:
            reject = middle
    assert kept(accept)
    if abs(shift) <= 1.0 and abs(offset) <= 1e3:
        assert not kept(image[-1] + 2.0 * step)


_grid = st.integers(min_value=-4, max_value=4).map(float)
grid_rows = st.sampled_from([5, 5, 5, 3]).flatmap(
    lambda size: st.lists(_grid, min_size=size, max_size=size)
)
#: (kind, pick, alpha, beta, nudge, fresh) — see ``_probe``.
probe_specs = st.tuples(
    st.sampled_from(["image", "image", "nudged", "fresh"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0, 1e-8, 1e8]),
    st.sampled_from([-1.0, 0.0, 2.5, 1e6]),
    st.sampled_from(NUDGES),
    grid_rows,
)


def _probe(bases, spec):
    kind, pick, alpha, beta, nudge, fresh = spec
    if kind == "fresh":
        return Fingerprint(tuple(fresh))
    values = alpha * np.asarray(bases[pick % len(bases)]) + beta
    if kind == "nudged":
        values[-1] += nudge * probe_tolerance(values)
    return Fingerprint(values)


@_SETTINGS
@given(
    bases=st.lists(grid_rows, min_size=1, max_size=12),
    specs=st.lists(probe_specs, min_size=4, max_size=12),
    strategy=st.sampled_from(INDEX_STRATEGIES),
    cutover=st.sampled_from([1, 2, 8]),
)
def test_block_probe_matches_the_scalar_loop(bases, specs, strategy, cutover):
    """(c) The shared front forced: every probe's answer is the scalar
    loop's — basis id, mapping bits, candidates tested."""
    store = BasisStore(
        mapping_family=LinearMappingFamily(), index_strategy=strategy
    )
    store.columnar_min_candidates = cutover
    store.columnar_check.exhaust()
    for values in bases:
        store.add(Fingerprint(tuple(values)), np.asarray(values))
    probes = [_probe(bases, spec) for spec in specs]
    handle = store.block_probe(probes)
    for i, probe in enumerate(probes):
        want, want_tested = store._match_scalar(
            probe, store.index.candidates(probe)
        )
        got, tested = handle.match(i)
        assert tested == want_tested
        assert (got is None) == (want is None)
        if got is not None:
            assert got.basis.basis_id == want.basis.basis_id
            assert (got.mapping.alpha.hex(), got.mapping.beta.hex()) == (
                want.mapping.alpha.hex(),
                want.mapping.beta.hex(),
            )


@_SETTINGS
@given(case=hostile_cases(), data=st.data())
def test_find_block_with_the_callers_state(case, data):
    """(d) The state a block probe derives once over its stacked probes,
    sliced for a launch, decides every pair as the launch's own does."""
    sources, stack = case
    members = data.draw(
        st.lists(st.integers(0, len(stack) - 1), min_size=1, max_size=8)
    )
    split = data.draw(st.integers(1, len(members)))
    source_rows = st.lists(
        st.integers(0, len(sources) - 1), min_size=1, max_size=6
    ).map(np.array)
    groups = [(split, data.draw(source_rows))]
    if split < len(members):
        groups.append((len(members) - split, data.draw(source_rows)))
    targets = stack[members]
    with np.errstate(all="ignore"):
        state = _targets_state(stack, DEFAULT_REL_TOL, DEFAULT_ABS_TOL)
        answers = [
            FAMILY.find_block(sources, targets, groups, state=given)
            for given in (None, [column[members] for column in state])
        ]
    (first, build), (got, got_build) = answers
    np.testing.assert_array_equal(got, first)
    for probe in np.nonzero(first >= 0)[0].tolist():
        want, have = build(probe), got_build(probe)
        assert (have.alpha.hex(), have.beta.hex()) == (
            want.alpha.hex(),
            want.beta.hex(),
        )

"""The block plan's own tails against the scalar loop.

In a sweep a block's speculative misses are simulated and added in
order, each with its probe's own fingerprint, so a later probe's
appended tail is the block's own earlier misses.
``BlockProbe.plan`` decides those tails from the (earlier, later) pairs
of its speculative misses that the index would list together, in one
pair launch a size, and ``settle`` adds the planned misses and accounts
the block.  Hypothesis draws blocks of roots, planted affine images of
earlier probes of the block (decreasing maps, pure shifts and scales,
constant rows), the same fingerprint object probed twice, and
near-miss edges: an image's last entry walked with ``nextafter`` to
the last value ``LinearMappingFamily.find`` accepts or the first it
rejects.  Each answer the plan decides must be the one a ``match`` loop
gives over a deep copy of the store on the scalar loop, adding every
miss: basis id, mapping bits and candidates tested, then ``StoreStats``
and per-basis ``hits`` and metrics.

Both of the block's fronts are drawn: every list shared (cutover 0), or
every list short with the explicit pair pass on for the smallest block
there is.  Both check budgets are spent, so each answer is the plan's
own, not a masked fallback.  The default profile keeps the tier-1 run
short; CI runs this module with ``--hypothesis-profile=ci``.
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.basis as basis_module
from repro.core.basis import BasisStore
from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
)
from repro.core.index import INDEX_STRATEGIES
from repro.core.mapping import LinearMappingFamily, _targets_state

FAMILY = LinearMappingFamily()

#: Only the run length comes from the profile.
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: A cutover no candidate list reaches: the reference's scalar loop.
ALWAYS_SCALAR = 10**9

entries = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=-1e3, max_value=1e3),
)
rows = st.sampled_from([3, 5, 5, 8]).flatmap(
    lambda size: st.one_of(
        st.lists(entries, min_size=size, max_size=size),
        entries.map(lambda value: [value] * size),  # a constant row
    )
)

#: (kind, pick, alpha, beta, accept, fresh): how to build one probe from
#: the block's earlier probes — see ``_probe``.
probe_specs = st.tuples(
    st.sampled_from(["root", "image", "image", "edge", "edge", "same"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.5, 3.0, 1e-3, 1e3]),
    st.sampled_from([0.0, 4.5, -1.0, 1e4]),
    st.booleans(),
    rows,
)


def _tolerance(values):
    """The bound ``find`` validates a probe of these values against."""
    return _targets_state(
        np.asarray(values, dtype=float)[None], DEFAULT_REL_TOL, DEFAULT_ABS_TOL
    )[1][0]


def _edge(source, image, accept):
    """``image`` with its last entry walked to the last value ``find``
    accepts against ``source`` (``accept``) or the first it rejects; the
    image as it is when it has no such edge nearby."""
    basis = Fingerprint(source)

    def accepted(value):
        values = image.copy()
        values[-1] = value
        return FAMILY.find(basis, Fingerprint(values)) is not None

    inside, outside = image[-1], image[-1] + 4.0 * _tolerance(image)
    if not (accepted(inside) and not accepted(outside)):
        return image
    while np.nextafter(inside, outside) != outside:
        middle = inside + (outside - inside) / 2.0
        if middle in (inside, outside):
            middle = np.nextafter(inside, outside)
        if accepted(middle):
            inside = middle
        else:
            outside = middle
    walked = image.copy()
    walked[-1] = inside if accept else outside
    return walked


def _probe(probes, spec):
    kind, pick, alpha, beta, accept, fresh = spec
    if kind == "root" or not probes:
        return Fingerprint(tuple(fresh))
    earlier = probes[pick % len(probes)]
    if kind == "same":
        return earlier
    source = np.asarray(earlier.values, dtype=float)
    image = alpha * source + beta
    if kind == "edge":
        image = _edge(source, image, accept)
    return Fingerprint(image)


def _bits(answer):
    result, tested = answer
    if result is None:
        return None, tested
    mapping = result.mapping
    return (
        result.basis.basis_id,
        mapping.alpha.hex(),
        mapping.beta.hex(),
        tested,
    )


@_SETTINGS
@given(
    warm=st.lists(rows, max_size=3),
    specs=st.lists(probe_specs, min_size=4, max_size=14),
    strategy=st.sampled_from(INDEX_STRATEGIES),
    front=st.sampled_from(["shared", "short"]),
)
def test_planned_tails_match_the_scalar_loop(warm, specs, strategy, front):
    store = BasisStore(
        mapping_family=LinearMappingFamily(), index_strategy=strategy
    )
    store.columnar_check.exhaust()
    store.pair_checks_left = 0
    if front == "shared":
        store.columnar_min_candidates = 0
    for values in warm:
        store.add(Fingerprint(tuple(values)), np.asarray(values))
    reference = copy.deepcopy(store)
    reference.columnar_min_candidates = ALWAYS_SCALAR
    probes = []
    for spec in specs:
        probes.append(_probe(probes, spec))
    short_pass = basis_module.PAIR_PASS_MIN_PROBES
    if front == "short":
        short_pass = basis_module.BLOCK_MIN_PROBES
    with mock.patch.object(basis_module, "PAIR_PASS_MIN_PROBES", short_pass):
        handle = store.block_probe(probes)
    # Every probe was read ahead, so the plan decides each of its tails.
    assert len(handle._found) == len(probes)
    expected = []
    for probe in probes:
        tested = reference.stats.candidates_tested
        want = reference.match(probe)
        expected.append(_bits((want, reference.stats.candidates_tested - tested)))
        if want is None:
            reference.add(probe, np.asarray(probe.values))
    misses = handle.plan()
    if misses is None:
        # Only an own insert in front of a descending half has no plan.
        assert strategy == "sorted_sid"
        got = []
        for i, probe in enumerate(probes):
            got.append(handle.match(i))
            if got[-1][0] is None:
                store.add(probe, np.asarray(probe.values))
    else:
        decided = handle._plan[1]
        outcomes = handle.settle(
            [np.asarray(probes[i].values) for i in misses]
        )
        got = [
            (outcome if mapping is not None else None, tested)
            for outcome, (_, mapping, tested) in zip(outcomes, decided)
        ]
    assert [_bits(answer) for answer in got] == expected
    assert store.stats.as_dict() == reference.stats.as_dict()
    assert [(b.basis_id, b.hits, b.metrics) for b in store.bases] == [
        (b.basis_id, b.hits, b.metrics) for b in reference.bases
    ]

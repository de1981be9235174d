""":meth:`~repro.core.explorer.ParameterExplorer.explore` pinned to
absolute values.

Every case runs :class:`GridSynthBasis` points through one explorer, one
``explore`` call a block, and pins what the sweep computed.  The
``exhaustive`` case is one ``explore`` over the whole 5 x 5 x 4 space:
100 points, so two blocks of ``BLOCK_PROBES`` (64) and 36, the first of
which holds every miss, each adding a basis under the probes after it.
The ``climb_*`` cases are the block sequences a greedy hill climb over the
same space once fed the explorer (each step's uncached neighbours one
block of one to six points, so some blocks reach ``BLOCK_MIN_PROBES`` and
key their probes ahead), replayed into a warm store; ``climb_r3_repeated``
is a walk over an axis whose value list repeats a value.

Per case and index strategy the tests pin the visited points in order (a
digest), a digest of every result in order (through
:func:`repro.core.persist.encode_metrics`, so every float bit counts; the
climbs also pin each point's ``reused``, ``basis_id`` and
``samples_drawn``), the reused count, ``StoreStats``, per-basis ``hits``
and the box's ``invocations``.  Each case runs as the explorer plans a
block and with every block answered point by point (no plan): both must
give the per-point sweep's bits.

The expected values are literals copied from a frozen reference
(``data/search_reference.json``, since deleted with the search it also
pinned) that was written when every point was still one ``sample_batch``
and one ``store.match``; the climbs' block boundaries were recorded from
that search's ``explore`` calls.  They are not regenerated from this
code: a change here is a change to what a sweep computes, and needs its
diff explained.
"""

import hashlib
import json

import pytest

from repro.blackbox.synth_basis import SynthBasisModel
from repro.core.basis import BlockProbe
from repro.core.explorer import ParameterExplorer
from repro.core.persist import encode_metrics
from repro.scenario.parameter import RangeParameter
from repro.scenario.space import ParameterSpace


class GridSynthBasis(SynthBasisModel):
    """:class:`SynthBasisModel` over three axes: ``(a, b, c)`` draws as
    ``point = a + 5 b + 25 c`` would, on every sampling path."""

    parameter_names = ("a", "b", "c")

    @staticmethod
    def _as_point(params):
        return {"point": params["a"] + 5 * params["b"] + 25 * params["c"]}

    def _sample(self, params, seed):
        return super()._sample(self._as_point(params), seed)

    def _sample_batch(self, params, seeds):
        return super()._sample_batch(self._as_point(params), seeds)

    def _sample_points(self, block, seeds):
        return super()._sample_points(
            [self._as_point(params) for params in block], seeds
        )


SPACE = ParameterSpace(
    [
        RangeParameter("a", 0.0, 4.0, 1.0),
        RangeParameter("b", 0.0, 4.0, 1.0),
        RangeParameter("c", 0.0, 3.0, 1.0),
    ]
)

#: strategy -> candidates_tested; every other pinned value is shared.
CANDIDATES_TESTED = {"normalization": 93, "sorted_sid": 107, "array": 389}

PLANNED = pytest.mark.parametrize(
    "planned", [True, False], ids=["planned", "per_point"]
)

#: case -> the blocks, ``|`` between blocks and each point its ``a b c``
#: digits; then the visited digest, the results digest, ``reused``,
#: ``StoreStats`` (``candidates_tested`` per strategy), per-basis ``hits``
#: and ``invocations``.
CLIMBS = {
    "climb_r1": (
        "000|100 010 001|101 011 002|102 012 003|103 013|113 023"
        "|123 033 022",
        "fd3612b8a0bf4132",
        "0ac94221e5988546",
        10,
        {"bases_created": 7, "lookups": 17, "matches": 10},
        {"normalization": 10, "sorted_sid": 13, "array": 61},
        [0, 2, 2, 2, 2, 2, 0],
        520,
    ),
    "climb_r1_feasible": (
        "000|100 010 001|101 011 002|102 012 003",
        "81e26dd3361a52e8",
        "510bb51f1b87da0b",
        4,
        {"bases_created": 6, "lookups": 10, "matches": 4},
        {"normalization": 4, "sorted_sid": 6, "array": 28},
        [0, 1, 2, 0, 1, 0],
        400,
    ),
    "climb_r3": (
        "000|100 010 001|101 011 002|102 012 003|103 013|113 023"
        "|123 033 022|131|031 231 121 141 130 132|032 232 122 142 133"
        "|233 143|312|212 412 302 322 311 313|213 413 303 323|403 423",
        "1cfc056040358622",
        "9ab4b803af5a69bd",
        37,
        {"bases_created": 7, "lookups": 44, "matches": 37},
        {"normalization": 37, "sorted_sid": 44, "array": 155},
        [4, 7, 8, 6, 6, 4, 2],
        790,
    ),
    "climb_r3_feasible": (
        "000|100 010 001|101 011 002|102 012 003|131"
        "|031 231 121 141 130 132|032 232 122 142 133|312"
        "|212 412 302 322 311 313|112 202 222 211 213|111 113",
        "0d5cdb1e9e90a0eb",
        "e10dd5acae54487c",
        29,
        {"bases_created": 7, "lookups": 36, "matches": 29},
        {"normalization": 29, "sorted_sid": 34, "array": 130},
        [4, 4, 6, 5, 4, 3, 3],
        710,
    ),
    "climb_r3_repeated": (
        "000|100 010 001|101 011|111 021|121 031 020|131|231 141 130"
        "|331 221 241 230|310|210 410 300 320 311|211 411 301 321|421"
        "|431 341 330",
        "1b6da122ce74f745",
        "8fd51c215253637c",
        26,
        {"bases_created": 7, "lookups": 33, "matches": 26},
        {"normalization": 26, "sorted_sid": 31, "array": 124},
        [4, 3, 4, 4, 4, 4, 3],
        680,
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metrics_digest(result) -> str:
    return _digest(json.dumps(encode_metrics(result.metrics), sort_keys=True))


def _point(result) -> str:
    """A point on one line; ``repr`` round-trips every float bit."""
    return " ".join(f"{name}={float(v)!r}" for name, v in result.params.items())


def _blocks(text: str):
    return [
        [dict(zip("abc", map(float, point))) for point in block.split()]
        for block in text.split("|")
    ]


def _explore(blocks, strategy: str, planned: bool):
    """Every block explored in order on one fresh explorer; the box, the
    explorer and every result.  Unplanned, each block is answered point by
    point."""
    box = GridSynthBasis(basis_count=7)
    explorer = ParameterExplorer(
        box,
        samples_per_point=60,
        fingerprint_size=10,
        index_strategy=strategy,
    )
    with pytest.MonkeyPatch.context() as patch:
        if not planned:
            patch.setattr(BlockProbe, "plan", lambda self: None)
        results = [
            result for block in blocks for result in explorer.explore(block)
        ]
    return box, explorer, results


@PLANNED
@pytest.mark.parametrize("strategy", sorted(CANDIDATES_TESTED))
def test_explore_equals_frozen_reference(strategy, planned):
    box, explorer, results = _explore([SPACE.points()], strategy, planned)
    visited = "\n".join(_point(result) for result in results)
    judged = "".join(_metrics_digest(result) for result in results)
    assert _digest(visited) == "90dcb9f2ce08d391"
    assert [len(results), _digest(judged)] == [100, "7e90775054884f29"]
    assert sum(result.reused for result in results) == 93
    assert explorer.store.stats.as_dict() == {
        "bases_created": 7,
        "candidates_tested": CANDIDATES_TESTED[strategy],
        "lookups": 100,
        "matches": 93,
    }
    assert [basis.hits for basis in explorer.store.bases] == [
        14, 13, 14, 13, 13, 13, 13,
    ]
    assert box.invocations == 1350


@PLANNED
@pytest.mark.parametrize("strategy", sorted(CANDIDATES_TESTED))
@pytest.mark.parametrize("case", sorted(CLIMBS))
def test_climb_blocks_equal_frozen_reference(case, strategy, planned):
    text, visited, digest, reused, store, tested, hits, invocations = (
        CLIMBS[case]
    )
    box, explorer, results = _explore(_blocks(text), strategy, planned)
    lines = [
        f"{_point(result)} {_metrics_digest(result)}"
        f" reused={result.reused} basis={result.basis_id}"
        f" samples={result.samples_drawn}"
        for result in results
    ]
    assert _digest("\n".join(_point(result) for result in results)) == visited
    assert _digest("\n".join(lines)) == digest
    assert sum(result.reused for result in results) == reused
    assert explorer.store.stats.as_dict() == dict(
        store, candidates_tested=tested[strategy]
    )
    assert [basis.hits for basis in explorer.store.bases] == hits
    assert box.invocations == invocations

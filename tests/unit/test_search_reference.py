"""Hill climbing and exhaustive search pinned to absolute values.

:mod:`test_search` checks what a search finds; this file checks how it got
there, bit for bit, against ``data/search_reference.json``.  The file was
written by the parent of the PR that put both searches on
:meth:`~repro.core.explorer.ParameterExplorer.explore` (each step's
uncached neighbours one block), before any edit under ``src/``, when every
candidate was still one ``sample_batch`` and one ``store.match``.  Per
case and index strategy it holds the trace (visited points in order,
improvements with ``float.hex`` scores), the best point and score (hex),
the reused count, a digest of every ``MetricSet`` the search judged and of
every cached :class:`~repro.core.explorer.PointResult` (through
:func:`repro.core.persist.encode_metrics`, so every float bit counts, plus
``reused``, ``basis_id`` and ``samples_drawn``), ``StoreStats``, per-basis
``hits`` and the box's ``invocations``.

The space has three axes, so a step has up to six neighbours: in the
three-restart cases a step's block reaches ``basis.BLOCK_MIN_PROBES`` and
keys its probes ahead when opened.  The exhaustive cases' first block
(64 points) holds every miss, each adding a basis under the probes after
it.  The ``climb_r3_repeated`` case declares an axis whose value list
repeats a value, so one step's neighbour list holds the same point twice;
it is evaluated once, and ``lookups`` says so.

The file is regenerated (only for an *intentional* change to what a
search computes, with the diff explained) by::

    PYTHONPATH=src:tests/unit python - <<'EOF'
    import json, test_search_reference as t
    frozen = {
        case: {s: t.observe(case, s) for s in t.STRATEGIES}
        for case in t.CASES
    }
    with open(t.REFERENCE, "w") as out:
        json.dump(frozen, out, indent=1, sort_keys=True)
        out.write("\\n")
    EOF
"""

import hashlib
import json
import os

import pytest

from repro.blackbox.synth_basis import SynthBasisModel
from repro.core.explorer import ParameterExplorer
from repro.core.persist import encode_metrics
from repro.core.search import ExhaustiveSearch, HillClimbSearch
from repro.scenario.parameter import RangeParameter, SetParameter
from repro.scenario.space import ParameterSpace

REFERENCE = os.path.join(
    os.path.dirname(__file__), "data", "search_reference.json"
)

STRATEGIES = ("normalization", "sorted_sid", "array")


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


def _space(repeated: bool) -> ParameterSpace:
    c = (
        SetParameter("c", (0.0, 1.0, 0.0, 2.0))
        if repeated
        else RangeParameter("c", 0.0, 3.0, 1.0)
    )
    return ParameterSpace(
        [
            RangeParameter("a", 0.0, 4.0, 1.0),
            RangeParameter("b", 0.0, 4.0, 1.0),
            c,
        ]
    )


def objective(metrics) -> float:
    return metrics.expectation


def feasible(metrics) -> bool:
    return metrics.expectation < 4.0


#: case -> (search class, restarts or None, feasible?, repeated axis?).
CASES = {
    "climb_r1": (HillClimbSearch, 1, False, False),
    "climb_r3": (HillClimbSearch, 3, False, False),
    "climb_r1_feasible": (HillClimbSearch, 1, True, False),
    "climb_r3_feasible": (HillClimbSearch, 3, True, False),
    "climb_r3_repeated": (HillClimbSearch, 3, False, True),
    "exhaustive": (ExhaustiveSearch, None, False, False),
    "exhaustive_feasible": (ExhaustiveSearch, None, True, False),
}


def _digest(metrics) -> str:
    text = json.dumps(encode_metrics(metrics), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sequence_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def _point(point):
    """A point on one line; ``repr`` round-trips every float bit."""
    if point is None:
        return None
    return " ".join(f"{name}={float(v)!r}" for name, v in point.items())


def observe(case: str, strategy: str) -> dict:
    """Everything the reference pins, for one case under one strategy."""
    cls, restarts, constrained, repeated = CASES[case]
    box = GridSynthBasis(basis_count=7)
    explorer = ParameterExplorer(
        box,
        samples_per_point=60,
        fingerprint_size=10,
        index_strategy=strategy,
    )
    judged = []

    def judge(metrics):
        judged.append(_digest(metrics))
        return feasible(metrics) if constrained else True

    extra = {} if restarts is None else {"restarts": restarts}
    search = cls(
        explorer, _space(repeated), objective, feasible=judge, **extra
    )
    result = search.run()
    cache = getattr(search, "_cache", {})
    return {
        "visited": [_point(p) for p in result.trace.visited],
        "improvements": [
            [_point(p), float(score).hex()]
            for p, score in result.trace.improvements
        ],
        "best_point": _point(result.best_point),
        "best_score": float(result.best_score).hex(),
        "best_metrics": (
            None
            if result.best_metrics is None
            else _digest(result.best_metrics)
        ),
        "reused": result.explorer_stats_reused,
        "judged": [len(judged), _sequence_digest(judged)],
        "cache": [
            f"{_point(dict(key))} {_digest(point.metrics)}"
            f" reused={point.reused} basis={point.basis_id}"
            f" samples={point.samples_drawn}"
            for key, point in cache.items()
        ],
        "store": explorer.store.stats.as_dict(),
        "hits": [basis.hits for basis in explorer.store.bases],
        "invocations": box.invocations,
    }


@pytest.fixture(scope="module")
def frozen():
    with open(REFERENCE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_search_equals_frozen_reference(frozen, case, strategy):
    seen = observe(case, strategy)
    expected = frozen[case][strategy]
    for part in sorted(expected):
        assert seen[part] == expected[part], part


def test_repeated_neighbour_is_evaluated_once(frozen):
    """The repeated axis does put one point twice in a neighbour list,
    and every search still probes the store once per evaluated point."""
    for strategy in STRATEGIES:
        entry = frozen["climb_r3_repeated"][strategy]
        assert entry["store"]["lookups"] == len(entry["visited"])
        assert len(entry["cache"]) == len(entry["visited"])
    space = _space(repeated=True)
    point = {"a": 0.0, "b": 0.0, "c": 1.0}
    assert space.neighbors(point, "c") == [dict(point, c=0.0)] * 2

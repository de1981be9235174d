"""The objects a sweep holds per point, and a store per basis, are slotted.

``PointResult``, ``MetricSet``, ``Fingerprint``, ``AffineMapping`` and
``BasisDistribution`` carry no instance dict: each lists its dataclass
fields as ``__slots__``, in declaration order, and still pickles, deep
copies and ``dataclasses.replace``-s to an equal object.  The frozen ones
stay frozen.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.blackbox.rng import DeterministicRng
from repro.core.basis import BasisDistribution
from repro.core.estimator import Estimator, Histogram, MetricSet
from repro.core.explorer import ParameterExplorer, PointResult
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import AffineMapping, Mapping

NAN = float("nan")


def metric_set():
    """NaN fields, a -0.0 and a histogram: what ``==`` alone cannot
    check survives a round trip only if ``flat`` says so."""
    return MetricSet(
        40, NAN, 0.5, -0.0, NAN, ((0.25, NAN), (0.5, 1.5)),
        Histogram((3, 0, 37), (NAN, 0.0, 1.0, 2.0)),
    )


def warm_fingerprint():
    fingerprint = Fingerprint((3.0, 1.0, 2.0, 5.0))
    fingerprint.array
    fingerprint.scale()
    fingerprint.normal_form()
    fingerprint.sid_order()
    fingerprint.first_distinct_pair()
    assert fingerprint._cache
    return fingerprint


def point_result():
    return PointResult(
        {"mu": 1.0}, metric_set(), True, 7, AffineMapping(2.0, -1.0),
        warm_fingerprint(), 4,
    )


def basis_distribution():
    samples = np.array([3.0, 1.0, 2.0, 5.0, NAN, -0.0])
    return BasisDistribution(3, warm_fingerprint(), samples, metric_set(), 2)


def flat(value):
    """``value`` as plain comparable data: floats by their bits (so NaN
    and -0.0 compare as themselves), arrays by dtype, shape and bytes,
    dataclasses field by field (a ``Fingerprint``'s warm ``_cache``
    included)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            flat(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", math.copysign(1.0, value), value.hex())
    if isinstance(value, (tuple, list)):
        return tuple(flat(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, flat(item)) for key, item in value.items())
    return value


MAKERS = {
    PointResult: point_result,
    MetricSet: metric_set,
    Fingerprint: warm_fingerprint,
    AffineMapping: lambda: AffineMapping(2.0, -1.0),
    BasisDistribution: basis_distribution,
}
FROZEN = (MetricSet, Fingerprint, AffineMapping)


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)
class TestLayout:
    def test_slots_are_the_fields_in_order(self, cls):
        names = tuple(field.name for field in dataclasses.fields(cls))
        assert cls.__slots__ == names
        instance = MAKERS[cls]()
        assert not hasattr(instance, "__dict__")
        for name in names:
            getattr(instance, name)

    def test_round_trips(self, cls):
        instance = MAKERS[cls]()
        for back in (
            pickle.loads(pickle.dumps(instance)),
            copy.deepcopy(instance),
            dataclasses.replace(instance),
        ):
            assert type(back) is cls
            assert not hasattr(back, "__dict__")
            assert flat(back) == flat(instance)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_stays_frozen(cls):
    instance = MAKERS[cls]()
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field.name, None)


def test_mapping_base_adds_no_dict():
    assert Mapping.__slots__ == ()


def test_what_a_sweep_holds_has_no_dict():
    def simulation(params, seed):
        return DeterministicRng(seed).normal(params["mu"], params["sigma"])

    explorer = ParameterExplorer(
        simulation, samples_per_point=40, fingerprint_size=8,
        estimator=Estimator(histogram_bins=4),
    )
    result = explorer.run(
        [{"mu": float(mu), "sigma": s} for mu in range(4) for s in (1.0, 3.0)]
    )
    assert result.stats.points_reused and result.stats.bases_created
    held = []
    for point in result.points.values():
        held += [point, point.metrics, point.fingerprint]
        if point.mapping is not None:
            held.append(point.mapping)
    for basis in explorer.store.bases:
        held += [basis, basis.metrics, basis.fingerprint]
    assert {type(obj) for obj in held} == set(MAKERS)
    for obj in held:
        assert not hasattr(obj, "__dict__"), type(obj).__name__

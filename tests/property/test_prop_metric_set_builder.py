"""``MetricSet``'s fast builder against its dataclass ``__init__``.

``remap`` and ``estimate`` build their :class:`MetricSet` by filling an
unfrozen twin with the same slots and then assigning its ``__class__``
(``repro.core.estimator._metric_set``) instead of paying the frozen
dataclass's ``__init__``, which sets each field through
``object.__setattr__``.  Whatever goes in — NaN, infinities, ``-0.0``,
repeated quantile probabilities, a histogram or none — what comes out must
be indistinguishable from ``MetricSet(...)`` on the same fields: the same
``==``, ``hash``, ``repr``, slots (every one set, no instance dict),
pickle bytes and round trip, the same ``dataclasses.replace``, and still
frozen.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.estimator import (
    Estimator,
    Histogram,
    MetricSet,
    _metric_set,
)
from repro.core.mapping import AffineMapping

FIELDS = [field.name for field in dataclasses.fields(MetricSet)]

#: Every float a field may hold, the hostile ones named.
hostile = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324]
)
values = st.one_of(hostile, st.floats(allow_nan=True, allow_infinity=True))
probabilities = st.lists(
    st.sampled_from([0.0, 0.05, 0.25, 0.5, 0.5, 0.75, 1.0]), max_size=6
)


@st.composite
def histograms(draw):
    counts = draw(st.lists(st.integers(0, 50), min_size=1, max_size=5))
    edges = draw(
        st.lists(values, min_size=len(counts) + 1, max_size=len(counts) + 1)
    )
    return Histogram(tuple(counts), tuple(edges))


field_values = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    values,
    values,
    values,
    values,
    probabilities.flatmap(
        lambda ps: st.tuples(*[st.tuples(st.just(p), values) for p in ps])
    ),
    st.one_of(st.none(), histograms()),
)

samples = st.lists(
    st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=40
)
alphas = st.one_of(
    hostile,
    st.floats(min_value=-100.0, max_value=100.0),
)
betas = st.one_of(hostile, st.floats(min_value=-1e3, max_value=1e3))


def assert_as_init_builds(built):
    """``built`` is what ``MetricSet(...)`` makes of its own fields."""
    made = MetricSet(**{name: getattr(built, name) for name in FIELDS})
    assert type(built) is MetricSet
    # Field for field the same objects, so even NaN fields compare equal.
    assert built == made and made == built
    assert hash(built) == hash(made)
    assert repr(built) == repr(made)
    assert MetricSet.__slots__ == tuple(FIELDS)
    for name in FIELDS:
        assert getattr(built, name) is getattr(made, name)
    assert not hasattr(built, "__dict__") and not hasattr(made, "__dict__")
    assert pickle.dumps(built) == pickle.dumps(made)
    back = pickle.loads(pickle.dumps(built))
    assert repr(back) == repr(made)
    assert pickle.dumps(back) == pickle.dumps(made)
    assert repr(dataclasses.replace(built, count=built.count + 1)) == repr(
        dataclasses.replace(made, count=made.count + 1)
    )
    assert dataclasses.replace(built) == built
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del built.count


def test_metric_set_has_no_post_init():
    """The builder skips ``__init__``, and with it any ``__post_init__``:
    one added to ``MetricSet`` would not run on remapped or estimated
    metrics."""
    assert not hasattr(MetricSet, "__post_init__")


@given(fields=field_values)
def test_builder_is_init(fields):
    built = _metric_set(*fields)
    assert built == MetricSet(*fields)
    assert_as_init_builds(built)


@given(
    drawn=samples,
    alpha=alphas,
    beta=betas,
    quantiles=probabilities,
    bins=st.sampled_from([0, 1, 4]),
)
def test_estimate_and_remap_build_what_init_builds(
    drawn, alpha, beta, quantiles, bins
):
    estimator = Estimator(quantiles, histogram_bins=bins)
    estimated = estimator.estimate(np.asarray(drawn))
    assert_as_init_builds(estimated)
    assert_as_init_builds(estimated.remap(AffineMapping(alpha, beta)))

"""Property: UserSelection's batch path — one multiply and one sum over a
cached, parameter-invariant matrix — is the scalar loop, bit for bit, for
any constants, any week and any slice of the seed bank, whether the draw
cache is cold or warm."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blackbox.draws import DEFAULT_DRAW_CACHE
from repro.blackbox.user_selection import UserSelectionModel
from repro.core.seeds import SeedBank

BANK = SeedBank()


def _bits(values):
    """Sign of zero included; NaN compares equal to NaN."""
    return [float(value).hex() for value in values]


weeks = st.one_of(
    st.floats(min_value=-20.0, max_value=400.0),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
)


class TestUserSelectionBatchIsTheScalarLoop:
    @given(
        user_count=st.integers(min_value=1, max_value=40),
        mean=st.floats(min_value=-3.0, max_value=5.0),
        spread=st.floats(min_value=0.0, max_value=3.0),
        activity=st.floats(min_value=0.0, max_value=1.0),
        growth=st.floats(min_value=-0.2, max_value=0.2),
        points=st.lists(weeks, min_size=1, max_size=3),
        start=st.integers(min_value=0, max_value=5000),
        seed_count=st.integers(min_value=0, max_value=70),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar_loop_cold_and_warm(
        self, user_count, mean, spread, activity, growth, points, start,
        seed_count,
    ):
        box = UserSelectionModel(
            user_count=user_count,
            mean_requirement=mean,
            requirement_spread=spread,
            activity_probability=activity,
            weekly_growth=growth,
        )
        seeds = BANK.seed_array(seed_count, start=start)
        DEFAULT_DRAW_CACHE.clear()
        for week in points:
            params = {"current_week": week}
            expected = _bits(box.sample(params, int(seed)) for seed in seeds)
            # The first point builds the entry, every later one reads it.
            assert _bits(box.sample_batch(params, seeds)) == expected
            assert _bits(box.sample_batch(params, seeds)) == expected
        assert DEFAULT_DRAW_CACHE.stats["misses"] <= 1

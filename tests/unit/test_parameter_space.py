"""Unit tests for parameter declarations and space enumeration."""

import pytest

from repro.errors import JigsawError
from repro.scenario.parameter import (
    ChainParameter,
    RangeParameter,
    SetParameter,
)
from repro.scenario.space import ParameterSpace


class TestRangeParameter:
    def test_inclusive_endpoints(self):
        spec = RangeParameter("w", 0.0, 52.0, 4.0)
        values = spec.values()
        assert values[0] == 0.0
        assert values[-1] == 52.0
        assert len(values) == 14

    def test_fractional_step(self):
        spec = RangeParameter("w", 0.0, 1.0, 0.1)
        assert len(spec.values()) == 11
        assert spec.values()[-1] == pytest.approx(1.0)

    def test_single_point_range(self):
        assert RangeParameter("w", 3.0, 3.0, 1.0).values() == (3.0,)

    def test_validation(self):
        with pytest.raises(JigsawError):
            RangeParameter("w", 0.0, 10.0, 0.0)
        with pytest.raises(JigsawError):
            RangeParameter("w", 10.0, 0.0, 1.0)

    def test_len(self):
        assert len(RangeParameter("w", 0.0, 9.0, 1.0)) == 10


class TestSetParameter:
    def test_members_in_order(self):
        assert SetParameter("f", (12.0, 36.0, 44.0)).values() == (
            12.0,
            36.0,
            44.0,
        )

    def test_empty_rejected(self):
        with pytest.raises(JigsawError):
            SetParameter("f", ())


class TestChainParameter:
    def chain(self):
        return ChainParameter(
            name="release",
            source_column="release_week",
            driver="current_week",
            driver_offset=-1,
            initial_value=52.0,
        )

    def test_is_chain(self):
        assert self.chain().is_chain

    def test_values_not_enumerable(self):
        with pytest.raises(JigsawError):
            self.chain().values()


class TestParameterSpace:
    def space(self):
        return ParameterSpace(
            [
                RangeParameter("a", 0.0, 2.0, 1.0),
                SetParameter("b", (10.0, 20.0)),
            ]
        )

    def test_cartesian_product(self):
        points = list(self.space().points())
        assert len(points) == 6
        assert {"a": 0.0, "b": 10.0} in points
        assert {"a": 2.0, "b": 20.0} in points

    def test_size_and_len(self):
        assert self.space().size() == 6
        assert len(self.space()) == 6

    def test_chain_excluded_from_product(self):
        space = ParameterSpace(
            [
                RangeParameter("a", 0.0, 1.0, 1.0),
                ChainParameter("c", "col", "a", -1, 0.0),
            ]
        )
        assert space.size() == 2
        assert space.chain_specs[0].name == "c"

    def test_empty_space_single_point(self):
        assert list(ParameterSpace([]).points()) == [{}]

    def test_duplicate_names_rejected(self):
        with pytest.raises(JigsawError):
            ParameterSpace(
                [
                    RangeParameter("a", 0.0, 1.0, 1.0),
                    SetParameter("a", (1.0,)),
                ]
            )

    def test_neighbors_interior(self):
        space = self.space()
        neighbors = space.neighbors({"a": 1.0, "b": 10.0}, "a")
        values = sorted(n["a"] for n in neighbors)
        assert values == [0.0, 2.0]

    def test_neighbors_edge(self):
        space = self.space()
        neighbors = space.neighbors({"a": 0.0, "b": 10.0}, "a")
        assert [n["a"] for n in neighbors] == [1.0]

    def test_neighbors_preserve_other_coordinates(self):
        space = self.space()
        neighbors = space.neighbors({"a": 1.0, "b": 20.0}, "a")
        assert all(n["b"] == 20.0 for n in neighbors)

    def test_repeated_value_gives_the_same_neighbour_twice(self):
        space = ParameterSpace([SetParameter("c", (0.0, 1.0, 0.0, 2.0))])
        assert space.neighbors({"c": 1.0}, "c") == [{"c": 0.0}] * 2

    def test_neighbors_unknown_parameter(self):
        with pytest.raises(JigsawError):
            self.space().neighbors({"a": 0.0, "b": 10.0}, "z")

    def test_neighbors_value_not_in_domain(self):
        with pytest.raises(JigsawError):
            self.space().neighbors({"a": 0.5, "b": 10.0}, "a")

import math

import pytest

from gsiplab.domains import BoxDomain


class TestCorners:
    def test_two_dim_box_first_axis_slowest(self):
        box = BoxDomain([("x", -1.0, 2.0), ("y", 0.5, 3.0)])
        assert box.corners() == [{"x": -1.0, "y": 0.5}, {"x": -1.0, "y": 3.0},
                                 {"x": 2.0, "y": 0.5}, {"x": 2.0, "y": 3.0}]

    def test_degenerate_axis_gives_one_value(self):
        box = BoxDomain([("x", -1.0, 1.0), ("y", 0.25, 0.25), ("z", 0.0, 2.0)])
        assert box.corners() == [
            {"x": -1.0, "y": 0.25, "z": 0.0}, {"x": -1.0, "y": 0.25, "z": 2.0},
            {"x": 1.0, "y": 0.25, "z": 0.0}, {"x": 1.0, "y": 0.25, "z": 2.0}]


class TestConstruction:
    def test_names_and_bounds(self):
        box = BoxDomain([("x", -1, 2), ("y", 0.5, 0.5)])
        assert box.names == ("x", "y")
        assert box.bounds == ((-1.0, 2.0), (0.5, 0.5))
        assert box.coords == (("x", -1.0, 2.0), ("y", 0.5, 0.5))

    @pytest.mark.parametrize("lo,hi", [(-1.0, math.inf), (-math.inf, 1.0),
                                       (math.nan, 1.0)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="bounds of 'x' must be finite"):
            BoxDomain([("x", lo, hi)])

    def test_bisection_children_share_names(self):
        box = BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 4.0)])
        left, right = box.bisect()
        assert left == BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 2.0)])
        assert right == BoxDomain([("x", 0.0, 1.0), ("y", 2.0, 4.0)])
        assert left.names is box.names and right.names is box.names

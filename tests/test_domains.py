import math
import struct
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gsiplab.domains import MIN_WIDTH, BoxDomain, midpoint_value, split

FINITE = st.floats(allow_nan=False, allow_infinity=False)


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

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate coordinate name 'x'"):
            BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 1.0), ("x", 2.0, 3.0)])

    def test_a_point_that_lacks_a_name_is_not_contained(self):
        box = BoxDomain([("x", -1.0, 1.0), ("y", 0.0, 2.0)])
        assert box.contains({"x": 0.5, "y": 1.0})
        assert not box.contains({"x": 0.5})
        assert not box.contains({"x": 0.5, "z": 1.0}, slack=1.0)

    def test_bisection_children_share_names(self):
        box = BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 4.0)])
        left, right = box.bisect()
        assert left == BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 2.0)])
        assert right == BoxDomain([("x", 0.0, 1.0), ("y", 2.0, 4.0)])
        assert left.names is box.names and right.names is box.names


class TestMidpoint:
    @given(FINITE, FINITE)
    @example(1e308, 1.7e308)
    @example(-1.7e308, -1e308)
    @example(sys.float_info.max, sys.float_info.max)
    @example(-sys.float_info.max, sys.float_info.max)
    @example(-0.0, 0.0)
    def test_the_one_rule(self, a, b):
        lo, hi = min(a, b), max(a, b)
        mid = midpoint_value((lo, hi))
        assert lo <= mid <= hi
        plain = 0.5 * (lo + hi)
        if math.isfinite(plain):  # bit for bit, the sign of a zero included
            assert struct.pack("<d", mid) == struct.pack("<d", plain)

    def test_bounds_that_sum_past_the_float_maximum(self):
        box = BoxDomain([("x", 1e308, 1.7e308), ("y", -1.7e308, -1e308)])
        assert box.midpoint() == {"x": 1.35e308, "y": -1.35e308}
        left, right = box.bisect()
        assert left.bounds[0] == (1e308, 1.35e308)
        assert right.bounds[0] == (1.35e308, 1.7e308)
        assert left.bisect()[0].bounds[1] == (-1.7e308, -1.35e308)


def _axis(lo, hi_or_steps):
    """An axis from ``lo`` to another float, or to the float ``steps``
    adjacent floats above it (the largest finite float at most)."""
    if isinstance(hi_or_steps, float):
        return min(lo, hi_or_steps), max(lo, hi_or_steps)
    hi = lo
    for _ in range(hi_or_steps):
        hi = min(math.nextafter(hi, math.inf), sys.float_info.max)
    return lo, hi


AXES = st.builds(_axis, FINITE, st.one_of(FINITE, st.integers(0, 3)))


class TestSplit:
    def test_two_adjacent_floats_are_not_cut(self):
        # the midpoint of such an axis is one of its ends, so a bisection
        # would return the box itself as a child
        box = BoxDomain([("x", 1e7, math.nextafter(1e7, math.inf))])
        assert split(box.bounds) is None
        with pytest.raises(ValueError, match="too narrow to bisect"):
            box.bisect()

    def test_narrow_and_empty_boxes_are_not_cut(self):
        assert split(((0.0, MIN_WIDTH),)) is None
        assert split(()) is None
        assert split(((0.0, 0.5), (0.0, 1.0), (1.0, 2.0))) == (1, 0.5)

    @given(st.lists(AXES, min_size=1, max_size=3))
    @example([(1e7, math.nextafter(1e7, math.inf))])
    @example([(1.7e308, math.nextafter(1.7e308, math.inf)), (0.0, 1.0)])
    @example([(-1.7e308, 1.7e308), (-sys.float_info.max, sys.float_info.max)])
    @example([(sys.float_info.max, sys.float_info.max)])
    def test_a_cut_lies_strictly_inside_the_widest_axis(self, bounds):
        box = BoxDomain([(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(bounds)])
        widths = [hi - lo for lo, hi in bounds]
        cut = split(box.bounds)
        if cut is None:
            # nothing to cut, or no float strictly inside the widest axis
            lo, hi = bounds[widths.index(max(widths))]
            assert hi - lo <= MIN_WIDTH or math.nextafter(lo, math.inf) == hi
            with pytest.raises(ValueError):
                box.bisect()
            return
        i, mid = cut
        lo, hi = bounds[i]
        assert widths[i] == max(widths)
        assert lo < mid < hi
        for child in box.bisect():
            assert child.bounds[i][1] - child.bounds[i][0] < widths[i]
            assert child.bounds[:i] == box.bounds[:i]
            assert child.bounds[i + 1:] == box.bounds[i + 1:]

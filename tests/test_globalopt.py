import random

import numpy as np
import pytest

from conftest import random_poly_instance
from test_golden import (ORACLE_GRID_N, ORACLE_GRID_OUTCOMES,
                         ORACLE_NODE_BUDGET, ORACLE_TOL_OPT,
                         load_oracle_outcomes)
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain
from gsiplab.expr import EvaluationError, Interval, evaluate, evaluate_array
from gsiplab.globalopt import (INFEASIBLE, ConstraintSpec, MinimizeOutcome,
                               NodeBudgetExceeded, grid_minimize, minimize)

x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
UNIT_X = BoxDomain([("x", -1.0, 1.0)])
UNIT_Y = BoxDomain([("y", -1.0, 1.0)])


class TestMinimize:
    def test_linear_unconstrained(self):
        out = minimize(-x, [], UNIT_X)
        assert out.optimal
        assert out.minimizer["x"] == 1.0
        assert out.value == -1.0

    def test_constrained_quadratic(self):
        # lower-level program at the first divergence iterate
        obj = (1.0 - y) ** 2 - 10.0
        cons = [ConstraintSpec(-2.0 + y, "le")]
        out = minimize(obj, cons, UNIT_Y)
        assert out.minimizer["y"] == pytest.approx(1.0, abs=1e-9)
        assert out.value == pytest.approx(-10.0, abs=1e-9)

    def test_infeasible_certified(self):
        # y <= -2 has no solution in [-1, 1]
        cons = [ConstraintSpec(2.0 + y, "le")]
        out = minimize(y, cons, UNIT_Y)
        assert out.status == "infeasible"
        assert out.minimizer is None

    def test_value_bounds_bracket_minimizer(self):
        obj = (x - 0.3) ** 2
        out = minimize(obj, [], UNIT_X, tol_opt=1e-9)
        v = evaluate(obj, out.minimizer)
        assert out.value_bounds.lo <= v <= out.value_bounds.hi
        assert out.value_bounds.width <= 1e-9 + 1e-12

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            minimize(x, [], UNIT_X, tol_opt=0.0)
        with pytest.raises(ValueError):
            minimize(x, [], UNIT_X, tol_feas=-1.0)

    def test_node_budget_error(self):
        # x*(1-x) written with a reused variable converges slowly under the
        # natural extension, so a tiny budget must trip
        obj = ex.neg(ex.mul(x, 1.0 - x))
        with pytest.raises(NodeBudgetExceeded):
            minimize(obj, [], BoxDomain([("x", 0.0, 1.0)]),
                     tol_opt=1e-12, node_budget=20)

    def test_deterministic(self):
        obj, cons, box = random_poly_instance(42)
        a = minimize(obj, cons, box, tol_opt=1e-5)
        b = minimize(obj, cons, box, tol_opt=1e-5)
        assert a == b


class TestGridMinimize:
    def test_linear(self):
        out = grid_minimize(-x, [], UNIT_X, 101)
        assert out.minimizer["x"] == 1.0
        assert out.value == -1.0

    def test_two_dim_diagonal(self):
        box = BoxDomain([("x", -1.0, 1.0), ("y", -1.0, 1.0)])
        out = grid_minimize((x - y) ** 2 - 10.0, [], box, 101)
        assert out.value == -10.0
        assert out.minimizer["x"] == out.minimizer["y"]

    def test_infeasible(self):
        out = grid_minimize(y, [ConstraintSpec(2.0 + y, "le")], UNIT_Y, 101)
        assert out.status == "infeasible"

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            grid_minimize(x, [], UNIT_X, 1)

    @pytest.mark.parametrize("objective,constraints,coords,n", [
        # constant objective and constraint on a 2-D box
        (ex.const(3.0), [ConstraintSpec(ex.const(-1.0), "le")],
         [("x", -1.0, 2.0), ("y", 0.5, 1.5)], 9),
        # objective in x only, constraint in y only
        ((x - 0.3) ** 2, [ConstraintSpec(y - 0.2, "ge")],
         [("x", -1.0, 1.0), ("y", -1.0, 1.0)], 11),
        # 3-D box
        (x * y - z ** 3 + ex.emin(x, z) + ex.emax(y ** 2, ex.const(1.5)),
         [ConstraintSpec(x + y + z - 0.5, "le"),
          ConstraintSpec(y * y - 0.1, "ge")],
         [("x", -1.0, 1.0), ("y", 0.0, 2.0), ("z", -3.0, -0.5)], 7),
        # 4 points on [-1, 1] miss y = 0.5, so the divisor is never zero
        (x / (y - 0.5), [], [("x", -1.0, 1.0), ("y", -1.0, 1.0)], 4),
    ], ids=["constant", "separate-axes", "3d", "division"])
    def test_matches_dense_grid(self, objective, constraints, coords, n):
        # bit for bit: repr round-trips every float
        box = BoxDomain(coords)
        assert repr(grid_minimize(objective, constraints, box, n)) == repr(
            _dense_grid_minimize(objective, constraints, box, n))

    def test_division_by_zero_at_one_grid_point(self):
        # 5 points on [-1, 1] include y = 0.5, where the divisor is zero
        box = BoxDomain([("x", -1.0, 1.0), ("y", -1.0, 1.0)])
        obj = x / (y - 0.5)
        with pytest.raises(EvaluationError):
            _dense_grid_minimize(obj, [], box, 5)
        with pytest.raises(EvaluationError):
            grid_minimize(obj, [], box, 5)


def _dense_grid_minimize(objective, constraints, box, points_per_axis,
                         tol_feas=1e-9):
    """Reference oracle: every variable bound to a full meshgrid copy."""
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    grids = np.meshgrid(*axes, indexing="ij")
    env = dict(zip(box.names, grids))
    shape = grids[0].shape

    def on_grid(e):
        return np.broadcast_to(
            np.asarray(evaluate_array(e, env), dtype=float), shape)

    vals = on_grid(objective)
    feas = np.ones(shape, dtype=bool)
    for c in constraints:
        cv = on_grid(c.expr)
        feas &= (cv <= tol_feas) if c.sense == "le" else (cv >= -tol_feas)
    if not feas.any():
        return INFEASIBLE
    masked = np.where(feas, vals, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), shape)
    value = float(masked[idx])
    return MinimizeOutcome(
        "optimal", {n: float(g[idx]) for n, g in env.items()}, value,
        Interval(value, value))


def _sampled_lipschitz(objective, box, points_per_axis):
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    env = dict(zip(box.names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    vals = np.broadcast_to(np.asarray(evaluate_array(objective, env), dtype=float),
                           tuple(len(a) for a in axes))
    L = 0.0
    for axis, ax in enumerate(axes):
        if len(ax) > 1 and ax[1] > ax[0]:
            L = max(L, float(np.max(np.abs(np.diff(vals, axis=axis)))) / (ax[1] - ax[0]))
    return L


class TestOracleAgreement:
    def test_fifty_random_instances(self):
        grid_n = ORACLE_GRID_N
        tol_opt = ORACLE_TOL_OPT
        expected = load_oracle_outcomes()
        expected_grid = load_oracle_outcomes(ORACLE_GRID_OUTCOMES)
        for seed in range(50):
            obj, cons, box = random_poly_instance(seed)
            bnb = minimize(obj, cons, box, tol_opt=tol_opt,
                           node_budget=ORACLE_NODE_BUDGET)
            # the outcome is pinned to the one stored in tests/golden
            assert bnb == expected[seed], seed
            oracle = grid_minimize(obj, cons, box, grid_n)
            assert oracle == expected_grid[seed], seed
            if bnb.optimal:
                # soundness: minimizer in box, feasible, value bracketed
                assert box.contains(bnb.minimizer, slack=1e-12)
                for c in cons:
                    assert c.satisfied(evaluate(c.expr, bnb.minimizer), 1e-9)
                v = evaluate(obj, bnb.minimizer)
                assert bnb.value_bounds.lo - 1e-12 <= v <= bnb.value_bounds.hi + 1e-12
            if bnb.optimal and oracle.optimal:
                mesh = max((hi - lo) / (grid_n - 1) for _, lo, hi in box.coords)
                L = _sampled_lipschitz(obj, box, grid_n)
                assert abs(bnb.value - oracle.value) <= tol_opt + L * mesh, seed
            elif bnb.status == "infeasible":
                # an interval infeasibility certificate is rigorous: the grid
                # cannot have found a feasible point
                assert oracle.status == "infeasible", seed
            # bnb optimal + oracle infeasible is the tolerated sub-mesh sliver

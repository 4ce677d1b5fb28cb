import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from roomwave import optimize
from roomwave.optimize import minimize


def quadratic_bowl(x):
    h = np.array([1.0, 10.0, 100.0])
    return 0.5 * float(x @ (h * x)), h * x


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                     200 * (b - a * a)])
    return value, grad


def walled(x):
    """A parabola in x[0] that cannot be evaluated beyond x[0] = 1."""
    if x[0] > 1.0:
        return math.inf, None
    return (x[0] - 0.5) ** 2, np.array([2 * (x[0] - 0.5)])


def honouring_cap(objective, gradients=None):
    """fun(x, cap) for `minimize` that drops the gradient when the value
    exceeds cap, counting the gradients it returns in `gradients`."""
    def fun(x, cap):
        value, grad = objective(x)
        if value > cap:
            return value, None
        if gradients is not None and grad is not None:
            gradients[0] += 1
        return value, grad
    return fun


def ignoring_cap(objective, gradients=None):
    """fun(x, cap) that returns every gradient, counting them."""
    def fun(x, cap):
        value, grad = objective(x)
        if gradients is not None and grad is not None:
            gradients[0] += 1
        return value, grad
    return fun


class TestMinimize:
    def test_quadratic(self):
        res = minimize(honouring_cap(quadratic_bowl), np.array([1.0, 1.0, 1.0]))
        assert res.converged
        assert res.value < 1e-8
        npt.assert_allclose(res.x, 0.0, atol=1e-4)

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(optimize, "VALUE_TOLERANCE", 1e-14)
        res = minimize(honouring_cap(rosenbrock), np.array([-1.2, 1.0]),
                       max_line_searches=200)
        npt.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_trace_strictly_decreasing(self):
        res = minimize(honouring_cap(rosenbrock), np.array([-1.2, 1.0]),
                       max_line_searches=60)
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) < 0)
        assert len(res.points) == len(trace)
        assert res.value <= trace[-1]

    def test_zero_line_searches(self):
        x0 = np.array([0.7, -0.3, 0.2])
        res = minimize(honouring_cap(quadratic_bowl), x0,
                       max_line_searches=0)
        npt.assert_array_equal(res.x, x0)
        assert res.trace == [quadratic_bowl(x0)[0]]
        assert not res.converged

    def test_starts_at_optimum(self):
        res = minimize(honouring_cap(quadratic_bowl), np.zeros(3))
        assert res.converged
        assert res.message == "zero gradient"

    def test_non_evaluable_region_backtracks(self):
        res = minimize(honouring_cap(walled), np.array([-4.0]),
                       max_line_searches=50)
        npt.assert_allclose(res.x, [0.5], atol=1e-4)

    def test_non_evaluable_start_raises(self):
        def bad(x, cap):
            return math.inf, None

        with pytest.raises(ValueError, match="initial point"):
            minimize(bad, np.zeros(2))

    def test_evaluation_budget_counted(self):
        calls = [0]

        def counting(x):
            calls[0] += 1
            return quadratic_bowl(x)

        res = minimize(honouring_cap(counting), np.array([1.0, 1.0, 1.0]),
                       max_line_searches=5)
        assert res.n_evaluations == calls[0]

    def test_value_tolerance_stops_early(self, monkeypatch):
        monkeypatch.setattr(optimize, "VALUE_TOLERANCE", 1e-2)
        res = minimize(honouring_cap(quadratic_bowl),
                       np.array([1.0, 1.0, 1.0]))
        assert res.converged
        assert res.message == "objective change below tolerance"


class TestGradientCap:
    """The line search reads the gradient only at points no higher than its
    start, so skipping it above the cap changes no iterate."""

    @pytest.mark.parametrize("objective, x0, max_line_searches", [
        (quadratic_bowl, [1.0, 1.0, 1.0], 100),
        (rosenbrock, [-1.2, 1.0], 200),
        (walled, [-4.0], 50),
    ])
    def test_same_result_with_fewer_gradients(self, objective, x0,
                                              max_line_searches):
        honoured, ignored = [0], [0]
        with_cap = minimize(honouring_cap(objective, honoured),
                            np.array(x0), max_line_searches)
        without = minimize(ignoring_cap(objective, ignored), np.array(x0),
                           max_line_searches)
        for name, value in dataclasses.asdict(with_cap).items():
            npt.assert_array_equal(value, getattr(without, name), name)
        assert honoured[0] < ignored[0]
        assert with_cap.n_evaluations == without.n_evaluations

    def test_first_evaluation_is_uncapped(self):
        caps = []

        def recording(x, cap):
            caps.append(cap)
            return quadratic_bowl(x)

        minimize(recording, np.ones(3), max_line_searches=3)
        assert caps[0] == math.inf
        assert all(math.isfinite(cap) for cap in caps[1:])

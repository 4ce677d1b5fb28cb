"""Polak-Ribiere nonlinear conjugate gradients with a strong-Wolfe line
search based on cubic extrapolation and cubic/quadratic interpolation.

The objective callable fun(x, cap) returns (value, gradient) and may return
an infinite value where it cannot be evaluated; the line search bisects back
toward the last good point in that case. `cap` is the value at the start of
the current line search (infinite for the first evaluation): where the value
exceeds it, fun may return (value, None) and skip the gradient, because the
line search (after `minimize.m`, Rasmussen & Williams 2006) reads the
gradient only at points no higher than that start. A non-finite gradient
makes a point non-evaluable only where the gradient is computed. A line
search either ends at a point satisfying both strong-Wolfe conditions (which
is then accepted, so the accepted-value sequence is strictly decreasing) or
fails, in which case the best point seen so far is restored and the next
search restarts along steepest descent; two consecutive failures stop the
optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MinimizeResult", "minimize"]

VALUE_TOLERANCE = 1e-9   # relative objective change that ends the search
C1 = 1e-4                # Wolfe sufficient-decrease constant
C2 = 0.1                 # strong-Wolfe curvature constant
MAX_EVALUATIONS_PER_SEARCH = 20
EXTRAPOLATION = 3.0      # max step growth per extrapolation
INT_MARGIN = 0.1         # keep interpolants this far inside the bracket
STEP_RATIO = 10.0        # max slope-ratio carried between line searches
TINY = np.finfo(float).tiny


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    trace: list = field(default_factory=list)      # accepted objective values
    points: list = field(default_factory=list)     # matching iterates
    n_evaluations: int = 0
    converged: bool = False
    message: str = ""


def minimize(fun, x0, max_line_searches: int = 100) -> MinimizeResult:
    """Minimize fun(x, cap) -> (value, gradient) starting from x0.

    Runs at most `max_line_searches` line searches; declares convergence
    when an accepted step changes the objective by less than
    `VALUE_TOLERANCE * (1 + |value|)`, with the module constant read at each
    check. Returns the best point found with
    converged=False and a message when the search stops early.
    """
    x = np.array(x0, dtype=float)
    n_evals = [0]

    def evaluate(z, cap):
        n_evals[0] += 1
        value, grad = fun(z, cap)
        value = float(value)
        if not math.isfinite(value):
            return math.inf, None
        if grad is None and value > cap:
            return value, None                    # above the line's start
        grad = np.asarray(grad, dtype=float)
        if np.all(np.isfinite(grad)):
            return value, grad
        return math.inf, None

    f0, g0 = evaluate(x, math.inf)
    if not math.isfinite(f0):
        raise ValueError("objective not evaluable at the initial point")
    trace = [f0]
    points = [x.copy()]
    if max_line_searches <= 0:
        return MinimizeResult(x, f0, trace, points, n_evals[0], False,
                              "no line searches requested")

    s = -g0
    slope = -float(g0 @ g0)          # directional derivative along s
    step = 1.0 / (1.0 - slope)       # first trial step
    search_failed = False
    converged = False
    message = "line search budget exhausted"

    for _ in range(max_line_searches):
        if slope >= 0.0:             # only possible with a zero gradient
            converged = True
            message = "zero gradient"
            break
        best_x, best_f, best_g = x, f0, g0   # best point seen this search
        budget = MAX_EVALUATIONS_PER_SEARCH

        # -- extrapolation: grow the step until the slope or value shows the
        #    1-D minimum has been passed
        a2, f2, d2 = 0.0, f0, slope
        a3 = step
        f3, g3, d3 = f0, g0, slope
        while True:
            while budget > 0:
                budget -= 1
                f3, g3 = evaluate(x + a3 * s, f0)
                if math.isfinite(f3):
                    break
                a3 = 0.5 * (a2 + a3)         # back toward the good end
            if not math.isfinite(f3):
                break
            if f3 < best_f:
                best_x, best_f, best_g = x + a3 * s, f3, g3
            # no gradient means f3 > f0, which ends the extrapolation
            d3 = float(g3 @ s) if g3 is not None else math.nan
            if (g3 is None or d3 > C2 * slope or f3 > f0 + a3 * C1 * slope
                    or budget == 0):
                break
            a1, f1, d1 = a2, f2, d2
            a2, f2, d2 = a3, f3, d3
            # cubic extrapolation through the last two points
            qa = 6.0 * (f1 - f2) + 3.0 * (d2 + d1) * (a2 - a1)
            qb = 3.0 * (f2 - f1) - (2.0 * d1 + d2) * (a2 - a1)
            radicand = qb * qb - qa * d1 * (a2 - a1)
            if radicand >= 0.0 and qb + math.sqrt(radicand) != 0.0:
                a3 = a1 - d1 * (a2 - a1) ** 2 / (qb + math.sqrt(radicand))
            else:
                a3 = a2 * EXTRAPOLATION
            if not math.isfinite(a3) or a3 < 0.0:
                a3 = a2 * EXTRAPOLATION
            a3 = min(a3, a2 * EXTRAPOLATION)
            a3 = max(a3, a2 + INT_MARGIN * (a2 - a1))

        # -- interpolation: shrink the bracket until strong Wolfe holds
        a4, f4, d4 = a3, f3, d3
        while ((not math.isfinite(f3)) or abs(d3) > -C2 * slope
               or f3 > f0 + a3 * C1 * slope) and budget > 0:
            if (not math.isfinite(f3)) or d3 > 0 or f3 > f0 + a3 * C1 * slope:
                a4, f4, d4 = a3, f3, d3
            else:
                a2, f2, d2 = a3, f3, d3
            if math.isfinite(f4) and f4 > f0:
                denom = f4 - f2 - d2 * (a4 - a2)
                a3 = (a2 - 0.5 * d2 * (a4 - a2) ** 2 / denom) if denom != 0 else math.nan
            elif math.isfinite(f4):
                qa = 6.0 * (f2 - f4) / (a4 - a2) + 3.0 * (d4 + d2)
                qb = 3.0 * (f4 - f2) - (2.0 * d2 + d4) * (a4 - a2)
                radicand = qb * qb - qa * d2 * (a4 - a2) ** 2
                a3 = (a2 + (math.sqrt(radicand) - qb) / qa
                      if radicand >= 0.0 and qa != 0.0 else math.nan)
            else:
                a3 = math.nan
            if not math.isfinite(a3):
                a3 = 0.5 * (a2 + a4)
            lo, hi = min(a2, a4), max(a2, a4)
            a3 = min(max(a3, lo + INT_MARGIN * (hi - lo)),
                     hi - INT_MARGIN * (hi - lo))
            budget -= 1
            f3, g3 = evaluate(x + a3 * s, f0)
            d3 = float(g3 @ s) if g3 is not None else math.nan
            if math.isfinite(f3) and f3 < best_f:
                best_x, best_f, best_g = x + a3 * s, f3, g3

        wolfe_ok = (math.isfinite(f3) and abs(d3) < -C2 * slope
                    and f3 < f0 + a3 * C1 * slope)
        if wolfe_ok:
            previous_f = f0
            x = x + a3 * s
            f0, g0_new = f3, g3
            trace.append(f0)
            points.append(x.copy())
            # Polak-Ribiere direction update
            denom = float(g0 @ g0)
            beta = float(g0_new @ g0_new - g0 @ g0_new) / denom if denom > 0 else 0.0
            s = beta * s - g0_new
            old_slope = slope
            g0 = g0_new
            slope = float(g0 @ s)
            if slope > 0:
                s = -g0
                slope = -float(g0 @ g0)
            step = a3 * min(STEP_RATIO, old_slope / (slope - TINY))
            search_failed = False
            if abs(previous_f - f0) < VALUE_TOLERANCE * (1.0 + abs(f0)):
                converged = True
                message = "objective change below tolerance"
                break
        else:
            x, f0, g0 = best_x, best_f, best_g   # keep any harvested progress
            if search_failed:
                message = "two consecutive line-search failures"
                break
            s = -g0
            slope = -float(g0 @ g0)
            step = 1.0 / (1.0 - slope)
            search_failed = True

    return MinimizeResult(x, f0, trace, points, n_evals[0], converged, message)

"""Embedded adaptive Runge-Kutta integration.

A single Dormand-Prince 4(5) stepper solves the Schroedinger equations of
:mod:`canosc.transforms`, and the tests check the closed-form Pruefer steps
and transfer factors against it.  The state may be a float or any numpy
array, real or complex; error control is absolute, with the per-step budget
proportional to the step fraction of the interval so that the accumulated
local error estimates stay below the requested total tolerance.
"""

from __future__ import annotations

import numpy as np

# Dormand-Prince RK5(4)7M tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 2_000_000


class IntegrationError(RuntimeError):
    """Raised when the stepper produces non-finite values or stalls."""


def _err_norm(e):
    return float(np.max(np.abs(e))) if np.ndim(e) else abs(e)


def integrate_adaptive(f, x0, x1, y0, tol, x_eval=()):
    """Integrate y' = f(x, y) from x0 to x1 (x1 >= x0).

    Returns (xs, ys): x0, the x_eval points inside (x0, x1) in increasing
    order, and x1, with the list of states at exactly those points.
    """
    if x1 < x0:
        raise ValueError("backward integration not supported; swap endpoints")
    span = x1 - x0
    y = np.asarray(y0, dtype=complex) if np.iscomplexobj(y0) else np.asarray(y0, dtype=float)

    checkpoints = sorted({float(x) for x in x_eval if x0 < x < x1} | {x1})
    if span == 0.0:
        return [x0], [y.copy()]

    xs = [x0] + checkpoints
    ys = [y.copy()]
    x = x0
    h = span / 100.0
    steps = 0
    for target in checkpoints:
        while x < target - 1e-14 * max(1.0, abs(target)):
            if steps >= _MAX_STEPS:
                raise IntegrationError("step limit exceeded")
            steps += 1
            h = min(h, target - x)
            k = [np.asarray(f(x, y))]
            for i in range(1, 7):
                yi = y + h * sum(a * kk for a, kk in zip(_A[i], k))
                k.append(np.asarray(f(x + _C[i] * h, yi)))
            y5 = y + h * sum(b * kk for b, kk in zip(_B5, k))
            y4 = y + h * sum(b * kk for b, kk in zip(_B4, k))
            err = _err_norm(y5 - y4)
            if not np.isfinite(err):
                raise IntegrationError("non-finite value during integration")
            # Budget: this step may spend tol * (h / span).
            allowed = tol * max(h / span, 1e-16)
            if err <= allowed:
                x = x + h
                y = y5
                # past allowed / err = 1e10 the min is _MAX_FACTOR anyway, and a
                # subnormal err would overflow the division
                factor = _MAX_FACTOR if err <= 1e-10 * allowed else min(
                    _MAX_FACTOR, _SAFETY * (allowed / err) ** 0.2
                )
            else:
                factor = max(_MIN_FACTOR, _SAFETY * (allowed / err) ** 0.2)
            h = h * factor
            if h <= 0.0 or x + h == x:
                raise IntegrationError("step size underflow")
        # The state at the checkpoint; x snaps to it exactly (it lies
        # within float addition of target).
        ys.append(y.copy())
        x = target
    return xs, ys

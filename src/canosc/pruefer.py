"""Pruefer-angle integration for canonical systems.

Writing a real solution as u = R e_theta turns the system into the scalar
equation theta' = t * e_theta^T H(x) e_theta.  Every coefficient is a chain
of :class:`~canosc.hamiltonian.Piece` s, and on a piece psi = theta - phi
obeys psi' = a cos^2 psi + b sin^2 psi with constants (a, b) = piece.rates(t),
so each step has a closed form: :func:`step_singular` when b = 0 (singular
intervals), the linear angle chi with tan psi = sqrt(a/b) tan chi when
ab > 0, and the angle of the tanh-scaled propagated vector when ab <= 0.  The
angle is kept unwrapped (no mod-pi reduction) so that the counting formulas
can apply ceil/floor directly.  Nothing is integrated numerically, so no
function here takes a tolerance or reports an error bound.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HALF_PI, PI, Hamiltonian, Piece

#: below this |cos(theta - alpha)| the angle sits exactly on a stationary point
STATIONARY_EPS = 1e-15


def step_singular(theta_in: float, alpha: float, length: float, t: float) -> float:
    """Advance theta' = t cos^2(theta - alpha) across a singular interval.

    Closed form: with d = theta_in - alpha reduced to r in [-pi/2, pi/2)
    modulo pi, the exit angle is alpha + k*pi + arctan(tan r + t*length).
    """
    if length < 0.0:
        raise ValueError("length must be nonnegative")
    d = theta_in - alpha
    if abs(math.cos(d)) < STATIONARY_EPS:
        return theta_in
    k = math.floor((d + PI / 2) / PI)
    r = d - k * PI
    return alpha + k * PI + math.atan(math.tan(r) + t * length)


def turn(psi: float, a: float, b: float, length: float) -> float:
    """psi after `length` of psi' = a cos^2 psi + b sin^2 psi.

    ab > 0: tan psi = k tan chi with k = sqrt(a/b) >= 1 (else the rates are
    swapped and psi shifted by pi/2) and chi' = sign(a) sqrt(ab); chi carries
    the pi-branch count.  ab <= 0: psi moves by less than pi, by the angle
    atan2(s psi'(psi), 1 + s (a - b) sin psi cos psi) of the propagated unit
    vector scaled by 1/cosh(mu l), s = tanh(mu l)/mu, mu^2 = -ab, so nothing
    overflows.
    """
    if a * b > 0.0:
        if abs(b) > abs(a):
            return turn(psi - HALF_PI, b, a, length) + HALF_PI
        k = math.sqrt(a / b)
        if k < 1e150:
            n = math.floor(psi / PI + 0.5)
            chi = math.atan(math.tan(psi - n * PI) / k) + math.copysign(math.sqrt(a * b), a) * length
            m = math.floor(chi / PI + 0.5)
            return (n + m) * PI + math.atan(k * math.tan(chi - m * PI))
        b = 0.0  # below rounding against a: the singular-interval motion
    mu = math.sqrt(-a * b)
    s = math.tanh(mu * length) / mu if mu > 0.0 else length
    c, sn = math.cos(psi), math.sin(psi)
    return psi + math.atan2(s * (a * c * c + b * sn * sn), 1.0 + s * (a - b) * sn * c)


def advance(theta: float, piece: Piece, length: float, t: float) -> float:
    """theta after `length` of the piece, from theta at the piece start."""
    if piece.singular:
        return step_singular(theta, piece.phi0, length, t * piece.lam1)
    a, b = piece.rates(t)
    return turn(theta - piece.phi0, a, b, length) + piece.phi(length)


@dataclass
class PrueferTrajectory:
    """Sampled (x, theta(x; t)), each sample a closed-form step from a piece start."""

    t: float
    theta0: float
    xs: np.ndarray
    thetas: np.ndarray

    def theta_end(self) -> float:
        return float(self.thetas[-1])


def integrate(
    H: Hamiltonian,
    t: float,
    theta0: float,
    L: float,
    x_eval=(),
) -> PrueferTrajectory:
    """Pruefer trajectory on [0, L].

    Every piece advances in closed form (see :func:`advance`).  Every piece
    boundary and every requested x_eval point appears among the samples; an
    x_eval point inside a piece is reached from the piece start.  L may
    exceed X_max when a singular tail is attached; t and theta0 must be finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, not {t}")
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, not {theta0}")
    eval_pts = sorted({float(x) for x in x_eval if 0.0 < float(x) < L})
    xs = [0.0]
    thetas = [float(theta0)]
    theta = float(theta0)
    for x, piece, span in H.walk(L):
        for p in eval_pts[bisect.bisect_right(eval_pts, x):bisect.bisect_left(eval_pts, x + span)]:
            off = p - x
            xs.append(x + off)
            thetas.append(advance(theta, piece, off, t))
        theta = advance(theta, piece, span, t)
        xs.append(x + span)
        thetas.append(theta)
    if not math.isfinite(theta):
        raise FloatingPointError("non-finite Pruefer angle")
    return PrueferTrajectory(
        t=t,
        theta0=float(theta0),
        xs=np.asarray(xs),
        thetas=np.asarray(thetas),
    )


def theta_at(H: Hamiltonian, t: float, theta0: float, L: float) -> float:
    """theta(L; t) with initial angle theta0.

    Walks the pieces and keeps only the running angle: the same
    :func:`advance` calls as :func:`integrate` without x_eval, so the result
    is ``integrate(H, t, theta0, L).theta_end()`` bit for bit, without
    building the sampled trajectory; a t or theta0 not finite is a ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, not {t}")
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, not {theta0}")
    theta = float(theta0)
    for _, piece, span in H.walk(L):
        theta = advance(theta, piece, span, t)
    if not math.isfinite(theta):
        raise FloatingPointError("non-finite Pruefer angle")
    return theta

"""Schroedinger import, Molchanov criteria, and the diagonal transformation.

A Schroedinger operator -y'' + V y written at a reference energy below its
spectrum becomes a rank-one canonical system with angle cot(phi) = p/q; the
trace normalization is the variable change X = int (p^2 + q^2).  Conversely,
a nonincreasing angle profile transforms, via the monotone variable
t = -tan(phi(x)) and the image measure of dx, into a diagonal system
H1(T) = diag(h, 1 - h), whose de Branges type is int sqrt(h (1-h)) dT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rk
from .hamiltonian import (
    HALF_PI,
    PI,
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    PhiProfile,
    PhiTable,
    Segment,
    SingularHalfLine,
    same_position,
)


class AssumptionViolated(Exception):
    """Evidence that a caller-supplied assumption (E0 below the spectrum,
    angle range, ...) does not hold."""


class SplitRequired(Exception):
    """Total angle drop >= pi; the profile must be split before the
    diagonal transformation applies."""


#: angle differences below this are RK noise in an imported profile: a heuristic
MONOTONE_SLACK = 1e-8
#: delta of the diagonal transform, phi <= pi/2 - delta keeps |tan phi| <= 1e6: a heuristic
DIAGONAL_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# Schroedinger import


@dataclass
class SchrodingerProblem:
    """Sampled potential on [0, x_max] with a reference energy E0.

    E0 < min spectrum is the caller's claim; it is recorded, not verifiable
    here, and its failure surfaces as a non-monotone angle.  ``init`` holds
    the initial-condition pairs (y(0), y'(0)) for the two solutions p, q.
    """

    grid: np.ndarray
    values: np.ndarray
    E0: float
    init: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if not (np.isfinite(self.grid).all() and np.isfinite(self.values).all()):
            raise ValueError("grid and values must be finite")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")

    def potential(self, x):
        return np.interp(x, self.grid, self.values)


def _solve_pair(P: SchrodingerProblem, x_end: Optional[float] = None, tol: float = 1e-10):
    """Solutions (p, p', q, q') of -y'' + (V - E0) y = 0 at the grid nodes up
    to x_end, and at x_end itself when it lies past the grid.  Past the grid
    V is continued by its last value (as np.interp does)."""
    x_end = float(P.grid[-1]) if x_end is None else x_end
    xs = P.grid[P.grid <= x_end]
    if x_end > P.grid[-1]:
        xs = np.append(xs, x_end)

    def f(x, y):
        w = P.potential(x) - P.E0
        return np.array([y[1], w * y[0], y[3], w * y[2]])

    y0 = np.array([P.init[0][0], P.init[0][1], P.init[1][0], P.init[1][1]], dtype=float)
    # RK returns the states exactly at its checkpoints: x0, the grid, x_end
    _, ys = rk.integrate_adaptive(f, float(P.grid[0]), x_end, y0, tol, x_eval=xs)
    p, dp, q, dq = np.array(ys[: len(xs)]).T
    return xs, p, dp, q, dq


def _unwrapped_angle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Continuous angle of the vector (p, q): cot(phi) = p/q."""
    raw = np.arctan2(q, p)
    return np.unwrap(raw, period=PI)


@dataclass
class XMap:
    """Trace-normalizing reparametrization X = int_0^x (p^2 + q^2)."""

    x: np.ndarray
    X: np.ndarray

    def forward(self, x):
        return np.interp(x, self.x, self.X)

    def backward(self, X):
        return np.interp(X, self.X, self.x)


def schrodinger_to_canonical(
    P: SchrodingerProblem, tol: float = 1e-10
) -> tuple[Hamiltonian, XMap, bool]:
    """Rank-one canonical system equivalent to -y'' + V y at energy E0.

    Returns (H, x_map, swapped).  The angle branch is taken continuous; if
    the profile comes out increasing with the configured solution pair, the
    roles of p and q are swapped (and reported).  A profile that is monotone
    in neither assignment is evidence that E0 was not below the spectrum.
    tol is the adaptive RK tolerance of the two Schroedinger solutions.
    """
    xs, p, dp, q, dq = _solve_pair(P, tol=tol)
    swapped = False
    phi = _unwrapped_angle(p, q)
    d = np.diff(phi)
    if np.any(d > MONOTONE_SLACK) and not np.any(d < -MONOTONE_SLACK):
        # monotone the wrong way: swap the solution roles
        swapped = True
        phi = _unwrapped_angle(q, p)
        d = np.diff(phi)
    if np.any(d > MONOTONE_SLACK):
        raise AssumptionViolated(
            "angle profile not nonincreasing; E0 does not appear to be below "
            "the spectrum"
        )
    phi = np.minimum.accumulate(phi)  # flatten MONOTONE_SLACK-level noise
    # a semibounded import keeps the total drop within pi; a larger drop
    # means the solutions oscillate, i.e. E0 sits inside the spectrum
    if phi[0] - phi[-1] > PI + 1e-6:
        raise AssumptionViolated(
            f"angle drops by {phi[0] - phi[-1]:g} > pi; E0 does not appear "
            "to be below the spectrum"
        )
    w = p**2 + q**2
    X = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))])
    # strictly increasing X guaranteed by p^2 + q^2 > 0
    pts = [(float(Xi), float(ph)) for Xi, ph in zip(X, phi)]
    # collapse duplicate X from degenerate grid spacing
    dedup = [pts[0]]
    for Xi, ph in pts[1:]:
        if Xi > dedup[-1][0] + 1e-15 * max(1.0, Xi):
            dedup.append((Xi, ph))
    table = PhiTable(tuple(dedup))
    H = Hamiltonian((Segment(dedup[-1][0], table),))
    return H, XMap(x=xs, X=X), swapped


# ---------------------------------------------------------------------------
# Molchanov criteria


def _x_grid(x_grid, v_start: float) -> np.ndarray:
    """x_grid sorted; a ValueError unless it is nonempty, finite and starts
    where the potential is sampled (v_start on)."""
    x_grid = np.asarray(sorted(float(x) for x in x_grid))
    if not len(x_grid):
        raise ValueError("x_grid is empty")
    if not np.isfinite(x_grid).all():
        raise ValueError("x_grid must be finite")
    if x_grid[0] < v_start and not same_position(x_grid[0], v_start):
        raise ValueError(
            f"potential must be sampled from min(x_grid) = {float(x_grid[0])!r} on, "
            f"not from {float(v_start)!r}"
        )
    return x_grid


@dataclass
class MolchanovTable:
    d_list: list[float]
    x_grid: np.ndarray
    W: np.ndarray  # shape (len(d_list), len(x_grid))
    verdict: str  # "diverges_likely" | "not_diverging"


def molchanov_classic(
    v_grid: np.ndarray,
    v_values: np.ndarray,
    d_list,
    x_grid,
) -> MolchanovTable:
    """Window integrals W(x, d) = int_x^{x+d} V for the classical criterion.

    Verdict "diverges_likely" when every d-row rises across the last half of
    x_grid (N >= 3).  x_grid must be finite, every d positive, and V
    sampled on [min(x_grid), max(x_grid) + max(d_list)].
    """
    v_grid = np.asarray(v_grid, dtype=float)
    v_values = np.asarray(v_values, dtype=float)
    x_grid = _x_grid(x_grid, v_grid[0])
    if len(x_grid) < 3:
        raise ValueError(f"x_grid has {len(x_grid)} points; its last half needs two to rise")
    d_list = [float(d) for d in d_list]
    for d in d_list:
        if not d > 0.0:
            raise ValueError(f"window width d must be positive, not {d!r}")
    if (end := x_grid[-1] + max(d_list)) > v_grid[-1] and not same_position(end, v_grid[-1]):
        raise ValueError("potential must be sampled beyond max(x_grid) + max(d)")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v_values[1:] + v_values[:-1]) * np.diff(v_grid))])

    def F(x):
        return np.interp(x, v_grid, cum)

    W = np.array([F(x_grid + d) - F(x_grid) for d in d_list])
    half = len(x_grid) // 2
    rising = all(np.all(np.diff(row[half:]) > 0.0) for row in W)
    verdict = "diverges_likely" if rising else "not_diverging"
    return MolchanovTable(d_list=d_list, x_grid=x_grid, W=W, verdict=verdict)


@dataclass
class MolchanovNewResult:
    x_grid: np.ndarray
    G: np.ndarray
    verdict: str  # "trends_to_zero" | "not_to_zero"


def molchanov_new(P: SchrodingerProblem, x_grid, tol: float = 1e-10) -> MolchanovNewResult:
    """G(x) = int_0^x q^2 * int_x^inf q^(-2) for the generalized criterion.

    q is the non-L^2 solution of -y'' + (V - E0) y = 0.  The improper tail
    integral is the cumulative integral of q^(-2) up to the endpoint
    b = 1.5 max(x_grid) plus the remainder 1/(2 q(b) q'(b)), which is exact
    for exponential growth q ~ e^(kx) and within a factor 2p/(2p-1) for
    power growth x^p.  Past the grid V is continued by its last value.  When
    the grid reaches past b, both the integral and the remainder stop at the
    last grid node <= b instead of at b itself.
    (The constant-Wronskian identity gives the remainder exactly but needs
    the decaying solution f = p - Mq, which cancels catastrophically once q
    is large; the direct quadrature is stable.)  x_grid must stay clear of
    the at most one zero of q.  tol is the adaptive RK tolerance of the
    Schroedinger solutions.  x_grid must be nonempty, finite and start where
    V is sampled.
    """
    x_grid = _x_grid(x_grid, P.grid[0])
    xs, p, dp, q, dq = _solve_pair(P, x_end=1.5 * x_grid[-1], tol=tol)
    i1_full = np.concatenate([[0.0], np.cumsum(0.5 * (q[1:] ** 2 + q[:-1] ** 2) * np.diff(xs))])
    # q not in L^2: its norm over the second half must dominate the first
    mid = len(xs) // 2
    if i1_full[-1] < 2.0 * i1_full[mid]:
        raise AssumptionViolated("q appears square-integrable; pick the growing solution")
    if q[-1] * dq[-1] <= 0.0:
        raise AssumptionViolated("q not growing at the endpoint")
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = 1.0 / q**2
    ok = np.isfinite(inv2)
    if not np.all(ok[xs >= x_grid[0]]):
        raise AssumptionViolated("q vanishes inside the integration range")
    inv2[~ok] = 0.0
    # accumulate from the right so the tiny tail is not lost to cancellation
    cells = 0.5 * (inv2[1:] + inv2[:-1]) * np.diff(xs)
    rev = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    remainder = 1.0 / (2.0 * q[-1] * dq[-1])
    i2_full = rev + remainder
    I1 = np.interp(x_grid, xs, i1_full)
    I2 = np.interp(x_grid, xs, i2_full)
    G = I1 * I2
    half = len(x_grid) // 2
    tail = G[half:]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    trending = decreasing and G[-1] < 0.75 * G[half]
    verdict = "trends_to_zero" if trending else "not_to_zero"
    return MolchanovNewResult(x_grid=x_grid, G=G, verdict=verdict)


# ---------------------------------------------------------------------------
# diagonal transformation


@dataclass(frozen=True)
class DiagonalSegment:
    deltaT: float
    h: float

    def __post_init__(self):
        if self.deltaT <= 0.0:
            raise ValueError("deltaT must be positive")
        if not (0.0 <= self.h <= 1.0):
            raise ValueError("h must lie in [0, 1]")


@dataclass(frozen=True)
class DiagonalSystem:
    """H1(T) = diag(h, 1 - h) as a sequence of constant-h cells.

    Point masses of the measure dw appear as cells with h = 1 (singular
    intervals of type 0 in the T variable).
    """

    segments: tuple[DiagonalSegment, ...]
    t0: float
    rotation_applied: float = 0.0

    @property
    def total_T(self) -> float:
        return sum(s.deltaT for s in self.segments)


def canonical_to_diagonal(phi: PhiProfile) -> DiagonalSystem:
    """Diagonal system of a rank-one profile via t = -tan(phi(x)).

    Every piece gives one cell with dT = dw + dt and h = dw/dT, where
    dw = int cos^2(phi) dx exactly and dt = tan(phi0) - tan(phi1); a plateau
    has dt = 0, so it is a dw point mass ((1+t^2) w({t}) = plateau length)
    with h = 1 exactly.  Jumps of phi contribute nothing.  Profiles whose
    range does not fit in (-pi/2, pi/2 - delta], delta = DIAGONAL_MARGIN, are
    rotated first (recorded in ``rotation_applied``); a total drop
    >= pi - delta cannot be accommodated and raises SplitRequired.
    """
    drop = phi.drop
    gamma = 0.0
    hi = phi.phi_start
    lo = phi.phi_infinity
    if not (-HALF_PI < lo and hi <= HALF_PI - DIAGONAL_MARGIN):
        if drop >= PI - DIAGONAL_MARGIN:
            raise SplitRequired(
                f"total drop {drop:g} >= pi - delta; compute transfer matrices "
                "piecewise instead"
            )
        gamma = (HALF_PI - DIAGONAL_MARGIN) - hi
        phi = phi.shifted(gamma)
    cells: list[DiagonalSegment] = []
    t0 = -math.tan(phi.phi_start)
    for piece in phi.pieces:
        # exact cell integrals: dw-mass = int cos^2(phi) dx, dt from tan (0 on a
        # plateau, and on a rise within the angle tie, which validate lets pass)
        w_mass = piece.int_cos2()
        dt = max(0.0, math.tan(piece.phi0) - math.tan(piece.phi1))
        dT = w_mass + dt
        cells.append(DiagonalSegment(deltaT=dT, h=w_mass / dT))
        # jumps between pieces carry no dw and no dt inside the range gap
    return DiagonalSystem(tuple(cells), t0=t0, rotation_applied=gamma)


def debranges_type(D: DiagonalSystem) -> float:
    """Exponential type int sqrt(h (1-h)) dT on the piecewise-constant cells."""
    return sum(s.deltaT * math.sqrt(s.h * (1.0 - s.h)) for s in D.segments)


def diagonal_to_hamiltonian(D: DiagonalSystem) -> Hamiltonian:
    """Encode H1 = diag(h, 1-h) as a trace-normed Hamiltonian in T.

    The spectral parameter of this system is zeta with z = zeta^2.
    """
    segs = []
    for s in D.segments:
        if s.h >= 1.0:
            segs.append(Segment(s.deltaT, ConstantAngle(0.0)))
        elif s.h <= 0.0:
            segs.append(Segment(s.deltaT, ConstantAngle(HALF_PI)))
        else:
            segs.append(Segment(s.deltaT, ConstantMatrix(MatrixH(s.h, 0.0, 1.0 - s.h))))
    return Hamiltonian(tuple(segs))

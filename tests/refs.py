"""Independent references for the tests: H(x) from each segment kind's own
fields, the entry rule of a constant matrix, mpmath ramp factors and ramp
Pruefer angles, the Riccati comparison closed forms, and the level and
rounding allowance of a located root.

The RK references of the kernel tests integrate :func:`segment_h` and
:func:`h_at`, which read the angle alpha, the MatrixH entries, the ramp's
two ends, the table's points and the tail's gamma, never the walked
``Piece`` s, so checking ``pieces`` against such an RK run is a check
against an independent H(x).  The one exception is a ``Pieces`` segment (a
segment after ``Segment.split`` or ``rotate``), which has no fields but its
chain and is read from it.  :func:`advance` is the Pruefer step as the
``Piece`` methods state it, which ``pruefer.advance`` reads inline.  canosc
itself needs numpy alone; mpmath is a test dependency.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from canosc import pruefer
from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    PhiProfile,
    PhiRamp,
    PhiTable,
    Pieces,
    Segment,
    SingularHalfLine,
)


def p_alpha(alpha: float) -> np.ndarray:
    """Rank-one projection onto (cos alpha, sin alpha)."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c * c, s * c], [s * c, s * s]])


def segment_h(seg: Segment, offset: float) -> np.ndarray:
    """H at an offset into the segment, from the fields of its kind."""
    k = seg.kind
    if isinstance(k, ConstantAngle):
        return p_alpha(k.alpha)
    if isinstance(k, ConstantMatrix):
        m = k.matrix
        return np.array([[m.h11, m.h12], [m.h12, m.h22]])
    if isinstance(k, PhiRamp):
        return p_alpha(k.phi_start + (k.phi_end - k.phi_start) * offset / seg.length)
    if isinstance(k, PhiTable):
        offs, phis = zip(*k.points)
        return p_alpha(float(np.interp(offset, offs, phis)))
    if isinstance(k, Pieces):
        # a cut or turned segment is its chain: lam1 P_phi + lam2 P_{phi + pi/2}
        # on the piece holding the offset, phi linear between the piece's ends
        p = next((p for p in k.chain if offset < p.end), k.chain[-1])
        phi = p.phi0 + (p.phi1 - p.phi0) * (offset - p.offset) / (p.end - p.offset)
        return p.lam1 * p_alpha(phi) + p.lam2 * p_alpha(phi + math.pi / 2)
    raise TypeError(f"unknown segment kind {k!r}")


#: tolerance of :func:`entries_valid`, the one validate's piece rule keeps
ENTRY_TOL = 1e-12


def entries_valid(m) -> bool:
    """The entry rule of a constant matrix, read from its entries and not from
    its eigenvalues: trace 1, a nonnegative diagonal and h12^2 <= h11 h22,
    each to ENTRY_TOL."""
    return (
        abs(m.h11 + m.h22 - 1.0) <= ENTRY_TOL
        and min(m.h11, m.h22) >= -ENTRY_TOL
        and m.h12 * m.h12 <= m.h11 * m.h22 + ENTRY_TOL
    )


def h_at(H: Hamiltonian, x: float) -> np.ndarray:
    """H(x), right-continuous at each segment boundary: the last segment's
    value up to X_max, the tail's P_gamma past it."""
    if x > H.x_max:
        if H.tail is None:
            raise ValueError(f"x = {x} beyond X_max = {H.x_max} and no tail")
        return p_alpha(H.tail.gamma)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    acc = 0.0
    for seg in H.segments[:-1]:
        if x < acc + seg.length:
            return segment_h(seg, x - acc)
        acc += seg.length
    return segment_h(H.segments[-1], min(x - acc, H.segments[-1].length))


def to_hamiltonian(prof: PhiProfile, tail: bool = True) -> Hamiltonian:
    """Encode P_phi back into segments (plateaus/ramps, jumps free)."""
    segs = []
    for p in prof.pieces:
        length = p.end - p.offset
        if p.singular:
            segs.append(Segment(length, ConstantAngle(p.phi0)))
        else:
            segs.append(Segment(length, PhiRamp(p.phi0, p.phi1)))
    t = SingularHalfLine(prof.phi_infinity) if tail else None
    return Hamiltonian(tuple(segs), tail=t)


# ---------------------------------------------------------------------------
# mpmath references for a ramp phi(x) = phi0 + (phi1 - phi0) x / length


def _mp_ramp_factor(phi0, phi1, length, z):
    """R(phi1) expm(length (z J P_0 + kappa J)) R(phi0)^T at the working precision:
    with u = R(phi) v and kappa = -phi', v' = (z J P_0 + kappa J) v is constant."""
    rot = lambda g: mpmath.matrix([[mpmath.cos(g), -mpmath.sin(g)], [mpmath.sin(g), mpmath.cos(g)]])
    kappa = (phi0 - phi1) / length
    return rot(phi1) * mpmath.expm(length * mpmath.matrix([[0, -kappa], [z + kappa, 0]])) * rot(phi0).T


def ramp_factor(phi0: float, phi1: float, length: float, z: complex, dps: int = 30) -> np.ndarray:
    """Transfer factor of u' = z J P_phi(x) u across a ramp, via mpmath.expm."""
    with mpmath.workdps(dps):
        F = _mp_ramp_factor(*map(mpmath.mpf, (phi0, phi1, length)), mpmath.mpc(z))
        return np.array(F.tolist(), dtype=complex)


def ramp_theta(
    phi0: float, phi1: float, length: float, t: float, theta0: float, dps: int = 30
) -> float:
    """Unwrapped Pruefer angle theta(length) of theta' = t cos^2(theta - phi).

    The ramp is cut into sub-ramps with |t| h <= 1/2, across which theta
    moves by less than 1/2, so the angle change of the propagated vector
    over each is its principal value.
    """
    with mpmath.workdps(dps):
        p0, p1, ell = mpmath.mpf(phi0), mpmath.mpf(phi1), mpmath.mpf(length)
        n = max(1, int(math.ceil(2.0 * abs(t) * length)))
        theta = mpmath.mpf(theta0)
        u = mpmath.matrix([mpmath.cos(theta), mpmath.sin(theta)])
        for i in range(n):
            a = p0 + (p1 - p0) * i / n
            b = p0 + (p1 - p0) * (i + 1) / n
            w = _mp_ramp_factor(a, b, ell / n, mpmath.mpf(t)) * u
            theta += mpmath.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1])
            u = w / mpmath.norm(w)
        return float(theta)


# ---------------------------------------------------------------------------
# Riccati comparison closed forms for phi(x) - phi(inf) = C/x tails


def euler_comparison_alpha(x: float, a: float, C: float) -> float:
    """Solution of alpha' = alpha^2 + C/x^2 with alpha(a+) = -infinity.

    Closed form -(1/(a xi)) (p+ xi^d - p-)/(xi^d - 1) with xi = x/a,
    d = sqrt(1 - 4C), p± = (1 ± d)/2; real only for 0 < C < 1/4.
    """
    if not (0.0 < C < 0.25):
        raise ValueError("need 0 < C < 1/4")
    if not (x > a > 0.0):
        raise ValueError("need x > a > 0")
    d = math.sqrt(1.0 - 4.0 * C)
    p_plus = 0.5 * (1.0 + d)
    p_minus = 0.5 * (1.0 - d)
    xi = x / a
    return -(1.0 / (a * xi)) * (p_plus * xi**d - p_minus) / (xi**d - 1.0)


def riccati_lower_theta(x: np.ndarray, a: float, C: float) -> np.ndarray:
    """Lower comparison trajectory theta1(x) = C/x + alpha(x) for x > a.

    Solves theta1' = (theta1 - C/x)^2 with theta1(a+) = -infinity shifted by
    the Euler solution; never reaches 0 when C < 1/4.
    """
    x = np.asarray(x, dtype=float)
    return np.array([C / xi + euler_comparison_alpha(xi, a, C) for xi in x])


def riccati_upper_alpha(
    x: np.ndarray, a: float, b: float, B: float, theta0: float, eps: float
) -> np.ndarray:
    """Upper comparison branch alpha' = (1-eps) alpha^2, shifted by B/b.

    alpha(x) = (theta0 - B/b) / (1 - (theta0 - B/b)(1-eps)(x-a)) + B/b;
    blows up (crosses any level) before x = b when B > 1/(1-eps) and the
    denominator vanishes inside (a, b).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("need 0 < eps < 1")
    x = np.asarray(x, dtype=float)
    c0 = theta0 - B / b
    denom = 1.0 - c0 * (1.0 - eps) * (x - a)
    with np.errstate(divide="ignore"):
        return c0 / denom + B / b


def advance(theta: float, piece, length: float, t: float) -> float:
    """theta after `length` of the piece, as the Piece methods state the step:
    the singular closed form when ``piece.singular``, else the turn at the rates
    (a, b) = (t lam1 + kappa, t lam2 + kappa) plus ``piece.phi(length)``."""
    if piece.singular:
        return pruefer.step_singular(theta, piece.phi0, length, t * piece.lam1)
    kappa = (piece.phi0 - piece.phi1) / (piece.end - piece.offset)
    a, b = t * piece.lam1 + kappa, t * piece.lam2 + kappa
    return pruefer.turn(theta - piece.phi0, a, b, length) + piece.phi(length)


def level(H: Hamiltonian, L: float, beta: float, t: float) -> float:
    """v = (theta(L; t) - beta) / pi, whose ceiling the count takes."""
    return (pruefer.theta_at(H, t, 0.0, L) - beta) / math.pi


def walk_rounding(H: Hamiltonian, L: float, ref: float) -> float:
    """How far in t a computed and an exact crossing of theta(L; .) may lie
    apart at ref: twice the walk's rounding bound, 8 eps (pieces + 1)
    max(pi, |theta|), over the slope there."""
    th = pruefer.theta_at(H, ref, 0.0, L)
    h = 1e-6 * max(1.0, abs(ref))
    slope = (pruefer.theta_at(H, ref + h, 0.0, L) - pruefer.theta_at(H, ref - h, 0.0, L)) / (2 * h)
    pieces = len(list(H.walk(L)))
    return 2 * 8 * math.ulp(1.0) * (pieces + 1) * max(math.pi, abs(th)) / slope

"""Independent verification engines.

Everything here deliberately avoids the adaptive integrators used by the
main path.  Transfer matrices for piecewise-constant-angle systems are
assembled from the exact nilpotent factors 1 + t*l*J*P_alpha alone, and
eigenvalues are counted by sign changes of the boundary functional.  The
Riccati comparison solutions give closed-form sandwich bounds for angle
trajectories on C/x tails.  Ramp factors and ramp Pruefer angles are
computed in mpmath from the matrix exponential of the rotating-frame
generator, at 30 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .hamiltonian import PI, ConstantAngle, Hamiltonian


def _exact_transfer(H: Hamiltonian, L: float, lam: float) -> np.ndarray:
    """T(L; lam) via the exact product of singular-interval factors."""
    T = np.eye(2)
    acc = 0.0
    for seg in H.segments:
        if acc >= L:
            break
        if not isinstance(seg.kind, ConstantAngle):
            raise ValueError("exact product path needs piecewise-constant angles")
        span = min(seg.length, L - acc)
        a = seg.kind.alpha
        c, s = math.cos(a), math.sin(a)
        # J @ P_alpha = [[-sc, -s^2], [c^2, sc]], squares to zero
        F = np.eye(2) + lam * span * np.array([[-s * c, -s * s], [c * c, s * c]])
        T = F @ T
        acc += seg.length
    if L > acc:
        if H.tail is None:
            raise ValueError("L beyond X_max")
        a = H.tail.gamma
        c, s = math.cos(a), math.sin(a)
        span = L - acc
        F = np.eye(2) + lam * span * np.array([[-s * c, -s * s], [c * c, s * c]])
        T = F @ T
    return T


def boundary_functional(H: Hamiltonian, L: float, beta: float, lam: float) -> float:
    """u1(L) sin(beta) - u2(L) cos(beta) for the solution with u(0) = e1."""
    T = _exact_transfer(H, L, lam)
    u1, u2 = T[0, 0], T[1, 0]
    return u1 * math.sin(beta) - u2 * math.cos(beta)


@dataclass
class SignChangeScan:
    values: np.ndarray
    roots: list[tuple[float, float]]  # bracketing intervals after bisection
    suspicious: list[float]  # near-zero magnitude without a sign change


def _bisect_root(f, lo: float, hi: float, width: float = 1e-9) -> tuple[float, float]:
    flo = f(lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return lo, hi


def scan(
    H: Hamiltonian,
    L: float,
    beta: float,
    w: tuple[float, float],
    grid_step: float,
) -> SignChangeScan:
    s, t = w
    n = max(int(math.ceil((t - s) / grid_step)), 2)
    grid = np.linspace(s, t, n + 1)
    f = lambda lam: boundary_functional(H, L, beta, lam)
    vals = np.array([f(g) for g in grid])
    roots = []
    suspicious = []
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    for i in range(n):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append((a, a))
        elif (fa < 0) != (fb < 0):
            roots.append(_bisect_root(f, a, b))
        elif min(abs(fa), abs(fb)) < 1e-10 * scale and fa != 0.0:
            # a grazing near-zero with no sign change: possible double root
            suspicious.append(float(a if abs(fa) < abs(fb) else b))
    # a root exactly at the right endpoint belongs to the next window
    roots = [r for r in roots if s <= 0.5 * (r[0] + r[1]) < t]
    return SignChangeScan(vals, roots, suspicious)


def count_by_sign_changes(
    H: Hamiltonian,
    L: float,
    beta: float,
    w: tuple[float, float],
    grid_step: float | None = None,
) -> int:
    """Eigenvalue count in [s, t) by sign changes of the boundary functional.

    The grid is refined (step halved) until two successive scans agree, which
    guards against steps wider than the minimal eigenvalue gap.
    """
    s, t = w
    if grid_step is None:
        grid_step = (t - s) / 64.0
    prev = None
    for _ in range(12):
        res = scan(H, L, beta, w, grid_step)
        n = len(res.roots)
        if res.suspicious:
            grid_step /= 2.0
            prev = None
            continue
        if prev is not None and n == prev:
            return n
        prev = n
        grid_step /= 2.0
    return prev if prev is not None else len(res.roots)


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

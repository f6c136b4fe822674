"""Complex transfer matrices and entire-function growth estimation.

The transfer matrix T(x; z) solves U' = z J H(x) U with T(0; z) = 1 and has
unit determinant (the generator is trace free).  It is the product of one
closed-form factor per :class:`~canosc.hamiltonian.Piece`: on singular
intervals exactly 1 + z*l*J*P_alpha because (J P_alpha)^2 = 0; on ramps,
table pieces and constant matrices R(phi1) exp(l G) R(phi0)^T, where
G = [[0, -b], [a, 0]] is the constant generator in the rotating frame and
exp(l G) is the 2x2 closed form of :func:`expm`.  The product is rescaled
factor by factor, so growth (order, exponential type) can be estimated by
regression on log M(r) over geometric radii far beyond the float range.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hamiltonian import Hamiltonian, Piece, p_alpha, require_valid, rotation

J = np.array([[0.0, -1.0], [1.0, 0.0]])


@functools.cache
def _hurwitz_zeta():
    """scipy.special.zeta, imported on the first Hadamard call only."""
    from scipy.special import zeta

    return zeta


@dataclass
class TransferMatrix:
    entries: np.ndarray  # 2x2 complex
    x: float
    z: complex

    @property
    def det(self) -> complex:
        """1 by construction: every factor is 1 + z l J P_alpha with
        (J P_alpha)^2 = 0, or the exponential of a trace-free generator.
        The per-factor rounding is checked by the kernel property tests."""
        return 1.0 + 0.0j


def expm(M: np.ndarray) -> tuple[np.ndarray, float]:
    """(E, s) with exp(M) = e^s * E, for a trace-free 2x2 matrix M.

    M^2 = -det(M) * 1, so the series sums to cosh(mu) + (sinh(mu)/mu) M with
    mu^2 = -det M (both even in mu).  Once |Re mu| exceeds 20 the factor
    e^|Re mu| is returned as s instead of multiplied in, so no entry
    overflows; otherwise s = 0.
    """
    mu = cmath.sqrt(M[0, 1] * M[1, 0] - M[0, 0] * M[1, 1])
    s = abs(mu.real)
    if s <= 20.0:
        c, sh, s = cmath.cosh(mu), (cmath.sinh(mu) / mu if mu else 1.0), 0.0
    else:
        p, q = cmath.exp(mu - s), cmath.exp(-mu - s)
        c, sh = 0.5 * (p + q), 0.5 * (p - q) / mu
    return c * np.eye(2) + sh * M, s


def _piece_factor(piece: Piece, span: float, z: complex) -> tuple[np.ndarray, float]:
    """(F, s): the factor of `span` of the piece is e^s * F."""
    if piece.singular:
        return np.eye(2, dtype=complex) + z * (span * piece.lam1) * (J @ p_alpha(piece.phi0)), 0.0
    a, b = piece.rates(z)
    E, s = expm(span * np.array([[0.0, -b], [a, 0.0]]))
    return rotation(piece.phi(span)) @ E @ rotation(piece.phi0).T, s


def transfer_matrix_log(
    H: Hamiltonian,
    x: float,
    z: complex,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """(U, s) with T(x; z) = exp(s) * U and max |U entry| = 1.

    Per-factor rescaling keeps the running product inside floating range,
    so growth can be probed at radii where T itself would overflow.  Past
    X_max the singular tail contributes its factor; without a tail, x beyond
    X_max is a ValueError.  The factors are closed forms, so tol is unused.
    """
    require_valid(H)
    U = np.eye(2, dtype=complex)
    logscale = 0.0
    for _, piece, span in H.walk(x):
        F, s = _piece_factor(piece, span, z)
        U = F @ U
        m = float(np.max(np.abs(U)))
        if m > 0.0:
            U = U / m
            logscale += s + math.log(m)
    return U, logscale


def transfer_matrix(
    H: Hamiltonian,
    x: float,
    z: complex,
    tol: float = 1e-10,
) -> TransferMatrix:
    """T(x; z) = exp(s) * U from :func:`transfer_matrix_log`; raises
    OverflowError when exp(s) leaves the float range."""
    U, s = transfer_matrix_log(H, x, z, tol)
    try:
        return TransferMatrix(entries=math.exp(s) * U, x=x, z=z)
    except OverflowError:
        raise OverflowError(f"|T({x}; {z})| = exp({s:.6g}); use transfer_matrix_log") from None


def log_max_entry(H: Hamiltonian, x: float, z: complex, tol: float = 1e-10) -> float:
    """log of the largest |entry| of T(x; z), overflow safe."""
    U, s = transfer_matrix_log(H, x, z, tol)
    m = float(np.max(np.abs(U)))
    return s + math.log(m) if m > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# growth fits


@dataclass
class GrowthFit:
    radii: np.ndarray
    logmax: np.ndarray  # log M(r)
    order: float
    residual: float
    n_phases: int

    def table(self) -> list[tuple[float, float]]:
        return list(zip(self.radii.tolist(), self.logmax.tolist()))


def order_fit(
    evaluate: Callable[[complex], complex],
    r_min: float,
    r_max: float,
    n_radii: int = 12,
    n_phases: int = 16,
    log_abs: bool = False,
) -> GrowthFit:
    """Least-squares growth order of an entire function.

    M(r) is the max of |F| over sampled phases; the order estimate is the
    slope of log log+ M against log r over the upper half of the radii.
    When ``log_abs`` is set, ``evaluate`` must return log |F(z)| directly
    (overflow-safe path).
    """
    if r_max / r_min < 1e3:
        raise ValueError("need r_max / r_min >= 1e3 for a stable fit")
    if n_radii < 8:
        raise ValueError("need at least 8 radii")
    radii = np.geomspace(r_min, r_max, n_radii)
    # phase offset keeps samples off the positive real axis, where zeros live
    phases = 2.0 * math.pi * (np.arange(n_phases) + 0.37) / n_phases
    logmax = np.empty(n_radii)
    for i, r in enumerate(radii):
        vals = []
        for ph in phases:
            zz = r * complex(math.cos(ph), math.sin(ph))
            v = evaluate(zz)
            vals.append(float(v) if log_abs else math.log(max(abs(v), 1e-300)))
        logmax[i] = max(vals)
    upper = radii >= radii[n_radii // 2 - 1]
    mask = upper & (logmax > 1e-9)
    if mask.sum() < 3:
        # essentially no growth: treat as order 0
        return GrowthFit(radii, logmax, order=0.0, residual=0.0, n_phases=n_phases)
    xs = np.log(radii[mask])
    ys = np.log(logmax[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return GrowthFit(radii, logmax, order=float(slope), residual=resid, n_phases=n_phases)


def type_fit_imaginary(
    evaluate_log: Callable[[complex], float],
    y_min: float,
    y_max: float,
    n_points: int = 12,
) -> float:
    """Exponential growth rate along the positive imaginary axis.

    Fits log M(iy) ~ tau * y over the upper half of a geometric y-grid;
    used to compare measured growth with the de Branges type.
    """
    ys = np.geomspace(y_min, y_max, n_points)
    lm = np.array([evaluate_log(complex(0.0, y)) for y in ys])
    upper = ys >= ys[n_points // 2 - 1]
    slope, _ = np.polyfit(ys[upper], lm[upper], 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Hadamard products


def _auto_terms(z: complex, alpha: float, eps: float = 1e-12) -> int:
    r = abs(z)
    n1 = (2.0 * max(r, 1.0)) ** (1.0 / alpha)
    n2 = (max(r, 1.0) ** 2 / (2.0 * (2.0 * alpha - 1.0) * eps)) ** (1.0 / (2.0 * alpha - 1.0))
    return int(max(50, math.ceil(n1), math.ceil(n2)))


def _a_zeros(alpha: float, count: int) -> np.ndarray:
    return np.arange(1, count + 1, dtype=float) ** alpha


def _hadamard(z: complex, alpha: float, N: Optional[int], zeros_of, log: bool, scale=1.0):
    """scale * prod_{n<=N} (1 - z/z_n) * exp(-z * sum_{n>N} n^(-alpha)), or log |.|.

    The tail beyond N contributes that exponential to first order; N
    (auto-chosen if omitted) keeps the neglected second-order tail below
    1e-12.  Without ``log``, z within 1e-12 of a retained zero gives exactly 0.
    """
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    if N is None:
        N = _auto_terms(z, alpha)
    if abs(scale) < 1e-300:
        return -math.inf if log else complex(scale)
    zeros = zeros_of(alpha, N)
    tail = -z * float(_hurwitz_zeta()(alpha, N + 1))
    if log:
        with np.errstate(divide="ignore"):
            s = float(np.sum(np.log(np.abs(1.0 - z / zeros))))
        return math.log(abs(scale)) + s + float(tail.real)
    if np.min(np.abs(z - zeros)) < 1e-12 * max(1.0, abs(z)):
        return 0.0 + 0.0j
    return scale * complex(np.prod(1.0 - z / zeros)) * np.exp(tail)


def hadamard_a(z: complex, alpha: float, N: Optional[int] = None) -> complex:
    """prod_{n>=1} (1 - z / n^alpha), partial product with tail correction."""
    return _hadamard(z, alpha, N, _a_zeros, log=False)


def hadamard_a_log(z: complex, alpha: float, N: Optional[int] = None) -> float:
    """log |A(z)|, overflow safe."""
    return _hadamard(z, alpha, N, _a_zeros, log=True)


def hadamard_c_zeros(alpha: float, count: int) -> np.ndarray:
    """Nonzero zeros (n^alpha + (n+1)^alpha) / 2 for n = 1..count."""
    n = np.arange(1, count + 1, dtype=float)
    return 0.5 * (n**alpha + (n + 1.0) ** alpha)


def hadamard_c(z: complex, alpha: float, N: Optional[int] = None) -> complex:
    """z * prod (1 - z / z_n) with z_n = (n^alpha + (n+1)^alpha)/2, C'(0) = 1.

    The zeros alternate with those of hadamard_a by construction.  The tail
    sum of 1/z_n is bounded by the Hurwitz zeta of the smaller zero n^alpha.
    """
    return _hadamard(z, alpha, N, hadamard_c_zeros, log=False, scale=z)


def hadamard_c_log(z: complex, alpha: float, N: Optional[int] = None) -> float:
    return _hadamard(z, alpha, N, hadamard_c_zeros, log=True, scale=z)


@dataclass
class H2MembershipResult:
    value: float
    value_half_range: float
    verdict: str  # "converges_likely" | "inconclusive"


def h2_membership_integral(
    alpha: float,
    N: Optional[int] = None,
    R: float = 1e3,
) -> H2MembershipResult:
    """int dt / ((1+t^2)(A^2 + C^2)) over [-R, R], refined near zeros of A.

    Interlacing keeps A^2 + C^2 positive, so the integrand is bounded;
    the verdict compares the value with the half-range integral and calls
    convergence likely when the difference is below 1%.
    """
    from scipy.integrate import quad

    def integrand(t):
        a = hadamard_a(complex(t), alpha, N).real
        c = hadamard_c(complex(t), alpha, N).real
        return 1.0 / ((1.0 + t * t) * (a * a + c * c))

    def run(upper):
        pts = [0.0]
        k = 1
        while k**alpha < upper:
            pts.append(k**alpha)
            k += 1
        pts.append(upper)
        total = 0.0
        for lo, hi in zip(pts, pts[1:]):
            v, _ = quad(integrand, lo, hi, limit=200)
            total += v
        v_neg, _ = quad(integrand, -upper, 0.0, limit=200)
        return total + v_neg

    full = run(R)
    half = run(R / 2.0)
    rel = abs(full - half) / max(abs(full), 1e-300)
    verdict = "converges_likely" if rel < 0.01 else "inconclusive"
    return H2MembershipResult(value=full, value_half_range=half, verdict=verdict)


# ---------------------------------------------------------------------------
# order bound report


@dataclass
class OrderBoundReport:
    fitted_order: float
    residual: float
    upper_ok: bool  # fitted order <= 0.55
    has_ramp_mass: bool
    tau: Optional[float]
    lower_resolvable: bool
    lower_ok: Optional[bool]  # fitted order >= 0.45, when applicable
    r_range: tuple[float, float]


def order_bound_check(
    H: Hamiltonian,
    L: Optional[float] = None,
    r_min: float = 1.0,
    r_max: Optional[float] = None,
    n_radii: int = 10,
    n_phases: int = 8,
    tol: float = 1e-8,
) -> OrderBoundReport:
    """Growth-order report for a semibounded system's transfer matrix.

    Checks the fitted order against the 1/2 ceiling; when the profile
    carries absolutely continuous mass (a ramp), the order must also reach
    1/2, which is asserted only when the de Branges type is large enough to
    be resolvable at the sampled radii.
    """
    from . import transforms
    from .hamiltonian import extract_phi

    if L is None:
        L = H.x_max
    all_singular = all(s.is_singular for s in H.segments)
    if r_max is None:
        r_max = 1e8 if all_singular else 1e3
    fit = order_fit(
        lambda zz: log_max_entry(H, L, zz, tol),
        r_min,
        r_max,
        n_radii=n_radii,
        n_phases=n_phases,
        log_abs=True,
    )
    phi = extract_phi(H)
    has_ramp = any(not p.is_plateau for p in phi.pieces if p.x0 < L)
    tau = None
    resolvable = False
    lower_ok = None
    if has_ramp:
        try:
            diag = transforms.canonical_to_diagonal(phi)
            tau = transforms.debranges_type(diag)
        except transforms.SplitRequired:
            tau = None
        if tau is not None:
            resolvable = tau * math.sqrt(r_max) >= 5.0
        if resolvable:
            lower_ok = fit.order >= 0.45
    return OrderBoundReport(
        fitted_order=fit.order,
        residual=fit.residual,
        upper_ok=fit.order <= 0.55,
        has_ramp_mass=has_ramp,
        tau=tau,
        lower_resolvable=resolvable,
        lower_ok=lower_ok,
        r_range=(r_min, r_max),
    )

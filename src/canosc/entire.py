"""Complex transfer matrices and entire-function growth estimation.

The transfer matrix T(x; z) solves U' = z J H(x) U with T(0; z) = 1 and has
unit determinant (the generator is trace free).  It is the product of one
closed-form factor per :class:`~canosc.hamiltonian.Piece`, R(phi1) exp(l G)
R(phi0)^T, where G = [[0, -b], [a, 0]] is the constant generator in the
rotating frame v = R(phi)^T u and exp(l G) = cosh(mu) + (sinh(mu)/mu) l G
(:func:`expm`).  On a singular interval b = 0 and mu = 0, so the factor in
the frame is the shear [[1, 0], [z l lam1, 1]].

The product stays in the frame: it carries the two rows of R(phi)^T T
through each piece's frame factor, turns them by the jump phi1(previous) -
phi0(next) between pieces (none along table and ramp chains) and applies
R(phi1) once at the end.  It is batched over z: z may be an array of any
shape and one walk over the pieces serves every element; a scalar z is the
0-d case and gives a 2x2 matrix.  Instead of normalising after every
factor, the product keeps a running upper bound on log max |entry| and,
only when the next factor could take it past a fixed headroom below the
float range, scales each element by 2^-e (e the exponent of its largest
entry), counting e.  Scaling a normal number by a power of two is exact,
so the result does not depend on where that happens.  This lets growth
(order, exponential type) be estimated by regression on log M(r) over
geometric radii far beyond the float range; :func:`order_fit` and
:func:`type_fit_imaginary` pass their whole z-grid to the evaluated
function in one call.  Nothing is integrated numerically, so the transfer
matrix takes no tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hamiltonian import Hamiltonian, Piece, require_valid, rotation


@dataclass
class TransferMatrix:
    entries: np.ndarray  # 2x2 complex

    @property
    def det(self) -> complex:
        """1 by construction: every factor is 1 + z l J P_alpha with
        (J P_alpha)^2 = 0, or the exponential of a trace-free generator.
        The per-factor rounding is checked by the kernel property tests."""
        return 1.0 + 0.0j


def _cosh_sinhc(mu):
    """(c, sh, s) with cosh(mu) = e^s c and sinh(mu)/mu = e^s sh, elementwise.

    s = |Re mu| where that exceeds 20, else 0, so neither c nor sh overflows.
    """
    s = np.abs(mu.real)
    s = np.where(s > 20.0, s, 0.0)
    # e^(+-mu - s) - 1: their difference is 2 e^-s sinh(mu) without cancellation at small mu
    p, q = np.expm1(mu - s), np.expm1(-mu - s)
    c = 0.5 * (p + q) + 1.0
    sh = np.divide(0.5 * (p - q), mu, out=np.ones_like(mu), where=mu != 0.0)
    return c, sh, s


def expm(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, s) with exp(M) = e^s * E, for trace-free 2x2 matrices M.

    M has shape (..., 2, 2) and s has shape M.shape[:-2]; a single 2x2 M
    gives a 2x2 E and a float s.  M^2 = -det(M) * 1, so the series sums to
    cosh(mu) + (sinh(mu)/mu) M with mu^2 = -det M (both even in mu).  Where
    |Re mu| exceeds 20 the factor e^|Re mu| is returned as s instead of
    multiplied in, so no entry overflows; elsewhere s = 0.
    """
    M = np.asarray(M, dtype=complex)
    c, sh, s = _cosh_sinhc(np.sqrt(M[..., 0, 1] * M[..., 1, 0] - M[..., 0, 0] * M[..., 1, 1]))
    E = c[..., None, None] * np.eye(2) + sh[..., None, None] * M
    return E, (s if s.ndim else float(s))


def _frame_factor(piece: Piece, span: float, z: np.ndarray):
    """(c, A, B, s): the factor of `span` of the piece in its rotating frame,
    exp(span G) with G = [[0, -b], [a, 0]], is e^s [[c, B], [A, c]].

    c = cosh mu, A = (sinh mu / mu) span a and B = -(sinh mu / mu) span b with
    mu^2 = -span^2 a b, each of the shape of z.  A singular piece (b = 0) is
    the mu = 0 case: the shear c = 1, B = 0, A = z span lam1, s = 0.
    """
    if piece.singular:
        return 1.0, (span * piece.lam1) * z, 0.0, 0.0
    a, b = piece.rates(z)
    la, lb = span * a, span * b
    c, sh, s = _cosh_sinhc(np.sqrt(-lb * la))
    return c, sh * la, -sh * lb, s


def _end_angle(piece: Piece, span: float) -> float:
    """phi at the end of `span` of the piece (phi1 exactly for the whole piece)."""
    return piece.phi1 if span == piece.end - piece.offset else piece.phi(span)


# The running product is rescaled before the bound on log max |entry| would
# pass 2^512, halfway to the end of the double range, so entries stay normal.
_HEADROOM = 512.0 * math.log(2.0)
_LOG_SQRT2 = 0.5 * math.log(2.0)


def _rotate(V: np.ndarray, angle: float) -> np.ndarray:
    """R(angle) V for the rows V of shape (2, 2, n)."""
    return (rotation(angle) @ V.reshape(2, -1)).reshape(V.shape)


def _headroom(V: np.ndarray, exps: np.ndarray, bound: float, step: float) -> float:
    """The bound on log max |V entry| after a factor that adds at most `step`.

    When that would pass the headroom, each element of V is first scaled by
    2^-e, e the exponent of its largest entry, and e is added to exps; a
    power of two scales every normal number exactly, so this changes no digit
    of the result unless the data make partial products below the normal
    range (an angle of 1e-159, whose square is subnormal, say).
    """
    if bound + step > _HEADROOM:
        _, e = np.frexp(np.abs(V).max(axis=(0, 1)))
        V *= np.ldexp(1.0, -e)
        exps += e
        bound = 0.0
    return bound + step


def transfer_matrix_log(H: Hamiltonian, x: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(U, s) with T(x; z) = exp(s) * U and max |U entry| = 1.

    z is a complex scalar or array; U has shape z.shape + (2, 2) and s shape
    z.shape (a scalar z gives a 2x2 U and a float s).  The two rows of the
    running product are kept in the rotating frame of the current piece,
    where each factor is e^s (c 1 + (sinh mu / mu) G) and a singular factor
    the shear row1 += z l lam1 row0; between pieces the rows turn by the jump
    phi1(previous) - phi0(next), which is 0 along table and ramp chains, and
    R(phi1) of the last piece is applied once at the end.  A running upper
    bound on log max |entry| (log1p(max|z| l lam1) per shear, log(2 max|E|)
    per other factor, log sqrt 2 per turn) decides when an element must be
    scaled by a power of two, which is exact (see :func:`_headroom`), so
    where that happens does not change U or s.  Past X_max the singular tail
    contributes its factor; without a tail, x beyond X_max is a ValueError.
    """
    require_valid(H)
    z = np.asarray(z, dtype=complex)
    zs = z.reshape(-1)
    V = np.zeros((2, 2, zs.size), dtype=complex)  # V[i, j, k]: entry (i, j) at zs[k]
    V[0, 0] = V[1, 1] = 1.0
    exps = np.zeros(zs.size, dtype=int)  # T = R(angle) 2^exps e^logs V
    logs = np.zeros(zs.size)
    r = float(np.abs(zs).max(initial=0.0))
    bound = angle = 0.0
    for _, piece, span in H.walk(x):
        if piece.phi0 != angle:
            bound = _headroom(V, exps, bound, _LOG_SQRT2)
            V = _rotate(V, angle - piece.phi0)
        c, A, B, s = _frame_factor(piece, span, zs)
        if piece.singular:
            bound = _headroom(V, exps, bound, math.log1p(r * span * piece.lam1))
            V[1] += A * V[0]
        else:
            e_max = max(np.abs(c).max(), np.abs(A).max(), np.abs(B).max())
            bound = _headroom(V, exps, bound, math.log(2.0 * e_max))
            V0, V1 = V
            t = A * V0
            V0 *= c
            V0 += B * V1
            V1 *= c
            V1 += t
            logs += s
        angle = _end_angle(piece, span)
    if angle:
        V = _rotate(V, angle)
    m = np.abs(V).max(axis=(0, 1))
    f, e = np.frexp(m)
    s = (exps + e) * math.log(2.0) + np.log(f) + logs
    U = (V / m).transpose(2, 0, 1).reshape(z.shape + (2, 2))
    return U, (s.reshape(z.shape) if z.ndim else float(s[0]))


def transfer_matrix(H: Hamiltonian, x: float, z: complex) -> TransferMatrix:
    """T(x; z) = exp(s) * U from :func:`transfer_matrix_log` at a scalar z;
    raises OverflowError when exp(s) leaves the float range."""
    U, s = transfer_matrix_log(H, x, z)
    try:
        return TransferMatrix(entries=math.exp(s) * U)
    except OverflowError:
        raise OverflowError(f"|T({x}; {z})| = exp({s:.6g}); use transfer_matrix_log") from None


def log_max_entry(H: Hamiltonian, x: float, z, tol: float = 1e-10):
    """log of the largest |entry| of T(x; z), overflow safe; elementwise for
    an array z (a float for a scalar z).  This is the s of
    :func:`transfer_matrix_log`, whose U has largest |entry| 1.  tol is
    unused; it stays because the benchmark harness passes it positionally."""
    return transfer_matrix_log(H, x, z)[1]


# ---------------------------------------------------------------------------
# growth fits


@dataclass(slots=True)
class GrowthFit:
    radii: np.ndarray
    logmax: np.ndarray  # log M(r)
    order: float
    residual: float

    def table(self) -> list[tuple[float, float]]:
        return list(zip(self.radii.tolist(), self.logmax.tolist()))


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(slope, rms residual) of the least-squares line through (xs, ys)."""
    dx = xs - xs.sum() / xs.size
    dy = ys - ys.sum() / ys.size
    slope = float(dx @ dy / (dx @ dx))
    r = dy - slope * dx
    return slope, math.sqrt(r @ r / r.size)


@functools.lru_cache(maxsize=32)
def _fit_grid(lo: float, hi: float, n: int, n_phases: int) -> tuple[np.ndarray, np.ndarray]:
    """(radii, Z): n geometric radii from lo to hi, and Z[i, j] = radii[i]
    e^(2 pi i (j + 0.37) / n_phases), or i * radii for n_phases = 0.  Both
    are read-only and shared by every fit on that grid."""
    radii = np.geomspace(lo, hi, n)
    # phase offset keeps samples off the positive real axis, where zeros live
    phases = 2.0 * math.pi * (np.arange(n_phases) + 0.37) / n_phases
    Z = radii[:, None] * (np.cos(phases) + 1j * np.sin(phases))[None, :] if n_phases else 1j * radii
    radii.flags.writeable = Z.flags.writeable = False
    return radii, Z


def order_fit(
    evaluate: Callable[[np.ndarray], np.ndarray],
    r_min: float,
    r_max: float,
    n_radii: int = 12,
    n_phases: int = 16,
    log_abs: bool = False,
) -> GrowthFit:
    """Least-squares growth order of an entire function.

    M(r) is the max of |F| over sampled phases; the order estimate is the
    slope of log log+ M against log r over the upper half of the radii.
    ``evaluate`` is called once, with the whole grid: a complex ndarray of
    shape (n_radii, n_phases), row i on the circle |z| = radii[i].  It must
    return F elementwise in the same shape (wrap a scalar-only function in
    ``np.vectorize``); the grid, like the returned ``radii``, is read-only and
    shared by every fit on it.  When ``log_abs`` is set, ``evaluate`` must
    return log |F(z)| directly (overflow-safe path).
    """
    if r_max / r_min < 1e3:
        raise ValueError("need r_max / r_min >= 1e3 for a stable fit")
    if n_radii < 8:
        raise ValueError("need at least 8 radii")
    radii, Z = _fit_grid(r_min, r_max, n_radii, n_phases)
    v = evaluate(Z)
    vals = np.asarray(v, dtype=float) if log_abs else np.log(np.maximum(np.abs(v), 1e-300))
    logmax = vals.max(axis=1)
    upper = radii >= radii[n_radii // 2 - 1]
    mask = upper & (logmax > 1e-9)
    if mask.sum() < 3:
        # essentially no growth: treat as order 0
        return GrowthFit(radii, logmax, order=0.0, residual=0.0)
    xs = np.log(radii[mask])
    ys = np.log(logmax[mask])
    slope, resid = _line_fit(xs, ys)
    return GrowthFit(radii, logmax, order=slope, residual=resid)


def type_fit_imaginary(
    evaluate_log: Callable[[np.ndarray], np.ndarray],
    y_min: float,
    y_max: float,
    n_points: int = 12,
) -> float:
    """Exponential growth rate along the positive imaginary axis.

    Fits log M(iy) ~ tau * y over the upper half of a geometric y-grid;
    used to compare measured growth with the de Branges type.
    ``evaluate_log`` is called once, with the complex ndarray i*ys of shape
    (n_points,), read-only and shared, and must return log M elementwise
    (wrap a scalar-only function in ``np.vectorize``).
    """
    ys, Z = _fit_grid(y_min, y_max, n_points, 0)
    lm = np.asarray(evaluate_log(Z), dtype=float)
    upper = ys >= ys[n_points // 2 - 1]
    return _line_fit(ys[upper], lm[upper])[0]


# ---------------------------------------------------------------------------
# Hadamard products


def _auto_terms(z: complex, alpha: float) -> int:
    """Terms that keep the neglected second-order tail below 1e-12."""
    r = abs(z)
    n1 = (2.0 * max(r, 1.0)) ** (1.0 / alpha)
    n2 = (max(r, 1.0) ** 2 / (2.0 * (2.0 * alpha - 1.0) * 1e-12)) ** (1.0 / (2.0 * alpha - 1.0))
    return int(max(50, math.ceil(n1), math.ceil(n2)))


def _a_zeros(alpha: float, count: int) -> np.ndarray:
    return np.arange(1, count + 1, dtype=float) ** alpha


# B_2 .. B_12 / (2j)!: Euler-Maclaurin coefficients of the Hurwitz zeta
_EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1)
)
# below this a, the first omitted Euler-Maclaurin term exceeds 1e-16 relative
_EM_MIN_A = 30.0


def _hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k>=0} (k + a)^(-s) for s > 1, a > 0.

    Terms are summed directly until a >= 30; the rest is the Euler-Maclaurin
    sum a^(1-s)/(s-1) + a^(-s)/2 + sum_{j<=6} B_2j/(2j)! (s)_(2j-1) a^(1-s-2j),
    whose remainder is below 1e-16 relative there for s <= 8.
    """
    terms = []
    while a < _EM_MIN_A:
        terms.append(a**-s)
        a += 1.0
    terms += [a ** (1.0 - s) / (s - 1.0), 0.5 * a**-s]
    rising = s * a ** (-s - 1.0)  # (s)_(2j-1) a^(1-s-2j) at j = 1
    for j, c in enumerate(_EM_COEFFS, 1):
        terms.append(c * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (a * a)
    return math.fsum(terms)


def _hadamard(z, alpha: float, N: Optional[int], zeros_of, log: bool, scaled: bool = False):
    """scale * prod_{n<=N} (1 - z/z_n) * exp(-z * sum_{n>N} n^(-alpha)), or log |.|,
    with scale = z if ``scaled`` else 1, elementwise; a scalar z is the 0-d case.

    The tail beyond N contributes that exponential to first order; N (chosen
    per element if omitted) keeps the neglected second-order tail below 1e-12.
    Without ``log``, z within 1e-12 of a retained zero gives exactly 0.  Rows
    of equal N share one zeta and one slice of the zeros, and are reduced in
    blocks of at most 2^11 entries (or one row): each element has the bits,
    and no temporary outgrows the size, of a call at that z alone.
    """
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    zs = np.asarray(z).reshape(-1)
    vals = zs.tolist()
    terms = [_auto_terms(v, alpha) for v in vals] if N is None else [N] * len(vals)
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(terms):
        groups.setdefault(n, []).append(k)
    zeros = zeros_of(alpha, max(terms, default=0))
    zeta = {n: _hurwitz_zeta(alpha, n + 1.0) for n in groups}
    red = np.empty(zs.size, dtype=float if log else np.result_type(zs, float))
    near = np.empty(zs.size)  # min |z - z_n|, for the exact zeros
    with np.errstate(divide="ignore"):
        for n, ks in groups.items():
            rows = max(1, 2048 // n)
            for i in range(0, len(ks), rows):
                kb = ks[i : i + rows]
                w = zs[kb, None] / zeros[:n]
                np.subtract(1.0, w, out=w)
                if log:
                    a = np.abs(w)
                    red[kb] = np.log(a, out=a).sum(axis=1)
                else:
                    red[kb] = w.prod(axis=1)
                    near[kb] = np.abs(np.subtract(zs[kb, None], zeros[:n], out=w)).min(axis=1)
    out = []
    for v, n, r, d in zip(vals, terms, red.tolist(), near.tolist()):
        scale, tail = (v if scaled else 1.0), -v * zeta[n]
        if abs(scale) < 1e-300:
            out.append(-math.inf if log else complex(scale))
        elif log:
            out.append(math.log(abs(scale)) + r + tail.real)
        else:
            out.append(0j if d < 1e-12 * max(1.0, abs(v)) else scale * complex(r) * np.exp(tail))
    if np.ndim(z) == 0:
        return out[0]
    return np.array(out, dtype=float if log else complex).reshape(np.shape(z))


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
    return _hadamard(z, alpha, N, hadamard_c_zeros, log=False, scaled=True)


def hadamard_c_log(z: complex, alpha: float, N: Optional[int] = None) -> float:
    return _hadamard(z, alpha, N, hadamard_c_zeros, log=True, scaled=True)


# ---------------------------------------------------------------------------
# order bound report


@dataclass
class OrderBoundReport:
    fitted_order: float
    residual: float
    upper_ok: bool  # fitted order <= 0.55
    has_ramp_mass: bool


def order_bound_check(H: Hamiltonian) -> OrderBoundReport:
    """Growth-order report for a semibounded system's transfer matrix.

    Fits the order of T(X_max; z) over radii 1 to 1e8 (to 1e3 unless every
    segment is a singular interval) and checks it against the 1/2 ceiling;
    ``has_ramp_mass`` says whether a piece turns (phi0 != phi1), so that the
    profile carries absolutely continuous mass (a ramp), where the order
    reaches 1/2.
    """
    has_ramp = any(p.phi0 != p.phi1 for _, p, _ in H.walk(H.x_max))
    r_max = 1e8 if all(s.is_singular for s in H.segments) else 1e3
    fit = order_fit(
        lambda zz: log_max_entry(H, H.x_max, zz), 1.0, r_max, n_radii=10, n_phases=8, log_abs=True
    )
    return OrderBoundReport(fit.order, fit.residual, fit.order <= 0.55, has_ramp)

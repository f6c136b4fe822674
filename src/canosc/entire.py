"""Complex transfer matrices and entire-function growth estimation.

The transfer matrix T(x; z) solves U' = z J H(x) U with T(0; z) = 1 and has
unit determinant (the generator is trace free).  It is the product of one
closed-form factor per :class:`~canosc.hamiltonian.Piece`, R(phi1) exp(l G)
R(phi0)^T, where G = [[0, -b], [a, 0]] is the constant generator in the
rotating frame v = R(phi)^T u and exp(l G) = cosh(mu) + (sinh(mu)/mu) l G
(:func:`expm`).  On a singular interval, H = lam1 e e^T with e = (cos phi0,
sin phi0), the factor is the rank-one 1 + z l lam1 J e e^T.

The product collects the walked pieces once and computes the frame factors
of all non-singular pieces for the whole z array in one stacked pass (at
most _STACK (piece, z) entries per block).  It carries the two rows of
R(angle)^T T in a frame that turns only before a non-singular piece, by the
jump to its phi0 (none along table and ramp chains), as one real 2x2
product on the float view of the rows; R(angle) is applied once at the
end.  A singular piece needs no turn: seen from any frame it is a rank-one
update along its direction turned into that frame, so a chain of angle
segments never turns.  It is batched over z: z may be an array of any
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

from .hamiltonian import Hamiltonian, rotation


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
    Below |mu| = 1e-300, where 1/mu would overflow in the complex division,
    sinh(mu)/mu is 1.
    """
    s = np.abs(mu.real)
    s = np.where(s > 20.0, s, 0.0)
    # e^(+-mu - s) - 1: their difference is 2 e^-s sinh(mu) without cancellation at small mu
    p, q = np.expm1(mu - s), np.expm1(-mu - s)
    c = 0.5 * (p + q) + 1.0
    sh = np.divide(0.5 * (p - q), mu, out=np.ones_like(mu), where=np.abs(mu) > 1e-300)
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


# The running product is rescaled before the bound on log max |entry| would
# pass 2^512, halfway to the end of the double range, so entries stay normal.
_HEADROOM = 512.0 * math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT2 = math.log(_SQRT2)
#: most (piece, z) entries in one stack of frame factors
_STACK = 2**14


def transfer_matrix_log(H: Hamiltonian, x: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(U, s) with T(x; z) = exp(s) * U and max |U entry| = 1.

    z is a complex scalar or array; U has shape z.shape + (2, 2) and s shape
    z.shape (a scalar z gives a 2x2 U and a float s).  The two rows V of the
    running product are kept in a frame R(angle)^T T.  The frame factors
    e^s [[c, B], [A, c]] of all non-singular pieces are computed in one stack
    over (piece, z), at most _STACK entries per block of the walk; before
    each such piece the rows turn into its frame by the jump angle - phi0
    (none along table and ramp chains), one real 2x2 product on the float
    view of V.  A singular piece, H = lam1 e e^T, needs no turn: in any frame
    it is the rank-one update V += z l lam1 J e' e'^T V with e' = e turned
    back by the frame angle, so an all-angle chain never turns.  R(angle) is
    applied once at the end.  A running upper bound on log max |entry|
    (log1p(sqrt 2 max|z| l lam1) per singular piece, as |e'^T V| <= sqrt 2
    max |V|; log(2 max|c, A, B|) per other factor; log sqrt 2 per turn)
    decides when each element must first be scaled by 2^-e, e the exponent
    of its largest entry, with e counted.  A power of two scales every
    normal number exactly, so where that happens changes no digit of U or s
    (unless the data make partial products below the normal range: an angle
    of 1e-159, whose square is subnormal, say).  Past X_max the singular
    tail contributes its factor.  The walk raises ValueError for an invalid
    H, for x < 0 or NaN, and for x beyond X_max without a tail; a z that is
    not finite is a ValueError, and a finite z whose product leaves the
    float range an OverflowError.
    """
    z = np.asarray(z, dtype=complex)
    zs = z.reshape(-1)
    r = float(np.abs(zs).max(initial=0.0))
    if not math.isfinite(r):
        raise ValueError(f"z must be finite, not {r}")
    V = np.zeros((2, 2, zs.size), dtype=complex)  # V[i, j, k]: entry (i, j) at zs[k]
    V[0, 0] = V[1, 1] = 1.0
    exps = np.zeros(zs.size, dtype=int)  # T = R(angle) 2^exps e^logs V
    logs = np.zeros(zs.size)
    bound = angle = 0.0
    walk = [(p, span) for _, p, span in H.walk(x)]
    per = max(1, _STACK // max(1, zs.size))
    Vf = V.view(float).reshape(2, -1)  # the rows on their float view, for real 2x2 products
    for i in range(0, len(walk), per):
        block = [(p, l, p.singular) for p, l in walk[i : i + per]]
        rows = [(l, p.lam1, p.lam2, (p.phi0 - p.phi1) / (p.end - p.offset)) for p, l, sing in block if not sing]
        if rows:
            # (la, lb) = l (z lam + kappa); mu^2 = -la lb without forming the product, which overflows first
            ls, lam1, lam2, kappa = np.array(rows, dtype=complex).T[..., None]
            la, lb = ls * (zs * lam1 + kappa), ls * (zs * lam2 + kappa)
            c, sh, s = _cosh_sinhc(np.sqrt(-la) * np.sqrt(lb))
            F = np.array((c, -sh * lb, sh * la))  # c, B, A of each factor
            steps = np.log(2.0 * np.abs(F).max(axis=(0, 2))).tolist()
            logs += s.sum(axis=0)
        zl = [l * p.lam1 for p, l, sing in block if sing]
        if zl:
            ZL = np.multiply.outer(zl, zs)
        j = k = 0
        for p, l, sing in block:
            if sing:
                step = math.log1p(_SQRT2 * r * zl[j])
            else:
                turn = p.phi0 != angle
                step = steps[k] + _LOG_SQRT2 if turn else steps[k]
            if bound + step > _HEADROOM:
                _, e = np.frexp(np.abs(V).max(axis=(0, 1)))
                V *= np.ldexp(1.0, -e)
                exps += e
                bound = 0.0
            bound += step
            if sing:
                # V += z l lam1 J e' e'^T V with e' = (cd, sd), the piece's direction in the frame
                cd, sd = math.cos(p.phi0 - angle), math.sin(p.phi0 - angle)
                JeeT = np.array(((-sd * cd, -sd * sd), (cd * cd, sd * cd)))
                NV = np.dot(JeeT, Vf).view(complex).reshape(V.shape)
                NV *= ZL[j]
                V += NV
                j += 1
                continue
            if turn:
                Vf = np.dot(rotation(angle - p.phi0), Vf)
                V = Vf.view(complex).reshape(V.shape)
            X = V[::-1] * F[1:, k, None]
            V *= F[0, k]
            V += X
            k += 1
            angle = p.phi(l)
    if angle:
        V = np.dot(rotation(angle), Vf).view(complex).reshape(V.shape)
    m = np.abs(V).max(axis=(0, 1))
    f, e = np.frexp(m)
    s = (exps + e) * math.log(2.0) + np.log(f) + logs
    if not np.isfinite(s).all():
        raise OverflowError(f"T({x}; z) leaves the float range at |z| <= {r:g}")
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
    if not (0.0 < r_min and r_max < math.inf and r_max / r_min >= 1e3):
        raise ValueError(f"need finite radii 0 < r_min, r_max / r_min >= 1e3; got {r_min}, {r_max}")
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


#: points of the geometric y-grid of :func:`type_fit_imaginary`
TYPE_FIT_POINTS = 12


def type_fit_imaginary(
    evaluate_log: Callable[[np.ndarray], np.ndarray],
    y_min: float,
    y_max: float,
) -> float:
    """Exponential growth rate along the positive imaginary axis.

    Fits log M(iy) ~ tau * y over the upper half of a geometric y-grid of
    TYPE_FIT_POINTS points; used to compare measured growth with the de
    Branges type.  ``evaluate_log`` is called once, with the complex ndarray
    i*ys of shape (TYPE_FIT_POINTS,), read-only and shared, and must return
    log M elementwise (wrap a scalar-only function in ``np.vectorize``).
    """
    if not (0.0 < y_min < y_max < math.inf):
        raise ValueError(f"need finite 0 < y_min < y_max; got {y_min}, {y_max}")
    ys, Z = _fit_grid(y_min, y_max, TYPE_FIT_POINTS, 0)
    lm = np.asarray(evaluate_log(Z), dtype=float)
    upper = ys >= ys[TYPE_FIT_POINTS // 2 - 1]
    # ys scaled by a power of two near 1 / y_max keep dx @ dy in range, and
    # leave every bit of the slope as it is
    k = math.ldexp(1.0, -math.frexp(y_max)[1])
    return _line_fit(k * ys[upper], lm[upper])[0] * k


# ---------------------------------------------------------------------------
# Hadamard products


#: most terms a Hadamard product may take: 2^26 float64 zeros are 512 MiB
MAX_TERMS = 2**26
#: powers K of z/z_n the tail keeps: log(1 - w) = -sum_{k<=K} w^k/k + O(w^(K+1)).
#: Every K meets the 1e-12 of :func:`_auto_terms`; a larger K only takes fewer terms.
_TAIL_ORDER = 2


def _auto_terms(z: complex, alpha: float) -> int:
    """Terms N past which the order-K tail (K = _TAIL_ORDER) is within 1e-12.

    N >= (2|z|)^(1/alpha) keeps every zero near z among the exact factors,
    so |z/z_n| <= 1/2 beyond N (z_n >= n^alpha in both families), and the
    neglected sum_{n>N} sum_{k>K} (z/z_n)^k / k is at most
    2|z|^(K+1) N^(1-(K+1)alpha) / ((K+1)((K+1)alpha - 1)); N keeps that
    below 1e-12.  Both are taken in logs, so no |z| overflows them.
    """
    lr = math.log(max(abs(z), 1.0))
    p = (_TAIL_ORDER + 1) * alpha - 1.0
    n1 = (math.log(2.0) + lr) / alpha
    n2 = ((_TAIL_ORDER + 1) * lr + math.log(2e12 / ((_TAIL_ORDER + 1) * p))) / p
    return max(50, math.ceil(math.exp(max(n1, n2))))


def _a_zeros(alpha: float, count: int) -> np.ndarray:
    return np.arange(1, count + 1, dtype=float) ** alpha


# B_2 .. B_12 / (2j)!: Euler-Maclaurin coefficients of the Hurwitz zeta
_EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1)
)
# below this a, the first omitted Euler-Maclaurin term exceeds 1e-16 relative
_EM_MIN_A = 30.0


@functools.lru_cache(maxsize=32)
def _expansion(alpha: float, family: str) -> tuple[tuple[float, ...], ...]:
    """For k = 1..K (K = _TAIL_ORDER), P^(k)_0 .. P^(k)_19 with
    sum_{n>=a} z_n^-k = a^(1-k alpha) sum_m P^(k)_m a^-m for the zeros z_n of
    hadamard_a (family "a") or hadamard_c ("c"), once a >= max(30, 4 k alpha)
    (see :func:`_power_sum`); all K in one cache entry per (alpha, family).

    1/z_n = n^-alpha g(1/n), with g = 1 for family a and, for family c,
    g(u) = 2 / (1 + (1+u)^alpha) = sum_j g_j u^j (g (1 + h) = 1,
    h_j = binom(alpha, j) / 2).  With g^k = sum_j g^(k)_j u^j the sum is
    sum_j g^(k)_j zeta(k alpha + j, a).  Each zeta(s, a) is the
    Euler-Maclaurin sum a^(1-s)/(s-1) + a^-s/2 + sum_{i<=6} B_2i/(2i)!
    (s)_(2i-1) a^(1-s-2i), whose remainder, about 2 (s)_14 / (2 pi a)^14
    relative, is below 1e-16 there; collecting the powers of a gives P^(k)_m.
    """
    h, g, b = [], [1.0], 0.5
    for j in range(1, 20):
        b *= (alpha - j + 1) / j
        h.append(b)
        g.append(-math.fsum(hj * gi for hj, gi in zip(h, reversed(g))) if family == "c" else 0.0)
    out, gk = [], [1.0] + [0.0] * 19
    for k in range(1, _TAIL_ORDER + 1):
        gk = [math.fsum(gk[i] * g[m - i] for i in range(m + 1)) for m in range(20)]
        P = []
        for m, gm in enumerate(gk):
            s = k * alpha + m  # the s of zeta(s, a) whose leading term is a^(1-s)
            terms = [gm / (s - 1.0)] + ([0.5 * gk[m - 1]] if m else [])
            for i, c in enumerate(_EM_COEFFS[: m // 2], 1):  # (s - 2i)_(2i-1)
                terms.append(c * math.prod(s - 2 * i + t for t in range(2 * i - 1)) * gk[m - 2 * i])
            P.append(math.fsum(terms))
        out.append(tuple(P))
    return tuple(out)


def _power_sum(alpha: float, a: float, k: int, family: str) -> float:
    """S_k = sum_{n>=a} z_n^-k for the zeros z_n = n^alpha of hadamard_a
    (family "a", where it is zeta(k alpha, a) for any a > 0) or
    (n^alpha + (n+1)^alpha)/2 of hadamard_c ("c", a a positive integer).

    Below a = max(30, 4 k alpha) the terms (1/z_n)^k are summed directly
    (until the rest, at most a^(1-s) (1/a + 1/(s-1)) with s = k alpha, is
    below 1e-17 of the first).  From there on the 20 terms of
    :func:`_expansion` reach double precision: the series of g(u)^k
    converges for |u| < R = min(1, 2 sin(pi / (2 alpha))) in family c, its
    nearest pole or branch point, and R a >= 12 there (in family a,
    g^k = 1).  z_n^-k is taken as (1/z_n)^k, a^(1-k alpha) as
    a^(1-alpha) (a^-alpha)^(k-1), and family c's (a/(a+1))^alpha through
    log1p, so that neither k alpha nor a/(a+1) is rounded before a large
    power.
    """
    s = k * alpha
    terms = []
    while a < max(_EM_MIN_A, 4.0 * s):
        if family == "c":
            terms.append((2.0 * (a + 1.0) ** -alpha / (1.0 + math.exp(-alpha * math.log1p(1.0 / a)))) ** k)
        else:
            terms.append((a**-alpha) ** k)
        a += 1.0
        if a ** (1.0 - s) * (1.0 / a + 1.0 / (s - 1.0)) <= 1e-17 * terms[0]:
            return math.fsum(terms)
    acc = 0.0
    for p in reversed(_expansion(alpha, family)[k - 1]):
        acc = acc / a + p
    return math.fsum(terms + [a ** (1.0 - alpha) * (a**-alpha) ** (k - 1) * acc])


def _hadamard(z, alpha: float, N: Optional[int], log: bool, scaled: bool = False):
    """scale * prod_{n<=N} (1 - z/z_n) * exp(-sum_{k<=K} z^k S_k / k), or
    log |.|, over the zeros of hadamard_c with scale = z if ``scaled``, else
    of hadamard_a with scale = 1, and K = _TAIL_ORDER, elementwise; a scalar
    z is the 0-d case.

    S_k = sum_{n>N} z_n^-k is :func:`_power_sum` at a = N + 1, and the
    exponent is summed by Horner's rule in z: the terms of log(1 - z/z_n) =
    -sum_k (z/z_n)^k / k beyond N up to order K.  N (chosen per element by
    :func:`_auto_terms` if omitted, ValueError before any allocation past
    MAX_TERMS) keeps every zero near z exact and the neglected order-(K+1)
    remainder below 1e-12.  A z or alpha that is not finite, or alpha <= 2,
    is a ValueError.
    Without ``log``, z within 1e-12 of a retained zero gives exactly 0.  Rows
    of equal N share one set of tail sums and one slice of the zeros, and
    are reduced in blocks of at most 2^11 entries (or one row): each element
    has the bits, and no temporary outgrows the size, of a call at that z
    alone.
    """
    if not 2.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed 2, not {alpha}")
    zs = np.asarray(z).reshape(-1)
    if not np.isfinite(zs).all():
        raise ValueError("z must be finite")
    vals = zs.tolist()
    terms = [_auto_terms(v, alpha) for v in vals] if N is None else [N] * len(vals)
    n_max = max(terms, default=0)
    if n_max > MAX_TERMS:
        raise ValueError(f"|z| = {abs(vals[terms.index(n_max)]):g} needs {n_max} terms; at most {MAX_TERMS}")
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(terms):
        groups.setdefault(n, []).append(k)
    family = "c" if scaled else "a"
    zeros = (hadamard_c_zeros if scaled else _a_zeros)(alpha, n_max)
    # S_K / K, ..., S_1 / 1: the Horner coefficients of each N
    tail = {n: [_power_sum(alpha, n + 1.0, k, family) / k for k in range(_TAIL_ORDER, 0, -1)] for n in groups}
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
        t = 0.0
        for c in tail[n]:
            t = (t + c) * v
        scale = v if scaled else 1.0
        if abs(scale) < 1e-300:
            out.append(-math.inf if log else complex(scale))
        elif log:
            out.append(math.log(abs(scale)) + r - t.real)
        else:
            out.append(0j if d < 1e-12 * max(1.0, abs(v)) else scale * complex(r) * np.exp(-t))
    if np.ndim(z) == 0:
        return out[0]
    return np.array(out, dtype=float if log else complex).reshape(np.shape(z))


def hadamard_a(z: complex, alpha: float, N: Optional[int] = None) -> complex:
    """prod_{n>=1} (1 - z / n^alpha), partial product with tail correction."""
    return _hadamard(z, alpha, N, log=False)


def hadamard_a_log(z: complex, alpha: float, N: Optional[int] = None) -> float:
    """log |A(z)|, overflow safe."""
    return _hadamard(z, alpha, N, log=True)


def hadamard_c_zeros(alpha: float, count: int) -> np.ndarray:
    """Nonzero zeros (n^alpha + (n+1)^alpha) / 2 for n = 1..count."""
    n = np.arange(1, count + 1, dtype=float)
    return 0.5 * (n**alpha + (n + 1.0) ** alpha)


def hadamard_c(z: complex, alpha: float, N: Optional[int] = None) -> complex:
    """z * prod (1 - z / z_n) with z_n = (n^alpha + (n+1)^alpha)/2, C'(0) = 1.

    The zeros alternate with those of hadamard_a by construction.
    """
    return _hadamard(z, alpha, N, log=False, scaled=True)


def hadamard_c_log(z: complex, alpha: float, N: Optional[int] = None) -> float:
    return _hadamard(z, alpha, N, log=True, scaled=True)


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
    piece is a singular interval, :attr:`Piece.singular`) and checks it
    against the 1/2 ceiling; ``has_ramp_mass`` says whether a piece turns
    (phi0 != phi1), so that the profile carries absolutely continuous mass
    (a ramp), where the order reaches 1/2.
    """
    pieces = [p for _, p, _ in H.walk(H.x_max)]
    has_ramp = any(p.phi0 != p.phi1 for p in pieces)
    r_max = 1e8 if all(p.singular for p in pieces) else 1e3
    fit = order_fit(
        lambda zz: log_max_entry(H, H.x_max, zz), 1.0, r_max, n_radii=10, n_phases=8, log_abs=True
    )
    return OrderBoundReport(fit.order, fit.residual, fit.order <= 0.55, has_ramp)

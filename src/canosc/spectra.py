"""Eigenvalue counting and location, semiboundedness, essential spectrum.

Counting rests on the unwrapped Pruefer angle at the right endpoint: the
eigenvalues of the problem on [0, L] with boundary condition
u1(L) sin(beta) - u2(L) cos(beta) = 0 are exactly the parameters where
theta(L; lambda) hits beta modulo pi, and the angle is monotone in lambda.
Half-line results are obtained by truncation with a stabilization rule that
is reported honestly (stabilized / divergent / inconclusive).  A system with
no declared tail is not extrapolated from its truncations alone: where the
last half of its angle profile follows a power law phi_inf + c x^(-p) to
within the fit gate, that fitted tail model places the bottom of the
essential spectrum, and a half-line answer resting on it says so in its
witness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import entire, pruefer
from .hamiltonian import (
    HALF_PI,
    PI,
    RANK_ONE_TOL,
    Hamiltonian,
    NotRankOne,
    PhiProfile,
    SingularHalfLine,
    cong_mod_pi,
    extract_phi,
)


@dataclass(frozen=True)
class SpectralWindow:
    """Half-open spectral window [s, t)."""

    s: float
    t: float

    def __post_init__(self):
        if not self.s < self.t:
            raise ValueError("need s < t")


@dataclass
class CountResult:
    count: int
    certified: bool


def _level(theta: float, beta: float) -> float:
    """v = (theta - beta) / pi.  The count takes its ceiling, and locate puts
    a point left of level n's eigenvalue exactly when v <= n."""
    return (theta - beta) / PI


def _check_beta(beta: float) -> None:
    if not (0.0 <= beta < PI):
        raise ValueError("beta must lie in [0, pi)")


def _is_full_singular_pi_half(H: Hamiltonian, L: float) -> bool:
    """True when H = P_{pi/2} on (0, L) in any encoding: the walked pieces
    that start before L - 1e-12 (a sliver of the next is allowed) are at
    least one, all singular of angle pi/2 mod pi.  As theta(0) = 0 and
    theta' = t H_11 at theta = 0, that is when theta(L; .) is flat."""
    pi_half = (p.singular and cong_mod_pi(p.phi0, HALF_PI) for x, p, _ in H.walk(L) if x < L - 1e-12)
    return next(pi_half, False) and all(pi_half)


def count_bounded(
    H: Hamiltonian,
    L: float,
    beta: float,
    w: SpectralWindow,
    tol: float = 1e-9,
) -> CountResult:
    """Number of eigenvalues of the [0, L] problem in [s, t).

    Ceil formula on the Pruefer angle with theta(0) = 0.  The steps are
    closed forms, so the result is certified when each endpoint angle lies
    farther from the counting discontinuities beta + n pi than the rounding
    bound of its own walk (:func:`_angle_rounding`), the bound
    :func:`halfline_count` floors F against.  tol is unused; it stays because
    the benchmark harness passes it positionally and criterion 11 by keyword.
    """
    _check_beta(beta)
    tr_t = pruefer.integrate(H, w.t, 0.0, L)
    tr_s = pruefer.integrate(H, w.s, 0.0, L)
    count = math.ceil(_level(tr_t.theta_end(), beta)) - math.ceil(_level(tr_s.theta_end(), beta))
    certified = all(_dist_to_grid(tr.theta_end() - beta) > _angle_rounding(tr) for tr in (tr_t, tr_s))
    if (count, certified) != (0, True) and _is_full_singular_pi_half(H, L):
        count, certified = 0, True  # trivial case: all spectral projections vanish
    return CountResult(count=count, certified=certified)


def _dist_to_grid(v: float) -> float:
    """Distance of v to the nearest multiple of pi."""
    r = v / PI
    return abs(r - round(r)) * PI


def locate_eigenvalues(
    H: Hamiltonian,
    L: float,
    beta: float,
    w: SpectralWindow,
    tol: float = 1e-9,
) -> list[float]:
    """Eigenvalues in [s, t), by a bracketed secant on the monotone angle map.

    Every level is decided by the count's rule: with v = (theta(L; .) - beta)
    / pi (:func:`_level`), whose ceiling :func:`count_bounded` takes, level
    n's eigenvalue is where ceil(v) steps past n, and a point lies left of it
    exactly when v <= n.  So the levels are ceil(v(s)) <= n < ceil(v(t)),
    and a map flat across the window has none.  Each level starts from the
    tightest bracket among the points already evaluated, earlier levels'
    included, and takes the secant point of f = v - n, or the midpoint when
    that is not inside; a stale end's f is scaled by f_prev / (f_prev +
    f_new) (regula falsi, Pegasus variant).  A level stops in t, when f = 0
    at its left end or its bracket is narrower than 1e-14 max(1, |lo|,
    |hi|), and answers that left end.  tol is unused; it stays because the
    benchmark harness passes it positionally.  beta must lie in [0, pi), as
    for the count.
    """
    _check_beta(beta)

    def level(t):
        return _level(pruefer.theta_at(H, t, 0.0, L), beta)

    seen = [(w.s, level(w.s)), (w.t, level(w.t))]
    levels = range(math.ceil(seen[0][1]), math.ceil(seen[1][1]))
    if levels and _is_full_singular_pi_half(H, L):
        return []
    out = []
    for n in levels:
        # v is nondecreasing: f <= 0 left of the root, f > 0 right of it
        lo, f_lo = max((x, v - n) for x, v in seen if v <= n)
        hi, f_hi = min((x, v - n) for x, v in seen if v > n and x > lo)
        side = 0
        while f_lo < 0.0 and hi - lo >= 1e-14 * max(1.0, abs(lo), abs(hi)):
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            v = level(x)
            seen.append((x, v))
            f = v - n
            if f <= 0.0:
                if side < 0:
                    f_hi *= f_lo / (f_lo + f)
                lo, f_lo, side = x, f, -1
            else:
                if side > 0:
                    f_lo *= f_hi / (f_hi + f)
                hi, f_hi, side = x, f, 1
        out.append(lo)
    return out


@dataclass
class HalfLineCount:
    """Outcome of the truncation scheme for a half-line count.

    ``witness`` says what a ``divergent`` answer rests on: the divergence
    threshold F crossed, or the fitted tail model that puts the bottom of
    the essential spectrum inside the window.  An ``inconclusive`` answer
    forced by a tail model carries that model too.
    """

    status: str  # "stabilized" | "divergent" | "inconclusive"
    count: Optional[int]
    L_values: list[float] = field(default_factory=list)
    F_values: list[float] = field(default_factory=list)
    witness: Optional[dict] = None


#: rounding allowance of one closed-form Pruefer step, in ulp of max(|theta|, pi)
ANGLE_STEP_ULPS = 8
#: F above this along a truncation schedule is a divergent half-line count
DIVERGENCE_THRESHOLD = 50.0
#: slack of "phi(inf) = -pi/2", the same in classify and zero-eig: a heuristic,
#: which the declared tail model of ROADMAP item 2 replaces
PHI_INFINITY_TOL = 1e-12


def _angle_rounding(tr: pruefer.PrueferTrajectory) -> float:
    """Bound on the rounding of every angle of a trajectory: each sample is
    one closed-form step from the previous piece boundary, and the steps'
    errors are taken to add up along the walk.  theta' = t e^T H e has the
    sign of t, so the largest |theta| is at an end of the trajectory."""
    scale = max(PI, abs(tr.theta0), abs(tr.theta_end()))
    return ANGLE_STEP_ULPS * math.ulp(1.0) * len(tr.xs) * scale


def halfline_count(
    H: Hamiltonian,
    w: SpectralWindow,
    L_schedule,
    tol: float = 1e-9,
) -> HalfLineCount:
    """dim E(s, t) of the half-line problem via floor((theta_t - theta_s)/pi).

    The schedule must be nonempty, positive and finite, tail or not
    (ValueError).  With a singular tail attached the problem is exactly the
    bounded one with boundary condition gamma + pi/2, and the count is
    final.  Otherwise F(L) is evaluated along the schedule.  F above
    DIVERGENCE_THRESHOLD is divergent.  For t > 0 and no declared tail, a
    resolved tail model (:func:`implied_tail`) is consulted next: when its
    bounds on min sigma_ess satisfy s <= lower and upper < t the window
    holds essential spectrum and the answer is divergent; when they meet
    [s, t) in any other way it is inconclusive.  Both carry the model as
    witness, so such an answer rests on the fitted tail, not on the
    truncations.  Otherwise the floor must agree on the last three points to
    count as stabilized.

    F is floored against a rounding bound, not a fixed slack.  Each sampled
    angle is taken to be within ANGLE_STEP_ULPS * eps * max(|theta|, pi) per
    closed-form step of its exact value, the errors adding up along the
    walk, so F is within delta = (N_t M_t + N_s M_s) * ANGLE_STEP_ULPS * eps
    / pi of its exact value, where N is a trajectory's sample count and M
    its largest |theta| (at least pi), found at one of its ends.  The exact
    F is nonnegative, since theta(L; .) is nondecreasing, so F within delta
    of 0 counts 0.  F within delta of an integer k >= 1 at one of the last
    three points leaves the floor undecided: the answer is inconclusive
    with a ``rounding`` witness.

    tol only reaches :func:`count_bounded`, which does not use it; it stays
    because the benchmark harness passes it positionally.
    """
    schedule = [float(L) for L in L_schedule]
    if not (schedule and all(0.0 < L < math.inf for L in schedule)):  # before a NaN unorders the sort
        raise ValueError(f"L_schedule must be nonempty, positive and finite, not {schedule}")
    if H.tail is not None:
        res = count_bounded(H, H.x_max, _natural_beta(H.tail.gamma), w, tol)
        return HalfLineCount(
            status="stabilized",
            count=res.count,
            L_values=[H.x_max],
            F_values=[float(res.count)],
        )
    schedule.sort()
    L_max = schedule[-1]
    tr_t = pruefer.integrate(H, w.t, 0.0, L_max, x_eval=schedule)
    tr_s = pruefer.integrate(H, w.s, 0.0, L_max, x_eval=schedule)
    # one interp per trajectory: the values of PrueferTrajectory.value at each L
    th_t = np.interp(schedule, tr_t.xs, tr_t.thetas)
    th_s = np.interp(schedule, tr_s.xs, tr_s.thetas)
    F = ((th_t - th_s) / PI).tolist()
    if max(F) > DIVERGENCE_THRESHOLD:
        witness = {"rule": "threshold", "F_max": max(F), "threshold": DIVERGENCE_THRESHOLD}
        return HalfLineCount("divergent", None, schedule, F, witness)
    model = implied_tail(H) if w.t > 0.0 else None
    if model is not None:
        lower, upper = model.ess_bounds()
        witness = {"rule": "tail_model", **model.summary()}
        if w.s <= lower and upper < w.t:
            return HalfLineCount("divergent", None, schedule, F, witness)
        if lower < w.t and w.s <= upper:
            return HalfLineCount("inconclusive", None, schedule, F, witness)
    if len(F) < 3:
        return HalfLineCount("inconclusive", None, schedule, F)
    bound = (_angle_rounding(tr_t) + _angle_rounding(tr_s)) / PI
    for L, f in zip(schedule[-3:], F[-3:]):
        k = round(f)
        if k >= 1 and abs(f - k) <= bound:
            witness = {"rule": "rounding", "L": L, "F": f, "integer": k, "bound": bound}
            return HalfLineCount("inconclusive", None, schedule, F, witness)
    floors = [max(math.floor(f), 0) for f in F[-3:]]
    if floors[0] == floors[1] == floors[2]:
        return HalfLineCount("stabilized", floors[2], schedule, F)
    return HalfLineCount("inconclusive", None, schedule, F)


# ---------------------------------------------------------------------------
# semiboundedness classification


@dataclass
class Classification:
    kind: str  # "in_c_plus" | "neg_eigs_at_most" | "not_semibounded"
    phi: Optional[PhiProfile] = None
    n_bound: Optional[int] = None
    witness: Optional[str] = None


def classify_semibounded(H: Hamiltonian) -> Classification:
    """Nonnegative spectrum / at-most-N negative eigenvalues / neither.

    A system is in C+ iff its normalized angle profile stays above -pi/2;
    a limit in (-N*pi - pi/2, -(N-1)*pi - pi/2] allows at most N negative
    eigenvalues.  A segment of full rank rules out semiboundedness of this
    rank-one kind entirely.
    """
    try:
        phi = extract_phi(H)
    except NotRankOne as exc:
        return Classification(
            kind="not_semibounded",
            witness=f"segment {exc.segment_index} has det H = {exc.det:g} > {RANK_ONE_TOL:g}",
        )
    if phi.phi_infinity >= -HALF_PI - PHI_INFINITY_TOL:
        return Classification(kind="in_c_plus", phi=phi)
    n = math.ceil((-phi.phi_infinity - HALF_PI) / PI - 1e-12)
    return Classification(kind="neg_eigs_at_most", phi=phi, n_bound=n)


def classify_wholeline(phi_left: PhiProfile, phi_right: PhiProfile) -> bool:
    """Whole-line nonnegativity: total drop phi(-inf) - phi(inf) <= pi.

    ``phi_left`` describes the left half line in reflected coordinates (the
    profile of the system mirrored onto [0, infinity)), so its own drop
    equals phi(-inf) - phi(0-).  The junction jump is normalized into
    [0, pi) because each profile is only determined modulo pi.
    """
    joint = math.fmod(-phi_left.phi_start - phi_right.phi_start, PI)
    if joint < -1e-9:
        joint += PI
    total = phi_left.drop + phi_right.drop + max(joint, 0.0)
    return total <= PI + 1e-9


# ---------------------------------------------------------------------------
# m-function endpoints


def _neg_tan_extended(phi: float) -> float:
    """-tan(phi), with +-pi/2 mapped to the appropriate infinity."""
    if _dist_to_grid(phi - HALF_PI) < 1e-12:
        # tan pole: phi = pi/2 gives -infinity, phi = -pi/2 gives +infinity
        r = (phi - HALF_PI) / PI
        return -math.inf if round(r) % 2 == 0 else math.inf
    return -math.tan(phi)


def m_endpoints(phi: PhiProfile) -> tuple[float, float]:
    """(m(-infinity), m(0-)) = (-tan phi(0+), -tan phi(infinity))."""
    return _neg_tan_extended(phi.phi_start), _neg_tan_extended(phi.phi_infinity)


#: |adj(U) e_beta| must exceed the product's rounding this many times over
PULLBACK_MARGIN = 1e6


def m_halfline_real(H: Hamiltonian, minus_t: float) -> float:
    """m(minus_t) for minus_t < 0 via truncation at L = X_max with tail P_phi(L).

    The square-integrable direction of the tail, e_beta with beta = phi(L) +
    pi/2, is pulled back to x = 0 through T = e^s U (det T = 1, so
    T^-1 = e^s adj(U)); the result f1(0)/f2(0), an extended real, does not
    depend on e^s, so it stays finite where |T| leaves the float range.  f
    shrinks as |minus_t| grows; within PULLBACK_MARGIN of U's rounding (an
    ulp per factor) f1/f2 is noise, and that is a FloatingPointError.
    """
    if minus_t >= 0.0:
        raise ValueError("minus_t must be negative")
    phi = extract_phi(H)
    beta = _natural_beta(phi.pieces[-1].phi1)
    (a, b), (c, d) = entire.transfer_matrix_log(H, H.x_max, complex(minus_t))[0].real
    f1 = d * math.cos(beta) - b * math.sin(beta)
    f2 = a * math.sin(beta) - c * math.cos(beta)
    if max(abs(f1), abs(f2)) < PULLBACK_MARGIN * len(phi.pieces) * math.ulp(1.0):
        raise FloatingPointError(f"m({minus_t}): the pulled-back vector is within rounding of the transfer product")
    if f2 == 0.0:
        return math.inf
    return float(f1 / f2)


# ---------------------------------------------------------------------------
# essential spectrum


@dataclass
class EssBounds:
    A: float
    B: float
    lower: float
    upper: float
    tail_window: tuple[float, float]
    sigma_ess_empty: bool
    zero_in_ess: bool
    warnings: list[str] = field(default_factory=list)


#: samples of g on the tail window and on the growth-diagnosis window
ESS_SAMPLES = 1000
#: A at most this reports an empty essential spectrum
ESS_EMPTY_THRESHOLD = 1e-8


def ess_spectrum_bounds(phi: PhiProfile) -> EssBounds:
    """Bottom-of-essential-spectrum bounds from g(x) = x (phi(x) - phi(inf)).

    A and B are the sup and inf of g, clamped at 0, on ESS_SAMPLES points and
    the breakpoints of the tail window [X/2, X]; the bounds are 1/(4A) <=
    min sigma_ess <= min(1/A, 1/(4B)).  phi(inf) is the profile's
    ``phi_infinity``; for a system without a declared tail,
    :func:`tail_profile` supplies the fitted limit.  A <= ESS_EMPTY_THRESHOLD
    reports an empty essential spectrum; a sup still growing at the window
    end is flagged as divergent (0 in the essential spectrum).
    """
    x_lo, x_hi = 0.5 * phi.x_max, phi.x_max

    def g(xs):
        return np.maximum(xs * (phi.values(xs) - phi.phi_infinity), 0.0)

    breaks = [p.offset for p in phi.pieces if x_lo <= p.offset <= x_hi]
    # the grid first, so that gx[:ESS_SAMPLES] is g on the grid
    gx = g(np.concatenate((np.linspace(x_lo, x_hi, ESS_SAMPLES), breaks)))
    A, B = float(gx.max()), float(gx.min())
    warnings = []
    # growth diagnosis: compare the sup of g over [X/4, X/2] with [X/2, X];
    # a bounded limsup gives ratio ~1, g ~ x^p growth gives ratio 2^p
    sup1 = float(g(np.linspace(0.25 * phi.x_max, x_lo, ESS_SAMPLES)).max())
    sup2 = float(gx[:ESS_SAMPLES].max())
    trending = sup2 > 1.1 * sup1 + ESS_EMPTY_THRESHOLD
    diverging = sup2 > 1.3 * sup1 + ESS_EMPTY_THRESHOLD and sup2 > 1.0
    if trending:
        warnings.append(
            "g(x) = x*(phi - phi_inf) still trending upward at the window end; "
            "the asymptotic limsup/liminf may differ from the finite-window values"
        )
    empty = A <= ESS_EMPTY_THRESHOLD
    lower = math.inf if A == 0.0 else 1.0 / (4.0 * A)
    upper = math.inf if A == 0.0 else 1.0 / A
    if B > 0.0:
        upper = min(upper, 1.0 / (4.0 * B))
    return EssBounds(
        A=A,
        B=B,
        lower=lower,
        upper=upper,
        tail_window=(x_lo, x_hi),
        sigma_ess_empty=empty,
        zero_in_ess=diverging,
        warnings=warnings,
    )


#: a fitted tail model counts as resolved when its largest residual is at
#: most this share of the profile's drop over the fitted stretch
TAIL_FIT_GATE = 1e-6
#: fewest profile samples on [X/2, X] a three-parameter tail fit is made from
TAIL_FIT_MIN_SAMPLES = 10
#: search range of the tail exponent p
TAIL_P_RANGE = (1e-3, 1e2)


@dataclass(frozen=True)
class TailModel:
    """phi(x) ~ phi_inf + c x^(-p), fitted to the profile samples on [X/2, X].

    ``residual`` is the largest misfit relative to the drop of phi across
    the fitted stretch ``window``; ``c_err`` and ``p_err`` are the standard
    errors of c and p for samples that miss the model by the gate's share
    of that drop.
    """

    phi_inf: float
    c: float
    c_err: float
    p: float
    p_err: float
    residual: float
    window: tuple[float, float]

    @property
    def resolved(self) -> bool:
        return self.c > 0.0 and self.residual <= TAIL_FIT_GATE

    def ess_bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds on min sigma_ess under the model.

        g(x) = x (phi(x) - phi_inf) = c x^(1 - p).  p = 1 within p_err gives
        A = B = c, so min sigma_ess = 1/(4c), bracketed by c +- c_err; p > 1
        gives A = 0, an empty essential spectrum (bounds at infinity); p < 1
        gives g -> infinity, so 0 lies in the essential spectrum.
        """
        if abs(self.p - 1.0) <= self.p_err:
            c_hi, c_lo = self.c + self.c_err, self.c - self.c_err
            return 1.0 / (4.0 * c_hi), (1.0 / (4.0 * c_lo) if c_lo > 0.0 else math.inf)
        if self.p > 1.0:
            return math.inf, math.inf
        return 0.0, 0.0

    def summary(self) -> dict:
        lower, upper = self.ess_bounds()
        return {**asdict(self), "window": list(self.window), "lower": lower, "upper": upper}


def fit_tail(phi: PhiProfile) -> Optional[TailModel]:
    """Least-squares power-law model of the profile's last half, or None.

    None when [X/2, X] holds a plateau or a jump (phi is not strictly
    decreasing there), fewer than TAIL_FIT_MIN_SAMPLES breakpoints, or when
    the best exponent lies outside TAIL_P_RANGE.  For fixed p the model is
    linear in (phi_inf, c); p is found by repeated grid refinement in log p.
    """
    x_mid = 0.5 * phi.x_max
    last = [pc for pc in phi.pieces if pc.end > x_mid]
    if any(not pc.phi1 < pc.phi0 for pc in last):
        return None
    if any(abs(b.phi0 - a.phi1) > 1e-12 * max(1.0, abs(a.phi1)) for a, b in zip(last, last[1:])):
        return None
    xs = np.array([pc.offset for pc in last if pc.offset >= x_mid] + [phi.x_max])
    ys = np.array([pc.phi0 for pc in last if pc.offset >= x_mid] + [last[-1].phi1])
    if len(xs) < TAIL_FIT_MIN_SAMPLES:
        return None
    drop = ys[0] - ys[-1]
    y = (ys - ys[-1]) / drop
    lu = np.log(xs / xs[0])  # the basis (x/x0)^(-p) stays in (0, 1]

    def fit_at(ps):
        V = np.exp(-np.outer(ps, lu))
        dv = V - V.mean(axis=1, keepdims=True)
        b = dv @ (y - y.mean()) / np.einsum("ij,ij->i", dv, dv)
        a = y.mean() - b * V.mean(axis=1)
        r = a[:, None] + b[:, None] * V - y
        return np.einsum("ij,ij->i", r, r), a, b, V, r

    n_grid = 21
    q = np.linspace(math.log(TAIL_P_RANGE[0]), math.log(TAIL_P_RANGE[1]), n_grid)
    for k in range(10):
        i = int(np.argmin(fit_at(np.exp(q))[0]))
        if k == 0 and i in (0, n_grid - 1):
            return None
        q = np.linspace(q[max(i - 1, 0)], q[min(i + 1, n_grid - 1)], n_grid)
    p = math.exp(q[n_grid // 2])
    _, (a,), (b,), (V,), (r,) = fit_at(np.array([p]))
    with np.errstate(over="ignore"):
        c = float(drop * b * np.float64(xs[0]) ** p)
    # covariance of (a, b, p) at the gate's misfit; c varies as b x0^p
    J = np.column_stack([np.ones_like(V), V, -b * lu * V])
    try:
        cov = TAIL_FIT_GATE**2 * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), math.inf)
    dlog_c = np.array([0.0, 1.0 / b, math.log(xs[0])])
    return TailModel(
        phi_inf=float(ys[-1] + drop * a),
        c=c,
        c_err=abs(c) * math.sqrt(abs(dlog_c @ cov @ dlog_c)),
        p=p,
        p_err=math.sqrt(cov[2, 2]),
        residual=float(np.max(np.abs(r))),
        window=(float(xs[0]), float(xs[-1])),
    )


def implied_tail(H: Hamiltonian, phi: Optional[PhiProfile] = None) -> Optional[TailModel]:
    """Resolved tail model of a rank-one system with no declared tail.

    None when H declares a tail, is not rank one, or :func:`fit_tail` does
    not resolve the last half of its profile ``phi`` (extracted when not
    given).
    """
    if H.tail is not None:
        return None
    if phi is None:
        try:
            phi = extract_phi(H)
        except NotRankOne:
            return None
    model = fit_tail(phi)
    return model if model is not None and model.resolved else None


def tail_profile(H: Hamiltonian) -> tuple[PhiProfile, Optional[TailModel]]:
    """extract_phi(H) with phi_infinity from the resolved tail model, if any.

    A declared tail, or an unresolved profile, keeps extract_phi's limit
    (the tail angle, or the last sample) and comes with model None.
    """
    phi = extract_phi(H)
    model = implied_tail(H, phi)
    if model is not None:
        phi = replace(phi, phi_infinity=min(model.phi_inf, phi.pieces[-1].phi1))
    return phi, model


@dataclass
class ZeroEigenvalueCheck:
    is_eigenvalue: bool
    body_integral: float
    tail_converges: bool


def zero_eigenvalue_check(phi: PhiProfile, tail: Optional[SingularHalfLine] = None) -> ZeroEigenvalueCheck:
    """Is 0 an eigenvalue: does the z = 0 solution e_0 have finite H-norm,
    the integral of cos^2(phi)?

    The body integral is exact per linear piece.  On a declared singular
    tail P_gamma (``tail``, as in ``Hamiltonian.tail``) the integrand is
    cos^2(gamma), so the tail converges iff gamma = pi/2 mod pi, where it
    adds 0.  Without one, phi(inf) must be -pi/2 and the tail is judged by
    the decay rate of phi + pi/2 over the last stretch of the profile
    (power-law fit; faster decay than x^(-1/2) converges).
    """
    total = sum(p.int_cos2() for p in phi.pieces)
    if tail is not None:
        converges = cong_mod_pi(tail.gamma, HALF_PI)
        return ZeroEigenvalueCheck(converges, total if converges else math.inf, converges)
    if abs(phi.phi_infinity + HALF_PI) > PHI_INFINITY_TOL:
        return ZeroEigenvalueCheck(False, math.inf, False)
    # decay of g = phi + pi/2 between the window midpoint and the end
    x1 = phi.x_max
    x0 = 0.5 * x1
    g1 = phi.value(0.999 * x1) + HALF_PI
    g0 = phi.value(x0) + HALF_PI
    if g1 <= 1e-12:
        return ZeroEigenvalueCheck(True, total, True)
    if g0 <= g1:
        return ZeroEigenvalueCheck(False, total, False)
    p = math.log(g1 / g0) / math.log(x1 / x0)
    converges = p < -0.5 - 1e-3
    return ZeroEigenvalueCheck(converges, total, converges)


def _natural_beta(angle: float) -> float:
    """(angle + pi/2) mod pi in [0, pi): the boundary condition that a
    singular tail P_angle imposes at its start."""
    beta = math.fmod(angle + HALF_PI, PI)
    if beta < 0.0:
        beta += PI
    return beta


def negative_count_at_truncation(
    H: Hamiltonian,
    L: float,
    T_floor: float = 1e4,
    tol: float = 1e-9,
) -> int:
    """Number of negative eigenvalues of the [0, L] problem with the natural
    tail boundary condition.  tol only reaches :func:`count_bounded`, which
    does not use it; it stays because the benchmark harness passes it."""
    beta = _natural_beta(extract_phi(H).value(L))
    w = SpectralWindow(-T_floor, 0.0)
    return count_bounded(H, L, beta, w, tol).count

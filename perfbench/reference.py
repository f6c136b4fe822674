"""Independent reference maths for the benchmark's committed answers.

Nothing here calls canosc's propagators.  Systems are the JSON documents the
CLI reads; every segment factor is evaluated in mpmath at 30 digits:

* a singular interval (constant angle a) by its nilpotent factor
  1 + z l J P_a;
* a ramp from phi0 to phi1 by the constant-coefficient closed form
  R(phi1) expm(l (z J P_0 + kappa J)) R(phi0)^T with kappa = (phi0 - phi1)/l,
  which follows from u = R(phi(x)) v because J commutes with R;
* a constant matrix by expm(z l J H);
* a table as the chain of ramps between its samples.

Pruefer angles are tracked through transfer factors of pieces short enough
(|t| l <= 1/2) that the angle moves by less than pi/2 on each, so the
unwrapped branch is recovered exactly from the direction of u.

Schroedinger solutions on a sampled potential use the potential the program
sees, the piecewise-linear interpolant of the samples: on each grid cell the
equation y'' = (V - E0) y is an Airy equation (or a constant-coefficient one
on flat cells), solved in closed form with mpmath Airy functions.

Where a program output is a defined statistic of computed values (a growth
fit, a sampled supremum, a quadrature rule), the same statistic is applied to
the reference values here, so the comparison isolates the computed inputs.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

PI = mp.pi
HALF_PI = mp.pi / 2
J = mp.matrix([[0, -1], [1, 0]])
EYE = mp.eye(2)


def rot(a):
    c, s = mp.cos(a), mp.sin(a)
    return mp.matrix([[c, -s], [s, c]])


def proj(a):
    c, s = mp.cos(a), mp.sin(a)
    return mp.matrix([[c * c, c * s], [c * s, s * s]])


# ---------------------------------------------------------------------------
# systems as lists of pieces


def _doc_pieces(doc):
    """[(length, kind)] with kind ('angle', a) | ('ramp', p0, p1) | ('matrix', H)."""
    out = []
    for seg in doc["segments"]:
        k = seg["kind"]
        if k == "angle":
            out.append((mp.mpf(seg["length"]), ("angle", mp.mpf(seg["alpha"]))))
        elif k == "ramp":
            out.append(
                (mp.mpf(seg["length"]), ("ramp", mp.mpf(seg["phi_start"]), mp.mpf(seg["phi_end"])))
            )
        elif k == "matrix":
            H = mp.matrix([[seg["h11"], seg["h12"]], [seg["h12"], seg["h22"]]])
            out.append((mp.mpf(seg["length"]), ("matrix", H)))
        elif k == "table":
            pts = seg["points"]
            for (o0, p0), (o1, p1) in zip(pts, pts[1:]):
                l = mp.mpf(o1) - mp.mpf(o0)
                if p0 == p1:
                    out.append((l, ("angle", mp.mpf(p0))))
                else:
                    out.append((l, ("ramp", mp.mpf(p0), mp.mpf(p1))))
        else:
            raise ValueError(f"unknown kind {k!r}")
    return out


def x_max(doc):
    return mp.fsum(mp.mpf(s["length"]) for s in doc["segments"])


def _head(piece, l):
    """The first l of a piece."""
    length, kind = piece
    if kind[0] == "ramp":
        _, p0, p1 = kind
        return l, ("ramp", p0, p0 + (p1 - p0) * l / length)
    return l, kind


def _tail_part(piece, l):
    """The piece without its first l."""
    length, kind = piece
    if kind[0] == "ramp":
        _, p0, p1 = kind
        return length - l, ("ramp", p0 + (p1 - p0) * l / length, p1)
    return length - l, kind


def pieces_to(doc, L, cuts=()):
    """Pieces covering [0, L], split at every cut point, tail appended past X_max."""
    L = mp.mpf(L)
    src = _doc_pieces(doc)
    xm = x_max(doc)
    if doc.get("tail") is None and L - xm <= mp.mpf(1e-12) * max(1, xm):
        L = min(L, xm)  # a float sum of the lengths may exceed the exact one
    if L > xm:
        if doc.get("tail") is None:
            raise ValueError("L beyond X_max and no tail")
        src.append((L - xm, ("angle", mp.mpf(doc["tail"]["gamma"]))))
    cuts = sorted(mp.mpf(c) for c in cuts if 0 < c < L)
    out = []
    x = mp.mpf(0)
    for piece in src:
        if x >= L:
            break
        if x + piece[0] > L:
            piece = _head(piece, L - x)
        for c in [c for c in cuts if x < c < x + piece[0]]:
            out.append(_head(piece, c - x))
            piece = _tail_part(piece, c - x)
            x = c
        out.append(piece)
        x += piece[0]
    return out


def factor(piece, z):
    l, kind = piece
    if kind[0] == "angle":
        return EYE + z * l * (J * proj(kind[1]))
    if kind[0] == "ramp":
        _, p0, p1 = kind
        kappa = (p0 - p1) / l
        gen = l * (z * (J * proj(0)) + kappa * J)
        return rot(p1) * mp.expm(gen) * rot(p0).T
    return mp.expm(z * l * (J * kind[1]))


def transfer(doc, L, z):
    T = EYE
    for piece in pieces_to(doc, L):
        T = factor(piece, z) * T
    return T


def transfer_condition(doc, L, z):
    """max over x of |T(x -> L)| / |T(0 -> L)| in the max-entry norm: local
    errors committed at x reach T(L) multiplied by T(x -> L)."""
    z = mp.mpc(z)
    steps = [EYE]
    for piece in pieces_to(doc, L):
        for sub in _subdivide(piece, abs(z)):
            steps.append(factor(sub, z) * steps[-1])
    T = steps[-1]
    size = lambda M: max(abs(M[i, j]) for i in range(2) for j in range(2))
    return max(size(T * mp.inverse(P)) for P in steps) / size(T)


def log_max_entry(doc, L, z):
    T = transfer(doc, L, z)
    return mp.log(max(abs(T[i, j]) for i in range(2) for j in range(2)))


# ---------------------------------------------------------------------------
# Pruefer angles


def _subdivide(piece, t):
    n = int(mp.ceil(abs(t) * piece[0] / mp.mpf("0.5"))) if t != 0 else 1
    n = max(n, 1)
    out = []
    rest = piece
    step = piece[0] / n
    for _ in range(n - 1):
        out.append(_head(rest, step))
        rest = _tail_part(rest, step)
    out.append(rest)
    return out


def trajectory(doc, t, theta0, L, xs=()):
    """(thetas, conds): unwrapped theta(x; t) at each x in xs (sorted, in
    (0, L)) and at L, with the condition of each value.

    The condition is max over y <= x of |u(y)|^2 / |u(x)|^2, the largest
    derivative of theta(x) with respect to theta(y) (the angle map of a
    unimodular T has derivative 1/|T e|^2).  An integrator that keeps its
    accumulated local error below tol is within tol * condition of theta(x).
    """
    t = mp.mpf(t)
    theta = mp.mpf(theta0)
    u = mp.matrix([mp.cos(theta), mp.sin(theta)])
    peak = mp.mpf(1)
    marks = sorted(mp.mpf(x) for x in xs if 0 < x < L)
    thetas, conds = [], []
    x = mp.mpf(0)
    for piece in pieces_to(doc, L, cuts=marks):
        for sub in _subdivide(piece, t):
            u = factor(sub, t) * u
            peak = max(peak, mp.norm(u) ** 2)
            ang = mp.atan2(u[1], u[0])
            d = ang - theta + HALF_PI
            d = d - PI * mp.floor(d / PI) - HALF_PI  # representative in [-pi/2, pi/2)
            theta += d
        x += piece[0]
        if marks and abs(x - marks[0]) < mp.mpf(10) ** -25:
            thetas.append(theta)
            conds.append(peak / mp.norm(u) ** 2)
            marks.pop(0)
    thetas.append(theta)
    conds.append(peak / mp.norm(u) ** 2)
    return thetas, conds


def theta_end(doc, t, theta0, L):
    return trajectory(doc, t, theta0, L)[0][-1]


def _levels(theta, beta):
    return int(mp.ceil((theta - beta) / PI))


def dist_to_grid(v):
    r = v / PI
    return abs(r - mp.nint(r)) * PI


def window_count(doc, L, beta, s, t):
    """(count, margin): ceil-formula count in [s, t) and the smaller angle
    distance of the two endpoint angles to the counting grid beta + pi Z."""
    th_s = theta_end(doc, s, 0, L)
    th_t = theta_end(doc, t, 0, L)
    n = _levels(th_t, beta) - _levels(th_s, beta)
    margin = min(dist_to_grid(th_s - beta), dist_to_grid(th_t - beta))
    return n, margin


def eigenvalues(doc, L, beta, s, t):
    """[(lambda, dtheta/dlambda, condition of theta(L; lambda))] for the
    eigenvalues in [s, t)."""
    beta = mp.mpf(beta)
    th_s = theta_end(doc, s, 0, L)
    th_t = theta_end(doc, t, 0, L)
    out = []
    for n in range(_levels(th_s, beta), _levels(th_t, beta)):
        target = beta + n * PI
        f = lambda lam: theta_end(doc, lam, 0, L) - target
        lam = mp.findroot(f, (mp.mpf(s), mp.mpf(t)), solver="anderson", tol=mp.mpf(10) ** -40)
        h = mp.mpf(10) ** -8
        slope = (f(lam + h) - f(lam - h)) / (2 * h)
        out.append((lam, slope, trajectory(doc, lam, 0, L)[1][-1]))
    return out


# ---------------------------------------------------------------------------
# angle profiles of piecewise-constant-angle systems


def _align_below(value, ceiling):
    """value shifted by a multiple of pi into (ceiling - pi, ceiling]."""
    return value - PI * mp.ceil((value - ceiling) / PI)


def plateau_profile(doc):
    """(phis, phi_inf): the normalized nonincreasing branch, phi(0+) in (-pi/2, pi/2]."""
    phis = []
    for seg in doc["segments"]:
        a = mp.mpf(seg["alpha"])
        phis.append(a if not phis else _align_below(a, phis[-1]))
    tail = doc.get("tail")
    phi_inf = _align_below(mp.mpf(tail["gamma"]), phis[-1]) if tail else phis[-1]
    n = mp.ceil((phis[0] - HALF_PI) / PI)
    return [p - n * PI for p in phis], phi_inf - n * PI


# ---------------------------------------------------------------------------
# growth-fit statistics (the estimators canosc documents, on reference values)


def fit_grid(r_min, r_max, n_radii, n_phases):
    radii = np.geomspace(r_min, r_max, n_radii)
    phases = 2.0 * math.pi * (np.arange(n_phases) + 0.37) / n_phases
    zs = [[r * complex(math.cos(ph), math.sin(ph)) for ph in phases] for r in radii]
    return radii, zs


def order_statistic(radii, logmax):
    """Slope of log log M against log r over the upper half of the radii."""
    n = len(radii)
    upper = radii >= radii[n // 2 - 1]
    mask = upper & (logmax > 1e-9)
    if mask.sum() < 3:
        return 0.0, 0.0
    xs = np.log(radii[mask])
    ys = np.log(logmax[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def order_fit(log_abs, r_min, r_max, n_radii, n_phases):
    radii, zs = fit_grid(r_min, r_max, n_radii, n_phases)
    logmax = np.array([max(float(log_abs(z)) for z in row) for row in zs])
    order, resid = order_statistic(radii, logmax)
    return logmax, order, resid


def type_rate(log_abs, y_min, y_max, n_points=12):
    ys = np.geomspace(y_min, y_max, n_points)
    lm = np.array([float(log_abs(complex(0.0, y))) for y in ys])
    upper = ys >= ys[n_points // 2 - 1]
    slope, _ = np.polyfit(ys[upper], lm[upper], 1)
    return float(slope)


def mpc(z):
    return mp.mpc(z.real, z.imag)


# ---------------------------------------------------------------------------
# Hadamard products


def hadamard_log(family, alpha, z, terms, tails):
    """log|F(z)| from `terms` exact factors and a second-order tail.

    tails = (S1, S2) with S_k = sum over the dropped zeros of zero^-k.
    """
    n = np.arange(1, terms + 1, dtype=float)
    zeros = n**alpha if family == "a" else 0.5 * (n**alpha + (n + 1.0) ** alpha)
    s = math.fsum(np.log(np.abs(1.0 - z / zeros)))
    s1, s2 = tails
    zz = mpc(z)
    tail = float(mp.re(-zz * s1 - zz * zz * s2 / 2))
    return s + tail + (math.log(abs(z)) if family == "c" else 0.0)


def hadamard_tails(family, alpha, terms):
    alpha = mp.mpf(alpha)
    if family == "a":
        return mp.zeta(alpha, terms + 1), mp.zeta(2 * alpha, terms + 1)
    zero = lambda k: (k**alpha + (k + 1) ** alpha) / 2
    return (
        mp.nsum(lambda k: 1 / zero(k), [terms + 1, mp.inf]),
        mp.nsum(lambda k: 1 / zero(k) ** 2, [terms + 1, mp.inf]),
    )


# ---------------------------------------------------------------------------
# Schroedinger solutions on a piecewise-linear potential


def _cell_map(x0, x1, v0, v1, e0):
    """Matrix taking (y, y')(x0) to (y, y')(x1) for y'' = (V - E0) y, V linear."""
    x0, x1, v0, v1, e0 = (mp.mpf(v) for v in (x0, x1, v0, v1, e0))
    h = x1 - x0
    b = (v1 - v0) / h
    if b == 0:
        w = v0 - e0
        k = mp.sqrt(w)
        return mp.matrix([[mp.cosh(k * h), mp.sinh(k * h) / k], [k * mp.sinh(k * h), mp.cosh(k * h)]])
    # V - E0 = b (x - xr): y = Ai(a (x - xr)), Bi(a (x - xr)) with a^3 = b
    a = mp.cbrt(b) if b > 0 else -mp.cbrt(-b)
    xr = x0 + (e0 - v0) / b

    def basis(x):
        xi = a * (x - xr)
        return mp.matrix(
            [
                [mp.airyai(xi), mp.airybi(xi)],
                [a * mp.airyai(xi, derivative=1), a * mp.airybi(xi, derivative=1)],
            ]
        )

    return basis(x1) * mp.inverse(basis(x0))


def schrodinger_pair(grid, values, e0, x_end=None):
    """(xs, p, p', q, q') at the grid points <= x_end, u(0) = (1, 0) and (0, 1)."""
    x_end = grid[-1] if x_end is None else x_end
    Y = mp.eye(2)  # columns: (p, p'), (q, q')
    rows = [(grid[0], Y)]
    for i in range(len(grid) - 1):
        if grid[i + 1] > x_end:
            break
        Y = _cell_map(grid[i], grid[i + 1], values[i], values[i + 1], e0) * Y
        rows.append((grid[i + 1], Y))
    xs = [r[0] for r in rows]
    p = [r[1][0, 0] for r in rows]
    dp = [r[1][1, 0] for r in rows]
    q = [r[1][0, 1] for r in rows]
    dq = [r[1][1, 1] for r in rows]
    return xs, p, dp, q, dq


def import_table(grid, values, e0, monotone_slack=1e-8):
    """(X, phi, swapped) of the canonical image of -y'' + V y at E0."""
    xs, p, dp, q, dq = schrodinger_pair(grid, values, e0)

    def unwrapped(a, b):
        raw = [mp.atan2(bb, aa) for aa, bb in zip(a, b)]
        out = [raw[0]]
        for r in raw[1:]:
            d = r - out[-1] + HALF_PI
            out.append(out[-1] + d - PI * mp.floor(d / PI) - HALF_PI)
        return out

    phi = unwrapped(p, q)
    d = [b - a for a, b in zip(phi, phi[1:])]
    swapped = any(v > monotone_slack for v in d) and not any(v < -monotone_slack for v in d)
    if swapped:
        phi = unwrapped(q, p)
    w = [a * a + b * b for a, b in zip(p, q)]
    X = [mp.mpf(0)]
    for i in range(1, len(xs)):
        X.append(X[-1] + (w[i] + w[i - 1]) / 2 * (mp.mpf(xs[i]) - mp.mpf(xs[i - 1])))
    return X, phi, swapped


def molchanov_g(grid, values, e0, x_grid, pad_factor=1.5):
    """G(x) = int_0^x q^2 * int_x^inf q^-2 by molchanov_new's quadrature rule
    (trapezoid on the grid, remainder 1/(2 q q') at the padded end), applied to
    the exact q."""
    x_end = pad_factor * float(x_grid[-1])
    xs, p, dp, q, dq = schrodinger_pair(grid, values, e0, x_end=x_end)
    xs = [mp.mpf(x) for x in xs]
    i1 = [mp.mpf(0)]
    for k in range(1, len(xs)):
        i1.append(i1[-1] + (q[k] ** 2 + q[k - 1] ** 2) / 2 * (xs[k] - xs[k - 1]))
    inv2 = [1 / v**2 if v != 0 else mp.mpf(0) for v in q]  # as molchanov_new does
    rev = [mp.mpf(0)] * len(xs)
    for k in range(len(xs) - 2, -1, -1):
        rev[k] = rev[k + 1] + (inv2[k] + inv2[k + 1]) / 2 * (xs[k + 1] - xs[k])
    i2 = [r + 1 / (2 * q[-1] * dq[-1]) for r in rev]
    fx = [float(x) for x in xs]
    I1 = np.interp(x_grid, fx, [float(v) for v in i1])
    I2 = np.interp(x_grid, fx, [float(v) for v in i2])
    return I1 * I2

"""Generate the benchmark's query pools and their independent references.

    python3 perfbench/gen_refs.py [workload ...]

writes perfbench/data/<workload>.json.  Each pool holds seeded inputs
(system documents, sampled potentials), the queries on them, and for every
query the expected answer with a tolerance tied to the query's requested
`tol`.  The answers come from perfbench/reference.py (mpmath) and, for the
singular counts, from canosc.oracle.count_by_sign_changes, which is kept
independent of the main path.  Nothing here is timed; the benchmark run only
loads the files.

Inputs are redrawn until the reference shows a clear answer: window
endpoints at least 1e-3 in angle from the counting grid, half-line ratios
F at least 1e-3 from an integer.  That choice uses the reference only.
The pool is then screened with the program in src/: every candidate is run
once, the ones it fails move to known_failures, and each type's quota is
filled from the SPARE candidates drawn beyond it.  So the scheduled queries
are the ones the program passed when the pool was made; run.py reruns the
known failures on every run and reports them apart.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import reference as ref  # noqa: E402
from canosc import oracle  # noqa: E402
from canosc.hamiltonian import ConstantAngle, Hamiltonian, Segment, SingularHalfLine  # noqa: E402

PI = math.pi
HALF_PI = math.pi / 2
MARGIN = 1e-3
#: instances generated beyond the pool size, to replace known failures
SPARE = 3
MASTER_SEED = {"oscillation-exact": 1811_07067, "oscillation-rk": 1811_07068, "growth": 1811_07069}


def f(v) -> float:
    return float(v)


def wrap(a: float) -> float:
    """a reduced into (-pi/2, pi/2]."""
    return a - PI * math.ceil((a - HALF_PI) / PI)


def num(path, value, atol, **extra):
    d = {"path": path, "value": value, "atol": atol}
    d.update(extra)
    return d


def exact(path, value, **extra):
    d = {"path": path, "value": value}
    d.update(extra)
    return d


def scaled(v, rtol):
    return rtol * (1.0 + abs(v))


INCONCLUSIVE = {"skip_if": ["status", "inconclusive"]}


# ---------------------------------------------------------------------------
# oscillation-exact: CLI queries on piecewise-constant-angle systems


def exact_system(rng):
    n = int(rng.integers(3, 9))
    lengths = rng.uniform(0.2, 1.5, n)
    phi = [float(rng.uniform(-1.2, 1.5))]
    for _ in range(n - 1):
        phi.append(phi[-1] - float(rng.uniform(0.05, 1.0)))
    doc = {
        "segments": [
            {"length": float(l), "kind": "angle", "alpha": wrap(p)} for l, p in zip(lengths, phi)
        ]
    }
    if rng.uniform() < 0.6:
        if phi[-1] > -HALF_PI + 0.05 and rng.uniform() < 0.5:
            gamma = -HALF_PI
        else:
            gamma = wrap(phi[-1] - float(rng.uniform(0.05, 0.8)))
        doc["tail"] = {"type": "singular", "gamma": gamma}
    return doc


def exact_hamiltonian(doc):
    segs = tuple(Segment(s["length"], ConstantAngle(s["alpha"])) for s in doc["segments"])
    tail = doc.get("tail")
    return Hamiltonian(segs, tail=SingularHalfLine(tail["gamma"]) if tail else None)


def float_x_max(doc):
    """X_max as canosc sums it: the lengths added left to right in floats."""
    x = 0.0
    for s in doc["segments"]:
        x += s["length"]
    return x


def pick_window(rng, doc, L, beta, lo, hi, width, want=None):
    """A window [s, t) whose endpoint angles clear the counting grid."""
    while True:
        c = float(rng.uniform(lo, hi))
        w = float(rng.uniform(*width))
        s, t = c - w / 2, c + w / 2
        n, margin = ref.window_count(doc, L, beta, s, t)
        if margin < MARGIN:
            continue
        if want is not None and not (want[0] <= n <= want[1]):
            continue
        return s, t, n


def theta_expect(path, doc, t, th0, L, tol):
    (theta,), (cond,) = ref.trajectory(doc, t, th0, L)
    return num(path, f(theta), 10 * tol * f(cond))


def halfline_f(doc, s, t, schedule):
    """(F, conds): (theta_t - theta_s) / pi at each schedule point, with the
    summed condition of the two angles."""
    th_s, c_s = ref.trajectory(doc, s, 0, schedule[-1], xs=schedule[:-1])
    th_t, c_t = ref.trajectory(doc, t, 0, schedule[-1], xs=schedule[:-1])
    F = [f((b - a) / ref.PI) for a, b in zip(th_s, th_t)]
    return F, [f(a + b) for a, b in zip(c_s, c_t)]


def locate_expect(doc, L, beta, s, t, tol):
    """Bisection stops within tol of the level on an angle that is itself
    within tol * condition of the true one."""
    roots = ref.eigenvalues(doc, L, beta, s, t)
    lams = [f(r) for r, _, _ in roots]
    atols = [(tol + 10 * tol * f(c)) / f(sl) + 1e-12 * (1 + abs(f(r))) for r, sl, c in roots]
    return [exact("count", len(lams)), num("result", lams, atols)]


def order_atol(radii, logmax, atols):
    """Bound on the change of the fitted slope when each log M moves by at
    most its atol (least squares on the same points order_fit uses)."""
    n = len(radii)
    mask = (radii >= radii[n // 2 - 1]) & (logmax > 1e-9)
    x = np.log(radii[mask])
    dy = np.asarray(atols)[mask] / logmax[mask]
    xc = x - x.mean()
    return float(np.max(dy) * np.sum(np.abs(xc)) / np.sum(xc * xc))


def halfline_status(F, threshold=50.0):
    floors = [math.floor(v) for v in F]
    if max(F) > threshold:
        return "divergent", None
    if len(floors) >= 3 and floors[-1] == floors[-2] == floors[-3]:
        return "stabilized", floors[-1]
    return "inconclusive", None


def clear_of_integers(F):
    return all(abs(v - round(v)) >= MARGIN for v in F)


def gen_exact(rng, per_type, n_systems=48):
    systems = {f"s{i:02d}": exact_system(rng) for i in range(n_systems)}
    names = sorted(systems)
    tails = [k for k in names if "tail" in systems[k]]
    no_tails = [k for k in names if "tail" not in systems[k]]
    profiles = {k: ref.plateau_profile(systems[k]) for k in names}
    # canonical_to_diagonal rotates when phi(inf) <= -pi/2; a profile ending
    # at -pi/2 itself sits on that decision at float resolution, so it is left out
    diag_ok = [
        k for k in names
        if profiles[k][0][0] - profiles[k][1] < ref.PI - 0.1 and abs(profiles[k][1] + ref.HALF_PI) > 1e-6
    ]
    q = {t: [] for t in (
        "validate", "theta", "count", "halfline", "locate", "classify", "m_endpoints",
        "ess_bounds", "zero_eig", "to_diagonal", "type", "order",
    )}

    def add(kind, key, argv, expect):
        q[kind].append({"id": f"{kind}-{len(q[kind]):02d}", "system": key, "argv": argv, "expect": expect})

    def choose(keys):
        return keys[int(rng.integers(len(keys)))]

    tols = (1e-9, 1e-8)
    for i in range(per_type):
        key = names[i % len(names)]
        doc = systems[key]
        add("validate", key, ["validate", "--config", "{config}"],
            [exact("valid", True), exact("issues", []), num("x_max", f(ref.x_max(doc)), 1e-12 * float_x_max(doc))])

        key = choose(names)
        doc = systems[key]
        xm = float_x_max(doc)
        tol = tols[i % 2]
        L = xm * float(rng.uniform(1.0, 1.5) if "tail" in doc and i % 3 == 0 else rng.uniform(0.3, 1.0))
        t = float(rng.uniform(-15.0, 15.0))
        th0 = float(rng.uniform(-PI, PI))
        add("theta", key, ["theta", "--config", "{config}", "--t", repr(t), "--theta0", repr(th0),
                           "--L", repr(L), "--tol", repr(tol)],
            [theta_expect("theta_end", doc, t, th0, L, tol)])

        key = choose(names)
        doc = systems[key]
        H = exact_hamiltonian(doc)
        L = float_x_max(doc) * float(rng.uniform(0.5, 1.0))
        beta = float(rng.uniform(0.0, PI))
        s, t, n = pick_window(rng, doc, L, beta, -10.0, 10.0, (1.0, 4.0))
        n_oracle = oracle.count_by_sign_changes(H, L, beta, (s, t))
        assert n_oracle == n, (key, L, beta, s, t, n, n_oracle)
        add("count", key, ["count", "--config", "{config}", "--L", repr(L), "--beta", repr(beta),
                           "--window", repr(s), repr(t), "--tol", repr(tol)],
            [exact("result", n)])

        key = choose(tails if i % 2 == 0 else no_tails)
        doc = systems[key]
        H = exact_hamiltonian(doc)
        xm = float_x_max(doc)
        if "tail" in doc:
            b = math.fmod(doc["tail"]["gamma"] + HALF_PI, PI)
            b = b + PI if b < 0.0 else b
            s, t, n = pick_window(rng, doc, xm, b, -10.0, 10.0, (1.0, 4.0))
            assert oracle.count_by_sign_changes(H, xm, b, (s, t)) == n
            expect = [exact("status", "stabilized"), exact("result", n)]
        else:
            schedule = [xm * fr for fr in (0.25, 0.5, 0.75, 1.0)]
            while True:
                c, w = float(rng.uniform(-8.0, 8.0)), float(rng.uniform(1.0, 4.0))
                s, t = c - w / 2, c + w / 2
                F, conds = halfline_f(doc, s, t, schedule)
                if clear_of_integers(F):
                    break
            status, n = halfline_status(F)
            expect = [num("F_values", F, [10 * 1e-9 * c for c in conds]), exact("status", status, **INCONCLUSIVE),
                      exact("result", n, **INCONCLUSIVE)]
        add("halfline", key, ["count", "--config", "{config}", "--window", repr(s), repr(t)], expect)

        key = choose(names)
        doc = systems[key]
        L = float_x_max(doc) * float(rng.uniform(0.5, 1.0))
        beta = float(rng.uniform(0.0, PI))
        s, t, n = pick_window(rng, doc, L, beta, -8.0, 8.0, (1.0, 4.0), want=(1, 3))
        add("locate", key, ["locate", "--config", "{config}", "--L", repr(L), "--beta", repr(beta),
                            "--window", repr(s), repr(t), "--tol", repr(tol)],
            locate_expect(doc, L, beta, s, t, tol))

        key = choose(names)
        phis, phi_inf = profiles[key]
        expect = [num("phi_start", f(phis[0]), 1e-12), num("phi_infinity", f(phi_inf), 1e-12)]
        if phi_inf >= -ref.HALF_PI - mp.mpf(1e-12):
            expect.append(exact("kind", "in_c_plus"))
        else:
            expect += [exact("kind", "neg_eigs_at_most"),
                       exact("n_bound", int(mp.ceil((-phi_inf - ref.HALF_PI) / ref.PI - mp.mpf(1e-12))))]
        add("classify", key, ["classify", "--config", "{config}"], expect)

        key = choose(names)
        doc = systems[key]
        phis, phi_inf = profiles[key]
        mt = float(rng.uniform(-3.0, -0.1))
        T = ref.transfer(doc, float_x_max(doc), mp.mpf(mt))
        phi_L = phis[-1] + ref.HALF_PI
        fL = mp.matrix([mp.cos(phi_L), mp.sin(phi_L)])
        f0 = mp.inverse(T) * fL
        m_num = f(f0[0] / f0[1])
        add("m_endpoints", key, ["m-endpoints", "--config", "{config}", "--minus-t", repr(mt)],
            [neg_tan("m_at_minus_infinity", phis[0]), neg_tan("m_at_zero_minus", phi_inf),
             num("m_numeric", m_num, scaled(m_num, 1e-7))])

        key = choose(tails)
        add("ess_bounds", key, ["ess-bounds", "--config", "{config}"], ess_expect(systems[key], profiles[key]))

        key = choose(tails)
        add("zero_eig", key, ["zero-eig", "--config", "{config}"], zero_expect(systems[key], profiles[key]))

        key = choose(diag_ok)
        t0, rot, total = diagonal_ref(systems[key], profiles[key])
        add("to_diagonal", key, ["to-diagonal", "--config", "{config}"],
            [num("t0", t0, scaled(t0, 1e-12) + 1e-14 * (1.0 + t0 * t0)),
             num("rotation_applied", rot, 1e-12),
             num("total_T", total, scaled(total, 1e-12)), num("type", 0.0, 1e-12)])
        key = choose(diag_ok)
        t0, rot, total = diagonal_ref(systems[key], profiles[key])
        add("type", key, ["type", "--config", "{config}"],
            [num("type", 0.0, 1e-12), num("total_T", total, scaled(total, 1e-12))])

        key = choose(names)
        doc = systems[key]
        xm = float_x_max(doc)
        lm, order, resid = ref.order_fit(lambda z: ref.log_max_entry(doc, xm, ref.mpc(z)), 1.0, 1e8, 10, 16)
        add("order", key, ["order", "--config", "{config}", "--r-min", "1", "--r-max", "1e8",
                           "--tol", repr(tol)],
            [num("order", order, 1e-6), num("residual", resid, 1e-6)])
    return {"systems": systems, "queries": q}


def neg_tan(path, phi):
    """-tan(phi) as an extended real: at a pole, the limit along the
    nonincreasing profile (-inf at pi/2 + 2k pi, +inf at -pi/2 + 2k pi)."""
    r = (phi - ref.HALF_PI) / ref.PI
    if abs(r - mp.nint(r)) * ref.PI < 1e-12:
        return exact(path, "-inf" if int(mp.nint(r)) % 2 == 0 else "inf")
    v = f(-mp.tan(phi))
    return num(path, v, scaled(v, 1e-12))


def _profile_value(doc, phis, phi_inf, x):
    """phi(x) of the normalized plateau profile, right-continuous, as canosc
    documents it: the last plateau at x = X_max, phi_inf beyond."""
    acc = 0.0
    bounds = []
    for s in doc["segments"]:
        bounds.append((acc, acc + s["length"]))
        acc += s["length"]
    if x >= acc:
        return phis[-1] if x == acc else phi_inf
    for (x0, x1), p in zip(bounds, phis):
        if x < x1:
            return p
    raise AssertionError


def ess_expect(doc, profile, n_samples=1000):
    phis, phi_inf = profile
    xm = 0.0
    starts = []
    for s in doc["segments"]:
        starts.append(xm)
        xm += s["length"]
    x_lo, x_hi = 0.5 * xm, xm
    xs = sorted({x for x in starts if x_lo <= x <= x_hi} | set(np.linspace(x_lo, x_hi, n_samples)))
    g = [max(mp.mpf(x) * (_profile_value(doc, phis, phi_inf, x) - phi_inf), 0) for x in xs]
    A, B = f(max(g)), f(min(g))
    lower = "inf" if A == 0.0 else 1.0 / (4.0 * A)
    upper = math.inf if A == 0.0 else 1.0 / A
    if B > 0.0:
        upper = min(upper, 1.0 / (4.0 * B))
    upper = "inf" if upper == math.inf else upper
    out = [num("A", A, scaled(A, 1e-12)), num("B", B, scaled(B, 1e-12)),
           exact("sigma_ess_empty", A <= 1e-8)]
    for name, v in (("lower", lower), ("upper", upper)):
        out.append(exact(name, v) if isinstance(v, str) else num(name, v, scaled(v, 1e-9)))
    return out


def zero_expect(doc, profile):
    phis, phi_inf = profile
    if abs(phi_inf + ref.HALF_PI) > 1e-9:
        return [exact("is_eigenvalue", False), exact("body_integral", "inf"), exact("tail_converges", False)]
    total = f(mp.fsum(mp.mpf(s["length"]) * mp.cos(p) ** 2 for s, p in zip(doc["segments"], phis)))
    xm = float_x_max(doc)
    g1 = _profile_value(doc, phis, phi_inf, 0.999 * xm) + ref.HALF_PI
    g0 = _profile_value(doc, phis, phi_inf, 0.5 * xm) + ref.HALF_PI
    if g1 <= 1e-12:
        conv = True
    elif g0 <= g1:
        conv = False
    else:
        conv = f(mp.log(g1 / g0) / mp.log(2)) < -0.5 - 1e-3
    return [exact("is_eigenvalue", conv), num("body_integral", total, scaled(total, 1e-12)),
            exact("tail_converges", conv)]


def diagonal_ref(doc, profile, delta=1e-6):
    phis, phi_inf = profile
    hi, lo = phis[0], phi_inf
    gamma = mp.mpf(0)
    if not (-ref.HALF_PI < lo and hi <= ref.HALF_PI - delta):
        gamma = (ref.HALF_PI - delta) - hi
    t0 = -mp.tan(phis[0] + gamma)
    total = mp.fsum(mp.mpf(s["length"]) * mp.cos(p + gamma) ** 2 for s, p in zip(doc["segments"], phis))
    return f(t0), f(gamma), f(total)


# ---------------------------------------------------------------------------
# oscillation-rk: library calls on ramp / matrix / table systems


def rk_segment(rng, kind, length, phi):
    """(segment document, angle at its end)."""
    if kind == "ramp":
        end = phi - float(rng.uniform(0.2, 1.2))
        return {"length": length, "kind": "ramp", "phi_start": phi, "phi_end": end}, end
    if kind == "matrix":
        h11 = float(rng.uniform(0.2, 0.8))
        h12 = float(rng.uniform(-0.8, 0.8)) * math.sqrt(h11 * (1.0 - h11))
        return {"length": length, "kind": "matrix", "h11": h11, "h12": h12, "h22": 1.0 - h11}, phi
    # a C/x or exp(-x) excess-angle tail sampled at a few points, as in the
    # essential-spectrum and discreteness criteria, sized down
    k = int(rng.integers(4, 9))
    x0 = float(rng.uniform(0.5, 2.0))
    xs = np.linspace(x0, x0 + length, k)
    if rng.uniform() < 0.5:
        C = float(rng.uniform(0.2, 1.0))
        shape = C / xs
    else:
        shape = np.exp(-xs)
    phis = phi - (shape[0] - shape)
    pts = [[float(x - x0), float(p)] for x, p in zip(xs, phis)]
    pts[-1][0] = length
    return {"length": length, "kind": "table", "points": pts}, float(phis[-1])


def rk_system(rng, rank_one=False, max_len=1.6):
    n = int(rng.integers(2, 4))
    kinds = ["ramp", "table"] if rank_one else ["ramp", "matrix", "table"]
    lengths = rng.uniform(0.3, 0.8, n)
    lengths = lengths * min(1.0, max_len / lengths.sum())
    phi = float(rng.uniform(-0.5, 1.5))
    segs = []
    for l in lengths:
        seg, phi = rk_segment(rng, kinds[int(rng.integers(len(kinds)))], float(l), phi)
        segs.append(seg)
    return {"segments": segs}


def angle_at(doc, L):
    """Angle of H at x = L (mod pi), for rank-one documents."""
    acc = 0.0
    for s in doc["segments"]:
        if L < acc + s["length"]:
            off = L - acc
            if s["kind"] == "ramp":
                return s["phi_start"] + (s["phi_end"] - s["phi_start"]) * off / s["length"]
            if s["kind"] == "table":
                pts = np.array(s["points"])
                return float(np.interp(off, pts[:, 0], pts[:, 1]))
            return s["alpha"]
        acc += s["length"]
    raise ValueError("L beyond X_max")


def potential(rng, shape, n):
    grid = np.linspace(0.0, 2.0, n)
    c = float(rng.uniform(0.5, 2.0))
    values = {"free": 0.0 * grid, "linear": c * grid, "quadratic": c * grid**2}[shape]
    return {"shape": shape, "grid": grid.tolist(), "values": values.tolist(),
            "e0": float(rng.uniform(-1.5, -0.5))}


def gen_rk(rng, per_type):
    systems = {}
    potentials = {}
    q = {t: [] for t in ("count", "halfline", "locate", "negcount", "import", "molchanov")}

    def new_system(**kw):
        key = f"s{len(systems):02d}"
        systems[key] = rk_system(rng, **kw)
        return key, systems[key]

    def add(kind, expect, **fields):
        q[kind].append({"id": f"{kind}-{len(q[kind]):02d}", **fields, "expect": expect})

    tol = 1e-6
    for i in range(per_type):
        key, doc = new_system()
        L = float_x_max(doc) * float(rng.uniform(0.6, 1.0))
        beta = float(rng.uniform(0.0, PI))
        s, t, n = pick_window(rng, doc, L, beta, -6.0, 6.0, (2.0, 6.0))
        add("count", [exact("count", n)], system=key,
            args={"L": L, "beta": beta, "window": [s, t], "tol": tol})

        key, doc = new_system()
        xm = float_x_max(doc)
        schedule = [xm * fr for fr in (0.4, 0.6, 0.8, 1.0)]
        while True:
            c, w = float(rng.uniform(-6.0, 6.0)), float(rng.uniform(2.0, 6.0))
            s, t = c - w / 2, c + w / 2
            F, conds = halfline_f(doc, s, t, schedule)
            if clear_of_integers(F):
                break
        status, n = halfline_status(F)
        add("halfline", [num("F_values", F, [10 * tol * c for c in conds]),
                         exact("status", status, **INCONCLUSIVE),
                         exact("result", n, **INCONCLUSIVE)],
            system=key, args={"window": [s, t], "schedule": schedule, "tol": tol})

        key, doc = new_system()
        L = float_x_max(doc)
        beta = float(rng.uniform(0.0, PI))
        s, t, n = pick_window(rng, doc, L, beta, -5.0, 5.0, (1.0, 3.0), want=(1, 1))
        add("locate", locate_expect(doc, L, beta, s, t, tol),
            system=key, args={"L": L, "beta": beta, "window": [s, t], "tol": tol})

        key, doc = new_system(rank_one=True)
        xm = float_x_max(doc)
        while True:
            L = xm * float(rng.uniform(0.3, 0.95))
            T_floor = float(rng.uniform(10.0, 40.0))
            beta = mp.fmod(mp.mpf(angle_at(doc, L)) + ref.HALF_PI, ref.PI)
            beta = beta + ref.PI if beta < 0 else beta
            n, margin = ref.window_count(doc, L, beta, -T_floor, 0.0)
            if margin >= MARGIN:
                break
        add("negcount", [exact("count", n)], system=key,
            args={"L": L, "T_floor": T_floor, "tol": tol})

        shape = ("free", "linear", "quadratic")[i % 3]
        key = f"p{len(potentials):02d}"
        pot = potentials[key] = potential(rng, shape, int(rng.choice([31, 41, 51])))
        imp_tol = 1e-8
        X, phi, swapped = ref.import_table(pot["grid"], pot["values"], pot["e0"])
        Xf, phif = [f(v) for v in X], [f(v) for v in phi]
        table = {"segments": [{"length": Xf[-1], "kind": "table",
                               "points": [[x, p] for x, p in zip(Xf, phif)]}]}
        fracs = [0.5, 0.75, 1.0]
        while True:
            c, w = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.2, 0.6))
            s, t = c - w / 2, c + w / 2
            F, conds = halfline_f(table, s, t, [Xf[-1] * fr for fr in fracs])
            if clear_of_integers(F):
                break
        status, n = halfline_status(F)
        h_tol = 1e-6
        # the imported table carries the import's error: phi to 100 imp_tol,
        # X to 100 imp_tol relative, moving theta by up to |t| X_max times that
        f_atol = [10 * h_tol * c + 200 * imp_tol * max(abs(s), abs(t)) * Xf[-1] * c for c in conds]
        add("import",
            [exact("swapped", swapped), num("X", Xf, [scaled(x, 100 * imp_tol) for x in Xf]),
             num("phi", phif, 100 * imp_tol)],
            potential=key, args={"tol": imp_tol},
            then={"window": [s, t], "fractions": fracs, "tol": h_tol,
                  "expect": [num("F_values", F, f_atol), exact("status", status, **INCONCLUSIVE),
                             exact("result", n, **INCONCLUSIVE)]})

        key = f"p{len(potentials):02d}"
        pot = potentials[key] = potential(rng, shape, int(rng.choice([31, 41, 51])))
        x_grid = np.linspace(0.4, float(rng.uniform(0.9, 1.3)), 5)
        G = ref.molchanov_g(pot["grid"], pot["values"], pot["e0"], x_grid)
        add("molchanov", [num("G", G.tolist(), [1e3 * imp_tol * abs(g) for g in G])],
            potential=key, args={"x_grid": x_grid.tolist(), "tol": imp_tol})
    return {"systems": systems, "potentials": potentials, "queries": q}


# ---------------------------------------------------------------------------
# growth: order and type fits


def auto_terms(r, alpha, eps=1e-12):
    n1 = (2.0 * max(r, 1.0)) ** (1.0 / alpha)
    n2 = (max(r, 1.0) ** 2 / (2.0 * (2.0 * alpha - 1.0) * eps)) ** (1.0 / (2.0 * alpha - 1.0))
    return int(max(50, math.ceil(n1), math.ceil(n2)))


def gen_growth(rng, per_type):
    systems = {}
    q = {t: [] for t in ("order_singular", "order_rk", "type_fit", "hadamard")}

    def add(kind, key, args, expect):
        q[kind].append({"id": f"{kind}-{len(q[kind]):02d}", "system": key, "args": args, "expect": expect})

    for i in range(per_type):
        key = f"s{len(systems):02d}"
        n = int(rng.integers(3, 9))
        doc = systems[key] = {"segments": [
            {"length": float(l), "kind": "angle", "alpha": float(a)}
            for l, a in zip(rng.uniform(0.2, 1.5, n), rng.uniform(-HALF_PI, HALF_PI, n))]}
        xm = float_x_max(doc)
        args = {"r_min": 1.0, "r_max": 1e8, "n_radii": 10, "n_phases": 16, "tol": 1e-10}
        lm, order, resid = ref.order_fit(lambda z: ref.log_max_entry(doc, xm, ref.mpc(z)), 1.0, 1e8, 10, 16)
        atols = [scaled(v, 1e-9) for v in lm]
        radii = np.geomspace(1.0, 1e8, 10)
        add("order_singular", key, args,
            [num("logmax", lm.tolist(), atols), num("order", order, order_atol(radii, lm, atols))])

        key = f"s{len(systems):02d}"
        doc = systems[key] = rk_system(rng, max_len=0.8)
        xm = float_x_max(doc)
        tol = 1e-6
        args = {"r_min": 0.01, "r_max": 10.0, "n_radii": 8, "n_phases": 4, "tol": tol}
        lm, order, resid = ref.order_fit(lambda z: ref.log_max_entry(doc, xm, ref.mpc(z)), 0.01, 10.0, 8, 4)
        radii, zs = ref.fit_grid(0.01, 10.0, 8, 4)
        # local errors reach T(L) through T(x -> L); the max entry also
        # mixes two columns, hence the factor 2
        atols = [20 * tol * max(f(ref.transfer_condition(doc, xm, z)) for z in row) for row in zs]
        add("order_rk", key, args,
            [num("logmax", lm.tolist(), atols), num("order", order, order_atol(radii, lm, atols))])

        key = f"s{len(systems):02d}"
        k = int(rng.integers(1, 4))
        cells = [(float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.15, 0.85))) for _ in range(k)]
        doc = systems[key] = {"segments": [
            {"length": dT, "kind": "matrix", "h11": h, "h12": 0.0, "h22": 1.0 - h} for dT, h in cells]}
        tau = sum(dT * math.sqrt(h * (1.0 - h)) for dT, h in cells)
        xm = float_x_max(doc)
        y_max = 100.0 / tau
        rate = ref.type_rate(lambda z: ref.log_max_entry(doc, xm, ref.mpc(z)), 1.0, y_max)
        add("type_fit", key, {"y_min": 1.0, "y_max": y_max}, [num("rate", rate, scaled(rate, 1e-6))])

        family = "ac"[i % 2]
        alpha = float(rng.uniform(3.0, 5.0))
        r_min, r_max = 1e2, 1e5
        terms = 4 * auto_terms(r_max, alpha)
        tails = ref.hadamard_tails(family, alpha, terms)
        lm, order, _ = ref.order_fit(lambda z: ref.hadamard_log(family, alpha, z, terms, tails),
                                     r_min, r_max, 12, 16)
        atols = [scaled(v, 1e-6) for v in lm]
        radii = np.geomspace(r_min, r_max, 12)
        add("hadamard", None, {"family": family, "alpha": alpha, "r_min": r_min, "r_max": r_max},
            [num("logmax", lm.tolist(), atols), num("order", order, order_atol(radii, lm, atols))])
    return {"systems": systems, "queries": q}


def screen(name, pool):
    """Run every query once on the program in src/ and move the ones it
    fails, with the reason, from the scheduled queries to known_failures."""
    import canosc.cli

    failing = {}
    with tempfile.TemporaryDirectory() as workdir:
        prepared = harness.PREPARE[name](pool, canosc, workdir)
        for kind, queries in prepared.items():
            for q in queries:
                for qid, reason in harness.grade(harness.execute(q)):
                    failing.setdefault(qid.split("/")[0], (kind, f"{qid}: {reason}"))
    pool["known_failures"] = []
    for kind, items in pool["queries"].items():
        for q in [q for q in items if q["id"] in failing]:
            items.remove(q)
            pool["known_failures"].append({"type": kind, "error": failing[q["id"]][1], **q})


def prune(pool):
    """Drop systems and potentials no scheduled or known-failing query uses."""
    used = {q.get(k) for items in pool["queries"].values() for q in items for k in ("system", "potential")}
    used |= {q.get(k) for q in pool["known_failures"] for k in ("system", "potential")}
    for table in ("systems", "potentials"):
        if table in pool:
            pool[table] = {k: v for k, v in pool[table].items() if k in used}


GENERATORS = {"oscillation-exact": gen_exact, "oscillation-rk": gen_rk, "growth": gen_growth}


def main(argv):
    names = argv or list(GENERATORS)
    os.makedirs(os.path.join(HERE, "data"), exist_ok=True)
    for name in names:
        t0 = time.perf_counter()
        rng = np.random.default_rng(MASTER_SEED[name])
        pool = {"workload": name, "master_seed": MASTER_SEED[name],
                "reference": {"mpmath": mp.__version__, "dps": mp.mp.dps}}
        quota = {kind: w * harness.EPOCH_ROUNDS for kind, w in harness.ROUNDS[name].items()}
        pool.update(GENERATORS[name](rng, max(quota.values()) + SPARE))
        screen(name, pool)
        for kind, items in pool["queries"].items():
            if len(items) < quota[kind]:
                raise SystemExit(f"{name}: only {len(items)} passing {kind} queries")
            del items[quota[kind]:]
        prune(pool)
        path = os.path.join(HERE, "data", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(pool, fh, indent=1, allow_nan=False)
            fh.write("\n")
        n = sum(len(v) for v in pool["queries"].values())
        print(f"{name}: {n} queries, {len(pool['known_failures'])} known failures, "
              f"{time.perf_counter() - t0:.0f} s -> {path}")
        for q in pool["known_failures"]:
            print(f"  known failure {q['error']}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Command-line front end: config parsing, subcommand dispatch, JSON/CSV output.

Systems are described by a JSON document::

    {
      "segments": [
        {"length": 1.0, "kind": "angle", "alpha": 0.0},
        {"length": 0.5, "kind": "ramp", "phi_start": 0.5, "phi_end": -0.5},
        {"length": 2.0, "kind": "matrix", "h11": 0.5, "h12": 0.0, "h22": 0.5},
        {"length": 1.0, "kind": "table", "points": [[0.0, 0.3], [1.0, 0.1]]}
      ],
      "tail": {"type": "singular", "gamma": -1.5707963267948966},
      "tolerances": {"integration": 1e-9, "rank_one": 1e-10}
    }

All angles are radians unless ``--degrees`` is given.  Results go to stdout
as JSON (floats serialized by repr, so they re-parse bit exactly); ``--csv``
additionally writes plot-ready columns.  Exit codes: 0 success, 1 usage,
2 validation/config failure, 3 inconclusive result under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import entire, pruefer, spectra, transforms
from .hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    PhiRamp,
    PhiTable,
    Segment,
    SingularHalfLine,
    extract_phi,
    validate,
)


class ConfigError(Exception):
    """Config document rejected; message carries location information."""


def _angle(v: float, degrees: bool) -> float:
    return math.radians(v) if degrees else float(v)


def load_config(path: str, degrees: bool = False) -> tuple[Hamiltonian, dict]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return build_hamiltonian(doc, degrees=degrees), doc


def build_hamiltonian(doc: dict, degrees: bool = False) -> Hamiltonian:
    if not isinstance(doc, dict) or "segments" not in doc:
        raise ConfigError("top-level object with a 'segments' list required")
    segs = []
    for i, s in enumerate(doc["segments"]):
        where = f"segments[{i}]"
        try:
            length = float(s["length"])
            kind = s["kind"]
            if kind == "angle":
                k = ConstantAngle(_angle(s["alpha"], degrees))
            elif kind == "ramp":
                k = PhiRamp(_angle(s["phi_start"], degrees), _angle(s["phi_end"], degrees))
            elif kind == "matrix":
                k = ConstantMatrix(MatrixH(float(s["h11"]), float(s["h12"]), float(s["h22"])))
            elif kind == "table":
                k = PhiTable(tuple((float(o), _angle(p, degrees)) for o, p in s["points"]))
            else:
                raise ConfigError(f"{where}: unknown kind {kind!r}")
            segs.append(Segment(length, k))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    tail = None
    if doc.get("tail") is not None:
        t = doc["tail"]
        if t.get("type") != "singular":
            raise ConfigError("tail: only type 'singular' is supported")
        tail = SingularHalfLine(_angle(t["gamma"], degrees))
    try:
        return Hamiltonian(tuple(segs), tail=tail)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tolerances(doc: dict, args) -> float:
    tol = doc.get("tolerances", {}).get("integration", 1e-9)
    if getattr(args, "tol", None) is not None:
        tol = args.tol
    return float(tol)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def emit(doc: dict) -> None:
    print(json.dumps(_jsonable(doc), indent=2))


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        H, _ = load_config(args.config, args.degrees)
    except ConfigError as exc:
        emit({"valid": False, "error": str(exc)})
        return 2
    rep = validate(H)
    emit({"valid": rep.ok, "issues": rep.issues, "x_max": H.x_max})
    return 0 if rep.ok else 2


def cmd_theta(args) -> int:
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args)
    tr = pruefer.integrate(H, args.t, args.theta0, args.L, tol)
    emit(
        {
            "inputs": {"t": args.t, "theta0": args.theta0, "L": args.L, "tol": tol},
            "theta_end": tr.theta_end(),
            "err_bound": tr.err_bound,
            "n_samples": len(tr.xs),
        }
    )
    if args.csv:
        write_csv(args.csv, ["x", "theta"], zip(tr.xs, tr.thetas))
    return 0


def cmd_count(args) -> int:
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args)
    w = spectra.SpectralWindow(args.window[0], args.window[1])
    beta = _angle(args.beta, args.degrees)
    if args.L is not None:
        res = spectra.count_bounded(H, args.L, beta, w, tol)
        emit(
            {
                "inputs": {"L": args.L, "beta": beta, "window": [w.s, w.t], "tol": tol},
                "result": res.count,
                "certified": res.certified,
            }
        )
        return 0
    schedule = args.schedule or [H.x_max * f for f in (0.25, 0.5, 0.75, 1.0)]
    res = spectra.halfline_count(H, w, schedule, tol)
    emit(
        {
            "inputs": {"window": [w.s, w.t], "schedule": res.L_values, "tol": tol},
            "status": res.status,
            "result": res.count,
            "F_values": res.F_values,
            "witness": res.witness,
        }
    )
    if args.csv:
        write_csv(args.csv, ["L", "F"], zip(res.L_values, res.F_values))
    if args.strict and res.status == "inconclusive":
        return 3
    return 0


def cmd_locate(args) -> int:
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args)
    w = spectra.SpectralWindow(args.window[0], args.window[1])
    beta = _angle(args.beta, args.degrees)
    eigs = spectra.locate_eigenvalues(H, args.L, beta, w, tol)
    emit(
        {
            "inputs": {"L": args.L, "beta": beta, "window": [w.s, w.t], "tol": tol},
            "result": eigs,
            "count": len(eigs),
        }
    )
    if args.csv:
        write_csv(args.csv, ["eigenvalue"], [[e] for e in eigs])
    return 0


def cmd_classify(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    c = spectra.classify_semibounded(H)
    out = {"kind": c.kind}
    if c.n_bound is not None:
        out["n_bound"] = c.n_bound
    if c.witness is not None:
        out["witness"] = c.witness
    if c.phi is not None:
        out["phi_start"] = c.phi.phi_start
        out["phi_infinity"] = c.phi.phi_infinity
    emit(out)
    return 0


def cmd_wholeline(args) -> int:
    H_left, _ = load_config(args.config_left, args.degrees)
    H_right, _ = load_config(args.config_right, args.degrees)
    phi_l = extract_phi(H_left)
    phi_r = extract_phi(H_right)
    ok = spectra.classify_wholeline(phi_l, phi_r)
    emit(
        {
            "nonnegative": ok,
            "drop_left": phi_l.drop,
            "drop_right": phi_r.drop,
        }
    )
    return 0


def cmd_ess_bounds(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    phi, model = spectra.tail_profile(H)
    b = spectra.ess_spectrum_bounds(phi, tail_fraction=args.tail_fraction)
    out = {
        "A": b.A,
        "B": b.B,
        "lower": b.lower,
        "upper": b.upper,
        "tail_window": list(b.tail_window),
        "sigma_ess_empty": b.sigma_ess_empty,
        "zero_in_ess": b.zero_in_ess,
        "warnings": b.warnings,
    }
    if model is not None:
        out["tail_model"] = model.summary()
    emit(out)
    if args.strict and b.warnings:
        return 3
    return 0


def cmd_m_endpoints(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    m_minus_inf, m_zero_minus = spectra.m_endpoints(phi)
    out = {"m_at_minus_infinity": m_minus_inf, "m_at_zero_minus": m_zero_minus}
    if args.minus_t is not None:
        out["m_numeric"] = spectra.m_halfline_real(H, args.minus_t)
        out["minus_t"] = args.minus_t
    emit(out)
    return 0


def cmd_zero_eig(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    chk = spectra.zero_eigenvalue_check(extract_phi(H))
    emit(
        {
            "is_eigenvalue": chk.is_eigenvalue,
            "body_integral": chk.integral,
            "tail_converges": chk.tail_converges,
        }
    )
    return 0


def cmd_to_diagonal(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    try:
        D = transforms.canonical_to_diagonal(phi)
    except transforms.SplitRequired as exc:
        emit({"error": str(exc)})
        return 2
    emit(
        {
            "t0": D.t0,
            "rotation_applied": D.rotation_applied,
            "total_T": D.total_T,
            "type": transforms.debranges_type(D),
            "cells": [{"deltaT": s.deltaT, "h": s.h} for s in D.segments],
        }
    )
    if args.csv:
        write_csv(args.csv, ["deltaT", "h"], [(s.deltaT, s.h) for s in D.segments])
    return 0


def cmd_type(args) -> int:
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    try:
        D = transforms.canonical_to_diagonal(phi)
    except transforms.SplitRequired as exc:
        emit({"error": str(exc)})
        return 2
    tau = transforms.debranges_type(D)
    out = {"type": tau, "total_T": D.total_T}
    if args.measure:
        Hd = transforms.diagonal_to_hamiltonian(D)
        y_max = args.y_max if args.y_max else max(50.0 / max(tau, 1e-3), 100.0)
        slope = entire.type_fit_imaginary(
            lambda zz: entire.log_max_entry(Hd, Hd.x_max, zz), y_max / 100.0, y_max
        )
        out["measured_rate"] = slope
        out["y_max"] = y_max
    emit(out)
    return 0


def cmd_order(args) -> int:
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args)
    L = args.L if args.L is not None else H.x_max
    fit = entire.order_fit(
        lambda zz: entire.log_max_entry(H, L, zz, tol),
        args.r_min,
        args.r_max,
        n_radii=args.n_radii,
        log_abs=True,
    )
    emit(
        {
            "inputs": {"L": L, "r_min": args.r_min, "r_max": args.r_max},
            "order": fit.order,
            "residual": fit.residual,
        }
    )
    if args.csv:
        write_csv(args.csv, ["r", "log_max"], fit.table())
    return 0


def _load_potential(path: str):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1]


def cmd_schrodinger_import(args) -> int:
    xs, vs = _load_potential(args.potential)
    P = transforms.SchrodingerProblem(grid=xs, values=vs, E0=args.e0)
    try:
        H, xmap, swapped = transforms.schrodinger_to_canonical(P)
    except transforms.AssumptionViolated as exc:
        emit({"error": str(exc)})
        return 2
    phi = extract_phi(H)
    emit(
        {
            "inputs": {"e0": args.e0, "x_max": float(xs[-1])},
            "X_max": H.x_max,
            "swapped": swapped,
            "phi_start": phi.phi_start,
            "phi_end": phi.pieces[-1].phi1,
        }
    )
    if args.csv:
        pts = H.segments[0].kind.points
        write_csv(args.csv, ["X", "phi"], pts)
    return 0


def cmd_molchanov(args) -> int:
    xs, vs = _load_potential(args.potential)
    x_grid = np.linspace(args.x_grid[0], args.x_grid[1], int(args.x_grid[2]))
    if args.mode == "classic":
        res = transforms.molchanov_classic(xs, vs, args.d_list, x_grid)
        emit(
            {
                "mode": "classic",
                "d_list": res.d_list,
                "verdict": res.verdict,
            }
        )
        if args.csv:
            rows = [
                [x] + [res.W[j, i] for j in range(len(res.d_list))]
                for i, x in enumerate(res.x_grid)
            ]
            write_csv(args.csv, ["x"] + [f"W_d{d:g}" for d in res.d_list], rows)
    else:
        P = transforms.SchrodingerProblem(grid=xs, values=vs, E0=args.e0)
        try:
            res = transforms.molchanov_new(P, x_grid)
        except transforms.AssumptionViolated as exc:
            emit({"error": str(exc)})
            return 2
        emit(
            {
                "mode": "new",
                "e0": args.e0,
                "verdict": res.verdict,
                "G_last": float(res.G[-1]),
            }
        )
        if args.csv:
            write_csv(args.csv, ["x", "G"], zip(res.x_grid, res.G))
    return 0


def cmd_hadamard(args) -> int:
    z = complex(args.z[0], args.z[1] if len(args.z) > 1 else 0.0)
    fam = entire.hadamard_a if args.family == "a" else entire.hadamard_c
    fam_log = entire.hadamard_a_log if args.family == "a" else entire.hadamard_c_log
    out = {
        "family": args.family,
        "alpha": args.alpha,
        "z": [z.real, z.imag],
        "log_abs": fam_log(z, args.alpha),
    }
    v = fam(z, args.alpha)
    if abs(v) < 1e300:
        out["value"] = [v.real, v.imag]
    if args.fit_order:
        fit = entire.order_fit(
            lambda zz: fam_log(zz, args.alpha), 1e2, 1e6, log_abs=True
        )
        out["fitted_order"] = fit.order
        out["expected_order"] = 1.0 / args.alpha
    emit(out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", required=True, help="system JSON document")
    p.add_argument("--degrees", action="store_true", help="angles given in degrees")
    p.add_argument("--csv", help="write plot-ready columns to this path")
    p.add_argument("--tol", type=float, help="integration tolerance override")
    p.add_argument("--strict", action="store_true", help="exit 3 on inconclusive")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="canosc", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config document")
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("theta", help="Pruefer-angle trajectory")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("count", help="eigenvalue count in a window")
    _add_common(p)
    p.add_argument("--L", type=float, help="truncation (omit for half-line)")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--window", type=float, nargs=2, required=True, metavar=("S", "T"))
    p.add_argument("--schedule", type=float, nargs="+", help="half-line L schedule")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("locate", help="eigenvalues in a window")
    _add_common(p)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--window", type=float, nargs=2, required=True, metavar=("S", "T"))
    p.set_defaults(fn=cmd_locate)

    p = sub.add_parser("classify", help="semiboundedness classification")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("wholeline", help="whole-line nonnegativity")
    p.add_argument("--config-left", required=True)
    p.add_argument("--config-right", required=True)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_wholeline)

    p = sub.add_parser("ess-bounds", help="bottom-of-essential-spectrum bounds")
    _add_common(p)
    p.add_argument("--tail-fraction", type=float, default=0.5)
    p.set_defaults(fn=cmd_ess_bounds)

    p = sub.add_parser("m-endpoints", help="m-function endpoint values")
    _add_common(p)
    p.add_argument("--minus-t", type=float, help="also evaluate m at this t < 0")
    p.set_defaults(fn=cmd_m_endpoints)

    p = sub.add_parser("zero-eig", help="is zero an eigenvalue")
    _add_common(p)
    p.set_defaults(fn=cmd_zero_eig)

    p = sub.add_parser("to-diagonal", help="diagonal transform of the profile")
    _add_common(p)
    p.set_defaults(fn=cmd_to_diagonal)

    p = sub.add_parser("type", help="de Branges type")
    _add_common(p)
    p.add_argument("--measure", action="store_true", help="also fit growth rate")
    p.add_argument("--y-max", type=float)
    p.set_defaults(fn=cmd_type)

    p = sub.add_parser("order", help="growth-order fit of the transfer matrix")
    _add_common(p)
    p.add_argument("--L", type=float)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--n-radii", type=int, default=10)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("schrodinger-import", help="potential CSV to canonical system")
    p.add_argument("--potential", required=True, help="CSV with columns x,V")
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_schrodinger_import)

    p = sub.add_parser("molchanov", help="discreteness criteria for potentials")
    p.add_argument("--potential", required=True, help="CSV with columns x,V")
    p.add_argument("--mode", choices=["classic", "new"], default="classic")
    p.add_argument("--e0", type=float, default=-1.0)
    p.add_argument("--d-list", type=float, nargs="+", default=[1.0])
    p.add_argument(
        "--x-grid", type=float, nargs=3, default=[1.0, 10.0, 50],
        metavar=("START", "STOP", "N"),
    )
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_molchanov)

    p = sub.add_parser("hadamard", help="evaluate model zero-products")
    p.add_argument("--family", choices=["a", "c"], default="a")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--z", type=float, nargs="+", default=[1.0], metavar="RE [IM]")
    p.add_argument("--fit-order", action="store_true")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_hadamard)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except (ValueError, spectra.NoUniqueRoot) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

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
      "tolerances": {"integration": 1e-9}
    }

All angles are radians unless ``--degrees`` is given.  Results go to stdout
as JSON (floats serialized by repr, so they re-parse bit exactly); ``--csv``
additionally writes plot-ready columns.  Exit codes: 0 success, 1 usage,
2 validation/config failure, 3 inconclusive result under ``--strict``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys
from dataclasses import asdict, astuple

import numpy as np

from . import entire, pruefer, rk, spectra, transforms
from .hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    NotRankOne,
    PhiRamp,
    PhiTable,
    Segment,
    SingularHalfLine,
    extract_phi,
    validate,
)


class ConfigError(Exception):
    """Config document rejected; message carries location information."""


class Rejected(Exception):
    """A handler's answer is a failure document: main emits it and exits 2."""

    def __init__(self, doc: dict):
        super().__init__(doc)
        self.doc = doc


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


#: one decoder per segment kind: (segment object, degrees) -> kind
KINDS = {
    "angle": lambda s, deg: ConstantAngle(_angle(s["alpha"], deg)),
    "ramp": lambda s, deg: PhiRamp(_angle(s["phi_start"], deg), _angle(s["phi_end"], deg)),
    "matrix": lambda s, deg: ConstantMatrix(
        MatrixH(float(s["h11"]), float(s["h12"]), float(s["h22"]))
    ),
    "table": lambda s, deg: PhiTable(tuple((float(o), _angle(p, deg)) for o, p in s["points"])),
}


def build_hamiltonian(doc: dict, degrees: bool = False) -> Hamiltonian:
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ConfigError("top-level object with a 'segments' list required")
    segs = []
    for i, s in enumerate(doc["segments"]):
        where = f"segments[{i}]"
        try:
            length = float(s["length"])
            kind = s["kind"]
            if kind not in KINDS:
                raise ConfigError(f"{where}: unknown kind {kind!r}")
            segs.append(Segment(length, KINDS[kind](s, degrees)))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    tail, t = None, doc.get("tail")
    if t is not None:
        if not isinstance(t, dict) or t.get("type") != "singular":
            raise ConfigError("tail: an object of type 'singular' is required")
        try:
            tail = SingularHalfLine(_angle(t["gamma"], degrees))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"tail: {exc}") from exc
    try:
        return Hamiltonian(tuple(segs), tail=tail)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tolerances(doc: dict, override=None) -> float:
    """The document's integration tolerance, or override (``--tol``) if given."""
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances: an object is required")
    try:
        tol = float(tols.get("integration", 1e-9) if override is None else override)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerances: integration: {exc}") from exc
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return tol


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
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
# subcommands: each returns (JSON document, CSV (header, rows) or None,
# whether the answer is inconclusive), or raises Rejected with a failure
# document; main does the output and exit codes


def cmd_validate(args):
    try:
        H, doc = load_config(args.config, args.degrees)
        _tolerances(doc)
    except (ConfigError, ValueError) as exc:
        raise Rejected({"valid": False, "error": str(exc)}) from exc
    rep = validate(H)
    doc = {"valid": rep.ok, "issues": rep.issues, "x_max": H.x_max}
    if not rep.ok:
        raise Rejected(doc)
    return doc, None, False


def cmd_theta(args):
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args.tol)
    theta0 = _angle(args.theta0, args.degrees)
    tr = pruefer.integrate(H, args.t, theta0, args.L)
    out = {
        "inputs": {"t": args.t, "theta0": theta0, "L": args.L, "tol": tol},
        "theta_end": tr.theta_end(),
        "n_samples": len(tr.xs),
    }
    return out, (["x", "theta"], zip(tr.xs, tr.thetas)), False


def cmd_count(args):
    if args.L is not None and args.schedule is not None:
        raise argparse.ArgumentError(None, "count: --schedule is for the half-line count, not --L")
    if args.L is None and args.beta is not None:
        raise argparse.ArgumentError(None, "count: --beta is the boundary angle at --L")
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args.tol)
    w = spectra.SpectralWindow(args.window[0], args.window[1])
    if args.L is not None:
        beta = _angle(0.0 if args.beta is None else args.beta, args.degrees)
        res = spectra.count_bounded(H, args.L, beta, w, tol)
        out = {
            "inputs": {"L": args.L, "beta": beta, "window": [w.s, w.t], "tol": tol},
            "result": res.count,
            "certified": res.certified,
        }
        return out, None, False
    schedule = args.schedule or [H.x_max * f for f in (0.25, 0.5, 0.75, 1.0)]
    res = spectra.halfline_count(H, w, schedule, tol)
    out = {
        "inputs": {"window": [w.s, w.t], "schedule": res.L_values, "tol": tol},
        "status": res.status,
        "result": res.count,
        "F_values": res.F_values,
        "witness": res.witness,
    }
    return out, (["L", "F"], zip(res.L_values, res.F_values)), res.status == "inconclusive"


def cmd_locate(args):
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args.tol)
    w = spectra.SpectralWindow(args.window[0], args.window[1])
    beta = _angle(args.beta, args.degrees)
    eigs = spectra.locate_eigenvalues(H, args.L, beta, w, tol)
    out = {
        "inputs": {"L": args.L, "beta": beta, "window": [w.s, w.t], "tol": tol},
        "result": eigs,
        "count": len(eigs),
    }
    return out, (["eigenvalue"], [[e] for e in eigs]), False


def cmd_classify(args):
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
    return out, None, False


def cmd_wholeline(args):
    H_left, _ = load_config(args.config_left, args.degrees)
    H_right, _ = load_config(args.config_right, args.degrees)
    phi_l = extract_phi(H_left)
    phi_r = extract_phi(H_right)
    ok = spectra.classify_wholeline(phi_l, phi_r)
    out = {
        "nonnegative": ok,
        "drop_left": phi_l.drop,
        "drop_right": phi_r.drop,
    }
    return out, None, False


def cmd_ess_bounds(args):
    H, _ = load_config(args.config, args.degrees)
    phi, model = spectra.tail_profile(H)
    b = spectra.ess_spectrum_bounds(phi)
    out = asdict(b)
    if model is not None:
        out["tail_model"] = model.summary()
    return out, None, bool(b.warnings)


def cmd_m_endpoints(args):
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    m_minus_inf, m_zero_minus = spectra.m_endpoints(phi)
    out = {"m_at_minus_infinity": m_minus_inf, "m_at_zero_minus": m_zero_minus}
    if args.minus_t is not None:
        out["m_numeric"] = spectra.m_halfline_real(H, args.minus_t)
        out["minus_t"] = args.minus_t
    return out, None, False


def cmd_zero_eig(args):
    H, _ = load_config(args.config, args.degrees)
    chk = spectra.zero_eigenvalue_check(extract_phi(H), H.tail)
    return asdict(chk), None, False


def cmd_to_diagonal(args):
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    D = transforms.canonical_to_diagonal(phi)
    out = {
        "t0": D.t0,
        "rotation_applied": D.rotation_applied,
        "total_T": D.total_T,
        "type": transforms.debranges_type(D),
        "cells": [asdict(s) for s in D.segments],
    }
    return out, (["deltaT", "h"], [astuple(s) for s in D.segments]), False


def cmd_type(args):
    H, _ = load_config(args.config, args.degrees)
    phi = extract_phi(H)
    D = transforms.canonical_to_diagonal(phi)
    tau = transforms.debranges_type(D)
    out = {"type": tau, "total_T": D.total_T}
    if args.measure:
        Hd = transforms.diagonal_to_hamiltonian(D)
        y_max = args.y_max if args.y_max is not None else max(50.0 / max(tau, 1e-3), 100.0)
        slope = entire.type_fit_imaginary(
            lambda zz: entire.log_max_entry(Hd, Hd.x_max, zz), y_max / 100.0, y_max
        )
        out["measured_rate"] = slope
        out["y_max"] = y_max
    return out, None, False


def cmd_order(args):
    H, doc = load_config(args.config, args.degrees)
    tol = _tolerances(doc, args.tol)
    L = args.L if args.L is not None else H.x_max
    fit = entire.order_fit(
        lambda zz: entire.log_max_entry(H, L, zz, tol),
        args.r_min,
        args.r_max,
        n_radii=args.n_radii,
        log_abs=True,
    )
    out = {
        "inputs": {"L": L, "r_min": args.r_min, "r_max": args.r_max},
        "order": fit.order,
        "residual": fit.residual,
    }
    return out, (["r", "log_max"], fit.table()), False


def _load_potential(path: str):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[1] < 2:  # an empty file reads as shape (0, 1)
        raise ConfigError(f"{path}: columns x,V required, found {data.shape[1]} in {len(data)} rows")
    return data[:, 0], data[:, 1]


def cmd_schrodinger_import(args):
    xs, vs = _load_potential(args.potential)
    P = transforms.SchrodingerProblem(grid=xs, values=vs, E0=args.e0)
    H, _, swapped = transforms.schrodinger_to_canonical(P)
    phi = extract_phi(H)
    out = {
        "inputs": {"e0": args.e0, "x_max": float(xs[-1])},
        "X_max": H.x_max,
        "swapped": swapped,
        "phi_start": phi.phi_start,
        "phi_end": phi.pieces[-1].phi1,
    }
    return out, (["X", "phi"], H.segments[0].kind.points), False


def cmd_molchanov(args):
    start, stop, n = args.x_grid
    if not (n >= 1 and float(n).is_integer()):
        raise argparse.ArgumentError(None, "molchanov: --x-grid N must be a positive integer")
    xs, vs = _load_potential(args.potential)
    x_grid = np.linspace(start, stop, int(n))
    if args.mode == "classic":
        res = transforms.molchanov_classic(xs, vs, args.d_list, x_grid)
        out = {
            "mode": "classic",
            "d_list": res.d_list,
            "verdict": res.verdict,
        }
        rows = [
            [x] + [res.W[j, i] for j in range(len(res.d_list))]
            for i, x in enumerate(res.x_grid)
        ]
        return out, (["x"] + [f"W_d{d:g}" for d in res.d_list], rows), False
    P = transforms.SchrodingerProblem(grid=xs, values=vs, E0=args.e0)
    res = transforms.molchanov_new(P, x_grid)
    out = {
        "mode": "new",
        "e0": args.e0,
        "verdict": res.verdict,
        "G_last": float(res.G[-1]),
    }
    return out, (["x", "G"], zip(res.x_grid, res.G)), False


def cmd_hadamard(args):
    if len(args.z) > 2:
        raise argparse.ArgumentError(None, "hadamard: --z takes RE and at most one IM")
    z = complex(args.z[0], args.z[1] if len(args.z) > 1 else 0.0)
    fam = entire.hadamard_a if args.family == "a" else entire.hadamard_c
    fam_log = entire.hadamard_a_log if args.family == "a" else entire.hadamard_c_log
    out = {
        "family": args.family,
        "alpha": args.alpha,
        "z": [z.real, z.imag],
        "log_abs": fam_log(z, args.alpha),
    }
    with contextlib.suppress(OverflowError):  # past the float range, log_abs alone answers
        v = fam(z, args.alpha)
        out["value"] = [v.real, v.imag]
    if args.fit_order:
        fit = entire.order_fit(
            lambda zz: fam_log(zz, args.alpha), 1e2, 1e6, log_abs=True
        )
        out["fitted_order"] = fit.order
        out["expected_order"] = 1.0 / args.alpha
    return out, None, False


# ---------------------------------------------------------------------------
# parser


#: negative numbers in every float form, and -inf, are values, not options
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


CONFIG = ("--config", dict(required=True, help="system JSON document"))
DEGREES = ("--degrees", dict(action="store_true", help="angles given in degrees"))
CSV = ("--csv", dict(help="write plot-ready columns to this path"))
TOL = ("--tol", dict(type=float, help="tolerance override, echoed in inputs; changes no answer"))
STRICT = ("--strict", dict(action="store_true", help="exit 3 on inconclusive"))
WINDOW = ("--window", dict(type=float, nargs=2, required=True, metavar=("S", "T")))
POTENTIAL = ("--potential", dict(required=True, help="CSV with columns x,V"))

#: subcommand -> (handler, help, the options it reads)
COMMANDS = {
    "validate": (cmd_validate, "check a config document", [CONFIG, DEGREES]),
    "theta": (cmd_theta, "Pruefer-angle trajectory", [
        CONFIG, DEGREES, CSV, TOL,
        ("--t", dict(type=float, required=True)),
        ("--theta0", dict(type=float, default=0.0)),
        ("--L", dict(type=float, required=True)),
    ]),
    "count": (cmd_count, "eigenvalue count in a window", [
        CONFIG, DEGREES, CSV, TOL, STRICT,
        ("--L", dict(type=float, help="truncation (omit for half-line)")),
        ("--beta", dict(type=float, help="boundary angle at L (with --L only; default 0)")),
        WINDOW,
        ("--schedule", dict(type=float, nargs="+", help="half-line L schedule (without --L only)")),
    ]),
    "locate": (cmd_locate, "eigenvalues in a window", [
        CONFIG, DEGREES, CSV, TOL,
        ("--L", dict(type=float, required=True)),
        ("--beta", dict(type=float, default=0.0)),
        WINDOW,
    ]),
    "classify": (cmd_classify, "semiboundedness classification", [CONFIG, DEGREES]),
    "wholeline": (cmd_wholeline, "whole-line nonnegativity", [
        ("--config-left", dict(required=True)),
        ("--config-right", dict(required=True)),
        DEGREES,
    ]),
    "ess-bounds": (cmd_ess_bounds, "bottom-of-essential-spectrum bounds", [CONFIG, DEGREES, STRICT]),
    "m-endpoints": (cmd_m_endpoints, "m-function endpoint values", [
        CONFIG, DEGREES,
        ("--minus-t", dict(type=float, help="also evaluate m at this t < 0")),
    ]),
    "zero-eig": (cmd_zero_eig, "is zero an eigenvalue", [CONFIG, DEGREES]),
    "to-diagonal": (cmd_to_diagonal, "diagonal transform of the profile", [CONFIG, DEGREES, CSV]),
    "type": (cmd_type, "de Branges type", [
        CONFIG, DEGREES,
        ("--measure", dict(action="store_true", help="also fit growth rate")),
        ("--y-max", dict(type=float)),
    ]),
    "order": (cmd_order, "growth-order fit of the transfer matrix", [
        CONFIG, DEGREES, CSV, TOL,
        ("--L", dict(type=float)),
        ("--r-min", dict(type=float, default=1.0)),
        ("--r-max", dict(type=float, default=1e6)),
        ("--n-radii", dict(type=int, default=10)),
    ]),
    "schrodinger-import": (cmd_schrodinger_import, "potential CSV to canonical system", [
        POTENTIAL,
        ("--e0", dict(type=float, required=True)),
        CSV,
    ]),
    "molchanov": (cmd_molchanov, "discreteness criteria for potentials", [
        POTENTIAL,
        ("--mode", dict(choices=["classic", "new"], default="classic")),
        ("--e0", dict(type=float, default=-1.0)),
        ("--d-list", dict(type=float, nargs="+", default=[1.0])),
        ("--x-grid", dict(type=float, nargs=3, default=[1.0, 10.0, 50], metavar=("START", "STOP", "N"))),
        CSV,
    ]),
    "hadamard": (cmd_hadamard, "evaluate model zero-products", [
        ("--family", dict(choices=["a", "c"], default="a")),
        ("--alpha", dict(type=float, required=True)),
        ("--z", dict(type=float, nargs="+", default=[1.0], metavar="RE [IM]")),
        ("--fit-order", dict(action="store_true")),
    ]),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The full parser, or, given the argv it will parse, one whose only
    subcommand with options is the one argv names (its first token that is
    not an option): argparse reads no other subparser's options, so both
    parse and print alike."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    ap = _Parser(prog="canosc", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named is None or name == named:
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        doc, columns, inconclusive = args.fn(args)
    except (
        ConfigError, ValueError, ArithmeticError, NotRankOne,
        transforms.SplitRequired, transforms.AssumptionViolated, rk.IntegrationError,
    ) as exc:
        emit({"error": str(exc)})
        return 2
    except Rejected as exc:
        emit(exc.doc)
        return 2
    except argparse.ArgumentError as exc:  # parsed options that clash or are out of range
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(doc)
    if columns is not None and args.csv:
        write_csv(args.csv, *columns)
    return 3 if inconclusive and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Independent verification reference for the eigenvalue counts.

Everything here deliberately avoids the adaptive integrators and the walked
pieces of the main path.  A piecewise-constant-angle system is exact linear
algebra: its transfer matrices are products of the nilpotent factors
1 + t*l*J*P_alpha, and the eigenvalues of its [0, L] problem are those of one
symmetric Green matrix (:func:`singular_spectrum`), which the eigenvalue
counts read.  It needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import HALF_PI, ConstantAngle, Hamiltonian, cong_mod_pi


def _angle_pieces(H: Hamiltonian, L: float) -> list[tuple[float, float]]:
    """(alpha, length) of each constant-angle piece of H on (0, L), the tail's
    included."""
    out, acc = [], 0.0
    for seg in H.segments:
        if acc >= L:
            break
        if not isinstance(seg.kind, ConstantAngle):
            raise ValueError("exact product path needs piecewise-constant angles")
        out.append((seg.kind.alpha, min(seg.length, L - acc)))
        acc += seg.length
    if L > acc:
        if H.tail is None:
            raise ValueError("L beyond X_max")
        out.append((H.tail.gamma, L - acc))
    return out


def _factor(alpha: float, length: float, lam: float) -> np.ndarray:
    """The transfer factor 1 + lam*length*J*P_alpha of one piece."""
    c, s = math.cos(alpha), math.sin(alpha)
    # J @ P_alpha = [[-sc, -s^2], [c^2, sc]], squares to zero
    return np.eye(2) + lam * length * np.array([[-s * c, -s * s], [c * c, s * c]])


def _exact_transfer(H: Hamiltonian, L: float, lam: float) -> np.ndarray:
    """T(L; lam) via the exact product of singular-interval factors."""
    T = np.eye(2)
    for alpha, length in _angle_pieces(H, L):
        T = _factor(alpha, length, lam) @ T
    return T


def boundary_functional(H: Hamiltonian, L: float, beta: float, lam: float) -> float:
    """u1(L) sin(beta) - u2(L) cos(beta) for the solution with u(0) = e1."""
    T = _exact_transfer(H, L, lam)
    u1, u2 = T[0, 0], T[1, 0]
    return u1 * math.sin(beta) - u2 * math.cos(beta)


def singular_spectrum(H: Hamiltonian, L: float, beta: float) -> np.ndarray:
    """Every eigenvalue of the [0, L] problem with u(0) = e_0 and u(L) || e_beta,
    ascending.

    On piece i (angle alpha_i, length l_i) c_i = e_i^T u is constant and u
    gains (t - t0) l_i c_i J e_i over the solution at t0.  So an eigenvector
    solves c = (t - t0) K D c with D = diag(l_i) and K the Green matrix at t0,
    K[k, i] = -b_max(i,k) a_min(i,k) / w: a_i and b_i are e_i^T u at t0 for
    u from e_0 and for u back from e_beta, and w is their Wronskian.  The
    eigenvalues are t0 + 1/mu for the nonzero eigenvalues mu of the symmetric
    D^1/2 K D^1/2 (Gantmacher and Krein's Green matrices).  t0 is the one of
    0 and +-1/sum(l) at which the boundary functional, normalised, is
    farthest from 0; at t0 = 0 it is sin(beta), which vanishes at beta = 0.
    A mu within n eps S of 0 counts as 0, where S = sum(l_i |f_i|^2) |g| / |w|
    bounds the size of the entries before cancellation (f_i and g as below).
    When every piece is perpendicular to e_0, u = e_0 at every t and there
    is no eigenvalue.
    """
    pieces = _angle_pieces(H, L)
    if all(cong_mod_pi(alpha, HALF_PI) for alpha, _ in pieces):
        return np.empty(0)
    ell = np.array([length for _, length in pieces])
    v_r = np.array([math.cos(beta), math.sin(beta)])

    def at_shift(t0):
        # f_i = Phi(x_i)^T e_i for the fundamental matrix Phi at t0, so that
        # a_i = f_i^T e_0 and b_i = f_i^T g with g = Phi(L)^-1 e_beta
        f, Phi = [], np.eye(2)
        for alpha, length in pieces:
            f.append(Phi.T @ (math.cos(alpha), math.sin(alpha)))
            Phi = _factor(alpha, length, t0) @ Phi
        w = v_r[0] * Phi[1, 0] - v_r[1] * Phi[0, 0]
        g = np.array([[Phi[1, 1], -Phi[0, 1]], [-Phi[1, 0], Phi[0, 0]]]) @ v_r
        return abs(w) / math.hypot(Phi[0, 0], Phi[1, 0]), t0, np.array(f), g, w

    shifts = (0.0, 1.0 / ell.sum(), -1.0 / ell.sum())
    _, t0, f, g, w = max(map(at_shift, shifts), key=lambda r: r[0])
    root = np.sqrt(ell)
    # eigvalsh reads the lower triangle, where max(i, k) = k
    mu = np.linalg.eigvalsh(np.tril(-np.outer(root * (f @ g), root * f[:, 0]) / w))
    noise = mu.size * np.finfo(float).eps * (ell @ (f * f).sum(axis=1)) * np.linalg.norm(g) / abs(w)
    return np.sort(t0 + 1.0 / mu[np.abs(mu) > noise])


def count_by_sign_changes(H: Hamiltonian, L: float, beta: float, w: tuple[float, float]) -> int:
    """Eigenvalue count in [s, t): the eigenvalues of :func:`singular_spectrum`
    in the window, each a sign change of :func:`boundary_functional`."""
    s, t = w
    ev = singular_spectrum(H, L, beta)
    return int(np.count_nonzero((s <= ev) & (ev < t)))

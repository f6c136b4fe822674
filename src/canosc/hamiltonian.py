"""Coefficient functions of trace-normed 2x2 canonical systems.

A coefficient function is held as an ordered list of segments on [0, X_max],
each describing H(x) in one of four ways (a constant rank-one projection
P_alpha, a general constant PSD trace-1 matrix, or a nonincreasing angle
profile given as a linear ramp or a sample table), plus an optional singular
half-line tail P_gamma on (X_max, infinity).

Rank-one families P_phi with nonincreasing phi are the backbone of the whole
package: semibounded systems are exactly of this form, and the angle profile
extracted here drives classification, essential-spectrum bounds and the
diagonal transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

#: default tolerance for trace / PSD checks at construction
CONSTRUCTION_TOL = 1e-12
#: default determinant threshold below which a matrix counts as rank one
RANK_ONE_TOL = 1e-10

PI = math.pi
HALF_PI = math.pi / 2


def e_alpha(alpha: float) -> np.ndarray:
    """Unit vector (cos a, sin a)."""
    return np.array([math.cos(alpha), math.sin(alpha)])


def p_alpha(alpha: float) -> np.ndarray:
    """Rank-one projection onto e_alpha."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c * c, s * c], [s * c, s * s]])


def rotation(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MatrixH:
    """Entries of a symmetric 2x2 coefficient value.

    Construction is permissive: invariants (trace 1, PSD) are checked by
    :func:`validate` so that malformed data can be reported rather than
    silently rejected.
    """

    h11: float
    h12: float
    h22: float

    @property
    def det(self) -> float:
        return self.h11 * self.h22 - self.h12 * self.h12

    @property
    def trace(self) -> float:
        return self.h11 + self.h22

    def as_array(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h12, self.h22]])

    def angle(self) -> float:
        """Projection angle mod pi, meaningful when det ~ 0."""
        return 0.5 * math.atan2(2.0 * self.h12, self.h11 - self.h22)

    def issues(self, tol: float = CONSTRUCTION_TOL) -> list[str]:
        out = []
        if abs(self.trace - 1.0) > tol:
            out.append(f"trace = {self.trace!r}, expected 1")
        if self.h11 < -tol or self.h22 < -tol:
            out.append("negative diagonal entry")
        if self.h12 * self.h12 > self.h11 * self.h22 + tol:
            out.append("not positive semidefinite (h12^2 > h11*h22)")
        return out


# ---------------------------------------------------------------------------
# segment kinds


@dataclass(frozen=True)
class ConstantAngle:
    """H = P_alpha on the whole segment (a singular-interval piece)."""

    alpha: float


@dataclass(frozen=True)
class ConstantMatrix:
    """H constant, possibly of full rank."""

    matrix: MatrixH


@dataclass(frozen=True)
class PhiRamp:
    """H = P_phi(x) with phi linear and nonincreasing across the segment."""

    phi_start: float
    phi_end: float

    def __post_init__(self):
        if self.phi_end > self.phi_start + 1e-15:
            raise ValueError("PhiRamp requires phi_end <= phi_start")


@dataclass(frozen=True)
class PhiTable:
    """H = P_phi(x) with phi piecewise linear through (offset, phi) samples.

    Offsets are relative to the segment start, strictly increasing, starting
    at 0; phi values are nonincreasing.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(o), float(p)) for o, p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("PhiTable needs at least two samples")
        if pts[0][0] != 0.0:
            raise ValueError("PhiTable offsets must start at 0")
        offs = [o for o, _ in pts]
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("PhiTable offsets must be strictly increasing")
        phis = [p for _, p in pts]
        if any(b > a + 1e-15 for a, b in zip(phis, phis[1:])):
            raise ValueError("PhiTable phi values must be nonincreasing")
        object.__setattr__(self, "_offs", np.array(offs))
        object.__setattr__(self, "_phis", np.array(phis))

    def phi_at(self, offset: float) -> float:
        return float(np.interp(offset, self._offs, self._phis))


SegmentKind = Union[ConstantAngle, ConstantMatrix, PhiRamp, PhiTable]


class Piece(NamedTuple):
    """[offset, end) of a segment, where H = R(phi) diag(lam1, lam2) R(phi)^T.

    phi runs linearly from phi0 to phi1; with kappa = -phi' the frame
    v = R(phi)^T u turns u' = z J H u into v' = [[0, -b], [a, 0]] v with the
    constants (a, b) = :meth:`rates`.  Angle pieces have (lam1, lam2) = (1, 0);
    a constant matrix is one piece in its eigenbasis (phi0 = phi1).
    """

    offset: float
    end: float
    phi0: float
    phi1: float
    lam1: float = 1.0
    lam2: float = 0.0

    @property
    def singular(self) -> bool:
        """H = lam1 P_phi0 throughout, so b = 0: the singular-interval closed forms."""
        return self.phi0 == self.phi1 and self.lam2 == 0.0

    def phi(self, off: float) -> float:
        return self.phi0 + (self.phi1 - self.phi0) * (off / (self.end - self.offset))

    def rates(self, z):
        """(a, b) = (z lam1 + kappa, z lam2 + kappa)."""
        kappa = (self.phi0 - self.phi1) / (self.end - self.offset)
        return z * self.lam1 + kappa, z * self.lam2 + kappa


@dataclass(frozen=True)
class Segment:
    length: float
    kind: SegmentKind

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValueError("segment length must be positive")
        if isinstance(self.kind, PhiTable):
            last = self.kind.points[-1][0]
            if abs(last - self.length) > 1e-12 * max(1.0, self.length):
                raise ValueError("PhiTable last offset must equal segment length")

    @property
    def is_singular(self) -> bool:
        return isinstance(self.kind, ConstantAngle)

    def h_at(self, offset: float) -> np.ndarray:
        k = self.kind
        if isinstance(k, ConstantMatrix):
            return k.matrix.as_array()
        if isinstance(k, ConstantAngle):
            return p_alpha(k.alpha)
        if isinstance(k, PhiRamp):
            return p_alpha(k.phi_start + (k.phi_end - k.phi_start) * offset / self.length)
        return p_alpha(k.phi_at(offset))

    def pieces(self) -> tuple[Piece, ...]:
        """One :class:`Piece` per constant angle, ramp, matrix or table interval."""
        k = self.kind
        if isinstance(k, ConstantAngle):
            return (Piece(0.0, self.length, k.alpha, k.alpha),)
        if isinstance(k, PhiRamp):
            return (Piece(0.0, self.length, k.phi_start, k.phi_end),)
        if isinstance(k, ConstantMatrix):
            m, phi = k.matrix, k.matrix.angle()
            lam1 = 0.5 * float(m.trace + math.hypot(m.h11 - m.h22, 2.0 * m.h12))
            return (Piece(0.0, self.length, phi, phi, lam1, float(m.det) / lam1),)
        pts = k.points
        return tuple(Piece(o0, o1, p0, p1) for (o0, p0), (o1, p1) in zip(pts, pts[1:]))

    def split(self, at: float) -> tuple["Segment", "Segment"]:
        """Split into two segments with lengths (at, length - at)."""
        if not (0.0 < at < self.length):
            raise ValueError("split point must be interior")
        k = self.kind
        if isinstance(k, (ConstantAngle, ConstantMatrix)):
            return Segment(at, k), Segment(self.length - at, k)
        if isinstance(k, PhiRamp):
            mid = k.phi_start + (k.phi_end - k.phi_start) * at / self.length
            return (
                Segment(at, PhiRamp(k.phi_start, mid)),
                Segment(self.length - at, PhiRamp(mid, k.phi_end)),
            )
        # PhiTable: cut the sample list, interpolating at the split point
        left = [(o, p) for o, p in k.points if o < at]
        right = [(o - at, p) for o, p in k.points if o > at]
        mid = k.phi_at(at)
        left.append((at, mid))
        right.insert(0, (0.0, mid))
        if abs(right[-1][0] - (self.length - at)) > 1e-12:
            right[-1] = (self.length - at, right[-1][1])
        return (
            Segment(at, PhiTable(tuple(left))),
            Segment(self.length - at, PhiTable(tuple(right))),
        )


@dataclass(frozen=True)
class SingularHalfLine:
    """H = P_gamma on (X_max, infinity)."""

    gamma: float


@dataclass(frozen=True)
class Hamiltonian:
    segments: tuple[Segment, ...]
    tail: Optional[SingularHalfLine] = None

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("need at least one segment")
        # Merge adjacent constant-angle runs with equal angle mod pi
        # (singular intervals are maximal by definition).
        merged: list[Segment] = []
        for seg in segs:
            if (
                merged
                and merged[-1].is_singular
                and seg.is_singular
                and _cong_mod_pi(merged[-1].kind.alpha, seg.kind.alpha)
            ):
                merged[-1] = Segment(merged[-1].length + seg.length, merged[-1].kind)
            else:
                merged.append(seg)
        object.__setattr__(self, "segments", tuple(merged))

    @property
    def x_max(self) -> float:
        return sum(s.length for s in self.segments)

    def boundaries(self) -> list[float]:
        out = [0.0]
        for s in self.segments:
            out.append(out[-1] + s.length)
        return out

    def segment_at(self, x: float) -> tuple[int, float]:
        """Index of the segment containing x and the offset inside it."""
        if x < 0.0:
            raise ValueError("x must be nonnegative")
        acc = 0.0
        for i, s in enumerate(self.segments):
            if x < acc + s.length or i == len(self.segments) - 1:
                return i, min(x - acc, s.length)
            acc += s.length
        raise AssertionError("unreachable")

    def h_at(self, x: float) -> np.ndarray:
        if x > self.x_max:
            if self.tail is None:
                raise ValueError(f"x = {x} beyond X_max = {self.x_max} and no tail")
            return p_alpha(self.tail.gamma)
        i, off = self.segment_at(x)
        return self.segments[i].h_at(off)

    def walk(self, L: float):
        """(x, piece, span) for every piece that meets (0, L): x its start, span
        its length inside (0, L).  Past X_max the tail is one more piece;
        without a tail, L beyond X_max is a ValueError."""
        acc = 0.0
        for seg in self.segments:
            if acc >= L:
                return
            for p in seg.pieces():
                x = acc + p.offset
                if x >= L:
                    break
                yield x, p, min(p.end - p.offset, L - x)
            acc += seg.length
        if L > acc:
            if self.tail is not None:
                yield acc, Piece(0.0, L - acc, self.tail.gamma, self.tail.gamma), L - acc
            elif L > acc + 1e-12 * max(1.0, acc):
                raise ValueError(f"L = {L} beyond X_max = {acc} and no tail attached")

    def single_singular_type(self) -> Optional[float]:
        """Angle alpha if the whole body is one singular interval, else None."""
        if len(self.segments) == 1 and self.segments[0].is_singular:
            return self.segments[0].kind.alpha
        return None


def _cong_mod_pi(a: float, b: float, tol: float = 1e-12) -> bool:
    d = (a - b) / PI
    return abs(d - round(d)) < tol


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    issues: list[tuple[int, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate(H: Hamiltonian, tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check every segment against the trace-normed PSD invariants."""
    issues: list[tuple[int, str]] = []
    for i, seg in enumerate(H.segments):
        k = seg.kind
        if isinstance(k, ConstantMatrix):
            for msg in k.matrix.issues(tol):
                issues.append((i, msg))
        # angle-based kinds are trace-normed PSD by construction
    return ValidationReport(ok=not issues, issues=issues)


def require_valid(H: Hamiltonian, tol: float = CONSTRUCTION_TOL) -> None:
    rep = validate(H, tol)
    if not rep.ok:
        detail = "; ".join(f"segment {i}: {m}" for i, m in rep.issues)
        raise ValueError(f"invalid Hamiltonian: {detail}")


# ---------------------------------------------------------------------------
# angle profiles


@dataclass(frozen=True)
class PhiPiece:
    """phi linear on [x0, x1), from phi0 at x0 to phi1 at x1-."""

    x0: float
    x1: float
    phi0: float
    phi1: float

    def value(self, x: float) -> float:
        if self.x1 == self.x0:
            return self.phi0
        s = (x - self.x0) / (self.x1 - self.x0)
        return self.phi0 + (self.phi1 - self.phi0) * s

    @property
    def is_plateau(self) -> bool:
        return self.phi0 == self.phi1

    def int_cos2(self) -> float:
        """Integral of cos^2(phi) over the piece, in closed form."""
        dx = self.x1 - self.x0
        a, b = self.phi0, self.phi1
        d = a - b
        if d == 0.0:
            c = math.cos(a)
            return dx * c * c
        # (sin 2a - sin 2b) / 4 = cos(a + b) sin(d) / 2: no cancellation at small d
        return dx * (0.5 + math.cos(a + b) * math.sin(d) / (2.0 * d))


@dataclass(frozen=True)
class PhiProfile:
    """Right-continuous nonincreasing piecewise-linear angle function.

    Consecutive pieces may be discontinuous (a downward jump of phi);
    ``phi_infinity`` is the declared limit beyond the last piece.
    ``normalization`` records the multiple of pi that was added to place
    phi(0+) in (-pi/2, pi/2].
    """

    pieces: tuple[PhiPiece, ...]
    phi_infinity: float
    normalization: int = 0

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValueError("empty profile")
        for p in ps:
            if p.x1 <= p.x0:
                raise ValueError("degenerate piece")
            if p.phi1 > p.phi0 + 1e-12:
                raise ValueError("increasing piece")
        for a, b in zip(ps, ps[1:]):
            if abs(b.x0 - a.x1) > 1e-9 * max(1.0, abs(a.x1)):
                raise ValueError("pieces must abut")
            if b.phi0 > a.phi1 + 1e-12:
                raise ValueError("upward jump between pieces")
        if self.phi_infinity > ps[-1].phi1 + 1e-12:
            raise ValueError("phi_infinity above the final value")

    @property
    def x_max(self) -> float:
        return self.pieces[-1].x1

    @property
    def phi_start(self) -> float:
        """phi(0+)."""
        return self.pieces[0].phi0

    @property
    def drop(self) -> float:
        return self.phi_start - self.phi_infinity

    def value(self, x: float) -> float:
        """phi(x); the declared limit is used beyond the last piece."""
        if x >= self.x_max:
            return self.pieces[-1].phi1 if x == self.x_max else self.phi_infinity
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if x < self.pieces[mid].x1:
                hi = mid
            else:
                lo = mid + 1
        return self.pieces[lo].value(x)

    def values(self, xs) -> np.ndarray:
        """phi at every x of xs: :meth:`value` elementwise, same bits."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        x0, x1, phi0, phi1 = np.array(
            [(p.x0, p.x1, p.phi0, p.phi1) for p in self.pieces]
        ).T
        i = np.minimum(np.searchsorted(x1, xs, side="right"), len(x1) - 1)
        s = (xs - x0[i]) / (x1[i] - x0[i])
        out = phi0[i] + (phi1[i] - phi0[i]) * s
        out[xs == x1[-1]] = phi1[-1]
        out[xs > x1[-1]] = self.phi_infinity
        return out

    def shifted(self, c: float, d_norm: int = 0) -> "PhiProfile":
        return PhiProfile(
            tuple(
                PhiPiece(p.x0, p.x1, p.phi0 + c, p.phi1 + c) for p in self.pieces
            ),
            self.phi_infinity + c,
            self.normalization + d_norm,
        )

    def normalized(self) -> "PhiProfile":
        """Shift by a multiple of pi so that phi(0+) lies in (-pi/2, pi/2]."""
        n = math.ceil((self.phi_start - HALF_PI) / PI - 1e-12)
        return self.shifted(-n * PI, d_norm=-n) if n else self

    def breakpoints(self) -> list[tuple[float, float]]:
        """(x, phi(x)) at every piece start plus the final right endpoint."""
        out = [(p.x0, p.phi0) for p in self.pieces]
        out.append((self.pieces[-1].x1, self.pieces[-1].phi1))
        return out

    def to_hamiltonian(self, tail: bool = True) -> Hamiltonian:
        """Encode P_phi back into segments (plateaus/ramps, jumps free)."""
        segs = []
        for p in self.pieces:
            length = p.x1 - p.x0
            if p.is_plateau:
                segs.append(Segment(length, ConstantAngle(p.phi0)))
            else:
                segs.append(Segment(length, PhiRamp(p.phi0, p.phi1)))
        t = SingularHalfLine(self.phi_infinity) if tail else None
        return Hamiltonian(tuple(segs), tail=t)


class NotRankOne(Exception):
    """H has a segment with det H above the rank-one threshold."""

    def __init__(self, segment_index: int, det: float):
        self.segment_index = segment_index
        self.det = det
        super().__init__(f"segment {segment_index} has det H = {det:g}")


def _align_below(value: float, ceiling: float) -> float:
    """Shift value by a multiple of pi into (ceiling - pi, ceiling]."""
    n = math.ceil((value - ceiling) / PI - 1e-12)
    return value - n * PI


def extract_phi(H: Hamiltonian, tol: float = RANK_ONE_TOL) -> PhiProfile:
    """Angle profile with H = P_phi, continuous nonincreasing branch.

    Across segment boundaries the branch with the smallest nonnegative drop
    (jump < pi) is chosen; ties resolve to drop zero.  Raises
    :class:`NotRankOne` at the first segment whose determinant exceeds tol.
    """
    require_valid(H)
    pieces: list[PhiPiece] = []
    x = 0.0
    prev_end: Optional[float] = None
    for i, seg in enumerate(H.segments):
        ps = seg.pieces()
        det = max(p.lam1 * p.lam2 for p in ps)
        if det > tol:
            raise NotRankOne(i, det)
        shift = 0.0 if prev_end is None else _align_below(ps[0].phi0, prev_end) - ps[0].phi0
        for p in ps:
            pieces.append(PhiPiece(x + p.offset, x + p.end, p.phi0 + shift, p.phi1 + shift))
        prev_end = ps[-1].phi1 + shift
        x += seg.length
    if H.tail is not None:
        phi_inf = _align_below(H.tail.gamma, prev_end)
    else:
        phi_inf = prev_end
    return PhiProfile(tuple(pieces), phi_inf).normalized()


# ---------------------------------------------------------------------------
# symmetry operations


def rotate(H: Hamiltonian, gamma: float) -> Hamiltonian:
    """Conjugate the coefficient function, H_gamma = R_gamma H R_{-gamma}."""
    segs = []
    for seg in H.segments:
        k = seg.kind
        if isinstance(k, ConstantAngle):
            nk: SegmentKind = ConstantAngle(k.alpha + gamma)
        elif isinstance(k, PhiRamp):
            nk = PhiRamp(k.phi_start + gamma, k.phi_end + gamma)
        elif isinstance(k, PhiTable):
            nk = PhiTable(tuple((o, p + gamma) for o, p in k.points))
        else:
            r = rotation(gamma)
            m = r @ k.matrix.as_array() @ r.T
            nk = ConstantMatrix(MatrixH(m[0, 0], m[0, 1], m[1, 1]))
        segs.append(Segment(seg.length, nk))
    tail = None if H.tail is None else SingularHalfLine(H.tail.gamma + gamma)
    return Hamiltonian(tuple(segs), tail=tail)


def truncate_with_tail(H: Hamiltonian, L: float, gamma: float) -> Hamiltonian:
    """System equal to H on (0, L), P_gamma beyond."""
    if not (0.0 < L <= H.x_max + 1e-12 * max(1.0, H.x_max)):
        raise ValueError(f"L = {L} outside (0, X_max = {H.x_max}]")
    segs: list[Segment] = []
    acc = 0.0
    for seg in H.segments:
        if L >= acc + seg.length - 1e-12 * max(1.0, L):
            segs.append(seg)
            acc += seg.length
            if abs(acc - L) <= 1e-12 * max(1.0, L):
                break
        else:
            left, _ = seg.split(L - acc)
            segs.append(left)
            break
    return Hamiltonian(tuple(segs), tail=SingularHalfLine(gamma))

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

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Optional, Union

import numpy as np

#: tolerance of the trace / PSD checks of :func:`validate`
CONSTRUCTION_TOL = 1e-12
#: determinant threshold below which a matrix counts as rank one
RANK_ONE_TOL = 1e-10

PI = math.pi
HALF_PI = math.pi / 2


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

    def angle(self) -> float:
        """Projection angle mod pi, meaningful when det ~ 0."""
        return 0.5 * math.atan2(2.0 * self.h12, self.h11 - self.h22)

    def issues(self) -> list[str]:
        out = []
        if abs(self.trace - 1.0) > CONSTRUCTION_TOL:
            out.append(f"trace = {self.trace!r}, expected 1")
        if self.h11 < -CONSTRUCTION_TOL or self.h22 < -CONSTRUCTION_TOL:
            out.append("negative diagonal entry")
        if self.h12 * self.h12 > self.h11 * self.h22 + CONSTRUCTION_TOL:
            out.append("not positive semidefinite (h12^2 > h11*h22)")
        return out


# ---------------------------------------------------------------------------
# segment kinds
#
# A kind answers one question: the closed-form pieces of a segment of the
# given length.  Cutting and turning act on those pieces, in Segment.split and
# rotate, and give a Pieces kind whatever the kind they start from.


@dataclass(frozen=True)
class ConstantAngle:
    """H = P_alpha on the whole segment (a singular-interval piece)."""

    alpha: float

    def pieces(self, length: float) -> tuple[Piece, ...]:
        return (Piece(0.0, length, self.alpha, self.alpha),)


@dataclass(frozen=True)
class ConstantMatrix:
    """H constant, possibly of full rank."""

    matrix: MatrixH

    def pieces(self, length: float) -> tuple[Piece, ...]:
        """One piece in the eigenbasis: lam1 the larger eigenvalue."""
        m, phi = self.matrix, self.matrix.angle()
        lam1 = 0.5 * float(m.trace + math.hypot(m.h11 - m.h22, 2.0 * m.h12))
        # lam1 = 0 only where both eigenvalues are at most 0: lam2 = trace - lam1
        lam2 = float(m.det) / lam1 if lam1 else float(m.trace)
        return (Piece(0.0, length, phi, phi, lam1, lam2),)


@dataclass(frozen=True)
class PhiRamp:
    """H = P_phi(x) with phi linear and nonincreasing across the segment."""

    phi_start: float
    phi_end: float

    def __post_init__(self):
        if self.phi_end > self.phi_start + 1e-15:
            raise ValueError("PhiRamp requires phi_end <= phi_start")

    def pieces(self, length: float) -> tuple[Piece, ...]:
        return (Piece(0.0, length, self.phi_start, self.phi_end),)


class PhiTable:
    """H = P_phi(x) with phi piecewise linear through (offset, phi) samples.

    Offsets are relative to the segment start, strictly increasing, starting
    at 0; phi values are nonincreasing.  The samples are kept only as the
    table's pieces, one per interval; :attr:`points` reads them back.
    """

    __slots__ = ("_pieces",)

    def __init__(self, points):
        pts = [(float(o), float(p)) for o, p in points]
        if len(pts) < 2:
            raise ValueError("PhiTable needs at least two samples")
        if pts[0][0] != 0.0:
            raise ValueError("PhiTable offsets must start at 0")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("PhiTable offsets must be strictly increasing")
        if any(b[1] > a[1] + 1e-15 for a, b in zip(pts, pts[1:])):
            raise ValueError("PhiTable phi values must be nonincreasing")
        self._pieces = tuple(Piece(o0, o1, p0, p1) for (o0, p0), (o1, p1) in zip(pts, pts[1:]))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        ps = self._pieces
        return tuple((p.offset, p.phi0) for p in ps) + ((ps[-1].end, ps[-1].phi1),)

    def __eq__(self, other):
        return isinstance(other, PhiTable) and self._pieces == other._pieces

    def __hash__(self) -> int:
        return hash(self._pieces)

    def __repr__(self) -> str:
        return f"PhiTable(points={self.points!r})"

    def pieces(self, length: float) -> tuple[Piece, ...]:
        """One piece per table interval: the stored tuple itself."""
        return self._pieces


@dataclass(frozen=True)
class Pieces:
    """A segment given by its pieces, offsets from the segment start: what
    :meth:`Segment.split` and :func:`rotate` make of a segment of any kind."""

    chain: tuple[Piece, ...]

    def pieces(self, length: float) -> tuple[Piece, ...]:
        return self.chain


SegmentKind = Union[ConstantAngle, ConstantMatrix, PhiRamp, PhiTable, Pieces]


class Piece(NamedTuple):
    """[offset, end) of a segment, where H = R(phi) diag(lam1, lam2) R(phi)^T.

    phi runs linearly from phi0 to phi1; with kappa = -phi' the frame
    v = R(phi)^T u turns u' = z J H u into v' = [[0, -b], [a, 0]] v with the
    constants (a, b) = :meth:`rates`.  Angle pieces have (lam1, lam2) = (1, 0);
    a constant matrix is one piece in its eigenbasis (phi0 = phi1).  A
    singular tail is the piece [0, inf) past X_max.  The pieces of a
    :class:`PhiProfile` are angle pieces in absolute coordinates.
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
        """phi at offset off into the piece: phi1 exactly at the piece's end."""
        length = self.end - self.offset
        return self.phi1 if off == length else self.phi0 + (self.phi1 - self.phi0) * (off / length)

    def rates(self, z):
        """(a, b) = (z lam1 + kappa, z lam2 + kappa)."""
        kappa = (self.phi0 - self.phi1) / (self.end - self.offset)
        return z * self.lam1 + kappa, z * self.lam2 + kappa

    def int_cos2(self) -> float:
        """Integral of cos^2(phi) over an angle piece, in closed form."""
        dx = self.end - self.offset
        a, b = self.phi0, self.phi1
        d = a - b
        if d == 0.0:
            c = math.cos(a)
            return dx * c * c
        # (sin 2a - sin 2b) / 4 = cos(a + b) sin(d) / 2: no cancellation at small d
        return dx * (0.5 + math.cos(a + b) * math.sin(d) / (2.0 * d))


@dataclass(frozen=True)
class Segment:
    length: float
    kind: SegmentKind
    #: the kind's pieces at this length, built once: one :class:`Piece` per
    #: constant angle, ramp, matrix or table interval
    pieces: tuple[Piece, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValueError("segment length must be positive")
        pieces = self.kind.pieces(self.length)
        # only a table's or a chain's pieces can end elsewhere
        if abs(pieces[-1].end - self.length) > 1e-12 * max(1.0, self.length):
            raise ValueError("PhiTable last offset must equal segment length")
        object.__setattr__(self, "pieces", pieces)

    def split(self, at: float) -> tuple["Segment", "Segment"]:
        """Split into two segments with lengths (at, length - at).  The piece
        across the cut is cut there, both halves taking its Piece.phi; pieces
        right of it move by -at.  An invalid segment is a ValueError."""
        if not (0.0 < at < self.length):
            raise ValueError("split point must be interior")
        require_valid(Hamiltonian((self,)))
        left, right = [], []
        for p in self.pieces:
            if p.end <= at:
                left.append(p)
            elif p.offset >= at:
                right.append(p._replace(offset=p.offset - at, end=p.end - at))
            else:
                mid = p.phi(at - p.offset)
                left.append(p._replace(end=at, phi1=mid))
                right.append(p._replace(offset=0.0, end=p.end - at, phi0=mid))
        return Segment(at, Pieces(tuple(left))), Segment(self.length - at, Pieces(tuple(right)))


@dataclass(frozen=True)
class SingularHalfLine:
    """H = P_gamma on (X_max, infinity)."""

    gamma: float


@dataclass(frozen=True)
class Hamiltonian:
    segments: tuple[Segment, ...]
    tail: Optional[SingularHalfLine] = None
    #: the tail as one piece on [X_max, infinity)
    _tail_piece: Optional[Piece] = field(init=False, repr=False, compare=False)
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("need at least one segment")
        object.__setattr__(self, "segments", segs)
        tail = None if self.tail is None else Piece(0.0, math.inf, self.tail.gamma, self.tail.gamma)
        object.__setattr__(self, "_tail_piece", tail)

    @property
    def x_max(self) -> float:
        return sum(s.length for s in self.segments)

    def walk(self, L: float):
        """(x, piece, span) for every piece that meets (0, L): x its start, span
        its length inside (0, L).  Past X_max the tail is one more piece;
        without a tail, L beyond X_max is a ValueError.  Every computation on
        H walks, so the walk is their gate: it first raises ValueError for an
        invalid H (:func:`require_valid`), then for L < 0, inf or NaN."""
        require_valid(self)
        if not 0.0 <= L < math.inf:
            raise ValueError(f"L must be finite and nonnegative, not {L}")
        acc = 0.0
        for seg in self.segments:
            if acc >= L:
                return
            for p in seg.pieces:
                x = acc + p.offset
                if x >= L:
                    break
                yield x, p, min(p.end - p.offset, L - x)
            acc += seg.length
        if L > acc:
            if self._tail_piece is not None:
                yield acc, self._tail_piece, L - acc
            elif L > acc + 1e-12 * max(1.0, acc):
                raise ValueError(f"L = {L} beyond X_max = {acc} and no tail attached")


def cong_mod_pi(a: float, b: float) -> bool:
    """a = b mod pi, to 1e-12 in units of pi."""
    d = (a - b) / PI
    return abs(d - round(d)) < 1e-12


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    """``issues`` holds (segment index, message); the tail counts as index
    len(H.segments)."""

    ok: bool
    issues: list[tuple[int, str]] = field(default_factory=list)


def validate(H: Hamiltonian) -> ValidationReport:
    """Check every segment against the trace-normed PSD invariants, and its
    length, its pieces and the tail angle for non-finite numbers."""
    issues: list[tuple[int, str]] = []
    for i, seg in enumerate(H.segments):
        if not all(map(math.isfinite, chain((seg.length,), *seg.pieces))):
            issues.append((i, "length or piece values not finite"))
        k = seg.kind
        if isinstance(k, ConstantMatrix):
            for msg in k.matrix.issues():
                issues.append((i, msg))
        # angle-based kinds are trace-normed PSD by construction
    if H.tail is not None and not math.isfinite(H.tail.gamma):
        issues.append((len(H.segments), f"tail gamma = {H.tail.gamma!r} is not finite"))
    return ValidationReport(ok=not issues, issues=issues)


def require_valid(H: Hamiltonian) -> None:
    """ValueError unless H passes :func:`validate`; a pass is kept on the frozen H."""
    if H._valid:
        return
    rep = validate(H)
    if not rep.ok:
        detail = "; ".join(f"segment {i}: {m}" for i, m in rep.issues)
        raise ValueError(f"invalid Hamiltonian: {detail}")
    object.__setattr__(H, "_valid", True)


# ---------------------------------------------------------------------------
# angle profiles


@dataclass(frozen=True)
class PhiProfile:
    """Right-continuous nonincreasing piecewise-linear angle function.

    Consecutive pieces may be discontinuous (a downward jump of phi);
    ``phi_infinity`` is the declared limit beyond the last piece.
    """

    pieces: tuple[Piece, ...]
    phi_infinity: float

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValueError("empty profile")
        for p in ps:
            if p.end <= p.offset:
                raise ValueError("degenerate piece")
            if p.phi1 > p.phi0 + 1e-12:
                raise ValueError("increasing piece")
        for a, b in zip(ps, ps[1:]):
            if abs(b.offset - a.end) > 1e-9 * max(1.0, abs(a.end)):
                raise ValueError("pieces must abut")
            if b.phi0 > a.phi1 + 1e-12:
                raise ValueError("upward jump between pieces")
        if self.phi_infinity > ps[-1].phi1 + 1e-12:
            raise ValueError("phi_infinity above the final value")

    @property
    def x_max(self) -> float:
        return self.pieces[-1].end

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
        p = self.pieces[bisect.bisect_right(self.pieces, x, key=lambda p: p.end)]
        return p.phi(x - p.offset)

    def values(self, xs) -> np.ndarray:
        """phi at every x of xs: :meth:`value` elementwise, same bits."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        x0, x1, phi0, phi1 = np.array(
            [(p.offset, p.end, p.phi0, p.phi1) for p in self.pieces]
        ).T
        i = np.minimum(np.searchsorted(x1, xs, side="right"), len(x1) - 1)
        s = (xs - x0[i]) / (x1[i] - x0[i])
        # s == 1 exactly where x - offset == end - offset: phi1, as Piece.phi gives
        out = np.where(s == 1.0, phi1[i], phi0[i] + (phi1[i] - phi0[i]) * s)
        out[xs > x1[-1]] = self.phi_infinity
        return out

    def shifted(self, c: float) -> "PhiProfile":
        return PhiProfile(
            tuple(Piece(p.offset, p.end, p.phi0 + c, p.phi1 + c) for p in self.pieces),
            self.phi_infinity + c,
        )

    def normalized(self) -> "PhiProfile":
        """Shift by a multiple of pi so that phi(0+) lies in (-pi/2, pi/2]."""
        n = math.ceil((self.phi_start - HALF_PI) / PI - 1e-12)
        return self.shifted(-n * PI) if n else self


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


def extract_phi(H: Hamiltonian) -> PhiProfile:
    """Angle profile with H = P_phi, continuous nonincreasing branch.

    Across segment boundaries the branch with the smallest nonnegative drop
    (jump < pi) is chosen; ties resolve to drop zero.  Raises
    :class:`NotRankOne` at the first segment with det H > RANK_ONE_TOL.
    """
    require_valid(H)
    pieces: list[Piece] = []
    x = 0.0
    prev_end: Optional[float] = None
    for i, seg in enumerate(H.segments):
        ps = seg.pieces
        det = max(p.lam1 * p.lam2 for p in ps)
        if det > RANK_ONE_TOL:
            raise NotRankOne(i, det)
        shift = 0.0 if prev_end is None else _align_below(ps[0].phi0, prev_end) - ps[0].phi0
        for p in ps:
            pieces.append(Piece(x + p.offset, x + p.end, p.phi0 + shift, p.phi1 + shift))
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
    """Conjugate the coefficient function, H_gamma = R_gamma H R_{-gamma}:
    every piece's phi0 and phi1 move by gamma, its lam1 and lam2 stay.  An
    invalid H is a ValueError."""
    require_valid(H)
    segs = [Segment(s.length, Pieces(tuple(p._replace(phi0=p.phi0 + gamma, phi1=p.phi1 + gamma) for p in s.pieces)))
            for s in H.segments]
    tail = None if H.tail is None else SingularHalfLine(H.tail.gamma + gamma)
    return Hamiltonian(segs, tail=tail)


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

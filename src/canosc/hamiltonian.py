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

#: slack of the trace / PSD checks of :func:`validate`: a heuristic
CONSTRUCTION_TOL = 1e-12
#: det H above this is full rank (det ~ the smaller eigenvalue): a heuristic
RANK_ONE_TOL = 1e-10
#: slack of every angle question mod pi (:func:`cong_mod_pi`, :func:`branch`),
#: in units of pi: a heuristic, which item 2's declared tail replaces for phi(inf)
ANGLE_TOL = 1e-12
#: slack of "x is at X" (:func:`same_position`), relative to max(1, |x|, |X|):
#: a sum of n lengths rounds by at most n/2 ulp, so this covers 9000 segments
POSITION_TOL = 1e-12

PI = math.pi
HALF_PI = math.pi / 2


def rotation(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MatrixH:
    """Entries of a symmetric 2x2 coefficient value.

    Construction is permissive: a :class:`ConstantMatrix` is one piece in its
    eigenbasis, and :func:`validate` judges that piece (eigenvalues
    nonnegative with sum 1), so malformed data is reported, not raised.
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

    def pieces(self, length: float) -> tuple[Piece, ...]:
        return (Piece(0.0, length, self.phi_start, self.phi_end),)


@dataclass(frozen=True)
class Pieces:
    """A segment given by its pieces, offsets from the segment start: what
    :meth:`Segment.split` and :func:`rotate` make of a segment of any kind."""

    chain: tuple[Piece, ...]

    def pieces(self, length: float) -> tuple[Piece, ...]:
        return self.chain


class PhiTable(Pieces):
    """H = P_phi(x) with phi piecewise linear through (offset, phi) samples:
    the chain of one piece per interval, which :attr:`points` reads back.

    Offsets are relative to the segment start, strictly increasing, starting
    at 0; phi values are nonincreasing (rules of :func:`validate`).
    """

    def __init__(self, points):
        pts = [(float(o), float(p)) for o, p in points]
        if len(pts) < 2:
            raise ValueError("PhiTable needs at least two samples")
        super().__init__(tuple(Piece(o0, o1, p0, p1) for (o0, p0), (o1, p1) in zip(pts, pts[1:])))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        ps = self.chain
        return tuple((p.offset, p.phi0) for p in ps) + ((ps[-1].end, ps[-1].phi1),)

    def __repr__(self) -> str:
        return f"PhiTable(points={self.points!r})"


SegmentKind = Union[ConstantAngle, ConstantMatrix, PhiRamp, PhiTable, Pieces]


class Piece(NamedTuple):
    """[offset, end) of a segment, where H = R(phi) diag(lam1, lam2) R(phi)^T.

    phi runs linearly from phi0 to phi1; with kappa = -phi' the frame
    v = R(phi)^T u turns u' = z J H u into v' = [[0, -b], [a, 0]] v with the
    constants (a, b) = (z lam1 + kappa, z lam2 + kappa).  Angle pieces have
    (lam1, lam2) = (1, 0); a constant matrix is one piece in its eigenbasis
    (phi0 = phi1).  A singular tail is the piece [0, inf) past X_max.  The
    pieces of a :class:`PhiProfile` are angle pieces in absolute coordinates.
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
        object.__setattr__(self, "pieces", self.kind.pieces(self.length))

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
                span, rest = p.end - p.offset, L - x
                yield x, p, rest if rest < span else span
            acc += seg.length
        if L > acc:
            if self._tail_piece is not None:
                yield acc, self._tail_piece, L - acc
            elif not same_position(L, acc):
                raise ValueError(f"L = {L} beyond X_max = {acc} and no tail attached")


def same_position(x: float, X: float) -> bool:
    """x is at X on the line, to POSITION_TOL: the one rule of an end of H."""
    return abs(x - X) <= POSITION_TOL * max(1.0, abs(x), abs(X))


def cong_mod_pi(a: float, b: float) -> bool:
    """a = b mod pi, to ANGLE_TOL in units of pi."""
    d = (a - b) / PI
    return abs(d - round(d)) < ANGLE_TOL


def branch(value: float, ceiling: float) -> int:
    """The n with value - n pi in (ceiling - pi, ceiling], a rise by at most
    ANGLE_TOL pi counting as none: n > 0 where value rises above ceiling."""
    return math.ceil((value - ceiling) / PI - ANGLE_TOL)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    """``issues`` holds (segment index, message); the tail counts as index
    len(H.segments)."""

    ok: bool
    issues: list[tuple[int, str]] = field(default_factory=list)


def _piece_issue(length: float, pieces: tuple[Piece, ...]) -> Optional[str]:
    """The first piece that breaks a segment rule, described; else None.  The
    pieces tile [0, length): the first starts at 0, each where the last one
    ended, each has positive length, and the last ends at the length
    (:func:`same_position`).  Each has lam1, lam2 >= 0 with lam1 + lam2 = 1
    to CONSTRUCTION_TOL (a matrix's trace and PSD rule), and phi does not
    rise past the tie of :func:`branch` (the ramp and table rule)."""
    if not pieces:
        return "no pieces"
    end = 0.0
    for j, p in enumerate(pieces):
        if p.offset != end:
            return f"piece {j}: starts at {p.offset!r}, not at {end!r}"
        if not p.end > p.offset:
            return f"piece {j}: ends at {p.end!r}, not after its start {p.offset!r}"
        if min(p.lam1, p.lam2) < -CONSTRUCTION_TOL or abs(p.lam1 + p.lam2 - 1.0) > CONSTRUCTION_TOL:
            return f"piece {j}: eigenvalues ({p.lam1!r}, {p.lam2!r}), expected nonnegative with sum 1"
        if branch(p.phi1, p.phi0) > 0:
            return f"piece {j}: phi rises from {p.phi0!r} to {p.phi1!r}"
        end = p.end
    if not same_position(end, length):
        return f"piece {j}: ends at {end!r}, not at the segment length {length!r}"
    return None


def validate(H: Hamiltonian) -> ValidationReport:
    """Check every segment's length, pieces and the tail angle for non-finite
    numbers, then each segment's pieces against the segment rules of
    :func:`_piece_issue`, whatever its kind: every bad segment is reported,
    each once."""
    issues: list[tuple[int, str]] = []
    for i, seg in enumerate(H.segments):
        if not all(map(math.isfinite, chain((seg.length,), *seg.pieces))):
            issues.append((i, "length or piece values not finite"))
        elif (msg := _piece_issue(seg.length, seg.pieces)) is not None:
            issues.append((i, msg))
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
            if branch(p.phi1, p.phi0) > 0:
                raise ValueError("increasing piece")
        for a, b in zip(ps, ps[1:]):
            if not same_position(b.offset, a.end):
                raise ValueError("pieces must abut")
            if branch(b.phi0, a.phi1) > 0:
                raise ValueError("upward jump between pieces")
        if branch(self.phi_infinity, ps[-1].phi1) > 0:
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


class NotRankOne(Exception):
    """H has a segment with det H above the rank-one threshold."""

    def __init__(self, segment_index: int, det: float):
        self.segment_index = segment_index
        self.det = det
        super().__init__(f"segment {segment_index} has det H = {det:g}")


def extract_phi(H: Hamiltonian) -> PhiProfile:
    """Angle profile with H = P_phi, continuous nonincreasing branch.

    Across segment boundaries the branch with the smallest nonnegative drop
    (jump < pi) is chosen, ties resolving to drop zero, and c puts phi(0+)
    in (-pi/2, pi/2] (:func:`branch`).  Raises :class:`NotRankOne` at the
    first segment with det H > RANK_ONE_TOL.
    """
    require_valid(H)
    c = -branch(H.segments[0].pieces[0].phi0, HALF_PI) * PI
    pieces: list[Piece] = []
    x = 0.0
    prev_end: Optional[float] = None
    for i, seg in enumerate(H.segments):
        ps = seg.pieces
        det = max(p.lam1 * p.lam2 for p in ps)
        if det > RANK_ONE_TOL:
            raise NotRankOne(i, det)
        v = ps[0].phi0
        shift = 0.0 if prev_end is None else (v - branch(v, prev_end) * PI) - v
        for p in ps:
            pieces.append(Piece(x + p.offset, x + p.end, p.phi0 + shift + c, p.phi1 + shift + c))
        prev_end = ps[-1].phi1 + shift
        x += seg.length
    phi_inf = prev_end if H.tail is None else H.tail.gamma - branch(H.tail.gamma, prev_end) * PI
    return PhiProfile(tuple(pieces), phi_inf + c)


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
    if not (0.0 < L and (L <= H.x_max or same_position(L, H.x_max))):
        raise ValueError(f"L = {L} outside (0, X_max = {H.x_max}]")
    segs: list[Segment] = []
    acc = 0.0
    for seg in H.segments:
        end = acc + seg.length
        cut = L < end and not same_position(L, end)  # L inside the segment
        segs.append(seg.split(L - acc)[0] if cut else seg)
        if cut or same_position(L, end):
            break
        acc = end
    return Hamiltonian(tuple(segs), tail=SingularHalfLine(gamma))

"""Property tests of the closed-form piece kernels.

The Pruefer steps and transfer factors of :mod:`canosc.pruefer` and
:mod:`canosc.entire` are checked against the adaptive Dormand-Prince
integrator of :mod:`canosc.rk` at tol 1e-12, run segment by segment with
every table kink as a checkpoint, and against the invariants of the exact
propagators: theta(L; t) nondecreasing in t, covariance of theta and of
the transfer matrix under rotation, invariance under splitting a segment,
and unit determinant of every one-segment transfer matrix.  Truncation
consistency: the count on [0, L] with the natural boundary angle of a tail
P_gamma is the half-line count of the system truncated at L with that tail.
The batched transfer product over an array of z is checked element by
element against scalar calls, and its power-of-two rescaling is checked to
change no bit of the result.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from canosc import entire, hamiltonian, pruefer, rk, spectra
from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    PhiRamp,
    PhiTable,
    Segment,
    SingularHalfLine,
    rotate,
    rotation,
    truncate_with_tail,
)
import refs

J = np.array([[0.0, -1.0], [1.0, 0.0]])
RK_TOL = 1e-12

lengths = st.floats(0.1, 1.5)
angles = st.floats(-1.5, 1.5)


@st.composite
def ramps(draw):
    a, b = sorted((draw(angles), draw(angles)), reverse=True)
    return Segment(draw(lengths), PhiRamp(a, b))


def matrix(lam2: float, alpha: float) -> ConstantMatrix:
    """H = R(alpha) diag(1 - lam2, lam2) R(alpha)^T."""
    r = rotation(alpha)
    m = r @ np.diag([1.0 - lam2, lam2]) @ r.T
    return ConstantMatrix(MatrixH(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]))


@st.composite
def matrices(draw):
    return Segment(draw(lengths), matrix(draw(st.floats(0.0, 0.5)), draw(angles)))


@st.composite
def table_points(draw):
    n = draw(st.integers(2, 5))
    steps = draw(st.lists(st.floats(0.05, 0.6), min_size=n, max_size=n))
    offs = np.concatenate(([0.0], np.cumsum(steps)))
    drops = draw(st.lists(st.sampled_from([0.0, 0.1, 0.4, 1.0]), min_size=n, max_size=n))
    phis = draw(angles) - np.concatenate(([0.0], np.cumsum(drops)))
    return tuple(zip(offs.tolist(), phis.tolist()))


def tables():
    return table_points().map(lambda pts: Segment(pts[-1][0], PhiTable(pts)))


def samples(seg: Segment) -> tuple[tuple[float, float], ...]:
    """(offset, phi) at every piece start and at the last piece's end."""
    ps = seg.pieces
    return tuple((p.offset, p.phi0) for p in ps) + ((ps[-1].end, ps[-1].phi1),)


constant_angles = st.builds(Segment, lengths, st.builds(ConstantAngle, angles))
segments = st.one_of(ramps(), matrices(), tables(), constant_angles)
systems = st.lists(segments, min_size=1, max_size=3).map(lambda s: Hamiltonian(tuple(s)))
tailed = st.builds(
    Hamiltonian,
    st.lists(segments, min_size=1, max_size=4).map(tuple),
    st.one_of(st.none(), st.builds(SingularHalfLine, angles)),
)


def kinks(seg: Segment) -> list[float]:
    if isinstance(seg.kind, PhiTable):
        return [o for o, _ in seg.kind.points[1:-1]]
    return []


def rk_theta(H: Hamiltonian, t: float, theta0: float, x_eval=()) -> tuple[float, dict]:
    """theta(X_max; t) and theta at x_eval, segment by segment by rk."""
    theta, acc, at = theta0, 0.0, {}
    for seg in H.segments:
        def f(x, th, seg=seg):
            h = refs.segment_h(seg, x)
            c, s = math.cos(th), math.sin(th)
            return t * (h[0, 0] * c * c + 2.0 * h[0, 1] * s * c + h[1, 1] * s * s)

        inner = {p: p - acc for p in x_eval if acc < p < acc + seg.length}
        xs, ys = rk.integrate_adaptive(
            f, 0.0, seg.length, theta, RK_TOL, x_eval=kinks(seg) + list(inner.values())
        )
        for p, off in inner.items():
            at[p] = float(ys[xs.index(off)])
        theta = float(ys[-1])
        acc += seg.length
    return theta, at


def rk_transfer(H: Hamiltonian, z: complex) -> np.ndarray:
    T = np.eye(2, dtype=complex)
    for seg in H.segments:
        def f(x, u, seg=seg):
            return z * (J @ refs.segment_h(seg, x) @ u.reshape(2, 2)).reshape(4)

        _, ys = rk.integrate_adaptive(
            f, 0.0, seg.length, np.eye(2, dtype=complex).reshape(4), RK_TOL, x_eval=kinks(seg)
        )
        T = ys[-1].reshape(2, 2) @ T
    return T


class TestAgainstRK:
    @pytest.mark.slow
    @given(systems, st.floats(-20.0, 20.0), angles)
    @settings(max_examples=40, deadline=None)
    def test_theta(self, H, t, theta0):
        ref, _ = rk_theta(H, t, theta0)
        assert pruefer.theta_at(H, t, theta0, H.x_max) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.slow
    @given(st.lists(tables(), min_size=1, max_size=2), st.floats(-20.0, 20.0), st.data())
    @settings(max_examples=25, deadline=None)
    def test_x_eval_inside_table_pieces(self, segs, t, data):
        H = Hamiltonian(tuple(segs))
        pts = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))
        ends = np.cumsum([0.0] + [s.length for s in H.segments])
        x_eval = sorted({p * H.x_max for p in pts} - set(ends))
        assume(x_eval)
        _, ref = rk_theta(H, t, 0.2, x_eval)
        tr = pruefer.integrate(H, t, 0.2, H.x_max, x_eval=x_eval)
        for x in x_eval:
            assert np.interp(x, tr.xs, tr.thetas) == pytest.approx(ref[x], abs=1e-9)

    @given(ramps(), st.floats(0.0, 10.0), angles)
    @settings(max_examples=30, deadline=None)
    def test_ramp_below_and_at_minus_kappa(self, seg, excess, theta0):
        # t <= -kappa makes a = t + kappa <= 0 < b = kappa (ab <= 0)
        kappa = (seg.kind.phi_start - seg.kind.phi_end) / seg.length
        assume(kappa > 0.0)
        H = Hamiltonian((seg,))
        for t in (-kappa, -kappa - excess):
            ref, _ = rk_theta(H, t, theta0)
            assert pruefer.theta_at(H, t, theta0, H.x_max) == pytest.approx(ref, abs=1e-9)

    @given(angles, lengths, st.floats(-50.0, 50.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_near_rank_one_matrix_is_singular_step(self, alpha, length, t, theta0):
        H = Hamiltonian((Segment(length, matrix(1e-14, alpha)),))
        exact = pruefer.step_singular(theta0, alpha, length, t)
        assert pruefer.theta_at(H, t, theta0, length) == pytest.approx(exact, abs=1e-11)

    @given(systems, st.floats(-15.0, 15.0), st.floats(-15.0, 15.0))
    @settings(max_examples=25, deadline=None)
    def test_transfer_matrix(self, H, re, im):
        z = complex(re, im)
        T = entire.transfer_matrix(H, H.x_max, z).entries
        ref = rk_transfer(H, z)
        assert np.max(np.abs(T - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


class TestInvariants:
    @given(systems, st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=6), angles)
    @settings(max_examples=40, deadline=None)
    def test_theta_nondecreasing_in_t(self, H, ts, theta0):
        vals = [pruefer.theta_at(H, t, theta0, H.x_max) for t in sorted(ts)]
        assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))

    @given(systems, st.floats(-20.0, 20.0), angles, st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_rotation_covariance(self, H, t, theta0, gamma):
        th = pruefer.theta_at(H, t, theta0, H.x_max)
        th_rot = pruefer.theta_at(rotate(H, gamma), t, theta0 + gamma, H.x_max)
        assert th_rot == pytest.approx(th + gamma, abs=1e-11 * max(1.0, abs(th)))

    @given(tailed, st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(-3.0, 3.0), st.floats(0.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_transfer_matrix_rotation_covariance(self, H, re, im, gamma, beyond):
        # T of R(gamma) H R(gamma)^T is R(gamma) T R(gamma)^T, whatever frame
        # the product carries its rows in on the way
        z = complex(re, im)
        assume(abs(z) <= 30.0)
        x = H.x_max * (beyond if H.tail is not None else min(beyond, 1.0))
        T = entire.transfer_matrix(H, x, z).entries
        T_rot = entire.transfer_matrix(rotate(H, gamma), x, z).entries
        R = rotation(gamma)
        assert np.max(np.abs(T_rot - R @ T @ R.T)) <= 1e-12 * max(1.0, np.max(np.abs(T)))

    @given(
        st.tuples(ramps(), matrices(), tables(), constant_angles),
        st.lists(segments, max_size=2),
        st.builds(SingularHalfLine, angles),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rotate_turns_every_piece(self, kinds, extra, tail, gamma):
        # the same chain with phi + gamma, lam1 and lam2 bit for bit, tail included
        H = Hamiltonian(tuple(kinds) + tuple(extra), tail=tail)
        L = H.x_max + 1.0
        walked, turned = list(H.walk(L)), list(rotate(H, gamma).walk(L))
        assert len(turned) == len(walked)
        for (x, p, span), (xr, pr, spanr) in zip(walked, turned):
            assert (xr, spanr) == (x, span)
            assert pr == p._replace(phi0=p.phi0 + gamma, phi1=p.phi1 + gamma)

    @given(segments, st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_split_cuts_the_chain(self, seg, frac):
        # pieces before the cut keep their bits, the piece across it is cut
        # at Piece.phi, the pieces after it move by -at: put back together,
        # the chain's ends and every piece's phi and lam are the original bits
        at = frac * seg.length
        assume(0.0 < at < seg.length)
        a, b = seg.split(at)
        before = [p for p in seg.pieces if p.end <= at]
        across = [p for p in seg.pieces if p.offset < at < p.end]
        after = [p for p in seg.pieces if p.offset >= at]
        assert list(a.pieces[: len(before)]) == before
        assert list(b.pieces[len(b.pieces) - len(after):]) == [
            p._replace(offset=p.offset - at, end=p.end - at) for p in after
        ]
        for p in across:
            mid = p.phi(at - p.offset)
            assert a.pieces[-1] == p._replace(end=at, phi1=mid)
            assert b.pieces[0] == p._replace(offset=0.0, end=p.end - at, phi0=mid)
        assert len(a.pieces) + len(b.pieces) == len(seg.pieces) + len(across)
        assert a.pieces[0].phi0 == seg.pieces[0].phi0 and b.pieces[-1].phi1 == seg.pieces[-1].phi1
        assert (a.length, b.length) == (at, seg.length - at)

    @given(segments, st.floats(0.05, 0.95), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_split_leaves_theta_and_T(self, seg, frac, t, im):
        H = Hamiltonian((seg,))
        H_split = Hamiltonian(seg.split(frac * seg.length))
        th = pruefer.theta_at(H, t, 0.3, H.x_max)
        assert pruefer.theta_at(H_split, t, 0.3, H.x_max) == pytest.approx(
            th, abs=1e-11 * max(1.0, abs(th))
        )
        z = complex(t, im)
        T = entire.transfer_matrix(H, H.x_max, z).entries
        T_split = entire.transfer_matrix(H_split, H.x_max, z).entries
        assert np.max(np.abs(T - T_split)) <= 1e-11 * max(1.0, np.max(np.abs(T)))

    @given(segments, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_factor_det_one(self, seg, re, im):
        # T = e^s U with max |U entry| = 1, so |det(e^s U) - 1| <= 1e-12 max(1, |e^s U|^2)
        # reads |det U - e^(-2s)| <= 1e-12 max(e^(-2s), 1)
        U, s = entire.transfer_matrix_log(Hamiltonian((seg,)), seg.length, complex(re, im))
        det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
        unit = math.exp(-2.0 * s)
        assert abs(det - unit) <= 1e-12 * max(unit, 1.0)


class TestBatched:
    """An array of z runs through one product; each element must match the
    scalar call at that z."""

    @given(
        tailed,
        st.sampled_from([(5,), (3, 4)]),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar_calls(self, H, shape, seed, beyond):
        rng = np.random.default_rng(seed)
        radii = 10.0 ** rng.uniform(-2.0, 3.0, shape)
        Z = radii * np.exp(2j * math.pi * rng.random(shape))
        x = H.x_max * (beyond if H.tail is not None else min(beyond, 1.0))
        U, s = entire.transfer_matrix_log(H, x, Z)
        lm = entire.log_max_entry(H, x, Z)
        assert U.shape == shape + (2, 2) and s.shape == shape and lm.shape == shape
        for idx in np.ndindex(*shape):
            U1, s1 = entire.transfer_matrix_log(H, x, Z[idx])
            assert np.max(np.abs(U[idx] - U1)) <= 1e-13
            assert abs(s[idx] - s1) <= 1e-13 * max(1.0, abs(s1))
            lm1 = entire.log_max_entry(H, x, Z[idx])
            assert abs(lm[idx] - lm1) <= 1e-13 * max(1.0, abs(lm1))

    @given(tailed, st.integers(0, 2**32 - 1), st.floats(0.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_rescaling_is_exact(self, H, seed, beyond):
        # scaling by powers of two is exact: rescaling the product at nearly
        # every factor must give the same bits as rescaling it rarely.  That
        # holds for normal numbers only, so the data may not make partial
        # products below the float range (an angle of 1e-159 squares to one).
        assume(all(v == 0.0 or abs(v) > 1e-100 for _, p, _ in H.walk(H.x_max) for v in (p.phi0, p.phi1, p.lam2)))
        assume(H.tail is None or H.tail.gamma == 0.0 or abs(H.tail.gamma) > 1e-100)
        rng = np.random.default_rng(seed)
        Z = 10.0 ** rng.uniform(0.0, 3.0, 6) * np.exp(2j * math.pi * rng.random(6))
        x = H.x_max * (beyond if H.tail is not None else min(beyond, 1.0))
        U, s = entire.transfer_matrix_log(H, x, Z)
        with mock.patch.object(entire, "_HEADROOM", 5.0):
            U5, s5 = entire.transfer_matrix_log(H, x, Z)
        assert np.array_equal(U, U5) and np.array_equal(s, s5)

    @given(tailed, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=20, deadline=None)
    def test_scalar_gives_matrix_and_float(self, H, re, im):
        for z in (complex(re, im), re, np.complex128(complex(re, im))):
            U, s = entire.transfer_matrix_log(H, H.x_max, z)
            assert U.shape == (2, 2) and type(s) is float
            assert type(entire.log_max_entry(H, H.x_max, z)) is float
            assert entire.transfer_matrix(H, H.x_max, z).entries.shape == (2, 2)


class TestStoredPieces:
    """Each segment builds its pieces once; a table keeps its samples only
    as its pieces, and cut or turned it is the samples np.interp would
    give."""

    @given(tailed, st.floats(0.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_walk_yields_the_stored_pieces(self, H, beyond):
        stored = [p for seg in H.segments for p in seg.pieces]
        walked = [p for _, p, _ in H.walk(H.x_max)]
        assert len(walked) == len(stored) and all(a is b for a, b in zip(walked, stored))
        if H.tail is not None:
            x = H.x_max * (1.0 + beyond)
            assert list(H.walk(x))[-1][1] is list(H.walk(x))[-1][1]

    @given(table_points())
    @settings(max_examples=60, deadline=None)
    def test_points_read_back(self, pts):
        table = PhiTable(pts)
        assert table.points == pts
        assert all(type(v) is float for pair in table.points for v in pair)
        assert PhiTable(list(pts)) == table and hash(PhiTable(list(pts))) == hash(table)
        assert hash(Segment(pts[-1][0], PhiTable(pts))) == hash(Segment(pts[-1][0], table))
        turned = rotate(Hamiltonian((Segment(pts[-1][0], table),)), 0.25).segments[0]
        assert samples(turned) == tuple((o, p + 0.25) for o, p in pts) != table.points

    @given(table_points(), st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_split_rotate_as_interp_on_points(self, pts, fracs):
        seg = Segment(pts[-1][0], PhiTable(pts))
        offs = np.array([o for o, _ in pts])
        phis = np.array([p for _, p in pts])
        length = pts[-1][0]
        for at in [f * length for f in fracs if 0.0 < f * length < length]:
            # the samples either side of the cut, and phi at the cut within
            # a few ulp of np.interp's
            a, b = seg.split(at)
            mid = a.pieces[-1].phi1
            assert mid == pytest.approx(float(np.interp(at, offs, phis)), abs=4 * math.ulp(float(np.max(np.abs(phis)))))
            assert samples(a) == tuple((o, p) for o, p in pts if o < at) + ((at, mid),)
            assert samples(b) == ((0.0, mid),) + tuple((o - at, p) for o, p in pts if o > at)
        turned = rotate(Hamiltonian((seg,)), 0.3).segments[0]
        assert samples(turned) == tuple((o, p + 0.3) for o, p in pts)

    @given(
        st.tuples(ramps(), matrices(), tables(), constant_angles),
        st.lists(segments, max_size=3),
        st.randoms(use_true_random=False),
        st.builds(SingularHalfLine, angles),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_walked_pieces_reproduce_h(self, kinds, extra, rnd, tail, fracs):
        # lam1 P_phi + lam2 P_{phi + pi/2} on each walked piece, tail included,
        # against H(x) read from the kinds' own fields
        segs = list(kinds) + extra
        rnd.shuffle(segs)
        H = Hamiltonian(tuple(segs), tail=tail)
        for x, piece, span in H.walk(H.x_max + 1.0):
            for f in fracs:
                phi = piece.phi(f * span)
                got = piece.lam1 * refs.p_alpha(phi) + piece.lam2 * refs.p_alpha(phi + math.pi / 2)
                assert np.max(np.abs(got - refs.h_at(H, x + f * span))) <= 1e-12

    @given(tailed, st.floats(-20.0, 20.0), angles, st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_theta_at_is_integrate_end(self, H, t, theta0, frac):
        L = H.x_max * (frac if H.tail is not None else min(frac, 1.0))
        th = pruefer.theta_at(H, t, theta0, L)
        assert th == pruefer.integrate(H, t, theta0, L).theta_end()
        assert th == pruefer.theta_at(H, t, theta0, L)

    @given(
        st.tuples(ramps(), matrices(), tables(), constant_angles),
        st.builds(SingularHalfLine, angles),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(-1e4, 1e4),
        angles,
    )
    @settings(max_examples=80, deadline=None)
    def test_advance_is_the_piece_rule_bit_for_bit(self, kinds, tail, frac, t, theta):
        # the step on fields read once against refs.advance, which reads
        # Piece.singular and Piece.phi: at each piece's whole span (where phi
        # is phi1 exactly) and inside it, the tail's piece included
        H = Hamiltonian(kinds, tail=tail)
        for _, piece, span in H.walk(H.x_max + 1.0):
            for length in (span, frac * span):
                assert pruefer.advance(theta, piece, length, t) == refs.advance(theta, piece, length, t)


class TestInvalidStillRaises:
    """Validation runs once per Hamiltonian; a failure is not kept, so every
    entry point raises on every call."""

    BAD = Hamiltonian((Segment(1.0, ConstantAngle(0.2)), Segment(1.0, ConstantMatrix(MatrixH(0.7, 0.0, 0.7)))))
    W = spectra.SpectralWindow(-2.0, 3.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda H, w: pruefer.theta_at(H, 1.0, 0.0, 2.0),
            lambda H, w: pruefer.integrate(H, 1.0, 0.0, 2.0),
            lambda H, w: spectra.count_bounded(H, 2.0, 0.0, w),
            lambda H, w: spectra.locate_eigenvalues(H, 2.0, 0.0, w),
            lambda H, w: spectra.halfline_count(H, w, [0.5, 1.0, 1.5, 2.0]),
            lambda H, w: entire.transfer_matrix_log(H, 2.0, 1.0j),
            lambda H, w: entire.log_max_entry(H, 2.0, np.array([1.0j, 2.0])),
        ],
        ids=[
            "theta_at", "integrate", "count_bounded", "locate_eigenvalues", "halfline_count",
            "transfer_matrix_log", "log_max_entry",
        ],
    )
    def test_every_entry_point_raises(self, call):
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid Hamiltonian"):
                call(self.BAD, self.W)

    def test_a_leading_pi_half_segment_is_checked_too(self):
        # (0, 1.5) lies in the P_{pi/2} segment: the trivial case, but only
        # for a valid H
        bad = Hamiltonian(
            (Segment(2.0, ConstantAngle(math.pi / 2)), Segment(1.0, ConstantMatrix(MatrixH(0.7, 0.0, 0.7))))
        )
        with pytest.raises(ValueError, match="invalid Hamiltonian"):
            spectra.count_bounded(bad, 1.5, 0.0, self.W)
        with pytest.raises(ValueError, match="invalid Hamiltonian"):
            spectra.locate_eigenvalues(bad, 1.5, 0.0, self.W)

    def test_rotate_and_split_check_their_input(self):
        # a cut or turned segment keeps no matrix entries for validate to read
        bad = Segment(1.0, ConstantMatrix(MatrixH(0.5, 0.0, 0.6)))
        with pytest.raises(ValueError, match="invalid Hamiltonian"):
            rotate(Hamiltonian((bad,)), 0.3)
        with pytest.raises(ValueError, match="invalid Hamiltonian"):
            bad.split(0.5)
        with pytest.raises(ValueError, match="invalid Hamiltonian"):
            truncate_with_tail(Hamiltonian((bad,)), 0.5, 0.0)

    @pytest.mark.parametrize("L", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda H, L: pruefer.theta_at(H, 1.0, 0.0, L),
            lambda H, L: pruefer.integrate(H, 1.0, 0.0, L),
            lambda H, L: entire.transfer_matrix_log(H, L, 1.0j),
        ],
        ids=["theta_at", "integrate", "transfer_matrix_log"],
    )
    def test_negative_or_nan_length_raises(self, call, L):
        # every comparison with NaN is false, so an unchecked NaN L walks all
        # of H; an infinite L would walk a tail to infinity
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.2)),), tail=SingularHalfLine(-0.4))
        with pytest.raises(ValueError, match="nonnegative"):
            call(H, L)

    def test_a_valid_system_is_checked_once(self):
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.2)), Segment(1.0, matrix(0.3, 0.1))))
        with mock.patch.object(hamiltonian, "validate", wraps=hamiltonian.validate) as v:
            spectra.locate_eigenvalues(H, 2.0, 0.0, self.W)
            pruefer.theta_at(H, 1.0, 0.0, 2.0)
        assert v.call_count == 1


class TestTruncationConsistency:
    @given(systems, st.floats(0.05, 1.0), st.floats(-2 * math.pi, 2 * math.pi), st.floats(-30.0, 10.0),
           st.floats(0.5, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_count_is_the_truncated_halfline_count(self, H, frac, gamma, s, width):
        L = frac * H.x_max
        beta = spectra._natural_beta(gamma)
        w = spectra.SpectralWindow(s, s + width)
        T = truncate_with_tail(H, L, gamma)
        for system, end in ((H, L), (T, T.x_max)):
            for t in (w.s, w.t):
                assume(spectra._dist_to_grid(pruefer.theta_at(system, t, 0.0, end) - beta) > 1e-9)
        assert spectra.count_bounded(H, L, beta, w).count == spectra.halfline_count(T, w, [L]).count

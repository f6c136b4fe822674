import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from canosc import entire, pruefer, spectra
from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    NotRankOne,
    PhiProfile,
    PhiRamp,
    PhiTable,
    Piece,
    Pieces,
    Segment,
    SingularHalfLine,
    extract_phi,
    rotate,
    truncate_with_tail,
    validate,
)
from refs import ENTRY_TOL, entries_valid, h_at, p_alpha, to_hamiltonian

PI = math.pi


def single(kind, length=1.0, tail=None):
    return Hamiltonian((Segment(length, kind),), tail=tail)


class TestValidate:
    def test_projection_system_valid(self):
        rep = validate(single(ConstantAngle(0.0)))
        assert rep.ok
        assert rep.issues == []

    def test_trace_violation_reported(self):
        H = single(ConstantMatrix(MatrixH(0.7, 0.0, 0.7)))
        # trace 1.4: the matrix is one piece in its eigenbasis, and validate
        # judges that piece's eigenvalues
        assert validate(H).issues == [(0, "piece 0: eigenvalues (0.7, 0.7), expected nonnegative with sum 1")]

    def test_zero_matrix_reported(self):
        zero = ConstantMatrix(MatrixH(0.0, 0.0, 0.0))
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.2)), Segment(1.0, zero)))
        assert H.segments[1].pieces == (Piece(0.0, 1.0, 0.0, 0.0, 0.0, 0.0),)
        assert validate(H).issues == [(1, "piece 0: eigenvalues (0.0, 0.0), expected nonnegative with sum 1")]

    def test_psd_violation_reported(self):
        H = single(ConstantMatrix(MatrixH(0.5, 0.6, 0.5)))
        rep = validate(H)
        assert not rep.ok
        assert rep.issues[0][0] == 0

    @pytest.mark.parametrize("H", [
        single(ConstantAngle(math.nan)),
        single(ConstantMatrix(MatrixH(0.5, math.nan, 0.5))),
        single(PhiRamp(0.5, -math.inf)),
        single(PhiTable(((0.0, 0.3), (math.nan, 0.2), (1.0, 0.1)))),
        single(ConstantAngle(0.3), length=math.inf),
        single(ConstantAngle(0.3), tail=SingularHalfLine(math.inf)),
    ], ids=["angle", "matrix", "ramp", "table", "length", "tail"])
    def test_non_finite_numbers_fail_the_gate(self, H):
        # NaN compares false, so no construction check catches it; the walk
        # would carry it into every answer
        rep = validate(H)
        assert not rep.ok and "finite" in rep.issues[0][1]
        with pytest.raises(ValueError, match="finite"):
            next(H.walk(0.5))

    @pytest.mark.parametrize("piece, message", [
        (Piece(0.0, 1.0, 0.3, 0.9, 2.0, -1.0), "piece 0: eigenvalues (2.0, -1.0), expected nonnegative with sum 1"),
        (Piece(0.0, 1.0, 0.3, 0.3, 0.5, 0.2), "piece 0: eigenvalues (0.5, 0.2), expected nonnegative with sum 1"),
        (Piece(0.0, 1.0, 0.3, 0.9), "piece 0: phi rises from 0.3 to 0.9"),
    ], ids=["negative_lam2", "trace", "rising_phi"])
    def test_invalid_piece_chain_fails_the_gate(self, piece, message):
        # a chain built by hand holds no matrix entries: its pieces are read
        ok = Piece(0.0, 0.5, 0.2, 0.2)
        H = Hamiltonian((Segment(0.5, Pieces((ok,))),
                         Segment(1.5, Pieces((ok, piece._replace(offset=0.5, end=1.5))))))
        assert validate(H).issues == [(1, message.replace("piece 0", "piece 1"))]
        with pytest.raises(ValueError, match="segment 1: piece 1"):
            pruefer.theta_at(H, 5.0, 0.0, 1.0)

    @pytest.mark.parametrize("kind, message", [
        (Pieces((Piece(0.0, 0.5, 0.3, 0.3),)), "piece 0: ends at 0.5, not at the segment length 1.0"),
        (Pieces(()), "no pieces"),
    ], ids=["short", "empty"])
    def test_chain_that_does_not_tile_the_segment_fails_the_gate(self, kind, message):
        # the tiling of [0, length) is a rule of validate, not of Segment
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.3)), Segment(1.0, kind)))
        assert validate(H).issues == [(1, message)]
        with pytest.raises(ValueError, match=f"invalid Hamiltonian: segment 1: {message}"):
            next(H.walk(1.5))

    @given(
        st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
        st.integers(0, 2),
        st.sampled_from(["gap", "overlap", "reversed", "late"]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_gap_overlap_reversal_or_late_start_names_segment_and_piece(self, steps, k, defect, data):
        # a hand-built chain on [0, length) with one defect at piece j, as
        # segment k of three: a gap or an overlap before piece j >= 1, piece j
        # ending before it starts, or the whole chain starting late (j = 0)
        ends = np.cumsum(steps).tolist()
        chain = [Piece(a, b, 0.3, 0.3) for a, b in zip([0.0] + ends, ends)]
        first = 1 if defect in ("gap", "overlap") else 0
        assume(len(chain) > first)
        j = 0 if defect == "late" else data.draw(st.integers(first, len(chain) - 1))
        if defect == "reversed":
            chain[j] = chain[j]._replace(end=chain[j].offset - 0.05)
        else:
            d = -0.5 * steps[j - 1] if defect == "overlap" else 0.05
            chain[j:] = [q._replace(offset=q.offset + d, end=q.end + d) for q in chain[j:]]
        segs = [Segment(1.0, ConstantAngle(0.2)) for _ in range(3)]
        segs[k] = Segment(ends[-1], Pieces(tuple(chain)))
        issues = validate(Hamiltonian(tuple(segs))).issues
        assert [(i, m.split(":")[0]) for i, m in issues] == [(k, f"piece {j}")]
        with pytest.raises(ValueError, match=f"invalid Hamiltonian: segment {k}: piece {j}: "):
            pruefer.theta_at(Hamiltonian(tuple(segs)), 5.0, 0.0, 0.5)

    def test_matrix_verdict_is_the_entry_rule(self):
        # the piece rule (eigenvalues >= 0 with sum 1) judges a matrix as its
        # entries (trace 1, diagonal >= 0, det >= 0) do; near each boundary the
        # entries sit 0.05 tol or more from the threshold, past rounding
        rng = np.random.default_rng(7)
        tol = ENTRY_TOL

        def margin(n):
            u = rng.uniform(0.0, 2.9, n)
            return rng.choice([-1.0, 1.0], n) * tol * np.where(u < 0.95, u, u + 0.1)

        n = 400
        h11 = rng.uniform(0.02, 0.98, n)
        inner = rng.uniform(-0.9, 0.9, n) * np.sqrt(h11 * (1.0 - h11))
        below = np.abs(margin(n))
        cases = {
            "generic": (rng.uniform(-0.5, 1.5, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 1.5, n)),
            "trace 1": (h11, rng.uniform(-1.2, 1.2, n) * np.sqrt(h11 * (1.0 - h11)), 1.0 - h11),
            "trace boundary": (h11, inner, 1.0 - h11 + margin(n)),
            "psd boundary": (h11, np.sqrt(h11 * (1.0 - h11) + margin(n)), 1.0 - h11),
            "diagonal boundary": (-below, np.zeros(n), 1.0 + below),
        }
        for name, (a, b, c) in cases.items():
            verdicts = []
            for m in map(MatrixH, a.tolist(), b.tolist(), c.tolist()):
                ok = validate(single(ConstantMatrix(m))).ok
                assert ok == entries_valid(m), m
                verdicts.append(ok)
            # every family but the generic one meets both verdicts
            assert name == "generic" or 0.1 < np.mean(verdicts) < 0.9, name

    def test_every_bad_segment_is_reported(self):
        H = Hamiltonian((
            Segment(1.0, ConstantAngle(0.3)),
            Segment(1.0, PhiRamp(0.1, 0.5)),
            Segment(1.0, ConstantMatrix(MatrixH(0.7, 0.0, 0.7))),
        ))
        assert validate(H).issues == [
            (1, "piece 0: phi rises from 0.1 to 0.5"),
            (2, "piece 0: eigenvalues (0.7, 0.7), expected nonnegative with sum 1"),
        ]

    def test_pointwise_psd_trace_on_samples(self):
        # every represented H(x) must be PSD with unit trace
        H = Hamiltonian(
            (
                Segment(1.0, PhiRamp(1.0, -0.5)),
                Segment(2.0, PhiTable(((0.0, -0.5), (1.0, -0.7), (2.0, -0.7)))),
                Segment(0.5, ConstantMatrix(MatrixH(0.25, 0.1, 0.75))),
            )
        )
        acc = 0.0
        for seg in H.segments:
            for u in np.linspace(0.0, seg.length, 100, endpoint=False):
                m = h_at(H, acc + u)
                assert abs(m[0, 0] + m[1, 1] - 1.0) < 1e-10
                assert np.min(np.linalg.eigvalsh(m)) > -1e-10
            acc += seg.length


class TestConstruction:
    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.0, ConstantAngle(0.0))

    def test_adjacent_equal_angles_kept_as_written(self):
        # equal angles mod pi compose exactly, so the constructor keeps the
        # caller's segments and every index names the one the caller wrote
        segs = (
            Segment(1.0, ConstantAngle(PI / 3)),
            Segment(2.0, ConstantAngle(PI / 3 - PI)),
            Segment(0.5, ConstantMatrix(MatrixH(0.7, 0.0, 0.7))),
        )
        H = Hamiltonian(list(segs))
        assert H.segments == segs
        assert [i for i, _ in validate(H).issues] == [2]
        with pytest.raises(ValueError, match=r"invalid Hamiltonian: segment 2: piece 0: eigenvalues"):
            next(H.walk(1.0))

    def test_increasing_ramp_rejected(self):
        # a kind only builds its pieces: validate reports the rise, the walk raises
        H = single(PhiRamp(-0.5, 0.5))
        assert validate(H).issues == [(0, "piece 0: phi rises from -0.5 to 0.5")]
        with pytest.raises(ValueError, match="invalid Hamiltonian: segment 0: piece 0: phi rises"):
            next(H.walk(0.5))

    def test_table_must_be_nonincreasing(self):
        H = single(PhiTable(((0.0, 0.1), (1.0, 0.2))))
        assert validate(H).issues == [(0, "piece 0: phi rises from 0.1 to 0.2")]
        with pytest.raises(ValueError, match="invalid Hamiltonian: segment 0: piece 0: phi rises"):
            next(H.walk(0.5))


class TestExtractPhi:
    def test_two_plateaus_read_off(self):
        H = Hamiltonian(
            (
                Segment(1.0, ConstantAngle(PI / 4)),
                Segment(1.0, ConstantAngle(-PI / 4)),
            )
        )
        phi = extract_phi(H)
        assert phi.value(0.5) == pytest.approx(PI / 4)
        assert phi.value(1.5) == pytest.approx(-PI / 4)

    def test_to_hamiltonian_round_trips_a_ramp(self):
        prof = PhiProfile((Piece(0.0, 1.0, 0.4, 0.4), Piece(1.0, 3.0, 0.2, -0.6)), -0.9)
        H = to_hamiltonian(prof)
        assert [s.kind for s in H.segments] == [ConstantAngle(0.4), PhiRamp(0.2, -0.6)]
        assert H.tail == SingularHalfLine(-0.9)
        back = extract_phi(H)
        assert (back.pieces, back.phi_infinity) == (prof.pieces, prof.phi_infinity)

    def test_full_rank_segment_raises(self):
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)))
        with pytest.raises(NotRankOne) as exc:
            extract_phi(H)
        assert exc.value.det == pytest.approx(0.25)

    def test_pi_shift_gives_constant_profile(self):
        H = Hamiltonian(
            (
                Segment(1.0, ConstantAngle(PI / 3)),
                Segment(1.0, ConstantAngle(PI / 3 - PI)),
            )
        )
        phi = extract_phi(H)
        assert phi.value(0.5) == pytest.approx(PI / 3)
        assert phi.value(1.5) == pytest.approx(PI / 3)

    def test_normalization_into_half_open_interval(self):
        phi = extract_phi(single(ConstantAngle(PI / 3 + 5 * PI)))
        assert -PI / 2 < phi.phi_start <= PI / 2
        assert phi.phi_start == pytest.approx(PI / 3)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 2.0),
                st.floats(-6.0, 6.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_modulo_pi(self, raw):
        # build a nonincreasing profile, encode it, extract it back
        x = 0.0
        phi = 1.4
        pieces = []
        for length, val in raw:
            phi = min(phi, val)
            pieces.append(Piece(x, x + length, phi, phi))
            x += length
            phi -= 0.01
        prof = PhiProfile(tuple(pieces), pieces[-1].phi1 - 0.5).normalized()
        back = extract_phi(to_hamiltonian(prof, tail=False))
        for xq in np.linspace(0.0, x * 0.999, 37):
            d = (prof.value(xq) - back.value(xq)) / PI
            assert abs(d - round(d)) < 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.floats(0.0, 1.2), max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_values_is_value_elementwise(self, raw, fractions):
        # ramps and jumps; samples at every breakpoint, inside and past X_max
        x, phi, pieces = 0.0, 0.7, []
        for length, drop, jump in raw:
            pieces.append(Piece(x, x + length, phi, phi - drop))
            x, phi = x + length, phi - drop - jump
        prof = PhiProfile(tuple(pieces), phi - 0.3)
        xs = [p.offset for p in pieces] + [p.end for p in pieces] + [f * x for f in fractions]
        assert prof.values(xs).tolist() == [prof.value(v) for v in xs]

    def test_values_is_value_where_the_offset_rounds_to_the_length(self):
        # below 1.7, x - 0.4 rounds to 1.7 - 0.4: Piece.phi gives phi1 there
        prof = PhiProfile((Piece(0.0, 0.4, 1.0, 0.9), Piece(0.4, 1.7, 0.9, 0.123456789)), 0.0)
        x = math.nextafter(1.7, 0.0)
        assert x - 0.4 == 1.7 - 0.4
        assert prof.values([x]).tolist() == [prof.value(x)] == [0.123456789]


class TestRotate:
    def test_projection_rotates_to_projection(self):
        H = rotate(single(ConstantAngle(0.0)), PI / 2)
        assert np.allclose(h_at(H, 0.5), p_alpha(PI / 2))

    def test_identity_rotation(self):
        H = single(ConstantMatrix(MatrixH(0.25, 0.1, 0.75)))
        H2 = rotate(H, 0.0)
        assert np.allclose(h_at(H, 0.1), h_at(H2, 0.1))

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_rotation_composes(self, g1, g2):
        H = Hamiltonian(
            (
                Segment(1.0, ConstantAngle(0.3)),
                Segment(1.0, ConstantMatrix(MatrixH(0.25, 0.1, 0.75))),
                Segment(1.0, PhiRamp(0.2, -0.2)),
            )
        )
        once = rotate(H, g1 + g2)
        twice = rotate(rotate(H, g1), g2)
        for x in (0.5, 1.5, 2.5):
            assert np.allclose(h_at(once, x), h_at(twice, x), atol=1e-12)

    def test_rank_one_matrix_stays_rank_one(self):
        # turning the entries of a rank-one matrix rounded them to a full-rank
        # one (lam2 = 1.4e-17), whose tiny P_{phi + pi/2} part wound 1186
        # extra times by t = 1e12 (theta 3727.10 against 4.3124) and cut the
        # order fit's radii to 1e3; the turned pieces keep lam2 = 0
        H = Hamiltonian(
            (Segment(1.0, ConstantMatrix(MatrixH(1.0, 0.0, 0.0))), Segment(1.0, ConstantAngle(-0.4)))
        )
        turned = rotate(H, 0.3)
        assert all(p.singular for _, p, _ in turned.walk(2.0))
        th = pruefer.integrate(H, 1e12, 0.0, 2.0)
        th_rot = pruefer.integrate(turned, 1e12, 0.3, 2.0)
        rounding = spectra._angle_rounding(th) + spectra._angle_rounding(th_rot)
        assert abs(th_rot.theta_end() - 0.3 - th.theta_end()) <= rounding
        assert th.theta_end() == pytest.approx(4.31238898038369, abs=1e-12)
        # R T R^T moves the largest entry a little: 0.0818 on both, 0.2258 on the full-rank one
        fits = [entire.order_bound_check(G).fitted_order for G in (H, turned)]
        assert fits[1] == pytest.approx(fits[0], abs=1e-3)

    def test_round_trip(self):
        H = single(PhiRamp(0.4, -0.4))
        back = rotate(rotate(H, 0.77), -0.77)
        for x in (0.1, 0.5, 0.9):
            assert np.allclose(h_at(H, x), h_at(back, x), atol=1e-12)


class TestTruncate:
    def test_truncate_at_x_max_keeps_segments(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.1)), Segment(1.0, ConstantAngle(1.0)))
        )
        T = truncate_with_tail(H, 2.0, -0.3)
        assert len(T.segments) == 2
        assert T.tail == SingularHalfLine(-0.3)

    def test_truncate_at_breakpoint(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.1)), Segment(1.0, ConstantAngle(1.0)))
        )
        T = truncate_with_tail(H, 1.0, 0.0)
        assert len(T.segments) == 1
        assert T.x_max == pytest.approx(1.0)

    def test_truncate_mid_segment_splits(self):
        H = single(PhiRamp(0.5, -0.5), length=2.0)
        T = truncate_with_tail(H, 0.75, 0.0)
        assert T.x_max == pytest.approx(0.75)
        # the split keeps the pointwise coefficient function
        assert np.allclose(h_at(T, 0.5), h_at(H, 0.5))

    def test_out_of_range_rejected(self):
        H = single(ConstantAngle(0.0))
        with pytest.raises(ValueError):
            truncate_with_tail(H, 1.5, 0.0)


class TestHelpers:
    def test_p_alpha_projection(self):
        P = p_alpha(-1.2)
        assert np.allclose(P @ P, P)
        assert np.trace(P) == pytest.approx(1.0)

    @pytest.mark.parametrize("drop", [0.0, 1e-15, 0.4, 1.5, 1e-10, 1e-6])
    def test_int_cos2_matches_quadrature(self, drop):
        import mpmath

        piece = Piece(0.5, 2.0, 0.3, 0.3 - drop)
        ref = mpmath.quad(lambda x: mpmath.cos(piece.phi(float(x) - 0.5)) ** 2, [0.5, 2.0])
        assert piece.int_cos2() == pytest.approx(float(ref), rel=1e-12)


class TestMemory:
    """A table keeps its samples once, as its pieces.  On CPython 3.11 with
    numpy 2.4, a 41-sample table walked once retained 6.45 KB when it kept a
    points tuple and two numpy arrays, and 10.6 KB with its pieces cached
    beside the points; the guard allows 1.2 times the first."""

    LIMIT_BYTES = 1.2 * 6450

    @staticmethod
    def retained() -> int:
        offs = np.linspace(0.0, 4.0, 41)
        phis = np.linspace(1.0, -1.0, 41)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            H = Hamiltonian((Segment(4.0, PhiTable(zip(offs.tolist(), phis.tolist()))),))
            pruefer.theta_at(H, 1.0, 0.0, H.x_max)
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert H.segments[0].pieces  # H is alive while measured
        return used

    def test_walked_table_retains_little(self):
        used = min(self.retained() for _ in range(3))
        assert used <= self.LIMIT_BYTES, f"{used} bytes retained"

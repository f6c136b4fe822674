import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    NotRankOne,
    PhiPiece,
    PhiProfile,
    PhiRamp,
    PhiTable,
    Segment,
    SingularHalfLine,
    e_alpha,
    extract_phi,
    p_alpha,
    rotate,
    truncate_with_tail,
    validate,
)

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
        rep = validate(H)
        assert not rep.ok
        assert any("trace" in msg for _, msg in rep.issues)

    def test_psd_violation_reported(self):
        H = single(ConstantMatrix(MatrixH(0.5, 0.6, 0.5)))
        rep = validate(H)
        assert not rep.ok
        assert rep.issues[0][0] == 0

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
                m = H.h_at(acc + u)
                assert abs(m[0, 0] + m[1, 1] - 1.0) < 1e-10
                assert np.min(np.linalg.eigvalsh(m)) > -1e-10
            acc += seg.length


class TestConstruction:
    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.0, ConstantAngle(0.0))

    def test_adjacent_equal_angles_merged(self):
        H = Hamiltonian(
            (
                Segment(1.0, ConstantAngle(PI / 3)),
                Segment(2.0, ConstantAngle(PI / 3 - PI)),
            )
        )
        assert len(H.segments) == 1
        assert H.segments[0].length == pytest.approx(3.0)

    def test_increasing_ramp_rejected(self):
        with pytest.raises(ValueError):
            PhiRamp(-0.5, 0.5)

    def test_table_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            PhiTable(((0.0, 0.1), (1.0, 0.2)))


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
            pieces.append(PhiPiece(x, x + length, phi, phi))
            x += length
            phi -= 0.01
        prof = PhiProfile(tuple(pieces), pieces[-1].phi1 - 0.5).normalized()
        back = extract_phi(prof.to_hamiltonian(tail=False))
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
            pieces.append(PhiPiece(x, x + length, phi, phi - drop))
            x, phi = x + length, phi - drop - jump
        prof = PhiProfile(tuple(pieces), phi - 0.3)
        xs = [p.x0 for p in pieces] + [p.x1 for p in pieces] + [f * x for f in fractions]
        assert prof.values(xs).tolist() == [prof.value(v) for v in xs]


class TestRotate:
    def test_projection_rotates_to_projection(self):
        H = rotate(single(ConstantAngle(0.0)), PI / 2)
        assert np.allclose(H.h_at(0.5), p_alpha(PI / 2))

    def test_identity_rotation(self):
        H = single(ConstantMatrix(MatrixH(0.25, 0.1, 0.75)))
        H2 = rotate(H, 0.0)
        assert np.allclose(H.h_at(0.1), H2.h_at(0.1))

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
            assert np.allclose(once.h_at(x), twice.h_at(x), atol=1e-12)

    def test_round_trip(self):
        H = single(PhiRamp(0.4, -0.4))
        back = rotate(rotate(H, 0.77), -0.77)
        for x in (0.1, 0.5, 0.9):
            assert np.allclose(H.h_at(x), back.h_at(x), atol=1e-12)


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
        assert np.allclose(T.h_at(0.5), H.h_at(0.5))

    def test_out_of_range_rejected(self):
        H = single(ConstantAngle(0.0))
        with pytest.raises(ValueError):
            truncate_with_tail(H, 1.5, 0.0)


class TestHelpers:
    def test_e_alpha_unit(self):
        v = e_alpha(0.73)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_p_alpha_projection(self):
        P = p_alpha(-1.2)
        assert np.allclose(P @ P, P)
        assert np.trace(P) == pytest.approx(1.0)

    @pytest.mark.parametrize("drop", [0.0, 1e-15, 0.4, 1.5, 1e-10, 1e-6])
    def test_int_cos2_matches_quadrature(self, drop):
        import mpmath

        piece = PhiPiece(0.5, 2.0, 0.3, 0.3 - drop)
        ref = mpmath.quad(lambda x: mpmath.cos(piece.value(float(x))) ** 2, [0.5, 2.0])
        assert piece.int_cos2() == pytest.approx(float(ref), rel=1e-12)

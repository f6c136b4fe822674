import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canosc import pruefer, rk
from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    PhiRamp,
    Segment,
    SingularHalfLine,
)

PI = math.pi

# theta(1) for the ramp phi: pi/4 -> -pi/4 at t = 1; frozen from runs at
# tolerances 1e-8 and 1e-10 that agreed to 6.1e-11
RAMP_THETA = 0.6085751184285944


def single(kind, length=1.0, tail=None):
    return Hamiltonian((Segment(length, kind),), tail=tail)


class TestStepSingular:
    def test_stationary_point(self):
        assert pruefer.step_singular(PI / 2, 0.0, 7.0, 123.0) == PI / 2

    def test_zero_parameter(self):
        assert pruefer.step_singular(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)

    def test_quarter_turn(self):
        assert pruefer.step_singular(0.0, 0.0, 1.0, 1.0) == pytest.approx(PI / 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pruefer.step_singular(0.0, 0.0, -1.0, 1.0)

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-3.0, 3.0),
        st.floats(0.01, 10.0),
        st.floats(-100.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_rk_integration(self, theta_in, alpha, length, t):
        exact = pruefer.step_singular(theta_in, alpha, length, t)

        def f(x, th):
            c = math.cos(th - alpha)
            return t * c * c

        _, ys = rk.integrate_adaptive(f, 0.0, length, theta_in, 1e-11)
        assert abs(exact - float(ys[-1])) < 1e-9 * max(1.0, abs(exact))

    def test_continuous_in_t_length(self):
        a = pruefer.step_singular(0.3, 0.0, 1.0, 2.0)
        b = pruefer.step_singular(0.3, 0.0, 1.0 + 1e-9, 2.0)
        assert abs(a - b) < 1e-7


class TestIntegrate:
    def test_trivial_perpendicular_type(self):
        H = single(ConstantAngle(PI / 2), length=10.0)
        for t in (-5.0, 0.0, 17.0):
            assert pruefer.theta_at(H, t, 0.0, 10.0) == pytest.approx(0.0)

    def test_arctan_closed_form(self):
        H = single(ConstantAngle(0.0))
        assert pruefer.theta_at(H, 5.0, 0.0, 1.0) == pytest.approx(math.atan(5.0))

    def test_ramp_frozen_value(self):
        H = single(PhiRamp(PI / 4, -PI / 4))
        th = pruefer.theta_at(H, 1.0, 0.0, 1.0)
        assert 0.0 < th < 1.0
        assert th == pytest.approx(RAMP_THETA, abs=1e-8)

    def test_initial_angle_exact(self):
        H = single(ConstantAngle(0.4))
        tr = pruefer.integrate(H, 2.0, 0.7, 1.0)
        assert tr.thetas[0] == 0.7

    def test_segment_boundaries_sampled(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.0)), Segment(0.5, PhiRamp(0.0, -1.0)))
        )
        tr = pruefer.integrate(H, 1.0, 0.0, 1.5)
        assert any(abs(x - 1.0) < 1e-14 for x in tr.xs)
        assert tr.xs[-1] == pytest.approx(1.5)

    def test_eval_point_is_sampled_as_given(self):
        # a point was stored as x + (p - x), which here rounds to the float
        # below p, so halfline_count's np.interp blended two samples at p
        lengths = (0.163377588992386, 1.033218945989287, 0.47880619314785555)
        H = Hamiltonian((Segment(lengths[0], ConstantAngle(0.4)), Segment(lengths[1], PhiRamp(0.4, -0.5)),
                         Segment(lengths[2], ConstantAngle(-0.9))))
        p = 0.42753745321524766
        tr = pruefer.integrate(H, 2.0, 0.0, sum(lengths), x_eval=[p])
        assert p in tr.xs
        x, ramp, _ = list(H.walk(sum(lengths)))[1]
        assert tr.thetas[list(tr.xs).index(p)] == pruefer.advance(tr.thetas[1], ramp, p - x, 2.0)

    def test_monotone_in_x_for_positive_t(self):
        H = Hamiltonian(
            (Segment(1.0, PhiRamp(0.5, -0.5)), Segment(1.0, ConstantAngle(-0.5)))
        )
        tr = pruefer.integrate(H, 3.0, 0.0, 2.0)
        assert np.all(np.diff(tr.thetas) >= -1e-9)

    def test_beyond_x_max_requires_tail(self):
        H = single(ConstantAngle(0.0))
        with pytest.raises(ValueError):
            pruefer.integrate(H, 1.0, 0.0, 2.0)
        H_tail = single(ConstantAngle(0.0), tail=SingularHalfLine(0.0))
        th = pruefer.theta_at(H_tail, 1.0, 0.0, 2.0)
        assert th == pytest.approx(math.atan(2.0))

    def test_matrix_segment_half_half(self):
        # H = diag(1/2, 1/2): theta' = t/2 exactly
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)), length=2.0)
        assert pruefer.theta_at(H, 3.0, 0.0, 2.0) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize(
        "t, theta0, L, error",
        [
            (math.nan, 0.0, 1.0, "t must be finite, not nan"),
            (math.inf, 0.0, 1.0, "t must be finite, not inf"),
            (-math.inf, 0.0, 1.0, "t must be finite, not -inf"),
            (1.0, math.nan, 1.0, "theta0 must be finite, not nan"),
            (1.0, math.inf, 1.0, "theta0 must be finite, not inf"),
            (1.0, -math.inf, 1.0, "theta0 must be finite, not -inf"),
            (1.0, 0.0, math.inf, "L must be finite and nonnegative, not inf"),
        ],
        ids=["nan", "inf", "-inf", "theta0-nan", "theta0-inf", "theta0--inf", "L-inf"],
    )
    def test_t_not_finite_raises(self, t, theta0, L, error):
        # theta(L; +-inf) is a limit the walk does not define yet: a ValueError,
        # not an angle.  A theta0 or L that is not finite has no angle either,
        # though the tail would walk to L = inf
        H = single(ConstantAngle(0.4), tail=SingularHalfLine(-0.2))
        with pytest.raises(ValueError, match=error):
            pruefer.integrate(H, t, theta0, L)
        with pytest.raises(ValueError, match=error):
            pruefer.theta_at(H, t, theta0, L)


class TestSweep:
    """theta(L; t) as a function of the spectral parameter t."""

    def test_zero_parameter_returns_theta0(self):
        H = single(ConstantAngle(0.3))
        assert pruefer.theta_at(H, 0.0, 0.1, 1.0) == pytest.approx(0.1)

    def test_closed_form_pair(self):
        H = single(ConstantAngle(0.0))
        assert pruefer.theta_at(H, 1.0, 0.0, 1.0) == pytest.approx(PI / 4)
        assert pruefer.theta_at(H, 2.0, 0.0, 1.0) == pytest.approx(math.atan(2.0))

    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
        st.floats(-1.5, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_t(self, angles, theta0):
        H = Hamiltonian(
            tuple(Segment(0.5, ConstantAngle(a)) for a in angles)
        )
        grid = [-5.0, -1.0, 0.0, 2.0, 8.0]
        vals = [pruefer.theta_at(H, t, theta0, H.x_max) for t in grid]
        assert all(b >= a - 2e-9 for a, b in zip(vals, vals[1:]))

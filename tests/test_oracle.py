import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from canosc import oracle, pruefer, rk, spectra
from canosc.hamiltonian import ConstantAngle, Hamiltonian, PhiRamp, Segment, SingularHalfLine
from canosc.spectra import SpectralWindow
import refs

PI = math.pi


def single(kind, length=1.0):
    return Hamiltonian((Segment(length, kind),))


class TestBoundaryFunctional:
    def test_at_lambda_zero(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.3)), Segment(1.0, ConstantAngle(-0.7)))
        )
        # T(L; 0) = identity, so the functional is sin(beta)
        for beta in (0.0, 0.7, 2.0):
            assert oracle.boundary_functional(H, 2.0, beta, 0.0) == pytest.approx(
                math.sin(beta)
            )

    def test_p0_neumann_no_roots(self):
        H = single(ConstantAngle(0.0))
        for lam in (-10.0, 0.0, 3.0, 100.0):
            assert oracle.boundary_functional(H, 1.0, PI / 2, lam) == pytest.approx(1.0)

    def test_p0_mixed_root_at_one(self):
        H = single(ConstantAngle(0.0))
        f = lambda lam: oracle.boundary_functional(H, 1.0, PI / 4, lam)
        assert f(1.0) == pytest.approx(0.0, abs=1e-14)
        assert f(0.5) * f(1.5) < 0.0

    def test_ramp_segment_rejected(self):
        H = single(PhiRamp(0.5, -0.5))
        with pytest.raises(ValueError):
            oracle.boundary_functional(H, 1.0, 0.0, 1.0)


class TestSignChangeCount:
    def test_negative_window_single_eigenvalue(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.0)), Segment(1.0, ConstantAngle(-PI / 2)))
        )
        # one sign change of the boundary functional below -0.5 for beta = 0.1
        assert oracle.count_by_sign_changes(H, 2.0, 0.1, (-30.0, -0.5)) == 1

    def test_p0_mixed_window(self):
        H = single(ConstantAngle(0.0))
        assert oracle.count_by_sign_changes(H, 1.0, PI / 4, (0.5, 2.0)) == 1

    def test_window_edges(self):
        # the single eigenvalue is at 1; windows stopping just short of it
        # miss it, windows starting just below catch it
        H = single(ConstantAngle(0.0))
        assert oracle.count_by_sign_changes(H, 1.0, PI / 4, (0.5, 1.0 - 1e-6)) == 0
        assert oracle.count_by_sign_changes(H, 1.0, PI / 4, (1.0 - 1e-6, 1.5)) == 1

    def test_agrees_with_pruefer_count(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 8)
            segs = tuple(
                Segment(float(rng.uniform(0.1, 2.0)), ConstantAngle(float(a)))
                for a in rng.uniform(-PI / 2, PI / 2, n)
            )
            H = Hamiltonian(segs)
            beta = float(rng.uniform(0.0, PI))
            w = SpectralWindow(-20.0 + 0.123, 20.0 + 0.123)
            ours = spectra.count_bounded(H, H.x_max, beta, w).count
            theirs = oracle.count_by_sign_changes(H, H.x_max, beta, (w.s, w.t))
            assert ours == theirs


#: (length, alpha) of a 7-segment system with two close eigenvalue pairs,
#: 0.49 and 0.40 apart
CLOSE_PAIRS = (
    (0.9119170632291206, 1.6396570322488255),
    (0.5112457614672375, 2.0670452526993746),
    (2.272009687675807, 1.6403497589048923),
    (0.5058535143482972, 1.305148128071938),
    (2.7591729960447076, 2.1971880725346704),
    (1.793962083694803, 1.140251676832337),
    (0.9950079974867575, 1.4808403354303534),
)


@st.composite
def staircases(draw):
    """(H, L, beta): 1-8 angle segments, a tail half of the time, L inside
    the segments or, with the tail, past X_max."""
    segs = draw(st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    tail = draw(st.none() | st.floats(-3.0, 3.0).map(SingularHalfLine))
    H = Hamiltonian(tuple(Segment(ell, ConstantAngle(a)) for ell, a in segs), tail=tail)
    L = H.x_max * draw(st.floats(0.3, 1.0 if tail is None else 1.5))
    beta = draw(st.sampled_from([0.0, 1e-12, PI - 1e-12]) | st.floats(0.0, PI, exclude_max=True))
    return H, L, beta


class TestSingularSpectrum:
    def test_flat_system_has_no_eigenvalue(self):
        # u = e_0 at every t, so the functional is sin(0) = 0 for every t
        H = single(ConstantAngle(PI / 2))
        assert oracle.count_by_sign_changes(H, 1.0, 0.0, (-3.0, 3.0)) == 0
        assert oracle.singular_spectrum(H, 1.0, 0.0).size == 0

    def test_close_pairs_are_all_counted(self):
        H = Hamiltonian(tuple(Segment(ell, ConstantAngle(a)) for ell, a in CLOSE_PAIRS))
        beta, w = 2.9425512599741794, SpectralWindow(-50.69218368372931, 31.353513924019538)
        assert oracle.count_by_sign_changes(H, H.x_max, beta, (w.s, w.t)) == 7
        ev = oracle.singular_spectrum(H, H.x_max, beta)
        assert ev == pytest.approx([-18.9734, -2.0319, -1.5410, -0.1329, 2.1730, 6.5581, 6.9555], abs=1e-4)
        res = spectra.count_bounded(H, H.x_max, beta, w)
        assert (res.count, res.certified) == (7, True)
        assert spectra.locate_eigenvalues(H, H.x_max, beta, w) == pytest.approx(ev, rel=1e-9)

    def test_short_staircase_has_one_negative_eigenvalue(self):
        H = Hamiltonian(tuple(Segment(1e-5, ConstantAngle(a)) for a in (1.2, -1.2, 0.3)))
        ev = oracle.singular_spectrum(H, 3e-5, 1.8707963267948966)
        assert ev == pytest.approx([-182556.46686269, 214342.93936925], rel=1e-9)
        assert np.count_nonzero(ev < 0.0) == 1

    @given(st.floats(0.1, 3.0), st.floats(-1.5, 1.5), st.floats(0.01, PI - 0.01))
    @settings(max_examples=60, deadline=None)
    def test_single_piece_closed_form(self, ell, alpha, beta):
        # u(L) = e_0 + t l cos(alpha) J e_alpha is parallel to e_beta at one t
        assume(abs(math.cos(alpha) * math.cos(alpha - beta)) > 1e-3)
        ev = oracle.singular_spectrum(single(ConstantAngle(alpha), ell), ell, beta)
        closed = math.sin(beta) / (ell * math.cos(alpha) * math.cos(alpha - beta))
        assert ev == pytest.approx([closed], rel=1e-12)

    @given(staircases())
    @settings(max_examples=60, deadline=None)
    def test_functional_vanishes_at_each_eigenvalue(self, system):
        # the functional near lam is at most the product of the factor
        # norms, 1 + |lam| l each, as is lam times its derivative
        H, L, beta = system
        for lam in oracle.singular_spectrum(H, L, beta):
            scale = math.prod(1.0 + abs(lam) * ell for _, ell in oracle._angle_pieces(H, L))
            assert abs(oracle.boundary_functional(H, L, beta, lam)) <= 1e-9 * scale

    @given(staircases(), st.floats(-10.0, 10.0), st.floats(0.5, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_locate_agrees(self, system, s, width):
        H, L, beta = system
        w, tol = SpectralWindow(s, s + width), 1e-9
        ev = oracle.singular_spectrum(H, L, beta)
        assume(np.all(np.abs(np.subtract.outer(ev, [w.s, w.t])) > 1e-6))
        ev = ev[(w.s <= ev) & (ev < w.t)]
        eigs = spectra.locate_eigenvalues(H, L, beta, w, tol)
        assert len(eigs) == len(ev)
        for lam, ref in zip(eigs, ev):
            # the bound TestLocateSecant puts on locate against a bisection
            h = 1e-6 * max(1.0, abs(ref))
            slope = (pruefer.theta_at(H, ref + h, 0.0, L) - pruefer.theta_at(H, ref - h, 0.0, L)) / (2 * h)
            assert abs(lam - ref) <= 1.01 * tol / slope + 1e-13 * max(1.0, abs(ref))


class TestEulerComparison:
    def test_key_inequality(self):
        a, C = 1.0, 0.1
        for x in np.geomspace(1.001, 1e4, 60):
            assert refs.euler_comparison_alpha(float(x), a, C) < -C / x

    def test_riccati_residual(self):
        a, C = 2.0, 0.2
        h = 1e-5
        for x0 in (3.0, 10.0, 200.0):
            lhs = (
                refs.euler_comparison_alpha(x0 + h, a, C)
                - refs.euler_comparison_alpha(x0 - h, a, C)
            ) / (2 * h)
            v = refs.euler_comparison_alpha(x0, a, C)
            assert abs(lhs - (v * v + C / x0**2)) < 1e-8

    def test_blows_down_at_left_endpoint(self):
        a, C = 1.0, 0.1
        assert refs.euler_comparison_alpha(1.0 + 1e-9, a, C) < -1e6

    def test_critical_constant_rejected(self):
        with pytest.raises(ValueError):
            refs.euler_comparison_alpha(2.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            refs.euler_comparison_alpha(0.5, 1.0, 0.1)


class TestRiccatiBranches:
    def test_lower_branch_never_reaches_zero(self):
        a, C = 1.0, 0.2
        xs = np.geomspace(1.0001, 1e6, 200)
        vals = refs.riccati_lower_theta(xs, a, C)
        assert np.all(vals < 0.0)

    def test_upper_branch_crosses_zero_before_b(self):
        a, b, B, eps = 1.0, 10.0, 2.0, 0.3  # eps < 1 - 1/B
        xs = np.linspace(a, b, 2000)
        vals = refs.riccati_upper_alpha(xs, a, b, B, theta0=-5.0, eps=eps)
        signs = np.sign(vals[np.isfinite(vals)])
        assert signs[0] < 0 < signs[-1]

    def test_blowup_dichotomy_for_angle_flow(self):
        # surrogate for the comparison sandwich: on a C/x tail the angle
        # passes the stationary level only when 4*C*t > 1
        def tail(C, x1, n=20000):
            xs = np.geomspace(1.0, x1, n)
            segs = [Segment(1.0, ConstantAngle(C))]
            for lo, hi in zip(xs, xs[1:]):
                segs.append(Segment(hi - lo, ConstantAngle(C / (0.5 * (lo + hi)))))
            return Hamiltonian(tuple(segs))

        C = 1.0
        H = tail(C, 1e6)
        sub = pruefer.theta_at(H, 0.8 / (4 * C), 0.0, H.x_max)
        sup = pruefer.theta_at(H, 1.25 / (4 * C), 0.0, H.x_max)
        assert sub < PI / 2
        assert sup > PI / 2


class TestRampReferences:
    def test_factor_matches_rk(self):
        z = 2.0 + 1.5j
        H = single(PhiRamp(0.6, -0.4), length=1.3)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])

        def f(x, u):
            return z * (J @ refs.h_at(H, x) @ u.reshape(2, 2)).reshape(4)

        _, ys = rk.integrate_adaptive(f, 0.0, 1.3, np.eye(2, dtype=complex).reshape(4), 1e-12)
        F = refs.ramp_factor(0.6, -0.4, 1.3, z)
        assert np.max(np.abs(F - ys[-1].reshape(2, 2))) < 1e-10
        assert abs(np.linalg.det(F) - 1.0) < 1e-13

    @pytest.mark.parametrize("t", [-6.0, -0.5, 0.0, 1.0, 9.0])
    def test_theta_matches_rk(self, t):
        def f(x, th):
            return t * math.cos(th - (0.6 - x / 1.3)) ** 2

        _, ys = rk.integrate_adaptive(f, 0.0, 1.3, 0.25, 1e-12)
        assert refs.ramp_theta(0.6, -0.4, 1.3, t, 0.25) == pytest.approx(float(ys[-1]), abs=1e-10)

    def test_theta_counts_turns(self):
        # psi = theta - phi turns at the mean rate sqrt((t + kappa) kappa), so
        # sqrt(80.77 * 0.77) * 1.3 / pi = 3.3 half-turns; every branch is kept
        th = refs.ramp_theta(0.6, -0.4, 1.3, 80.0, 0.0)
        assert 3.0 * PI < th < 4.0 * PI
        assert th == pytest.approx(
            pruefer.theta_at(single(PhiRamp(0.6, -0.4), length=1.3), 80.0, 0.0, 1.3), abs=1e-12
        )


import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canosc import entire, oracle, pruefer, spectra, transforms
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
    Segment,
    SingularHalfLine,
    extract_phi,
)
from canosc.spectra import SpectralWindow
import refs

PI = math.pi
EPS = math.ulp(1.0)


def single(kind, length=1.0, tail=None):
    return Hamiltonian((Segment(length, kind),), tail=tail)


def plateau_profile(spans):
    """Profile from (length, phi) pairs, jumps between plateaus."""
    pieces = []
    x = 0.0
    for length, phi in spans:
        pieces.append(Piece(x, x + length, phi, phi))
        x += length
    return PhiProfile(tuple(pieces), spans[-1][1])


class TestCountBounded:
    def test_p0_single_eigenvalue(self):
        # theta(1; lam) = arctan(lam); beta = pi/4 picks out lam = 1
        H = single(ConstantAngle(0.0))
        res = spectra.count_bounded(H, 1.0, PI / 4, SpectralWindow(0.5, 2.0))
        assert res.count == 1
        assert res.certified

    def test_window_below_root_empty(self):
        H = single(ConstantAngle(0.0))
        res = spectra.count_bounded(H, 1.0, PI / 4, SpectralWindow(-2.0, -0.5))
        assert res.count == 0

    def test_exceptional_all_singular_case(self):
        H = single(ConstantAngle(PI / 2), length=3.0)
        res = spectra.count_bounded(H, 3.0, 0.3, SpectralWindow(-10.0, 10.0))
        assert res.count == 0
        assert res.certified

    def test_trivial_case_reads_the_first_segment(self):
        H = Hamiltonian((Segment(2.0, ConstantAngle(PI / 2)), Segment(1.0, ConstantAngle(0.3))))
        w = SpectralWindow(-10.0, 10.0)
        res = spectra.count_bounded(H, 1.5, 0.0, w)
        assert (res.count, res.certified) == (0, True)
        assert spectra.locate_eigenvalues(H, 1.5, 0.0, w) == []
        assert not spectra._is_full_singular_pi_half(H, 2.5)
        tailed = single(ConstantAngle(PI / 2), tail=SingularHalfLine(0.3))
        assert not spectra._is_full_singular_pi_half(tailed, 3.0)

    @pytest.mark.parametrize("beta", [4.0, -0.5, PI, math.nan])
    def test_beta_outside_zero_pi_rejected(self, beta):
        # the count and locate read beta alike: locate took 4 mod pi and
        # failed on nan in a ceiling
        H = single(ConstantAngle(0.3))
        w = SpectralWindow(0.0, 20.0)
        for call in (spectra.count_bounded, spectra.locate_eigenvalues):
            with pytest.raises(ValueError, match=r"beta must lie in \[0, pi\)"):
                call(H, 1.0, beta, w)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_L_not_finite_rejected(self, L):
        # with a tail the walk would run to L = inf: a certified count for a
        # beta that means nothing there
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.3)), Segment(1.0, ConstantAngle(-0.6))), tail=SingularHalfLine(-1.2)
        )
        w = SpectralWindow(-1.0, 1.0)
        for call in (spectra.count_bounded, spectra.locate_eigenvalues):
            with pytest.raises(ValueError, match=f"L must be finite and nonnegative, not {L}"):
                call(H, L, 0.5, w)

    @pytest.mark.parametrize("gap, certified", [(1e-14, False), (1e-6, True)])
    def test_certified_against_the_walk_rounding(self, gap, certified):
        # theta(3; 40) is three closed-form steps, with a rounding bound of
        # about 4.6e-14; an angle 1e-14 from a level is past a fixed 1e-15
        # floor but inside that bound, so its count is not certified
        H = Hamiltonian(tuple(Segment(1.0, ConstantAngle(a)) for a in (0.0, -0.7, -1.4)))
        tr = pruefer.integrate(H, 40.0, 0.0, 3.0)
        th = tr.theta_end()
        beta = (th - gap) % PI
        dist, bound = spectra._dist_to_grid(th - beta), spectra._angle_rounding(tr)
        assert dist > 1e-15 and (dist > bound) is certified
        res = spectra.count_bounded(H, 3.0, beta, SpectralWindow(-0.5, 40.0))
        assert (res.count, res.certified) == (3, certified)

    def test_beta_range_enforced(self):
        H = single(ConstantAngle(0.0))
        with pytest.raises(ValueError):
            spectra.count_bounded(H, 1.0, PI, SpectralWindow(0.0, 1.0))

    @given(
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6),
        st.floats(0.0, 3.0),
        st.floats(-8.0, 2.0),
        st.floats(0.5, 6.0),
        st.floats(0.5, 6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_count_additivity(self, angles, beta, s, d1, d2):
        H = Hamiltonian(tuple(Segment(0.7, ConstantAngle(a)) for a in angles))
        L = H.x_max
        t, u = s + d1, s + d1 + d2
        whole = spectra.count_bounded(H, L, beta, SpectralWindow(s, u)).count
        left = spectra.count_bounded(H, L, beta, SpectralWindow(s, t)).count
        right = spectra.count_bounded(H, L, beta, SpectralWindow(t, u)).count
        assert whole == left + right


P_HALF_PI = ConstantMatrix(MatrixH(0.0, 0.0, 1.0))


class TestTrivialCase:
    """H = P_{pi/2} on (0, L) has no eigenvalues, however it is written."""

    ENCODINGS = {
        "angle": (Segment(1.0, ConstantAngle(PI / 2)),),
        "matrix": (Segment(1.0, P_HALF_PI),),
        "ramp": (Segment(1.0, PhiRamp(PI / 2, PI / 2)),),
        "table": (Segment(1.0, PhiTable([(0.0, PI / 2), (0.5, PI / 2), (1.0, PI / 2)])),),
        "angle+matrix": (Segment(0.5, ConstantAngle(PI / 2)), Segment(0.5, P_HALF_PI)),
    }

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    def test_every_encoding_answers_alike(self, encoding, beta):
        H = Hamiltonian(self.ENCODINGS[encoding])
        w = SpectralWindow(-10.0, 10.0)
        res = spectra.count_bounded(H, 1.0, beta, w)
        assert (res.count, res.certified) == (0, True)
        assert spectra.locate_eigenvalues(H, 1.0, beta, w) == []

    def test_a_stretch_ending_before_L_is_not_trivial(self):
        # P_{pi/2} on (0, 0.5), then P_0: theta(1; t) = arctan(t / 2) meets pi/4 at t = 2
        H = Hamiltonian((Segment(0.5, P_HALF_PI), Segment(0.5, ConstantAngle(0.0))))
        assert spectra._is_full_singular_pi_half(H, 0.5)
        assert not spectra._is_full_singular_pi_half(H, 1.0)
        w = SpectralWindow(1.0, 3.0)
        assert spectra.count_bounded(H, 1.0, PI / 4, w).count == 1
        assert spectra.locate_eigenvalues(H, 1.0, PI / 4, w) == [pytest.approx(2.0, abs=1e-9)]

    def test_trivial_when_the_angles_round_off_the_level(self):
        # P_{pi/2 + 3e-12} is P_{pi/2} to cong_mod_pi, but its walk rounds
        # theta(1; -+1e9) to -+9e-15, either side of the level beta = 0
        H = Hamiltonian((Segment(1.0, ConstantAngle(PI / 2 + 3e-12)),))
        w = SpectralWindow(-1e9, 1e9)
        assert math.ceil(refs.level(H, 1.0, 0.0, w.t)) - math.ceil(refs.level(H, 1.0, 0.0, w.s)) == 1
        res = spectra.count_bounded(H, 1.0, 0.0, w)
        assert (res.count, res.certified) == (0, True)
        assert spectra.locate_eigenvalues(H, 1.0, 0.0, w) == []


class TestLocate:
    def test_p0_root_at_one(self):
        H = single(ConstantAngle(0.0))
        eigs = spectra.locate_eigenvalues(H, 1.0, PI / 4, SpectralWindow(0.0, 10.0))
        assert len(eigs) == 1
        assert eigs[0] == pytest.approx(1.0, abs=1e-8)

    def test_empty_below_spectrum(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.0)), Segment(1.0, ConstantAngle(-PI / 2)))
        )
        eigs = spectra.locate_eigenvalues(H, 2.0, 0.0, SpectralWindow(-5.0, -1.0))
        assert eigs == []

    def test_cardinality_matches_count(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.0)), Segment(1.0, ConstantAngle(-PI / 2)))
        )
        w = SpectralWindow(0.0, 50.0)
        eigs = spectra.locate_eigenvalues(H, 2.0, 0.0, w)
        assert len(eigs) == spectra.count_bounded(H, 2.0, 0.0, w).count

    def test_located_points_satisfy_angle_condition(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.3)), Segment(0.8, ConstantAngle(-0.9)))
        )
        beta = 0.6
        for lam in spectra.locate_eigenvalues(H, 1.8, beta, SpectralWindow(0.0, 40.0)):
            th = pruefer.theta_at(H, lam, 0.0, 1.8)
            assert spectra._dist_to_grid(th - beta) < 1e-6

    @pytest.mark.parametrize("d", [1e-4, 1e-6])
    def test_small_slope_matches_oracle(self, d):
        # theta(1; .) on P_{pi/2 - d} crosses 0 at t = 0 with slope theta' = d^2
        # there; a stop in angle, |theta| < tol, lands about tol / d^2 away
        H, w = single(ConstantAngle(PI / 2 - d)), SpectralWindow(-1.0, 1.0)
        (ref,) = oracle.singular_spectrum(H, 1.0, 0.0)
        (lam,) = spectra.locate_eigenvalues(H, 1.0, 0.0, w)
        assert abs(lam - ref) <= 8 * EPS * PI / d**2

    def test_flat_within_rounding_is_empty_like_the_count(self):
        # at d = 1e-8 both ends of the window round onto level 0
        H, w = single(ConstantAngle(PI / 2 - 1e-8)), SpectralWindow(-1.0, 1.0)
        assert spectra.count_bounded(H, 1.0, 0.0, w).count == 0
        assert spectra.locate_eigenvalues(H, 1.0, 0.0, w) == []
        assert oracle.singular_spectrum(H, 1.0, 0.0).size == 0

    def test_subnormal_angle_lies_on_its_level(self):
        # theta(L; 0) = 5e-324 > 0, but 5e-324 / pi underflows to level 0, so
        # the count places one eigenvalue in [0, 1) and locate finds it at 0
        H, w = single(PhiRamp(2.2250738585072014e-308, 0.0), 1.4296875), SpectralWindow(0.0, 1.0)
        assert pruefer.theta_at(H, 0.0, 0.0, H.x_max) == 5e-324
        assert spectra.count_bounded(H, H.x_max, 0.0, w).count == 1
        assert spectra.locate_eigenvalues(H, H.x_max, 0.0, w) == [0.0]


lengths = st.floats(0.1, 1.5)
angles = st.floats(-1.5, 1.5)


@st.composite
def secant_segments(draw):
    """One angle, ramp, matrix or table segment."""
    kind = draw(st.sampled_from(["angle", "ramp", "matrix", "table"]))
    length = draw(lengths)
    if kind == "angle":
        return Segment(length, ConstantAngle(draw(angles)))
    if kind == "ramp":
        a, b = sorted((draw(angles), draw(angles)), reverse=True)
        return Segment(length, PhiRamp(a, b))
    if kind == "matrix":
        # R(alpha) diag(1 - lam2, lam2) R(alpha)^T
        lam2, alpha = draw(st.floats(0.0, 0.5)), draw(angles)
        c, s = math.cos(alpha), math.sin(alpha)
        h11 = (1 - lam2) * c * c + lam2 * s * s
        return Segment(length, ConstantMatrix(MatrixH(h11, (1 - 2 * lam2) * c * s, 1 - h11)))
    n = draw(st.integers(2, 4))
    offsets = np.linspace(0.0, length, n + 1)
    drops = draw(st.lists(st.floats(0.0, 0.8), min_size=n, max_size=n))
    phi = draw(angles) - np.concatenate([[0.0], np.cumsum(drops)])
    return Segment(length, PhiTable(tuple(zip(offsets.tolist(), phi.tolist()))))


secant_systems = st.lists(secant_segments(), min_size=1, max_size=4).map(lambda s: Hamiltonian(tuple(s)))


def bisection_root(H, L, beta, n, lo, hi):
    """The step of ceil(v) past n by plain bisection to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if refs.level(H, L, beta, mid) <= n:
            lo = mid
        else:
            hi = mid


class TestLocateSecant:
    @given(secant_systems, st.floats(0.0, 3.0), st.floats(-10.0, 10.0), st.floats(0.5, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_count_rule_and_reference(self, H, beta, s, width):
        L, tol = H.x_max, 1e-9
        w = SpectralWindow(s, s + width)
        eigs = spectra.locate_eigenvalues(H, L, beta, w, tol)
        assert len(eigs) == spectra.count_bounded(H, L, beta, w, tol).count
        assert eigs == sorted(eigs)
        for lam in eigs:
            assert w.s <= lam < w.t
            # the count's rule: lam is the left end of a bracket of level n,
            # v(lam) <= n < v(hi), that is exact (v = n) or narrower than
            # 1e-14 max(1, |lo|, |hi|), which lam + 2e-14 max(1, |lam|) passes
            v = refs.level(H, L, beta, lam)
            n = math.ceil(v)
            assert v == n or n < refs.level(H, L, beta, lam + 2e-14 * max(1.0, abs(lam)))
            ref = bisection_root(H, L, beta, n, w.s, w.t)
            assert abs(lam - ref) <= refs.walk_rounding(H, L, ref) + 2e-14 * max(1.0, abs(ref))

    def test_midpoint_fallback_when_secant_leaves_bracket(self, monkeypatch):
        # theta - pi is -1.5e-9 at s against 3 at t: the secant point s + 5e-10 rounds
        # to s = 1e8, so the first iterate is the midpoint
        H, tol, s = single(ConstantAngle(0.0)), 1e-9, 1e8
        calls = []

        def theta(H, t, theta0, L, tol=1e-9):
            calls.append(t)
            return PI - 1.5e-9 + 3.0 * (t - s) ** 3

        monkeypatch.setattr(pruefer, "theta_at", theta)
        (lam,) = spectra.locate_eigenvalues(H, 1.0, 0.0, SpectralWindow(s, s + 1.0), tol)
        assert calls[:3] == [s, s + 1.0, s + 0.5]
        assert abs(theta(H, lam, 0.0, 1.0) - PI) < tol

    def test_multi_level_window_reuses_roots(self, monkeypatch):
        H = Hamiltonian(
            (
                Segment(1.0, ConstantAngle(0.3)),
                Segment(0.8, PhiRamp(-0.2, -1.4)),
                Segment(0.5, ConstantAngle(-2.0)),
            )
        )
        L, beta, w = H.x_max, 0.6, SpectralWindow(-5.0, 120.0)
        evals = []
        theta_at = pruefer.theta_at
        monkeypatch.setattr(pruefer, "theta_at", lambda *a: evals.append(a[1]) or theta_at(*a))
        eigs = spectra.locate_eigenvalues(H, L, beta, w)
        assert len(eigs) == spectra.count_bounded(H, L, beta, w).count >= 4
        assert all(a < b for a, b in zip(eigs, eigs[1:]))
        levels = [round((theta_at(H, lam, 0.0, L) - beta) / PI) for lam in eigs]
        assert levels == list(range(levels[0], levels[0] + len(eigs)))
        # bisection of [s, t) to the same bracket width takes about 50 per level here
        assert len(evals) < 2 + 15 * len(eigs)

    def test_flat_map_on_target_has_no_unique_root(self, monkeypatch):
        # theta(L; .) = 0.6 + pi on the whole window: both ends have the same
        # ceiling, on the level (beta = 0.6) or off it (0.5), so no level
        # steps and locate answers [], as the count answers 0
        H, w = single(ConstantAngle(0.0)), SpectralWindow(-3.0, 3.0)

        def flat(H, t, theta0, L, x_eval=()):
            return pruefer.PrueferTrajectory(t, theta0, np.array([0.0, L]), np.array([theta0, 0.6 + PI]))

        monkeypatch.setattr(pruefer, "integrate", flat)
        monkeypatch.setattr(pruefer, "theta_at", lambda *a: flat(*a).theta_end())
        for beta in (0.6, 0.5):
            assert spectra.locate_eigenvalues(H, 1.0, beta, w) == []
            assert spectra.count_bounded(H, 1.0, beta, w).count == 0

    @given(secant_systems, st.floats(-30.0, 30.0), angles)
    @settings(max_examples=30, deadline=None)
    def test_theta_at_is_integrate_end_bit_for_bit(self, H, t, theta0):
        L = H.x_max * 0.7
        assert pruefer.theta_at(H, t, theta0, L) == pruefer.integrate(H, t, theta0, L).theta_end()


class TestHalfLine:
    def test_tail_delegates_to_bounded(self):
        H = single(ConstantAngle(0.0), tail=SingularHalfLine(PI / 4 - PI / 2))
        # equivalent bounded problem: beta = gamma + pi/2 = pi/4 -> root at 1
        res = spectra.halfline_count(H, SpectralWindow(0.5, 2.0), [1.0])
        assert res.status == "stabilized"
        assert res.count == 1

    def test_c_plus_negative_window_zero(self):
        H = Hamiltonian(
            (Segment(1.0, PhiRamp(PI / 2, 0.0)), Segment(5.0, PhiRamp(0.0, -PI / 2)))
        )
        res = spectra.halfline_count(
            H, SpectralWindow(-100.0, -1e-9), [1.5, 3.0, 4.5, 6.0]
        )
        assert res.status == "stabilized"
        assert res.count == 0

    def test_short_schedule_inconclusive(self):
        H = single(PhiRamp(PI / 2, -PI / 2), length=4.0)
        res = spectra.halfline_count(H, SpectralWindow(0.0, 100.0), [2.0, 4.0])
        assert res.status == "inconclusive"
        assert res.count is None

    def test_schedule_beyond_x_max_rejected(self):
        H = single(ConstantAngle(0.0))
        with pytest.raises(ValueError):
            spectra.halfline_count(H, SpectralWindow(0.0, 1.0), [0.5, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_not_finite_rejected(self, bad):
        # a NaN would leave the sort unordered and fail later, in the floor of F
        H = single(PhiRamp(PI / 2, -PI / 2), length=4.0)
        with pytest.raises(ValueError, match="L_schedule must be nonempty, positive and finite"):
            spectra.halfline_count(H, SpectralWindow(0.0, 5.0), [1.0, bad, 2.0])

    @pytest.mark.parametrize(
        "F, outcome",
        [(-1e-16, ("stabilized", 0)), (1 - 1e-6, ("stabilized", 0)), (1 - 1e-15, ("inconclusive", None)),
         (1 + 1e-15, ("inconclusive", None)), (2 + 1e-6, ("stabilized", 2))],
    )
    def test_floor_against_rounding_bound(self, monkeypatch, F, outcome):
        # theta_t - theta_s = pi F at every schedule point
        schedule = [1.0, 2.0, 3.0]

        def integrate(H, t, theta0, L, x_eval=()):
            end = PI * F if t == w.t else 0.0
            xs, thetas = np.array([0.0, *schedule]), np.array([0.0, end, end, end])
            return pruefer.PrueferTrajectory(t, theta0, xs, thetas)

        w = SpectralWindow(-2.0, -1.0)
        monkeypatch.setattr(pruefer, "integrate", integrate)
        res = spectra.halfline_count(single(ConstantAngle(0.0), length=3.0), w, schedule)
        assert (res.status, res.count) == outcome
        if res.status == "inconclusive":
            assert res.witness["rule"] == "rounding"
            assert res.witness["integer"] == 1
            assert abs(res.witness["F"] - 1) <= res.witness["bound"] < 1e-12

    def test_threshold_divergence_carries_witness(self):
        # many singular intervals with a large total drop: F far above 50
        H = Hamiltonian(tuple(Segment(0.1, ConstantAngle(-0.5 * k)) for k in range(200)))
        res = spectra.halfline_count(H, SpectralWindow(0.0, 1e6), [10.0, 15.0, 20.0])
        assert res.status == "divergent"
        assert res.F_values
        assert res.witness["rule"] == "threshold"
        assert res.witness["F_max"] == max(res.F_values) > 50.0


def tail_table(f, x1=100.0, n=400):
    """phi = f(x) on [1, x1] as a PhiTable behind a plateau head, no tail."""
    xs = np.geomspace(1.0, x1, n)
    pts = tuple((float(x - 1.0), f(float(x))) for x in xs)
    return Hamiltonian(
        (Segment(1.0, ConstantAngle(f(1.0))), Segment(x1 - 1.0, PhiTable(pts)))
    )


def c_over_x_table(C):
    return tail_table(lambda x: C / x)


class TestTailModel:
    SCHEDULE = [25.0, 50.0, 75.0, 100.0]

    @pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
    def test_c_over_x_fit_gives_bottom_of_ess(self, C):
        m = spectra.fit_tail(extract_phi(c_over_x_table(C)))
        assert m.resolved
        assert m.p == pytest.approx(1.0, abs=m.p_err)
        assert m.c == pytest.approx(C, rel=1e-9)
        lower, upper = m.ess_bounds()
        assert lower < 1 / (4 * C) < upper
        assert upper - lower < 1e-4 / C

    def test_slow_decay_puts_zero_in_ess(self):
        m = spectra.fit_tail(extract_phi(tail_table(lambda x: x**-0.5, 1e3, 600)))
        assert m.resolved
        assert m.p == pytest.approx(0.5, rel=1e-6)
        assert m.ess_bounds() == (0.0, 0.0)

    def test_plateaus_and_declared_tails_are_not_fitted(self):
        steps = Hamiltonian(
            tuple(Segment(1.0, ConstantAngle(1.0 / k)) for k in range(1, 40))
        )
        assert spectra.fit_tail(extract_phi(steps)) is None
        H = c_over_x_table(1.0)
        tailed = Hamiltonian(H.segments, tail=SingularHalfLine(0.0))
        assert spectra.implied_tail(tailed) is None
        phi, model = spectra.tail_profile(tailed)
        assert model is None
        assert phi == extract_phi(tailed)

    def test_tail_profile_takes_the_fitted_limit(self):
        phi, model = spectra.tail_profile(c_over_x_table(1.0))
        assert phi.phi_infinity == model.phi_inf
        b = spectra.ess_spectrum_bounds(phi)
        assert b.lower == pytest.approx(0.25, rel=1e-3)
        assert b.upper == pytest.approx(0.25, rel=1e-3)

    @pytest.mark.parametrize("C", [0.5, 1.0])
    def test_window_straddling_bottom_is_divergent(self, C):
        res = spectra.halfline_count(
            c_over_x_table(C), SpectralWindow(0.0, 1.25 / (4 * C)), self.SCHEDULE
        )
        assert res.status == "divergent"
        assert res.count is None
        assert len(res.F_values) == len(self.SCHEDULE)
        w = res.witness
        assert w["rule"] == "tail_model"
        assert w["p"] == pytest.approx(1.0, abs=w["p_err"])
        assert w["c"] == pytest.approx(C, rel=1e-9)
        assert w["residual"] <= spectra.TAIL_FIT_GATE
        assert w["lower"] == pytest.approx(1 / (4 * C), rel=1e-4)
        assert w["upper"] == pytest.approx(1 / (4 * C), rel=1e-4)

    def test_window_below_bottom_still_stabilized(self):
        res = spectra.halfline_count(
            c_over_x_table(1.0), SpectralWindow(0.0, 0.8 / 4), self.SCHEDULE
        )
        assert (res.status, res.count, res.witness) == ("stabilized", 0, None)

    def test_window_above_bottom_not_divergent(self):
        res = spectra.halfline_count(
            c_over_x_table(1.0), SpectralWindow(2.0 / 4, 3.0 / 4), self.SCHEDULE
        )
        assert res.status != "divergent"

    def test_window_inside_the_bounds_is_inconclusive(self):
        # s between the bounds on min sigma_ess: the bottom may lie below s
        H = c_over_x_table(1.0)
        lower, upper = spectra.implied_tail(H).ess_bounds()
        assert lower < 0.25 < upper
        res = spectra.halfline_count(
            H, SpectralWindow(0.5 * (lower + upper), 0.3), self.SCHEDULE
        )
        assert res.status == "inconclusive"
        assert res.witness["rule"] == "tail_model"

    def test_coarse_import_unchanged(self):
        # free potential on 31 grid points: too few samples to fit a tail
        xs = np.linspace(0.0, 2.0, 31)
        P = transforms.SchrodingerProblem(grid=xs, values=np.zeros_like(xs), E0=-0.95)
        H = transforms.schrodinger_to_canonical(P, tol=1e-8)[0]
        res = spectra.halfline_count(
            H,
            SpectralWindow(-0.0113, 0.3372),
            [H.x_max * f for f in (0.5, 0.75, 1.0)],
            1e-6,
        )
        assert (res.status, res.count, res.witness) == ("stabilized", 0, None)

    def test_full_rank_segment_keeps_truncation_rule(self):
        H = Hamiltonian(
            (
                Segment(1.0, PhiRamp(1.0, 0.2)),
                Segment(1.0, ConstantMatrix(MatrixH(0.6, 0.1, 0.4))),
                Segment(
                    2.0,
                    PhiTable(tuple((float(o), 0.1 - 0.15 * float(o)) for o in np.linspace(0, 2, 21))),
                ),
            )
        )
        with pytest.raises(NotRankOne):
            extract_phi(H)
        schedule = [2.0, 3.0, 3.5, 4.0]
        for window, count in (((0.0, 5.0), 1), ((-3.0, 20.0), 6)):
            res = spectra.halfline_count(H, SpectralWindow(*window), schedule)
            assert (res.status, res.count, res.witness) == ("stabilized", count, None)


class TestClassify:
    def test_in_c_plus_full_drop(self):
        H = single(PhiRamp(PI / 2, -PI / 2))
        c = spectra.classify_semibounded(H)
        assert c.kind == "in_c_plus"

    def test_neg_eigs_bound_two(self):
        H = single(PhiRamp(PI / 2, -3 * PI / 2 - 0.1), length=4.0)
        c = spectra.classify_semibounded(H)
        assert c.kind == "neg_eigs_at_most"
        assert c.n_bound == 2

    def test_full_rank_not_semibounded(self):
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)))
        c = spectra.classify_semibounded(H)
        assert c.kind == "not_semibounded"
        assert "det" in c.witness

    def test_boundary_case_still_c_plus(self):
        H = single(PhiRamp(0.0, -PI / 2))
        assert spectra.classify_semibounded(H).kind == "in_c_plus"


class TestWholeline:
    def test_constant_profiles_true(self):
        p = plateau_profile([(1.0, 0.0)])
        assert spectra.classify_wholeline(p, p)

    def test_drop_exactly_pi_true(self):
        # reflected-left and right profiles both drop pi/2 starting at pi/2;
        # the junction values -pi/2 and pi/2 agree mod pi, so no extra jump
        left = plateau_profile([(1.0, PI / 2), (1.0, 0.0)])
        right = plateau_profile([(1.0, PI / 2), (1.0, 0.0)])
        assert spectra.classify_wholeline(left, right)

    def test_drop_above_pi_false(self):
        left = plateau_profile([(1.0, PI / 2), (1.0, 0.0)])
        right = plateau_profile([(1.0, PI / 2), (1.0, PI / 2 - 0.7 * PI)])
        assert not spectra.classify_wholeline(left, right)


class TestMEndpoints:
    def test_constant_profile_endpoints(self):
        p = plateau_profile([(1.0, PI / 4)])
        m_inf, m0 = spectra.m_endpoints(p)
        assert m_inf == pytest.approx(-1.0)
        assert m0 == pytest.approx(-1.0)

    def test_pole_convention(self):
        p = plateau_profile([(1.0, PI / 2), (1.0, -PI / 2)])
        m_inf, m0 = spectra.m_endpoints(p)
        assert m_inf == -math.inf
        assert m0 == math.inf

    def test_constant_system_numeric_m(self):
        H = single(ConstantAngle(PI / 4), length=2.0)
        for t in (-1e-3, -1.0, -1e3):
            assert spectra.m_halfline_real(H, t) == pytest.approx(-1.0, abs=1e-9)

    def test_numeric_m_approaches_tan_phi0(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.4)), Segment(1.0, ConstantAngle(-0.8)))
        )
        phi = extract_phi(H)
        m_big = spectra.m_halfline_real(H, -1e6)
        assert m_big == pytest.approx(-math.tan(phi.phi_start), abs=1e-2)
        m_small = spectra.m_halfline_real(H, -1e-6)
        assert m_small == pytest.approx(-math.tan(phi.pieces[-1].phi1), abs=1e-2)

    @staticmethod
    def exp_scaled_m(H, minus_t):
        """m with T = e^s U multiplied out and inverted explicitly: the
        reference at moderate t, where e^s stays in the float range."""
        phi = extract_phi(H)
        L = H.x_max
        phi_L = phi.value(L) if L < phi.x_max else phi.pieces[-1].phi1
        T = entire.transfer_matrix(H, L, complex(minus_t)).entries.real
        f_L = np.array([math.cos(phi_L + PI / 2), math.sin(phi_L + PI / 2)])
        T_inv = np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])
        f0 = T_inv @ f_L
        return math.inf if f0[1] == 0.0 else float(f0[0] / f0[1])

    @pytest.mark.parametrize("t", [-0.1, -1.0, -3.0])
    def test_matches_exp_scaled_formula(self, t):
        systems = [
            Hamiltonian((Segment(1.0, ConstantAngle(0.4)), Segment(1.0, ConstantAngle(-0.8)))),
            single(PhiRamp(0.5, -0.5), length=20.0),
            single(PhiRamp(PI / 2, -PI / 2), length=4.0),
            Hamiltonian(
                (Segment(0.7, ConstantAngle(1.2)), Segment(1.5, PhiRamp(0.9, -0.6)),
                 Segment(2.0, PhiTable(((0.0, -0.7), (0.5, -0.9), (2.0, -1.0))))),
                tail=SingularHalfLine(-1.3),
            ),
        ]
        for H in systems:
            m = spectra.m_halfline_real(H, t)
            assert m == pytest.approx(self.exp_scaled_m(H, t), rel=1e-13, abs=0.0)

    def test_finite_and_increasing_where_T_overflows(self):
        H = single(PhiRamp(0.5, -0.5), length=20.0)
        with pytest.raises(OverflowError):
            entire.transfer_matrix(H, 20.0, -1e5)
        ms = [spectra.m_halfline_real(H, t) for t in (-1e8, -1e6, -1e4, -1e2, -1.0)]
        m_minus_inf, _ = spectra.m_endpoints(extract_phi(H))
        assert all(math.isfinite(m) for m in ms)
        assert all(a < b for a, b in zip(ms, ms[1:]))
        assert m_minus_inf < ms[0]

    @staticmethod
    def exact_singular_m(segments, minus_t, beta):
        """m from the exact product of the singular factors I + t l J P_alpha,
        in mpmath at 50 digits."""
        with mpmath.workdps(50):
            t = mpmath.mpf(minus_t)
            T = mpmath.eye(2)
            for alpha, length in segments:
                c, s = mpmath.cos(alpha), mpmath.sin(alpha)
                T = (mpmath.eye(2) + t * length * mpmath.matrix([[-c * s, -s * s], [c * c, c * s]])) * T
            f1 = T[1, 1] * mpmath.cos(beta) - T[0, 1] * mpmath.sin(beta)
            f2 = T[0, 0] * mpmath.sin(beta) - T[1, 0] * mpmath.cos(beta)
            return float(f1 / f2)

    def test_large_t_answers_or_raises(self):
        # adj(U) e_beta falls like 1.2/|t| toward U's rounding: m(-1e12) was
        # off by 1.8e-4, m(-1e16) = 0.25, m(-1e20) = inf, m(-1e200) = 0.0,
        # where m(-inf) = -tan 0.3.  Each t now gives m to 1/PULLBACK_MARGIN
        # or a FloatingPointError naming t
        segments = [(0.3, 1.0), (-0.6, 1.0)]
        H = Hamiltonian(tuple(Segment(l, ConstantAngle(a)) for a, l in segments), tail=SingularHalfLine(-1.2))
        beta = spectra._natural_beta(-0.6)
        answered = []
        for k in range(0, 41):
            t = -(10.0 ** (k / 2))
            try:
                m = spectra.m_halfline_real(H, t)
            except FloatingPointError as exc:
                assert f"m({t})" in str(exc)
                continue
            answered.append(t)
            assert m == pytest.approx(self.exact_singular_m(segments, t, beta), rel=1.0 / spectra.PULLBACK_MARGIN)
        assert -1e9 in answered and -1e12 not in answered
        for t in (-1e16, -1e20, -1e200):
            with pytest.raises(FloatingPointError):
                spectra.m_halfline_real(H, t)
        ramp = Hamiltonian((Segment(1.0, ConstantAngle(0.3)), Segment(1.0, PhiRamp(0.2, -0.6))))
        with pytest.raises(FloatingPointError, match=r"m\(-1e\+100\)"):
            spectra.m_halfline_real(ramp, -1e100)

    def test_herglotz_monotone_on_negative_axis(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.4)), Segment(1.0, ConstantAngle(-0.8)))
        )
        ts = [-100.0, -10.0, -1.0, -0.1]
        ms = [spectra.m_halfline_real(H, t) for t in ts]
        assert all(b >= a - 1e-8 for a, b in zip(ms, ms[1:]))


def set_union_ess_bounds(phi, tail_fraction=0.5):
    """ess_spectrum_bounds sampled the long way: the sorted set union of the
    grid and the breakpoints, and a separate grid for each growth-diagnosis
    sup.  The reference the one-grid sampling must match bit for bit."""
    x_lo = tail_fraction * phi.x_max
    x_hi = phi.x_max
    xs = np.array(sorted(
        {p.offset for p in phi.pieces if x_lo <= p.offset <= x_hi}
        | set(np.linspace(x_lo, x_hi, 1000))
    ))
    g = np.maximum(xs * (phi.values(xs) - phi.phi_infinity), 0.0)
    A = float(np.max(g))
    B = float(np.min(g))

    def window_sup(lo, hi):
        ws = np.linspace(lo, hi, 1000)
        return float(np.max(ws * (phi.values(ws) - phi.phi_infinity)))

    sup1 = max(window_sup(0.25 * phi.x_max, 0.5 * phi.x_max), 0.0)
    sup2 = max(window_sup(0.5 * phi.x_max, phi.x_max), 0.0)
    trending = sup2 > 1.1 * sup1 + 1e-8
    diverging = sup2 > 1.3 * sup1 + 1e-8 and sup2 > 1.0
    lower = math.inf if A == 0.0 else 1.0 / (4.0 * A)
    upper = math.inf if A == 0.0 else 1.0 / A
    if B > 0.0:
        upper = min(upper, 1.0 / (4.0 * B))
    warnings = []
    if trending:
        warnings.append(
            "g(x) = x*(phi - phi_inf) still trending upward at the window end; "
            "the asymptotic limsup/liminf may differ from the finite-window values"
        )
    return A, B, lower, upper, (x_lo, x_hi), A <= 1e-8, diverging, warnings


@st.composite
def mixed_profiles(draw):
    """1-60 pieces: plateaus, ramps and jumps, phi_inf at or below the end."""
    n = draw(st.integers(1, 60))
    pieces = []
    x, phi = 0.0, draw(st.floats(-2.0, 2.0))
    for _ in range(n):
        length = draw(st.floats(0.01, 5.0))
        kind = draw(st.sampled_from(["plateau", "ramp", "jump"]))
        if kind == "jump":
            phi -= draw(st.floats(0.0, 1.0))
        drop = draw(st.floats(1e-6, 1.0)) if kind == "ramp" else 0.0
        pieces.append(Piece(x, x + length, phi, phi - drop))
        x, phi = x + length, phi - drop
    below = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    return PhiProfile(tuple(pieces), phi - below)


class TestEssSampling:
    @settings(max_examples=200, deadline=None)
    @given(mixed_profiles())
    # g = 0.1001 x crosses the divergence level 1 only past the grid's
    # 995th point, so zero_in_ess needs sup2 over the whole grid
    @example(PhiProfile(tuple(Piece(float(i), i + 1.0, 0.0, 0.0) for i in range(10)), -0.1001))
    def test_matches_set_union_sampling_bit_for_bit(self, phi):
        A, B, lower, upper, window, empty, zero, warnings = set_union_ess_bounds(phi)
        b = spectra.ess_spectrum_bounds(phi)
        got = (b.A, b.B, b.lower, b.upper, b.tail_window)
        assert [repr(v) for v in got] == [repr(v) for v in (A, B, lower, upper, window)]
        assert (b.sigma_ess_empty, b.zero_in_ess, b.warnings) == (empty, zero, warnings)


class TestEssBounds:
    @staticmethod
    def tail_profile(g, x0, x1, phi_inf=0.0, n=400):
        xs = np.geomspace(x0, x1, n)
        pieces = [Piece(0.0, x0, phi_inf + g(x0), phi_inf + g(x0))]
        for a, b in zip(xs, xs[1:]):
            pieces.append(Piece(a, b, phi_inf + g(a), phi_inf + g(b)))
        return PhiProfile(tuple(pieces), phi_inf)

    def test_c_over_x_collapses(self):
        C = 0.7
        p = self.tail_profile(lambda x: C / x, 1.0, 1e4)
        b = spectra.ess_spectrum_bounds(p)
        assert b.A == pytest.approx(C, rel=1e-3)
        assert b.B == pytest.approx(C, rel=1e-3)
        assert b.lower == pytest.approx(1.0 / (4 * C), rel=1e-2)

    def test_exponential_tail_empty(self):
        p = self.tail_profile(lambda x: math.exp(-x), 1.0, 60.0)
        b = spectra.ess_spectrum_bounds(p)
        assert b.sigma_ess_empty

    def test_slow_decay_flags_zero(self):
        p = self.tail_profile(lambda x: x**-0.5, 1.0, 1e6)
        b = spectra.ess_spectrum_bounds(p)
        assert b.zero_in_ess
        assert b.warnings


class TestZeroEigenvalue:
    def test_constant_at_minus_half_pi(self):
        p = plateau_profile([(3.0, -PI / 2)])
        chk = spectra.zero_eigenvalue_check(p)
        assert chk.is_eigenvalue
        assert chk.body_integral == pytest.approx(0.0, abs=1e-12)

    def test_wrong_limit_false(self):
        p = plateau_profile([(1.0, 0.3)])
        assert not spectra.zero_eigenvalue_check(p).is_eigenvalue

    def test_fast_tail_true_slow_tail_false(self):
        fast = TestEssBounds.tail_profile(
            lambda x: math.exp(-x), 0.5, 40.0, phi_inf=-PI / 2
        )
        slow = TestEssBounds.tail_profile(
            lambda x: x**-0.25, 1.0, 1e5, phi_inf=-PI / 2
        )
        assert spectra.zero_eigenvalue_check(fast).is_eigenvalue
        assert not spectra.zero_eigenvalue_check(slow).is_eigenvalue

    def test_declared_tail_past_a_ramp(self):
        # phi + pi/2 does not decay on [X/2, X], but past X = 10 the tail
        # P_{-pi/2} adds cos^2(-pi/2) = 0 to e_0's H-norm
        H = single(PhiRamp(0.0, -0.2), length=10.0, tail=SingularHalfLine(-PI / 2))
        chk = spectra.zero_eigenvalue_check(extract_phi(H), H.tail)
        assert chk.is_eigenvalue and chk.tail_converges
        # int_0^10 cos^2(0.02 x) dx = 5 + sin(0.4) / 0.08
        assert chk.body_integral == pytest.approx(5.0 + math.sin(0.4) / 0.08, rel=1e-12)
        assert chk.body_integral == pytest.approx(9.8677, abs=1e-4)

    def test_declared_tail_is_read_mod_pi(self):
        # the drop 0 -> -2 aligns the tail P_{pi/2} to phi_inf = -3 pi/2
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.0)), Segment(1.0, ConstantAngle(-2.0))),
                        tail=SingularHalfLine(PI / 2))
        phi = extract_phi(H)
        assert phi.phi_infinity == pytest.approx(-1.5 * PI)
        chk = spectra.zero_eigenvalue_check(phi, H.tail)
        assert chk.is_eigenvalue and chk.tail_converges
        assert chk.body_integral == pytest.approx(1.0 + math.cos(2.0) ** 2, rel=1e-12)

    def test_declared_tail_off_the_axis_diverges(self):
        for gamma in (-0.5, 0.0, PI / 2 - 1e-6):
            H = single(PhiRamp(0.0, -0.2), length=10.0, tail=SingularHalfLine(gamma))
            chk = spectra.zero_eigenvalue_check(extract_phi(H), H.tail)
            assert (chk.is_eigenvalue, chk.body_integral, chk.tail_converges) == (False, math.inf, False)

    def test_flat_just_above_minus_half_pi_false(self):
        # phi + pi/2 = 1e-10 does not decay, so cos^2(phi) has an infinite
        # integral; phi(inf) misses -pi/2 by more than PHI_INFINITY_TOL
        chk = spectra.zero_eigenvalue_check(plateau_profile([(4.0, -PI / 2 + 1e-10)]))
        assert (chk.is_eigenvalue, chk.tail_converges) == (False, False)

    def test_phi_infinity_is_judged_as_classify_judges_it(self):
        # phi(inf) = -pi/2 - 5e-10 lies below -pi/2 for classify (at most one
        # negative eigenvalue), so zero-eig may not read it as -pi/2 either
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.3)), Segment(5.0, ConstantAngle(-PI / 2 - 5e-10))))
        c = spectra.classify_semibounded(H)
        assert (c.kind, c.n_bound) == ("neg_eigs_at_most", 1)
        chk = spectra.zero_eigenvalue_check(c.phi)
        assert (chk.is_eigenvalue, chk.tail_converges) == (False, False)


class TestNegativeCountAtTruncation:
    def test_c_plus_has_none(self):
        H = single(PhiRamp(PI / 2, -PI / 2), length=2.0)
        for L in (0.5, 1.0, 2.0):
            assert spectra.negative_count_at_truncation(H, L) == 0

    def test_bounded_by_classification(self):
        H = single(PhiRamp(PI / 2, -3 * PI / 2 - 0.2), length=3.0)
        c = spectra.classify_semibounded(H)
        for L in (0.7, 1.5, 3.0):
            assert spectra.negative_count_at_truncation(H, L) <= c.n_bound

    def test_unbounded_floor_raises(self):
        # P_1.2, P_-1.2, P_0.3 on three intervals of 1e-5: one negative
        # eigenvalue, but t = -inf puts each singular step on its stationary
        # point and counts 2; -inf is a ValueError until the limit is defined
        H = Hamiltonian(tuple(Segment(1e-5, ConstantAngle(a)) for a in (1.2, -1.2, 0.3)))
        assert spectra.negative_count_at_truncation(H, 3e-5, T_floor=1e6) == 1
        with pytest.raises(ValueError, match="t must be finite"):
            spectra.negative_count_at_truncation(H, 3e-5, T_floor=math.inf)

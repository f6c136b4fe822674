import cmath
import math
import re

import numpy as np
import pytest

from canosc import rk, spectra, transforms
from canosc.hamiltonian import (
    ConstantAngle,
    Hamiltonian,
    PhiProfile,
    Piece,
    Segment,
    extract_phi,
)
from canosc.transforms import (
    AssumptionViolated,
    DiagonalSegment,
    DiagonalSystem,
    SchrodingerProblem,
    SplitRequired,
    canonical_to_diagonal,
    debranges_type,
    diagonal_to_hamiltonian,
    molchanov_classic,
    molchanov_new,
    schrodinger_to_canonical,
)
from refs import h_at, p_alpha

PI = math.pi
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def free_problem(x_max=16.0, n=801, e0=-1.0):
    xs = np.linspace(0.0, x_max, n)
    return SchrodingerProblem(grid=xs, values=np.zeros_like(xs), E0=e0)


@pytest.mark.slow
class TestSchrodingerImport:
    def test_free_potential_profile(self):
        # p = cosh, q = sinh at E0 = -1: phi decreases toward arctan(1)
        H, xmap, swapped = schrodinger_to_canonical(free_problem())
        phi = extract_phi(H)
        assert phi.pieces[-1].phi1 == pytest.approx(PI / 4, abs=1e-4)
        d = np.diff([phi.value(x) for x in np.linspace(0, phi.x_max * 0.99, 50)])
        assert np.all(d <= 1e-10)

    def test_free_potential_in_c_plus(self):
        H, _, _ = schrodinger_to_canonical(free_problem())
        assert spectra.classify_semibounded(H).kind == "in_c_plus"

    @pytest.mark.parametrize("v", ["linear", "quadratic"])
    def test_growing_potentials_in_c_plus(self, v):
        xs = np.linspace(0.0, 8.0, 401)
        vals = xs if v == "linear" else xs**2
        P = SchrodingerProblem(grid=xs, values=vals, E0=-1.0)
        H, _, _ = schrodinger_to_canonical(P)
        assert spectra.classify_semibounded(H).kind == "in_c_plus"

    def test_linear_potential_halfline_count(self):
        # X_max = 8.6e18: the table's last pieces are ~1e17 long, where an
        # adaptive step size underflows; the closed-form steps take them whole
        xs = np.linspace(0.0, 10.0, 201)
        H, _, _ = schrodinger_to_canonical(SchrodingerProblem(grid=xs, values=xs.copy(), E0=-1.0))
        assert H.x_max > 1e18
        schedule = [H.x_max * f for f in (0.25, 0.5, 0.75, 1.0)]
        res = spectra.halfline_count(H, spectra.SpectralWindow(-1.0, 1.0), schedule)
        assert all(math.isfinite(f) for f in res.F_values)
        # the true count is 0, but F = 1 - 6e-16 lies within the rounding
        # bound of 1: undecided, not stabilized at 1
        assert res.status == "inconclusive"
        assert res.witness["rule"] == "rounding"
        assert abs(res.witness["F"] - 1.0) <= res.witness["bound"]
        # E0 + [0, 1) = [-1, 0) lies below the lowest eigenvalue of -y'' + x y
        res = spectra.halfline_count(H, spectra.SpectralWindow(0.0, 1.0), schedule)
        assert (res.status, res.count) == ("stabilized", 0)

    def test_x_map_is_monotone(self):
        _, xmap, _ = schrodinger_to_canonical(free_problem())
        assert np.all(np.diff(xmap.X) > 0.0)
        assert xmap.backward(xmap.forward(3.0)) == pytest.approx(3.0, rel=1e-6)

    def test_e0_above_spectrum_detected(self):
        # E0 = +1 over V = 0 gives oscillatory p, q: no monotone angle
        xs = np.linspace(0.0, 20.0, 2001)
        P = SchrodingerProblem(grid=xs, values=np.zeros_like(xs), E0=1.0)
        with pytest.raises(AssumptionViolated):
            schrodinger_to_canonical(P)


class TestMolchanovClassic:
    def test_constant_potential_not_diverging(self):
        xs = np.linspace(0.0, 30.0, 301)
        res = molchanov_classic(xs, np.ones_like(xs), [2.0], np.linspace(1, 20, 40))
        assert res.verdict == "not_diverging"
        assert np.allclose(res.W, 2.0, atol=1e-9)

    def test_linear_potential_diverges(self):
        xs = np.linspace(0.0, 40.0, 401)
        res = molchanov_classic(xs, xs.copy(), [1.0], np.linspace(1, 20, 40))
        assert res.verdict == "diverges_likely"
        # W(x, 1) = x + 1/2 exactly
        assert res.W[0, 0] == pytest.approx(res.x_grid[0] + 0.5, abs=1e-9)

    def test_undersampled_potential_rejected(self):
        xs = np.linspace(0.0, 5.0, 50)
        with pytest.raises(ValueError):
            molchanov_classic(xs, xs.copy(), [2.0], np.linspace(1, 4.5, 10))

    @pytest.mark.parametrize("n", [1, 2])
    def test_grid_without_a_rise_in_its_last_half_rejected(self, n):
        # the last half of 1 or 2 points has no difference to call rising
        xs = np.linspace(0.0, 16.0, 801)
        with pytest.raises(ValueError, match="last half"):
            molchanov_classic(xs, np.zeros_like(xs), [1.0], np.linspace(1, 5, n))
        assert molchanov_classic(xs, np.zeros_like(xs), [1.0], np.linspace(1, 5, 3)).verdict == "not_diverging"


class TestRKCheckpoints:
    def test_returns_exactly_the_checkpoints(self):
        # x0, the x_eval points inside (x0, x1) sorted and once each, x1; no step points
        x_eval = [2.5, -1.0, 0.7, 0.0, 0.7, 3.0, 9.0, 1.25]
        xs, ys = rk.integrate_adaptive(lambda x, y: -y, 0.0, 3.0, 1.0, 1e-10, x_eval=x_eval)
        assert xs == [0.0, 0.7, 1.25, 2.5, 3.0]
        assert len(ys) == len(xs)
        assert np.allclose(ys, np.exp(-np.array(xs)), rtol=0.0, atol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_error_norm_takes_the_largest_step_quietly(self):
        # y' = c x^6 with c = 1e-310: the accepted steps' error norms are
        # positive but subnormal, so allowed / err would overflow
        c = 1e-310
        xs, ys = rk.integrate_adaptive(lambda x, y: c * x**6, 0.0, 1.0, 0.0, 1e-10)
        assert xs == [0.0, 1.0]
        assert ys[-1] == pytest.approx(c / 7, rel=1e-6)


class TestMolchanovNew:
    def test_potential_continues_by_its_last_value(self):
        # the grid ends at 8 < b = 10.5: V past it is V(8), as if the grid
        # had one more node at b with that value
        xs = np.linspace(0.0, 8.0, 161)
        vs = 0.1 * xs
        x_grid = np.linspace(1.0, 7.0, 7)
        short = molchanov_new(SchrodingerProblem(grid=xs, values=vs, E0=-1.0), x_grid)
        padded = SchrodingerProblem(grid=np.append(xs, 10.5), values=np.append(vs, vs[-1]), E0=-1.0)
        assert short.G.tobytes() == molchanov_new(padded, x_grid).G.tobytes()

    def test_free_case_quarter_limit(self):
        # q = sinh: I1 = sinh(2x)/4 - x/2, I2 = coth(x) - 1, G -> 1/4
        res = molchanov_new(free_problem(), np.linspace(1.0, 10.0, 19))
        closed = (math.sinh(20.0) / 4 - 5.0) * (1.0 / math.tanh(10.0) - 1.0)
        assert res.G[-1] == pytest.approx(closed, rel=1e-3)
        assert res.verdict == "not_to_zero"

    @pytest.mark.slow
    def test_airy_case_trends_to_zero(self):
        xs = np.linspace(0.0, 40.0, 2001)
        P = SchrodingerProblem(grid=xs, values=xs.copy(), E0=-1.0)
        res = molchanov_new(P, np.linspace(1.0, 20.0, 40))
        assert res.verdict == "trends_to_zero"
        assert res.G[0] > 5.0 * res.G[-1]

    def test_g_nonnegative(self):
        res = molchanov_new(free_problem(), np.linspace(1.0, 8.0, 15))
        assert np.all(res.G >= 0.0)

    @pytest.mark.parametrize("x_grid, error", [
        ([], "x_grid is empty"),
        ([1.0, math.nan, 5.0], "x_grid must be finite"),
        ([1.0, math.inf], "x_grid must be finite"),
        # the solutions start at the first sample, 2: q vanished "inside" [1, 10]
        ([1.0, 10.0], "potential must be sampled from min(x_grid) = 1.0 on, not from 2.0"),
    ], ids=["empty", "nan", "inf", "before_samples"])
    def test_grid_outside_the_samples_rejected(self, x_grid, error):
        xs = np.linspace(2.0, 20.0, 181)
        P = SchrodingerProblem(grid=xs, values=np.zeros_like(xs), E0=-1.0)
        with pytest.raises(ValueError, match=re.escape(error)):
            molchanov_new(P, x_grid)

    def test_square_integrable_q_rejected(self):
        # swap the solution roles: init makes "q" the decaying combination
        xs = np.linspace(0.0, 25.0, 1001)
        P = SchrodingerProblem(
            grid=xs,
            values=np.zeros_like(xs),
            E0=-1.0,
            init=((0.0, 1.0), (1.0, -1.0)),  # "q" = cosh - sinh = e^{-x}
        )
        with pytest.raises(AssumptionViolated):
            molchanov_new(P, np.linspace(1.0, 10.0, 10))


def plateau_profile(spans, phi_inf=None):
    pieces = []
    x = 0.0
    for length, phi in spans:
        pieces.append(Piece(x, x + length, phi, phi))
        x += length
    return PhiProfile(tuple(pieces), spans[-1][1] if phi_inf is None else phi_inf)


class TestDiagonal:
    def test_single_plateau_point_mass(self):
        alpha, ell = 0.6, 2.0
        D = canonical_to_diagonal(plateau_profile([(ell, alpha)]))
        assert len(D.segments) == 1
        seg = D.segments[0]
        assert seg.h == 1.0
        assert seg.deltaT == pytest.approx(ell / (1.0 + math.tan(alpha) ** 2))
        assert D.t0 == pytest.approx(-math.tan(alpha))

    def test_plateau_cell_is_its_exact_integral(self):
        # a plateau takes the one cell rule: dt = 0, h = w / w = 1 and dT = l cos^2(phi)
        rng = np.random.default_rng(23)
        for phi, ell in zip(rng.uniform(-1.5, 1.5, 50), rng.uniform(0.1, 3.0, 50)):
            seg, c = canonical_to_diagonal(plateau_profile([(float(ell), float(phi))])).segments[0], math.cos(phi)
            assert seg.h == 1.0 and seg.deltaT == ell * c * c, (phi, ell)

    def test_jump_gives_two_point_masses(self):
        D = canonical_to_diagonal(plateau_profile([(1.0, 0.5), (2.0, -0.5)]))
        assert [s.h for s in D.segments] == [1.0, 1.0]
        # lengths 1 and 2 at angles +-0.5: masses (1+2) cos^2(0.5)
        assert D.total_T == pytest.approx(3.0 * math.cos(0.5) ** 2)

    def test_strict_ramp_interior_h(self):
        prof = PhiProfile((Piece(0.0, 1.0, 0.7, -0.7),), -0.7)
        D = canonical_to_diagonal(prof)
        assert all(0.0 < s.h < 1.0 for s in D.segments)

    def test_image_measure_conservation(self):
        # sum over cells of (1+t^2)-weighted dw recovers the x-length
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 6)
            phis = np.sort(rng.uniform(-1.2, 1.2, n))[::-1]
            spans = [(float(rng.uniform(0.2, 2.0)), float(p)) for p in phis]
            prof = plateau_profile(spans)
            D = canonical_to_diagonal(prof)
            total_w_weighted = 0.0
            for seg, (length, phi) in zip(D.segments, spans):
                t = -math.tan(phi + D.rotation_applied)
                total_w_weighted += seg.deltaT * (1.0 + t * t)
            assert total_w_weighted == pytest.approx(sum(s for s, _ in spans), abs=1e-8)

    def test_ramp_mass_and_range_split(self):
        a, b = 0.5, -0.5
        prof = PhiProfile((Piece(0.0, 1.0, a, b),), b)
        D = canonical_to_diagonal(prof)
        w_mass = sum(s.deltaT * s.h for s in D.segments)
        t_range = sum(s.deltaT * (1.0 - s.h) for s in D.segments)
        # dw-mass is the exact integral of cos^2 phi; dt is the tan range
        prim = lambda v: 0.5 * v + 0.25 * math.sin(2.0 * v)
        assert w_mass == pytest.approx((prim(a) - prim(b)) / (a - b), abs=1e-10)
        assert t_range == pytest.approx(math.tan(a) - math.tan(b), abs=1e-10)

    def test_out_of_range_profile_rotated(self):
        prof = plateau_profile([(1.0, PI / 2 - 1e-8), (1.0, 1.2)])  # at the pole
        D = canonical_to_diagonal(prof)
        assert D.rotation_applied != 0.0

    def test_full_drop_rejected(self):
        prof = plateau_profile([(1.0, 1.5), (1.0, 1.5 - PI)])
        with pytest.raises(SplitRequired):
            canonical_to_diagonal(prof)

    def test_jump_formula_conjugation(self):
        # one plateau cell, conjugated back with B = [[zeta, -zeta t],[0,1]],
        # reproduces the singular-interval factor 1 + z l J P_alpha (z = zeta^2)
        alpha, ell = 0.6, 2.0
        D = canonical_to_diagonal(plateau_profile([(ell, alpha)]))
        dT = D.segments[0].deltaT
        t = -math.tan(alpha)
        for z in (1.0 + 0.0j, 1.0j, -2.0 + 0.0j):
            zeta = cmath.sqrt(z)
            A = np.array([[1.0, 0.0], [zeta * dT, 1.0]])  # 1 + zeta dT J P_0
            B = np.array([[zeta, -zeta * t], [0.0, 1.0]])
            lhs = np.linalg.inv(B) @ A @ B
            rhs = np.eye(2) + z * ell * (J @ p_alpha(alpha))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestDeBrangesType:
    def test_half_half_system(self):
        D = DiagonalSystem((DiagonalSegment(2.0, 0.5),), t0=0.0)
        assert debranges_type(D) == pytest.approx(1.0)

    def test_degenerate_h_zero_type(self):
        D = DiagonalSystem(
            (DiagonalSegment(1.0, 1.0), DiagonalSegment(3.0, 0.0)), t0=0.0
        )
        assert debranges_type(D) == 0.0

    def test_additive_under_concatenation(self):
        a = DiagonalSystem((DiagonalSegment(1.0, 0.3),), t0=0.0)
        b = DiagonalSystem((DiagonalSegment(2.0, 0.8),), t0=1.0)
        both = DiagonalSystem(a.segments + b.segments, t0=0.0)
        assert debranges_type(both) == pytest.approx(
            debranges_type(a) + debranges_type(b)
        )

    def test_empty_cell_is_p_half_pi(self):
        D = DiagonalSystem((DiagonalSegment(1.0, 0.5), DiagonalSegment(2.0, 0.0)), t0=0.0)
        H = diagonal_to_hamiltonian(D)
        assert H.segments[1].kind == ConstantAngle(PI / 2)
        assert np.allclose(h_at(H, 2.0), np.diag([0.0, 1.0]))

    def test_roundtrip_hamiltonian_valid(self):
        D = DiagonalSystem(
            (DiagonalSegment(1.0, 1.0), DiagonalSegment(0.5, 0.25)), t0=0.0
        )
        H = diagonal_to_hamiltonian(D)
        assert H.x_max == pytest.approx(1.5)
        assert np.allclose(h_at(H, 1.2), np.diag([0.25, 0.75]))

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import canosc
from canosc import entire, rk
from canosc.entire import (
    GrowthFit,
    hadamard_a,
    hadamard_a_log,
    hadamard_c,
    hadamard_c_log,
    hadamard_c_zeros,
    log_max_entry,
    order_bound_check,
    order_fit,
    transfer_matrix,
    type_fit_imaginary,
)
from canosc.hamiltonian import (
    ConstantAngle,
    ConstantMatrix,
    Hamiltonian,
    MatrixH,
    NotRankOne,
    PhiRamp,
    PhiTable,
    Segment,
    SingularHalfLine,
    extract_phi,
)
from refs import h_at, p_alpha, ramp_factor

PI = math.pi

# A(-1) for alpha = 3: partial products at N = 1e6 and 2e6 agree to 1e-12
A_MINUS_ONE_ALPHA3 = 2.428189792098565


def single(kind, length=1.0):
    return Hamiltonian((Segment(length, kind),))


#: an angle, then a ramp that turns from 0.2 down to -0.4
ANGLE_RAMP = Hamiltonian((Segment(1.0, ConstantAngle(0.3)), Segment(1.0, PhiRamp(0.2, -0.4))))


class TestTransferMatrix:
    def test_identity_at_zero(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.4)), Segment(1.0, PhiRamp(0.4, -0.4)))
        )
        T = transfer_matrix(H, 2.0, 0.0)
        assert np.allclose(T.entries, np.eye(2))

    def test_singular_factor_closed_form(self):
        T = transfer_matrix(single(ConstantAngle(0.0)), 1.0, 2.0)
        assert np.allclose(T.entries, [[1.0, 0.0], [2.0, 1.0]], atol=1e-14)

    def test_product_matches_direct_integration(self):
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.7)), Segment(0.5, ConstantAngle(-0.4)))
        )
        z = 1.3 - 0.8j
        T = transfer_matrix(H, 1.5, z)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])

        def f(x, u):
            return z * (J @ h_at(H, min(x, 1.5 - 1e-12)) @ u.reshape(2, 2)).reshape(4)

        _, ys = rk.integrate_adaptive(
            f, 0.0, 1.5, np.eye(2, dtype=complex).reshape(4), 1e-11
        )
        assert np.max(np.abs(T.entries - ys[-1].reshape(2, 2))) < 1e-9

    def test_semigroup_composition(self):
        H = Hamiltonian(
            (Segment(1.0, PhiRamp(0.5, -0.5)), Segment(1.0, ConstantAngle(-0.5)))
        )
        z = 0.3 + 1.1j
        whole = transfer_matrix(H, 2.0, z).entries
        first = transfer_matrix(H, 1.0, z).entries
        # restart from x = 1: the remaining segment alone
        rest = transfer_matrix(single(ConstantAngle(-0.5)), 1.0, z).entries
        assert np.max(np.abs(whole - rest @ first)) < 1e-9

    def test_det_one(self):
        H = Hamiltonian(
            (
                Segment(0.5, ConstantMatrix(MatrixH(0.3, 0.1, 0.7))),
                Segment(1.0, PhiRamp(1.0, -1.0)),
            )
        )
        for z in (2.0, -5.0 + 1.0j, 10.0j):
            # the determinant of the computed entries, not TransferMatrix.det,
            # which is the constant 1
            (e00, e01), (e10, e11) = transfer_matrix(H, 1.5, z).entries
            det = e00 * e11 - e01 * e10
            scale = max(abs(e00), abs(e01), abs(e10), abs(e11)) ** 2
            assert abs(det - 1.0) <= 1e-12 * max(1.0, scale)

    def test_log_form_matches_plain(self):
        H = Hamiltonian(tuple(Segment(0.5, ConstantAngle(a)) for a in (0.2, -0.9, 0.6)))
        z = 3.0 + 4.0j
        T = transfer_matrix(H, 1.5, z)
        lm = log_max_entry(H, 1.5, z)
        assert lm == pytest.approx(math.log(np.max(np.abs(T.entries))), abs=1e-10)

    def test_log_form_includes_tail(self):
        H = Hamiltonian((Segment(1.0, ConstantAngle(0.3)),), tail=SingularHalfLine(-0.9))
        z = 3.0 + 4.0j
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        body = np.eye(2) + z * (J @ p_alpha(0.3))
        tail = np.eye(2) + z * 1.5 * (J @ p_alpha(-0.9))
        expected = math.log(np.max(np.abs(tail @ body)))
        assert expected == pytest.approx(3.2285, abs=1e-4)
        assert log_max_entry(H, 2.5, z) == pytest.approx(expected, abs=1e-12)
        assert np.allclose(transfer_matrix(H, 2.5, z).entries, tail @ body, atol=1e-12)

    def test_beyond_x_max_without_tail_rejected(self):
        H = single(ConstantAngle(0.3))
        with pytest.raises(ValueError):
            log_max_entry(H, 2.5, 3.0 + 4.0j)
        with pytest.raises(ValueError):
            transfer_matrix(H, 2.5, 3.0 + 4.0j)

    def test_overflow_raises_while_log_form_holds(self):
        # H = diag(1/2, 1/2): |T(iy)| = cosh(y/2), beyond the float range at y = 3000
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)))
        assert log_max_entry(H, 1.0, 3000j) == pytest.approx(1500.0 - math.log(2.0), rel=1e-14)
        with pytest.raises(OverflowError):
            transfer_matrix(H, 1.0, 3000j)

    def test_long_singular_chain_matches_mpmath(self):
        # 400 shears at |z| = 1e8: log max |T| ~ 7e3, far past the rescaling
        # headroom, so the product is rescaled many times on the way
        alphas = [0.3, -1.1] * 200
        H = Hamiltonian(tuple(Segment(1.0, ConstantAngle(a)) for a in alphas))
        Z = 1e8 * np.exp(2j * PI * (np.arange(8) + 0.37) / 8)
        lm = log_max_entry(H, H.x_max, Z)
        assert lm.shape == (8,) and np.all(lm > 10.0 * entire._HEADROOM)
        with mpmath.workdps(30):
            # J P_alpha for each of the two angles
            N = {
                a: mpmath.matrix([[-mpmath.sin(a) * mpmath.cos(a), -mpmath.sin(a) ** 2],
                                  [mpmath.cos(a) ** 2, mpmath.sin(a) * mpmath.cos(a)]])
                for a in (0.3, -1.1)
            }
            for z, got in zip(Z, lm):
                zm = mpmath.mpc(complex(z))
                T = mpmath.eye(2)
                for a in alphas:
                    T = T + zm * (N[a] * T)
                ref = mpmath.log(max(abs(T[i, j]) for i in range(2) for j in range(2)))
                assert abs(got - float(ref)) <= 1e-12 * float(ref)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (3,), (2, 4)]))
    @settings(max_examples=40, deadline=None)
    def test_expm_matches_mpmath(self, seed, shape):
        # trace-free generators with |mu| up to ~60, past the e^s split at 20
        rng = np.random.default_rng(seed)
        M = (rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))) * 10.0 ** rng.uniform(-3, 1.5)
        M[..., 1, 1] = -M[..., 0, 0]
        E, s = entire.expm(M)
        assert E.shape == M.shape and np.shape(s) == shape
        for idx in np.ndindex(*shape):
            with mpmath.workdps(30):
                ref = mpmath.expm(mpmath.matrix(M[idx].tolist())) * mpmath.exp(-np.asarray(s)[idx])
            ref = np.array(ref.tolist(), dtype=complex)
            assert np.max(np.abs(E[idx] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("z", [1000j, 600 + 800j])
    def test_ramp_at_large_z_matches_mpmath(self, z):
        H = single(PhiRamp(0.75, -0.75))
        T = transfer_matrix(H, 1.0, z).entries
        ref = ramp_factor(0.75, -0.75, 1.0, z)
        assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"), math.inf, complex(1.0, -math.inf),
                                   np.array([1.0, complex("nan")]), np.array([[2j], [math.inf]])])
    def test_z_not_finite_raises(self, z):
        with np.errstate(all="raise"):  # raised before any arithmetic on z
            with pytest.raises(ValueError, match="finite"):
                entire.transfer_matrix_log(ANGLE_RAMP, 2.0, z)
            with pytest.raises(ValueError, match="finite"):
                log_max_entry(ANGLE_RAMP, 2.0, z)

    @given(
        st.lists(st.one_of(
            st.builds(lambda a, b: PhiRamp(max(a, b), min(a, b)), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
            st.builds(lambda h, g: ConstantMatrix(MatrixH(h, g * math.sqrt(h * (1.0 - h)), 1.0 - h)),
                      st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
        ), min_size=1, max_size=3),
        st.floats(-320.0, 300.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_z_never_gives_nan(self, kinds, log_r, phase):
        # |z| up to 1e300 on ramp and matrix pieces: the factor's mu is
        # sqrt(-l a) sqrt(l b), never the product l a l b, which overflows;
        # down at subnormal |z| that mu is subnormal, and sinh(mu)/mu is 1
        H = Hamiltonian(tuple(Segment(1.0, k) for k in kinds))
        z = 10.0**log_r * complex(math.cos(phase), math.sin(phase))
        with np.errstate(all="ignore"):
            try:
                U, s = entire.transfer_matrix_log(H, H.x_max, np.array([z, 1j, -z]))
            except OverflowError:
                return
        assert np.isfinite(s).all() and np.isfinite(U).all()
        assert np.max(np.abs(U), axis=(1, 2)) == pytest.approx(1.0)


def _run_fresh(code: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(canosc.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()


def test_import_leaves_scipy_out():
    """Importing canosc loads no scipy module."""
    code = (
        "import sys, canosc, canosc.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(repr(canosc.hadamard_a(-1.0, 3.0)))"
    )
    modules, value = _run_fresh(code)
    assert modules == "[]"
    assert value == repr(hadamard_a(-1.0, 3.0))


def test_hadamard_leaves_scipy_out():
    """The Hadamard products, Hurwitz zeta tail included, load no scipy module."""
    code = (
        "import sys, canosc\n"
        "canosc.entire.hadamard_a_log(1e3j, 3.0)\n"
        "print(repr(canosc.hadamard_c(-1.0, 3.0)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    value, modules = _run_fresh(code)
    assert modules == "[]"
    assert value == repr(hadamard_c(-1.0, 3.0))


class TestOrderFit:
    def test_exponential(self):
        fit = order_fit(lambda z: abs(z), 1e2, 1e6, log_abs=True)  # log M = r
        assert fit.order == pytest.approx(1.0, abs=0.05)

    def test_polynomial(self):
        # log log M ~ log(3 log r) has slope 1/log r; needs a wide range
        fit = order_fit(lambda z: 1.0 + z**3, 1e2, 1e12)
        assert fit.order < 0.05

    def test_hadamard_alpha3(self):
        fit = order_fit(lambda z: hadamard_a_log(z, 3.0), 1e2, 1e8, log_abs=True)
        assert fit.order == pytest.approx(1.0 / 3.0, abs=0.1)

    def test_bounded_function_is_order_zero(self):
        # log M(r) = log 0.5 < 0 on every circle: no growth to fit
        fit = order_fit(lambda z: np.full(z.shape, 0.5), 1e2, 1e6)
        assert (fit.order, fit.residual) == (0.0, 0.0)

    def test_radius_ratio_enforced(self):
        with pytest.raises(ValueError):
            order_fit(lambda z: z, 1.0, 10.0)

    @pytest.mark.parametrize("r_min, r_max", [
        (math.nan, 1e6), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf), (-1.0, 1e6), (0.0, 1e6),
    ])
    def test_radii_not_finite_or_positive_rejected(self, r_min, r_max):
        # r_max / r_min < 1e3 is False for NaN and passes for inf
        evaluate = mock.Mock(side_effect=AssertionError("evaluated"))
        with pytest.raises(ValueError, match="finite radii"):
            order_fit(evaluate, r_min, r_max, log_abs=True)

    def test_grid_evaluated_in_one_call(self):
        calls = []

        def log_abs_exp(z):
            calls.append(z)
            return z.real

        fit = order_fit(log_abs_exp, 1e2, 1e6, n_radii=9, n_phases=5, log_abs=True)
        assert len(calls) == 1
        (Z,) = calls
        assert isinstance(Z, np.ndarray) and Z.dtype == complex and Z.shape == (9, 5)
        assert np.allclose(np.abs(Z), fit.radii[:, None], rtol=1e-14)
        assert fit.order == pytest.approx(1.0, abs=0.05)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    @settings(max_examples=200, deadline=None)
    def test_line_fit_matches_polyfit(self, seed, n):
        rng = np.random.default_rng(seed)
        xs = np.log(np.geomspace(1.0, 10.0 ** rng.uniform(3.0, 12.0), n))
        ys = rng.normal(0.0, 3.0) + rng.normal(0.0, 2.0) * xs + rng.normal(0.0, 0.5, n)
        slope, resid = entire._line_fit(xs, ys)
        ref = np.polyfit(xs, ys, 1)
        assert abs(slope - ref[0]) <= 1e-14 * max(1.0, abs(ref[0]))
        ref_resid = math.sqrt(np.mean((ys - np.polyval(ref, xs)) ** 2))
        assert resid == pytest.approx(ref_resid, rel=1e-12, abs=1e-14)

    def test_scalar_only_function_through_vectorize(self):
        fit = order_fit(np.vectorize(lambda z: cmath.polar(z)[0]), 1e2, 1e6, log_abs=True)
        assert fit.order == pytest.approx(1.0, abs=0.05)


class TestHadamard:
    def test_a_at_zero_is_one(self):
        assert hadamard_a(0.0, 3.0) == pytest.approx(1.0)

    def test_a_vanishes_at_first_zero(self):
        assert hadamard_a(1.0, 3.0) == 0.0
        assert hadamard_a(8.0, 3.0) == 0.0  # 2^3

    def test_a_at_minus_one_frozen(self):
        v = hadamard_a(-1.0, 3.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(A_MINUS_ONE_ALPHA3, abs=1e-9)

    def test_a_partial_products_agree(self):
        a = hadamard_a(-3.7, 3.0, N=2000)
        b = hadamard_a(-3.7, 3.0, N=4000)
        assert abs(a - b) < 1e-9

    def test_a_log_consistent(self):
        z = -12.3 + 4.0j
        assert hadamard_a_log(z, 3.0) == pytest.approx(
            math.log(abs(hadamard_a(z, 3.0))), abs=1e-9
        )

    def test_c_normalization(self):
        assert hadamard_c(0.0, 3.0) == 0.0
        eps = 1e-7
        deriv = (hadamard_c(eps, 3.0) - hadamard_c(-eps, 3.0)) / (2 * eps)
        assert deriv == pytest.approx(1.0, abs=1e-5)

    def test_c_first_zero(self):
        assert hadamard_c_zeros(3.0, 1)[0] == pytest.approx(4.5)
        assert hadamard_c(4.5, 3.0) == 0.0

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    def test_array_matches_scalar_calls(self, fn):
        Z = np.array([[-3.7, 8.0, 0.0], [1e3j, -12.3 + 4.0j, 4.5]])
        out = fn(Z, 3.0)
        assert out.shape == Z.shape
        for idx in np.ndindex(*Z.shape):
            assert out[idx] == fn(complex(Z[idx]), 3.0)

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    def test_past_the_term_cap_raises_before_allocating(self, fn):
        # |z| = 1e30 at alpha = 3 needs 2.9e11 terms; no zeros may be built
        fail = mock.Mock(side_effect=AssertionError("zeros built"))
        with mock.patch.object(entire, "_a_zeros", fail), mock.patch.object(entire, "hadamard_c_zeros", fail):
            with pytest.raises(ValueError, match=f"at most {entire.MAX_TERMS}"):
                fn(1e30, 3.0)
            with pytest.raises(ValueError, match="needs"):
                fn(np.array([1.0, -1e30j]), 3.0)
        assert not fail.called

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    @pytest.mark.parametrize("N", [-1, 2.5, entire.MAX_TERMS + 1])
    def test_bad_explicit_term_count_raises_before_allocating(self, fn, N):
        # N must be an integer in [0, MAX_TERMS]; no zeros may be built
        fail = mock.Mock(side_effect=AssertionError("zeros built"))
        with mock.patch.object(entire, "_a_zeros", fail), mock.patch.object(entire, "hadamard_c_zeros", fail):
            with pytest.raises(ValueError, match=f"at most {entire.MAX_TERMS}"):
                fn(np.array([1.0, -2.0j]), 3.0, N=N)
        assert not fail.called

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    @pytest.mark.filterwarnings("error")
    def test_huge_array_element_raises_before_the_int_cast(self, fn):
        # |z| = 1e300 at alpha = 2.0000001 needs about 1e182 terms: the count
        # is checked as a float, with no int64 wraparound and no warning
        fail = mock.Mock(side_effect=AssertionError("zeros built"))
        with mock.patch.object(entire, "_a_zeros", fail), mock.patch.object(entire, "hadamard_c_zeros", fail):
            with pytest.raises(ValueError, match=f"needs .* terms; at most {entire.MAX_TERMS}"):
                fn(np.array([1.0, 1e300j]), 2.0000001)
        assert not fail.called

    @pytest.mark.parametrize("fn, z, alpha", [
        (hadamard_a, -1e12, 5.0), (hadamard_c, -1e12, 5.0), (hadamard_a, 1e200 + 1e200j, 40.0),
        (hadamard_a, np.array([2.0j, -1e12]), 5.0), (hadamard_c, np.array([[2.0j], [1e200 + 1e200j]]), 40.0),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_the_float_range_raises_overflow(self, fn, z, alpha):
        # log |A(-1e12)| is about 1324 at alpha = 5 (1335 for C): the value leaves the
        # float range, which is an OverflowError naming the log form, never a NaN
        with pytest.raises(OverflowError, match=f"use {fn.__name__}_log"):
            fn(z, alpha)
        v = {hadamard_a: hadamard_a_log, hadamard_c: hadamard_c_log}[fn](z, alpha)
        assert np.isfinite(v).all() and np.max(v) > 1300.0

    @pytest.mark.parametrize("z", [4.642e7 + 0.5, 3e7 + 1j])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_inside_the_float_range(self, z):
        # log |A| = 640.9 and 552.6 at alpha = 3: the product of the N exact
        # factors alone would overflow, the value does not
        v, L = hadamard_a(z, 3.0), hadamard_a_log(z, 3.0)
        assert cmath.isfinite(v) and L > 550.0
        assert abs(math.log(abs(v)) - L) <= 1e-15 * L  # a few ulps of L
        ref = _hadamard_mpmath("a", 3.0, z)
        assert abs(v - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("family", ["a", "c"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_plain_form_is_the_exponential_of_the_log_form(self, family):
        # 80 random points: a value below the end of the float range is
        # within 1e-12 of the 40-digit product (exp of a sum loses
        # eps |log A|), one past it raises
        fn, fn_log = (hadamard_a, hadamard_a_log) if family == "a" else (hadamard_c, hadamard_c_log)
        rng = np.random.default_rng(23)
        kept = 0
        for alpha, r, phase in zip(rng.uniform(2.2, 6.0, 80), 10.0 ** rng.uniform(-3.0, 7.0, 80), rng.uniform(0.0, 1.0, 80)):
            z = r * cmath.exp(2j * PI * phase)
            L = fn_log(z, alpha)
            if L > 709.8:
                with pytest.raises(OverflowError):
                    fn(z, alpha)
            elif L < 709.7:
                ref = _hadamard_mpmath(family, alpha, z)
                assert abs(fn(z, alpha) - ref) <= 1e-12 * abs(ref), (alpha, z)
                kept += 1
        assert kept >= 40

    def test_term_cap_covers_alpha_near_two(self):
        assert entire._auto_terms(1e6, 2.0000001) <= entire.MAX_TERMS < entire._auto_terms(1e30, 3.0)

    def test_zeros_interlace(self):
        a_zeros = np.arange(1, 101, dtype=float) ** 3
        c_zeros = hadamard_c_zeros(3.0, 100)
        assert np.all(a_zeros < c_zeros)
        assert np.all(c_zeros[:-1] < a_zeros[1:])


def _hadamard_at(z, alpha, N, family, log, scale):
    """One z at a time, with its own zeros and tail sums: the per-element
    formula the batched Hadamard products must reproduce bit for bit.  Every
    step is numpy arithmetic on 1-element arrays (numpy scalars may round
    otherwise).  With (e, T) = _power_sum(alpha, N + 1, family), the tail
    t = sum_{k<=K} z^k S_k / k is Horner's rule from k = K down in w = z / 2^e
    on T_k / k.  log |1 - z/z_n| is half of log(a^2 + b^2), a = (z_n - x) u,
    b = y u, u = 1/z_n, each factor scaled by 2^-s from max(|x|, |y|) = 2^510
    on, or half of log1p(p (p - 2) + b^2), a = 1 - p, p = x u, below
    max(|x|, |y|) = 1/2.  The value is scale * exp(L - t) * P, L the sum of
    those halves and P the product of the phasors (a - ib) / |a - ib|, a
    zero factor's left at 0."""
    zz = np.array([z])
    if N is None:
        N = entire._auto_terms(z, alpha)
    zeros = (hadamard_c_zeros if family == "c" else entire._a_zeros)(alpha, N)
    zeros = zeros[np.isfinite(zeros)]
    e, T = entire._power_sum(alpha, N + 1.0, family)
    w, t = zz * np.array([math.ldexp(1.0, -e)]), 0.0
    for k in range(entire._TAIL_ORDER, 0, -1):
        t = (t + np.array([T[k - 1] / k])) * w
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, y = zz.real.astype(float), zz.imag.astype(float)
        big = max(abs(x[0]), abs(y[0]))
        u = 1.0 / zeros
        b = np.multiply.outer(y, u)
        if big >= 0.5:
            s = max(0, math.frexp(big)[1] - 510)
            a = (zeros - x[:, None]) * u
            if s:
                a, b = a * math.ldexp(1.0, -s), b * math.ldexp(1.0, -s)
            f = a - 1j * b
            red = np.log(a * a + b * b).sum(axis=1)
            if s:
                red = red + (2.0 * u.size * math.log(2.0)) * np.array([s])
        else:
            p = np.multiply.outer(x, u)
            f = (1.0 - p) - 1j * b
            red = np.log1p(p * (p - 2.0) + b * b).sum(axis=1)
        if log:
            lsc = np.log(np.abs(zz)) if family == "c" else 0.0
            return (lsc + 0.5 * red - np.real(t)).item()
        P = np.divide(f, np.abs(f), out=f, where=f != 0.0).prod(axis=1)
        return (np.exp(0.5 * red - t) * (zz * P if family == "c" else P)).item()


#: public function -> (family, log) of its reference; family c is scaled by z
HADAMARD_REF = {
    hadamard_a: ("a", False),
    hadamard_a_log: ("a", True),
    hadamard_c: ("c", False),
    hadamard_c_log: ("c", True),
}


def hadamard_ref(fn, z, alpha, N=None):
    family, log = HADAMARD_REF[fn]
    if np.ndim(z) == 0:
        return _hadamard_at(z, alpha, N, family, log, z if family == "c" else 1.0)
    z = np.asarray(z)
    out = [_hadamard_at(v, alpha, N, family, log, v if family == "c" else 1.0) for v in z.flat]
    return np.array(out, dtype=float if log else complex).reshape(z.shape)


def _hadamard_mpmath(family, alpha, z):
    """The plain product at 40 digits over the same N factors and the same
    float tail sums S_k as hadamard_a or hadamard_c: what the one-pass value
    must match to within its rounding."""
    N = entire._auto_terms(z, alpha)
    zeros = (hadamard_c_zeros if family == "c" else entire._a_zeros)(alpha, N)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        head = mpmath.fprod(1 - zm / mpmath.mpf(zn) for zn in zeros[np.isfinite(zeros)].tolist())
        tail = mpmath.fsum(zm**k * mpmath.mpf(Sk) / k for k, Sk in enumerate(power_sums(alpha, N + 1.0, family), 1))
        return complex(head * mpmath.exp(-tail) * (zm if family == "c" else 1))


def assert_same_bits(got, ref):
    if np.ndim(ref) == 0:
        assert type(got) is type(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (got, ref)
    else:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


HADAMARD_FNS = list(HADAMARD_REF)


def growth_pool_hadamard() -> list[dict]:
    """The growth benchmark pool's 24 Hadamard fits (family, alpha, radii)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data", "growth.json")
    with open(path) as f:
        queries = json.load(f)["queries"]["hadamard"]
    assert len(queries) == 24
    return queries


class TestBatchedHadamard:
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(2.2, 5.0),
        st.sampled_from(HADAMARD_FNS),
        st.sampled_from([None, None, 3, 60]),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_grid_matches_per_element_reference(self, seed, alpha, fn, N):
        # radii from 1e-2 to 1e9 give many distinct N on one grid (four at
        # alpha = 5), and the 60 small radii one group of N = 50 that spans
        # several blocks
        rng = np.random.default_rng(seed)
        r = np.concatenate([rng.uniform(0.0, 1.0, 60), np.geomspace(1e-2, 1e9, 10)])
        Z = (r * np.exp(2j * PI * rng.uniform(0.0, 1.0, r.size))).reshape(5, 14)
        if N is None:
            assert len({entire._auto_terms(v, alpha) for v in Z.flat}) > 3
        ref = hadamard_ref(fn, Z, alpha, N)
        if not np.isfinite(ref).all():
            # a value past the float range raises; the rest keep their bits without it
            with pytest.raises(OverflowError, match="_log"):
                fn(Z, alpha, N)
            Z, ref = Z[np.isfinite(ref)], ref[np.isfinite(ref)]
        assert_same_bits(fn(Z, alpha, N), ref)

    @given(st.integers(0, 2**32 - 1), st.floats(2.2, 5.0), st.sampled_from(HADAMARD_FNS))
    @settings(max_examples=60, deadline=None)
    def test_scalars_match_per_element_reference(self, seed, alpha, fn):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 4.0, 2)
        for z in (complex(x, y), float(x), np.complex128(complex(x, y)), int(round(x))):
            assert_same_bits(fn(z, alpha), hadamard_ref(fn, z, alpha))

    def test_c_family_at_zero(self):
        Z = np.array([0.0, 1j, 0j, -2.0])
        for fn in (hadamard_c, hadamard_c_log):
            assert_same_bits(fn(Z, 3.0), hadamard_ref(fn, Z, 3.0))
            assert_same_bits(fn(0j, 3.0), hadamard_ref(fn, 0j, 3.0))
        assert hadamard_c_log(0.0, 3.0) == -math.inf and hadamard_c_log(Z, 3.0)[2] == -math.inf
        assert hadamard_c(0.0, 3.0) == 0.0 and hadamard_c(Z, 3.0)[0] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_retained_zero_keeps_its_digits(self):
        # a zero hit exactly gives 0.0; one 5e-12 away keeps its digits
        Z = np.array([[8.0 + 5e-12j, 27.0 - 1e-11, 2.0], [4.5 + 1e-12j, 1.0, -3.0]])
        for fn in HADAMARD_FNS:
            got = fn(Z, 3.0)
            assert_same_bits(got, hadamard_ref(fn, Z, 3.0))
        assert hadamard_a(Z, 3.0)[1, 1] == 0.0 and hadamard_a(1.0, 3.0) == 0.0 and hadamard_c(4.5, 3.0) == 0.0
        for family, fn in (("a", hadamard_a), ("c", hadamard_c)):
            for z, v in zip(Z.flat, fn(Z, 3.0).flat):
                ref = _hadamard_mpmath(family, 3.0, complex(z))
                assert abs(v - ref) <= 1e-12 * abs(ref), (family, z)

    @pytest.mark.parametrize("fn", HADAMARD_FNS)
    def test_shapes_and_scalar_types(self, fn):
        log = HADAMARD_REF[fn][1]
        for shape in ((), (0,), (3,), (2, 1, 4)):
            Z = np.full(shape, -3.7 + 1.2j)
            out = fn(Z, 3.0)
            assert np.shape(out) == shape
        # a scalar z gives a Python float (log forms) or complex, whatever its type
        for z in (-3.7 + 1.2j, -3.7, np.complex128(-3.7 + 1.2j), np.float64(-3.7), -4, 1.0):
            assert type(fn(z, 3.0)) is (float if log else complex), z

    def test_grid_memory_stays_at_one_row(self):
        # N ~ 2.1e4 at |z| = 1e10, alpha = 3: an (n_radii, n_phases, N) block
        # would be ~64 MB; the grid must stay within twice one z's peak
        alpha, z1 = 3.0, 1e10 * np.exp(0.37j)
        radii = np.geomspace(1e7, 1e10, 12)
        Z = radii[:, None] * np.exp(2j * PI * (np.arange(16) + 0.37) / 16)[None, :]
        assert entire._auto_terms(z1, alpha) > 15000

        def peak(z):
            hadamard_a_log(z, alpha)
            tracemalloc.start()
            try:
                hadamard_a_log(z, alpha)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak(z1)
        assert single > 16 * 15000  # one complex row of N entries was traced
        assert peak(Z) < 2 * single

    def test_benchmark_grids_match_scalar_calls(self):
        # the growth pool's 24 (family, alpha) fits, on their own 12 x 16 grid
        queries = growth_pool_hadamard()

        def math_terms(z, alpha):  # the per-element formula with math's log and exp
            K = entire._TAIL_ORDER
            lr = math.log(max(abs(z), 1.0))
            p = (K + 1) * alpha - 1.0
            n1 = (math.log(2.0) + lr) / alpha
            n2 = ((K + 1) * lr + math.log(2e12 / ((K + 1) * p))) / p
            return max(50, math.ceil(math.exp(max(n1, n2))))

        for q in queries:
            a = q["args"]
            fn = hadamard_a_log if a["family"] == "a" else hadamard_c_log
            _, Z = entire._fit_grid(a["r_min"], a["r_max"], 12, 16)
            terms = entire._auto_terms(Z, a["alpha"])
            assert terms.dtype == np.int64 and terms.shape == Z.shape
            assert terms.tolist() == [[math_terms(v, a["alpha"]) for v in row] for row in Z.tolist()]
            alone = np.array([[fn(v, a["alpha"]) for v in row] for row in Z.tolist()])
            assert_same_bits(fn(Z, a["alpha"]), alone)

    def test_term_counts_are_pinned(self):
        # the exact factors at the default K, which the README quotes
        total = 0
        for q in growth_pool_hadamard():
            a = q["args"]
            total += int(entire._auto_terms(entire._fit_grid(a["r_min"], a["r_max"], 12, 16)[1], a["alpha"]).sum())
        assert total == 298272
        _, Z = entire._fit_grid(1e2, 1e5, 12, 16)
        assert entire._auto_terms(Z, 3.0).sum() == 25984
        assert entire._auto_terms(Z, 5.0).sum() == 9600

    def test_one_array_pass_per_call(self):
        # N for the whole grid in one call, and one _power_sum call (all K
        # tail sums) per distinct N: no Python step runs once per element
        alpha = 3.0
        _, Z = entire._fit_grid(1e2, 1e5, 12, 16)
        distinct = np.unique(entire._auto_terms(Z, alpha)).size
        assert 1 < distinct <= Z.shape[0]  # at most one N per radius
        with mock.patch.object(entire, "_power_sum", wraps=entire._power_sum) as ps, \
                mock.patch.object(entire, "_auto_terms", wraps=entire._auto_terms) as at:
            hadamard_c_log(Z, alpha)
        assert at.call_count == 1
        assert ps.call_count == distinct


def power_sums(alpha, a, family):
    """[S_1, ..., S_K] from _power_sum's T_k = 2^(k e) S_k."""
    e, T = entire._power_sum(alpha, a, family)
    return [math.ldexp(t, -k * e) for k, t in enumerate(T, 1)]


class TestHurwitzZeta:
    """Family a's power sum at k = 1 is the Hurwitz zeta: power_sums(s, a, "a")[0] = zeta(s, a)."""

    @given(st.floats(2.0, 8.0, exclude_min=True), st.floats(0.0, 7.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath(self, s, log_a):
        a = 2.0 * 10.0 ** (log_a * (math.log10(5e6) / 7.0))  # a in [2, 1e7]
        with mpmath.workdps(40):
            ref = mpmath.zeta(s, a)
        assert abs(power_sums(s, a, "a")[0] - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("s", [2.0 + 1e-9, 3.0, 5.5, 8.0])
    def test_small_integer_a_matches_mpmath(self, s):
        for a in range(2, 60):
            with mpmath.workdps(40):
                ref = mpmath.zeta(s, a)
            assert abs(power_sums(s, float(a), "a")[0] - ref) <= 1e-15 * ref

    def test_explicit_small_n_tail(self):
        # the tail exp(-sum_{k<=K} z^k zeta(k alpha, N + 1) / k) is exact for
        # N = 3 (a = 4 < 30)
        z, alpha = -2.5 + 1.5j, 3.0
        with mpmath.workdps(40):
            zm = mpmath.mpc(z)
            prod = mpmath.fprod(1 - zm / mpmath.mpf(n) ** 3 for n in (1, 2, 3))
            tail = mpmath.fsum(zm**k * mpmath.zeta(k * alpha, 4) / k for k in range(1, entire._TAIL_ORDER + 1))
            ref = complex(prod * mpmath.exp(-tail))
        assert abs(hadamard_a(z, alpha, N=3) - ref) <= 1e-14 * abs(ref)

    def test_zero_terms_is_the_pure_tail(self):
        # N = 0 keeps no exact factor: exp(-sum_{k<=K} z^k zeta(k alpha, 1) / k)
        z, alpha = -2.5 + 1.5j, 3.0
        with mpmath.workdps(40):
            zm = mpmath.mpc(z)
            tail = mpmath.fsum(zm**k * mpmath.zeta(k * alpha, 1) / k for k in range(1, entire._TAIL_ORDER + 1))
            ref = complex(mpmath.exp(-tail))
        assert abs(hadamard_a(z, alpha, N=0) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    def test_alpha_at_most_two_rejected(self, fn):
        for alpha in (2.0, 1.5):
            with pytest.raises(ValueError):
                fn(-1.0, alpha)
            with pytest.raises(ValueError):
                fn(np.array([-1.0, 2j]), alpha)

    @pytest.mark.parametrize("s", [8.5, 12.0, 20.0, 40.0, 100.0])
    def test_past_s_eight_matches_mpmath(self, s):
        for a in (2.0, 7.0, 31.0, 51.0, 400.0):
            # mpmath subtracts from zeta(s) at integer a: it needs digits past zeta(s, a)'s exponent
            with mpmath.workdps(30 + int(s * math.log10(a))):
                ref = mpmath.zeta(s, a)
            assert abs(power_sums(s, a, "a")[0] - ref) <= 1e-15 * ref


def _c_tail_mpmath(alpha, N, k, J=24):
    """sum_{n>N} (2 / (n^alpha + (n+1)^alpha))^k: the terms one by one below
    M = N + 101 + 16/R, R = 2 sin(pi / (2 alpha)) the radius of convergence
    of the series in 1/n, then that series against mpmath's Hurwitz zeta
    (each of its terms gains a factor 16 or more), at a precision past the
    value's exponent."""
    M = N + 101 + math.ceil(8.0 / math.sin(0.5 * math.pi / alpha))
    with mpmath.workdps(30 + int(k * alpha * math.log10(M + 1))):
        a = mpmath.mpf(alpha)
        direct = mpmath.fsum((2 / (n**a + (n + 1) ** a)) ** k for n in range(N + 1, M))
        # g_j of 2 / (1 + (1+u)^alpha) by g (1 + h) = 1, h_i = binom(alpha, i) / 2
        h = [mpmath.binomial(a, i) / 2 for i in range(1, J)]
        g = [mpmath.mpf(1)]
        for j in range(1, J):
            g.append(-mpmath.fsum(h[i - 1] * g[j - i] for i in range(1, j + 1)))
        gk = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (J - 1)
        for _ in range(k):
            gk = [mpmath.fsum(gk[i] * g[j - i] for i in range(j + 1)) for j in range(J)]
        return direct + mpmath.fsum(gj * mpmath.zeta(k * a + j, M) for j, gj in enumerate(gk))


def _hadamard_log_mpmath(family, alpha, z):
    """log |F(z)| of the infinite product: the factors one by one while
    |z/z_n| > 1e-3, then -sum_{k<=8} Re(z^k S_k) / k, S_k = sum_{n>M} z_n^-k;
    the terms past k = 8 are below 1e-24 of the first."""
    M = math.ceil((1e3 * max(abs(z), 1.0)) ** (1.0 / alpha))
    with mpmath.workdps(30):
        a, zm = mpmath.mpf(alpha), mpmath.mpc(z)
        if family == "a":
            zeros = (mpmath.mpf(n) ** a for n in range(1, M + 1))
            S = [mpmath.zeta(k * a, M + 1) for k in range(1, 9)]
        else:
            zeros = ((mpmath.mpf(n) ** a + mpmath.mpf(n + 1) ** a) / 2 for n in range(1, M + 1))
            S = [_c_tail_mpmath(alpha, M, k) for k in range(1, 9)]
        head = mpmath.fsum(mpmath.log(abs(1 - zm / zn)) for zn in zeros)
        tail = mpmath.fsum(mpmath.re(zm**k * Sk) / k for k, Sk in enumerate(S, 1))
        v = head - tail + (mpmath.log(abs(zm)) if family == "c" else 0)
        return float(v)


class TestHadamardTails:
    """S_k = sum_{n>N} z_n^-k from one routine: the Hurwitz zeta for family a,
    and for family c's zeros (n^alpha + (n+1)^alpha)/2 its own sum, not the
    zeta of n^alpha."""

    @pytest.mark.parametrize("alpha, N", [
        (2.2, 3), (3.0, 50), (3.5, 300), (4.5, 3000), (7.9, 0), (12.0, 60), (30.0, 50), (100.0, 60),
    ])
    def test_c_tail_matches_mpmath(self, alpha, N):
        for k in range(1, entire._TAIL_ORDER + 1):
            ref = float(_c_tail_mpmath(alpha, N, k))
            assert abs(power_sums(alpha, N + 1.0, "c")[k - 1] - ref) <= 1e-15 * ref, k

    @pytest.mark.parametrize("alpha", [2.2, 3.0, 3.53, 3.7, 4.9, 5.0, 7.3])
    def test_raising_the_tail_order_is_one_constant(self, alpha, monkeypatch):
        # at K = 4, the default, every S_k, k <= 4, keeps 1e-15 in both
        # families, from the direct sum (N + 1 < 4 k alpha) to the expansion
        # at a = 1e6, where a^(1 - k alpha) with k alpha rounded first was off
        # by 1.2e-14; the patch holds K = 4 here if the default moves
        entire._expansion.cache_clear()
        monkeypatch.setattr(entire, "_TAIL_ORDER", 4)
        try:
            for N in (0, 9, 43, 300, 10**6 - 1):
                for k in range(1, 5):
                    # mpmath needs digits past the value's exponent
                    with mpmath.workdps(30 + int(k * alpha * math.log10(N + 2))):
                        ref_a = float(mpmath.zeta(k * mpmath.mpf(alpha), N + 1))
                    for family, ref in (("a", ref_a), ("c", float(_c_tail_mpmath(alpha, N, k)))):
                        v = power_sums(alpha, N + 1.0, family)[k - 1]
                        assert abs(v - ref) <= 1e-15 * ref, (family, N, k)
            for family, fn in (("a", hadamard_a_log), ("c", hadamard_c_log)):
                for z in (-1e5, 3e4j, 1e5 * cmath.exp(0.37j), -7.3 + 2.0j):
                    v = fn(z, alpha)
                    ref = _hadamard_log_mpmath(family, alpha, z)
                    assert abs(v - ref) <= 1e-12 * max(1.0, abs(v)), (family, z)
        finally:
            entire._expansion.cache_clear()

    @pytest.mark.parametrize("family", ["a", "c"])
    @pytest.mark.parametrize("alpha", [2.2, 3.0, 3.7, 5.0])
    def test_log_matches_the_infinite_product(self, family, alpha):
        # the order-K tail keeps the neglected remainder below 1e-12 at every z
        fn = hadamard_a_log if family == "a" else hadamard_c_log
        for z in (-1e5, 3e4j, 1e5 * cmath.exp(0.37j), 2e3 * cmath.exp(0.01j), -7.3 + 2.0j, 0.4):
            v = fn(z, alpha)
            assert abs(v - _hadamard_log_mpmath(family, alpha, z)) <= 1e-12 * max(1.0, abs(v)), z

    @pytest.mark.parametrize("family", ["a", "c"])
    def test_benchmark_outer_row_matches_the_infinite_product(self, family):
        # the pool's smallest alpha of each family, at its r_max = 1e5 row,
        # where N is smallest against |z| and the tail carries the most
        fits = [q["args"] for q in growth_pool_hadamard() if q["args"]["family"] == family]
        a = min(fits, key=lambda a: a["alpha"])
        assert a["r_max"] == 1e5
        fn = hadamard_a_log if family == "a" else hadamard_c_log
        _, Z = entire._fit_grid(a["r_min"], a["r_max"], 12, 16)
        row = Z[-1, ::5]
        got = fn(row, a["alpha"])
        for z, v in zip(row.tolist(), got.tolist()):
            assert abs(v - _hadamard_log_mpmath(family, a["alpha"], z)) <= 1e-12 * max(1.0, abs(v)), z

    @pytest.mark.parametrize("fn", HADAMARD_FNS)
    @pytest.mark.parametrize("alpha", [3.0, 3.5, 4.5])
    def test_doubling_n_moves_both_families_little(self, fn, alpha):
        # the tail beyond N starts with z S_1: at z = -1e5 an S_1 off by 1e-8
        # relative moved family c's log by 1e-8 when N doubled
        for z in (-1e5, 3e4j):
            n = entire._auto_terms(z, alpha)
            v, v2 = fn(z, alpha, n), fn(z, alpha, 2 * n)
            if HADAMARD_REF[fn][1]:
                assert abs(v - v2) < 1e-11
            else:
                assert abs(v - v2) < 1e-11 * abs(v)

    @pytest.mark.parametrize("fn", HADAMARD_FNS)
    def test_z_or_alpha_not_finite_rejected(self, fn):
        for z, alpha in ((math.nan, 3.0), (complex("inf"), 3.0), (np.array([1.0, math.nan]), 3.0),
                         (1.0, math.inf), (1.0, math.nan), (np.array([1.0, 2j]), math.inf)):
            with pytest.raises(ValueError, match="finite"):
                fn(z, alpha)

    @pytest.mark.parametrize("fn", HADAMARD_FNS)
    def test_large_alpha_answers_without_nan(self, fn):
        Z = np.array([1.0, 0.5, -1e5, 1e3j, 0.0])
        with np.errstate(over="ignore"):  # n^alpha is inf past the float range
            for alpha in (50.0, 100.0, 1e3, 1e300):
                assert not np.isnan(fn(Z, alpha)).any()


#: log |A(z)| at alpha = 40 (auto N = 119 031) from _hadamard_log_mpmath.  Past
#: |z| u_1 = 1e154 an unscaled (1 - x u)^2 overflows; at z = -1e200 a tail
#: sum S_2 ~ 1e-403 that underflows moves the value by 1.3e-3
A40_LOG = {1e200 + 1e200j: 4031686.7242105715, -1e200: 4003848.2805202063}


class TestHadamardLogForm:
    """The real-arithmetic log form where it is hardest: past the range of
    the squares, next to a retained zero, and at tiny |z|."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_the_range_of_the_squares(self):
        for z, ref in A40_LOG.items():
            assert abs(hadamard_a_log(z, 40.0) - ref) <= 1e-12 * ref, z

    @pytest.mark.slow
    def test_past_the_range_of_the_squares_against_mpmath(self):
        # the reference values above: 1.2e5 exact factors each, about 6 s
        for z, ref in A40_LOG.items():
            assert abs(_hadamard_log_mpmath("a", 40.0, z) - ref) <= 1e-15 * ref, z

    @pytest.mark.parametrize("family", ["a", "c"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_next_to_a_retained_zero(self, family):
        # integer alpha keeps the zeros exact; z within 1e-6 relative of z_n,
        # 1e-9 z_n off the axis, where 1 - x u would lose six digits
        fn = hadamard_a_log if family == "a" else hadamard_c_log
        for alpha in (3.0, 4.0):
            zeros = (hadamard_c_zeros if family == "c" else entire._a_zeros)(alpha, 12)
            for zn, sign in zip(zeros[[0, 1, 4, 11]], (1.0, -1.0, -1.0, 1.0)):
                z = complex(zn * (1.0 + sign * 1e-6), -sign * 1e-9 * zn)
                v = fn(z, alpha)
                assert abs(v - _hadamard_log_mpmath(family, alpha, z)) <= 1e-12 * max(1.0, abs(v)), (alpha, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_z(self):
        # |z| <= 1e-3: family a's log is O(|z|) and within 1e-15 absolute;
        # family c's adds log |z|, whose own rounding is near 1e-15
        rng = np.random.default_rng(22)
        zs = [1e-3, -1e-3, 1e-3j, 0.0] + list(10.0 ** rng.uniform(-12.0, -3.0, 6) * np.exp(2j * PI * rng.uniform(0.0, 1.0, 6)))
        for z, alpha in zip(zs, rng.uniform(2.2, 6.0, len(zs))):
            assert abs(hadamard_a_log(z, alpha) - _hadamard_log_mpmath("a", alpha, z)) <= 1e-15, (z, alpha)
            if z:
                v = hadamard_c_log(z, alpha)
                assert abs(v - _hadamard_log_mpmath("c", alpha, z)) <= 1e-15 * abs(v), (z, alpha)
        assert hadamard_a_log(0.0, 3.0) == 0.0 and hadamard_a(0.0, 3.0) == 1.0

    @pytest.mark.parametrize("fn", [hadamard_a_log, hadamard_c_log])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_mixing_huge_and_ordinary_elements(self, fn):
        # 2^-s scales only the huge elements (s > 0 from 2^510 on), so every
        # element keeps the bits of its call alone
        Z = np.array([[1e200 + 1e200j, -1e200, 3.0 - 4.0j, 2.0**510 * (1 + 1j)],
                      [1e-4j, 0.0, 5e4 * cmath.exp(0.37j), -(2.0**509)]])
        got = fn(Z, 40.0)
        assert_same_bits(got, hadamard_ref(fn, Z, 40.0))
        assert_same_bits(got, np.array([[fn(v, 40.0) for v in row] for row in Z.tolist()]))
        assert np.isfinite(got[Z != 0]).all()


class TestTypeFit:
    def test_half_half_rate_matches_length_over_two(self):
        # H = diag(1/2,1/2) on (0, T): ||T(iy)|| ~ e^{yT/2}
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)), length=2.0)
        rate = type_fit_imaginary(lambda z: log_max_entry(H, 2.0, z), 1.0, 100.0)
        assert rate == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("y_min, y_max", [
        (1.0, math.inf), (1.0, math.nan), (-math.inf, -1.0), (math.nan, 1.0), (0.0, 1.0), (2.0, 1.0),
    ])
    def test_range_not_finite_or_positive_rejected(self, y_min, y_max):
        evaluate = mock.Mock(side_effect=AssertionError("evaluated"))
        with pytest.raises(ValueError, match="finite"):
            type_fit_imaginary(evaluate, y_min, y_max)

    def test_scaled_abscissae_leave_the_slope_bits(self):
        # the fit runs on ys times a power of two; slope and scaling commute exactly
        ys = np.geomspace(3.0, 300.0, 12)
        lm = 0.7 * ys + np.sin(ys)
        upper = ys >= ys[5]
        ref = entire._line_fit(ys[upper], lm[upper])[0]
        assert type_fit_imaginary(lambda z: 0.7 * z.imag + np.sin(z.imag), 3.0, 300.0) == ref

    def test_axis_evaluated_in_one_call(self):
        calls = []

        def rate_two(z):
            calls.append(z)
            return 2.0 * z.imag

        assert type_fit_imaginary(rate_two, 1.0, 100.0) == pytest.approx(2.0)
        assert len(calls) == 1
        (Z,) = calls
        assert isinstance(Z, np.ndarray) and Z.shape == (12,)
        assert np.array_equal(Z, 1j * np.geomspace(1.0, 100.0, 12))


class TestFitGrid:
    def test_fits_share_one_read_only_grid(self):
        a = order_fit(lambda z: np.abs(z), 1e2, 1e6, log_abs=True)
        b = order_fit(lambda z: 2.0 * np.abs(z), 1e2, 1e6, log_abs=True)
        assert a.radii is b.radii and not a.radii.flags.writeable
        with pytest.raises(ValueError):
            a.radii[0] = 1.0

    def test_evaluate_gets_read_only_grid(self):
        def write(z):
            z[0] = 0.0
            return np.abs(z)

        with pytest.raises(ValueError):
            order_fit(write, 1e2, 1e6, log_abs=True)
        with pytest.raises(ValueError):
            type_fit_imaginary(write, 1.0, 100.0)
        # a copy may be written
        assert order_fit(lambda z: write(z.copy()), 1e2, 1e6, log_abs=True).order > 0.9

    def test_cold_and_warm_cache_agree(self):
        def fits():
            f = order_fit(lambda z: hadamard_a_log(z, 3.0), 1e2, 1e6, n_radii=9, n_phases=5, log_abs=True)
            return f.radii.tobytes(), f.logmax.tobytes(), f.order, f.residual, type_fit_imaginary(
                lambda z: np.abs(z), 1.0, 100.0
            )

        entire._fit_grid.cache_clear()
        cold = fits()
        assert fits() == cold
        radii, Z = entire._fit_grid(1e2, 1e6, 9, 5)
        phases = 2.0 * PI * (np.arange(5) + 0.37) / 5
        ref = np.geomspace(1e2, 1e6, 9)[:, None] * (np.cos(phases) + 1j * np.sin(phases))[None, :]
        assert radii.tobytes() == np.geomspace(1e2, 1e6, 9).tobytes() and Z.tobytes() == ref.tobytes()

    def test_growth_fit_is_slotted(self):
        assert "__slots__" in vars(GrowthFit)
        assert not hasattr(order_fit(lambda z: np.abs(z), 1e2, 1e6, log_abs=True), "__dict__")


class TestOrderBound:
    def test_all_singular_fits_near_zero(self):
        H = Hamiltonian(
            tuple(Segment(0.5, ConstantAngle(a)) for a in (1.2, 0.4, -0.3, -1.1))
        )
        rep = order_bound_check(H)
        assert rep.upper_ok
        assert rep.fitted_order <= 0.1
        assert not rep.has_ramp_mass

    def test_full_rank_matrix_segment(self):
        # extract_phi refuses this system; the report reads the pieces instead
        H = Hamiltonian(
            (Segment(1.0, ConstantAngle(0.3)), Segment(0.5, ConstantMatrix(MatrixH(0.4, 0.1, 0.6))))
        )
        with pytest.raises(NotRankOne):
            extract_phi(H)
        rep = order_bound_check(H)
        fit = order_fit(lambda z: log_max_entry(H, H.x_max, z), 1.0, 1e3, n_radii=10, n_phases=8, log_abs=True)
        assert rep.fitted_order == fit.order and rep.residual == fit.residual
        assert not rep.upper_ok and not rep.has_ramp_mass

    def test_plateau_table_fits_to_1e8(self):
        # every piece is singular, so the fit runs over radii 1 to 1e8
        H = Hamiltonian(
            (Segment(1.0, PhiTable([(0.0, 0.2), (0.5, 0.2), (1.0, 0.2)])), Segment(0.5, ConstantAngle(-0.4)))
        )
        rep = order_bound_check(H)
        fit = order_fit(lambda z: log_max_entry(H, H.x_max, z), 1.0, 1e8, n_radii=10, n_phases=8, log_abs=True)
        assert rep.fitted_order == fit.order and rep.residual == fit.residual
        assert not rep.has_ramp_mass

    @pytest.mark.parametrize(
        "segments",
        [
            (Segment(1.0, PhiRamp(0.75, -0.75)),),
            (Segment(0.5, ConstantAngle(0.9)), Segment(1.0, PhiRamp(0.4, 0.1)), Segment(0.5, ConstantAngle(-1.0))),
            (Segment(1.0, PhiTable([(0.0, 0.2), (0.5, 0.2), (1.0, 0.2)])), Segment(0.5, ConstantAngle(-0.4))),
            (Segment(1.0, PhiTable([(0.0, 0.2), (0.5, 0.2), (1.0, -0.3)])),),
            (Segment(1.0, ConstantMatrix(MatrixH(math.cos(0.4) ** 2, math.cos(0.4) * math.sin(0.4), math.sin(0.4) ** 2))),),
        ],
    )
    def test_ramp_mass_matches_angle_profile(self, segments):
        H = Hamiltonian(segments)
        expected = any(not p.singular for p in extract_phi(H).pieces)
        assert order_bound_check(H).has_ramp_mass == expected

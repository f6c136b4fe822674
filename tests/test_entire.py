import cmath
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import canosc
from canosc import entire, oracle, rk
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
    p_alpha,
)

PI = math.pi

# A(-1) for alpha = 3: partial products at N = 1e6 and 2e6 agree to 1e-12
A_MINUS_ONE_ALPHA3 = 2.428189792098565


def single(kind, length=1.0):
    return Hamiltonian((Segment(length, kind),))


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
            return z * (J @ H.h_at(min(x, 1.5 - 1e-12)) @ u.reshape(2, 2)).reshape(4)

        _, ys, _ = rk.integrate_adaptive(
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
        ref = oracle.ramp_factor(0.75, -0.75, 1.0, z)
        assert np.max(np.abs(T - ref)) <= 1e-12 * np.max(np.abs(ref))


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

    def test_radius_ratio_enforced(self):
        with pytest.raises(ValueError):
            order_fit(lambda z: z, 1.0, 10.0)

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

    def test_zeros_interlace(self):
        a_zeros = np.arange(1, 101, dtype=float) ** 3
        c_zeros = hadamard_c_zeros(3.0, 100)
        assert np.all(a_zeros < c_zeros)
        assert np.all(c_zeros[:-1] < a_zeros[1:])


def _hadamard_at(z, alpha, N, zeros_of, log, scale):
    """One z at a time, with its own zeros and tail zeta: the per-element
    formula the batched Hadamard products must reproduce bit for bit."""
    if N is None:
        N = entire._auto_terms(z, alpha)
    if abs(scale) < 1e-300:
        return -math.inf if log else complex(scale)
    zeros = zeros_of(alpha, N)
    tail = -z * entire._hurwitz_zeta(alpha, N + 1.0)
    if log:
        with np.errstate(divide="ignore"):
            s = float(np.sum(np.log(np.abs(1.0 - z / zeros))))
        return math.log(abs(scale)) + s + float(tail.real)
    if np.min(np.abs(z - zeros)) < 1e-12 * max(1.0, abs(z)):
        return 0.0 + 0.0j
    return scale * complex(np.prod(1.0 - z / zeros)) * np.exp(tail)


#: public function -> (zeros, log, scaled) of its reference
HADAMARD_REF = {
    hadamard_a: (entire._a_zeros, False, False),
    hadamard_a_log: (entire._a_zeros, True, False),
    hadamard_c: (hadamard_c_zeros, False, True),
    hadamard_c_log: (hadamard_c_zeros, True, True),
}


def hadamard_ref(fn, z, alpha, N=None):
    zeros_of, log, scaled = HADAMARD_REF[fn]
    if np.ndim(z) == 0:
        return _hadamard_at(z, alpha, N, zeros_of, log, z if scaled else 1.0)
    z = np.asarray(z)
    out = [_hadamard_at(v, alpha, N, zeros_of, log, v if scaled else 1.0) for v in z.flat]
    return np.array(out, dtype=float if log else complex).reshape(z.shape)


def assert_same_bits(got, ref):
    if np.ndim(ref) == 0:
        assert type(got) is type(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (got, ref)
    else:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


HADAMARD_FNS = list(HADAMARD_REF)


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
        # radii from 1e-2 to 3e4 give many distinct N on one grid, and the 60
        # small radii one group of N = 50 that spans several blocks
        rng = np.random.default_rng(seed)
        r = np.concatenate([rng.uniform(0.0, 1.0, 60), np.geomspace(1e-2, 3e4, 10)])
        Z = (r * np.exp(2j * PI * rng.uniform(0.0, 1.0, r.size))).reshape(5, 14)
        if N is None:
            assert len({entire._auto_terms(v, alpha) for v in Z.flat}) > 3
        assert_same_bits(fn(Z, alpha, N), hadamard_ref(fn, Z, alpha, N))

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

    def test_near_retained_zero_is_exact_zero(self):
        # 1e-12 * max(1, |z|) is the distance below which a zero counts as hit
        Z = np.array([[8.0 + 5e-12j, 27.0 - 1e-11, 2.0], [4.5 + 1e-12j, 1.0, -3.0]])
        for fn in HADAMARD_FNS:
            got = fn(Z, 3.0)
            assert_same_bits(got, hadamard_ref(fn, Z, 3.0))
        assert np.all(hadamard_a(Z, 3.0)[0, :2] == 0.0) and hadamard_a(Z, 3.0)[1, 1] == 0.0
        assert hadamard_c(Z, 3.0)[1, 0] == 0.0

    @pytest.mark.parametrize("fn", HADAMARD_FNS)
    def test_shapes_and_scalar_types(self, fn):
        log = HADAMARD_REF[fn][1]
        for shape in ((), (0,), (3,), (2, 1, 4)):
            Z = np.full(shape, -3.7 + 1.2j)
            out = fn(Z, 3.0)
            assert np.shape(out) == shape
        assert type(fn(-3.7 + 1.2j, 3.0)) is (float if log else np.complex128)
        # a real z multiplies a real exp(tail) into a Python complex
        assert type(fn(-3.7, 3.0)) is (float if log else complex)

    def test_grid_memory_stays_at_one_row(self):
        # N ~ 1.6e4 at |z| = 1e5, alpha = 3: an (n_radii, n_phases, N) block
        # would be ~50 MB; the grid must stay within twice one z's peak
        alpha, z1 = 3.0, 1e5 * np.exp(0.37j)
        radii = np.geomspace(1e2, 1e5, 12)
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


class TestHurwitzZeta:
    @given(st.floats(2.0, 8.0, exclude_min=True), st.floats(0.0, 7.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath(self, s, log_a):
        a = 2.0 * 10.0 ** (log_a * (math.log10(5e6) / 7.0))  # a in [2, 1e7]
        with mpmath.workdps(40):
            ref = mpmath.zeta(s, a)
        assert abs(entire._hurwitz_zeta(s, a) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("s", [2.0 + 1e-9, 3.0, 5.5, 8.0])
    def test_small_integer_a_matches_mpmath(self, s):
        for a in range(2, 60):
            with mpmath.workdps(40):
                ref = mpmath.zeta(s, a)
            assert abs(entire._hurwitz_zeta(s, float(a)) - ref) <= 1e-15 * ref

    def test_explicit_small_n_tail(self):
        # the tail exp(-z zeta(alpha, N + 1)) is exact for N = 3 (a = 4 < 30)
        z, alpha = -2.5 + 1.5j, 3.0
        with mpmath.workdps(40):
            prod = mpmath.fprod(1 - mpmath.mpc(z) / mpmath.mpf(n) ** 3 for n in (1, 2, 3))
            ref = complex(prod * mpmath.exp(-mpmath.mpc(z) * mpmath.zeta(alpha, 4)))
        assert abs(hadamard_a(z, alpha, N=3) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("fn", [hadamard_a, hadamard_a_log, hadamard_c, hadamard_c_log])
    def test_alpha_at_most_two_rejected(self, fn):
        for alpha in (2.0, 1.5):
            with pytest.raises(ValueError):
                fn(-1.0, alpha)
            with pytest.raises(ValueError):
                fn(np.array([-1.0, 2j]), alpha)


class TestTypeFit:
    def test_half_half_rate_matches_length_over_two(self):
        # H = diag(1/2,1/2) on (0, T): ||T(iy)|| ~ e^{yT/2}
        H = single(ConstantMatrix(MatrixH(0.5, 0.0, 0.5)), length=2.0)
        rate = type_fit_imaginary(lambda z: log_max_entry(H, 2.0, z), 1.0, 100.0)
        assert rate == pytest.approx(1.0, rel=1e-3)

    def test_axis_evaluated_in_one_call(self):
        calls = []

        def rate_two(z):
            calls.append(z)
            return 2.0 * z.imag

        assert type_fit_imaginary(rate_two, 1.0, 100.0, n_points=10) == pytest.approx(2.0)
        assert len(calls) == 1
        (Z,) = calls
        assert isinstance(Z, np.ndarray) and Z.shape == (10,)
        assert np.array_equal(Z, 1j * np.geomspace(1.0, 100.0, 10))


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

"""Tests for the boundary-law operator, Banach solves, and derived marginals.

Reference values were frozen from an independent oracle: dense window
iterations in extended precision (longdouble FFT convolution up to radius
1e5) and exact algebra for the two-class case, where the fixed-point
equation is the scalar cubic (x-1)(s*x^2+(s-1)*x+s) = 0 with s = sech(beta).
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegibbs
import treegibbs.boundary_law as bl
from treegibbs.boundary_law import (
    MODE_AUTO,
    MODE_CERTIFIED,
    SUPPORT_PERIODIC,
    SUPPORT_TRUNCATED,
    BoundaryLaw,
    SolveConfig,
    apply_T,
    apply_T_periodic,
    localization_bounds,
    periodic_solve,
    single_site_marginal,
    solve_fixed_point,
    truncation_radius,
)
from treegibbs.errors import ConfigError, NumericalError, OutsideGoodSetError
from treegibbs.goodset import REASON_NO_EPSILON, REASON_NORM_INFINITE, GoodSetQuery, membership
from treegibbs.potentials import TailModel, custom, fuzzy_Q, log_potential, norm_pair, sos

# longdouble window oracle, radius 40, threshold 1e-16
SOS25_GAMMA = 1.0318597714150849515
SOS25_DELTA = 0.10343969145594840871
SOS25_EPS = 0.11774536550359853
SOS25_L = 0.49172316330566507
SOS25_X1 = 0.090151251436546551
SOS25_X2 = 0.0074552282252043044
SOS25_X3 = 0.00061233453508834318
SOS25_NORM3 = 0.0014661923693126853  # sum over i != 0 of x(i)^3
SOS25_LAM1 = 0.0081272481355754364
SOS25_MARG0 = 0.99853595420346253
SOS25_SANDWICH = (0.00078126407746328659, 0.0016394515001800741)

# same oracle, radius 1e5 (tail moves the fixed point by < 3e-13 there)
LOG3_X1 = 0.1467939112049749
LOG3_X2 = 0.041624824925075174
LOG3_X5 = 0.0049140974925087613
LOG3_NORM3 = 0.0064820599177001165

# uncertified contraction at beta=1.5 (outside the good set, still converges)
SOS15_X1 = 0.31396272099444605
SOS15_NORM3 = 0.062759107397943173

# exact two-class algebra, s = sech(beta)
Q2_S_B20 = 0.26580222883407972
Q2_X_B20 = 0.42850598175111287
Q2_LAM_B20 = 0.18361737639648509
Q2_ALPHA_B20 = (0.92705801471841087, 0.072941985281589156)
Q2_S_B25 = 0.16307123192997783
Q2_X_B25 = 0.20286337152915271
Q2_LAM_B25 = 0.041153547508175042
Q2_GAMMA_B25 = 1.0434327935224714
Q2_EPS_B25 = 0.20837894687454406
Q2_L_B25 = 0.89804108281099659


def offzero_norm(v, zero_slot, d):
    w = np.abs(np.asarray(v, dtype=float)).copy()
    w[zero_slot] = 0.0
    return math.fsum((w ** (d + 1)).tolist()) ** (1.0 / (d + 1))


def ball_vector(rng, R, d, eps):
    """Random nonnegative window vector with off-zero d+1 norm below eps."""
    x = rng.random(2 * R + 1)
    x[R] = 1.0
    scale = eps * rng.random() / offzero_norm(x, R, d)
    x *= scale
    x[R] = 1.0
    return x


def _iterate_to_rest(apply, x, steps=500):
    """Iterate a public operator from x until a step moves nothing above 1e-15."""
    for _ in range(steps):
        x_next = apply(x)
        if np.max(np.abs(x_next - x)) <= 1e-15:
            return x_next
        x = x_next
    raise AssertionError(f"no rest within {steps} steps")


class TestApplyT:
    def test_zero_vector_maps_to_Q(self):
        pot = sos(2.5)
        R = 9
        x = np.zeros(2 * R + 1)
        out = apply_T(pot, 2, x, R)
        expected = pot.Q(np.arange(-R, R + 1))
        assert np.allclose(out, expected, rtol=0, atol=1e-16)
        assert out[R] == 1.0

    def test_result_normalized_at_zero(self):
        rng = np.random.default_rng(7)
        x = ball_vector(rng, 6, 2, 0.5)
        out = apply_T(log_potential(3.0), 2, x, 6)
        assert out[6] == 1.0

    def test_symmetric_input_symmetric_output(self):
        rng = np.random.default_rng(11)
        half = rng.random(8)
        x = np.concatenate([half[::-1], [1.0], half])
        out = apply_T(sos(1.8), 3, x, 8)
        assert np.allclose(out, out[::-1], rtol=0, atol=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ball_image_inequality(self, seed):
        # image bound: |T(x)| <= delta + gamma*|x|^d on the d+1 off-zero norm
        rng = np.random.default_rng(seed)
        pot = sos(2.5)
        R = 12
        x = ball_vector(rng, R, 2, SOS25_EPS)
        out = apply_T(pot, 2, x, R)
        nx = offzero_norm(x, R, 2)
        nt = offzero_norm(out, R, 2)
        assert nt <= SOS25_DELTA + SOS25_GAMMA * nx**2 + 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_contraction_on_ball_pairs(self, seed):
        # |T(x)-T(y)| <= L |x-y| inside the eps-ball, L from the good set
        rng = np.random.default_rng(seed)
        pot = sos(2.5)
        R = 10
        x = ball_vector(rng, R, 2, SOS25_EPS)
        y = ball_vector(rng, R, 2, SOS25_EPS)
        tx = apply_T(pot, 2, x, R)
        ty = apply_T(pot, 2, y, R)
        lhs = offzero_norm(tx - ty, R, 2)
        rhs = SOS25_L * offzero_norm(x - y, R, 2)
        assert lhs <= rhs + 1e-13

    def test_fft_path_matches_direct(self, monkeypatch):
        import treegibbs.boundary_law as bl

        pot = log_potential(3.0)
        R = 1100
        rng = np.random.default_rng(3)
        x = ball_vector(rng, R, 2, 0.15)
        fast = apply_T(pot, 2, x, R)
        monkeypatch.setattr(bl, "_FFT_WINDOW", 10**9)
        slow = apply_T(pot, 2, x, R)
        assert np.allclose(fast, slow, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("R", [1, 6, 57, 392, 1004])
    def test_valid_path_is_the_full_products_slice(self, R):
        # a kernel radius R + R_out: the direct path computes only the kept
        # outputs, bit for bit the slice of the full product
        rng = np.random.default_rng(R)
        v = rng.random(2 * R + 1)
        for R_out in sorted({R, 1000}):
            kernel = rng.random(2 * (R + R_out) + 1)
            convolve, L_fft = bl._linear_convolver(kernel, R, R_out)
            assert L_fft is None
            full = np.convolve(kernel, v)[2 * R:2 * R + 2 * R_out + 1]
            assert np.array_equal(convolve(v), full), R_out

    def test_next_fast_len_is_scipys(self):
        from scipy.fft import next_fast_len

        from treegibbs.boundary_law import _next_fast_len

        # every small length, the windows of the log beta=3.0 solve (R =
        # 80 993; 149 534 under the former 0.01 tol rule) and the
        # wide W_n lengths r + 2K + 1 of the benchmark; every transform is real
        for n in [*range(1, 20001), 4 * 80993 + 1, 4 * 149534 + 1, 1864 + 7385, 3665 + 7385]:
            assert _next_fast_len(n) == next_fast_len(n, real=True), n

    def test_fft_paths_skip_scipy_fft(self):
        src = os.path.dirname(os.path.dirname(treegibbs.__file__))
        code = (
            "import sys\n"
            "from treegibbs.boundary_law import SolveConfig, periodic_solve, "
            "solve_fixed_point\n"
            "from treegibbs.ggm import fuzzy_chain, increment_laws\n"
            "from treegibbs import pathsim\n"
            "from treegibbs.potentials import fuzzy_Q, log_potential, sos\n"
            "solve_fixed_point(sos(2.5), 2, SolveConfig(radius=1100))\n"
            "pot = log_potential(4.0)\n"
            "law, _ = periodic_solve(pot, 2, 2)\n"
            "pathsim._LEAK_TOL = 1.0\n"
            "pathsim.wn_ggm_exact(fuzzy_chain(law, fuzzy_Q(pot, 2)),\n"
            "                     increment_laws(pot, 2), 2, window=1100)\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"

    def test_input_validation(self):
        pot = sos(2.0)
        with pytest.raises(ConfigError, match="length"):
            apply_T(pot, 2, np.zeros(6), 3)
        bad = np.zeros(7)
        bad[1] = -0.2
        with pytest.raises(ConfigError, match="nonnegative"):
            apply_T(pot, 2, bad, 3)
        bad = np.zeros(7)
        bad[2] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            apply_T(pot, 2, bad, 3)
        qbar = fuzzy_Q(sos(1.0), 3).normalized_op()
        for bad in ([1.0, np.nan, 0.2], [1.0, -0.5, 0.2], [1.0, np.inf, 0.2]):
            with pytest.raises(ConfigError, match="finite and nonnegative"):
                apply_T_periodic(qbar, 2, np.array(bad))

    def test_periodic_matches_hand_convolution(self):
        qbar = fuzzy_Q(sos(1.0), 3).normalized_op()
        v = np.asarray(qbar.values, dtype=float)
        x = np.array([1.0, 0.4, 0.1])
        w = x**2
        w[0] = 1.0
        num = np.array([sum(v[(i - j) % 3] * w[j] for j in range(3)) for i in range(3)])
        out = apply_T_periodic(qbar, 2, x)
        assert np.allclose(out, num / num[0], rtol=1e-15, atol=0)
        assert out[0] == 1.0

    def test_periodic_wrong_length(self):
        qbar = fuzzy_Q(sos(1.0), 3)
        with pytest.raises(ConfigError, match="length"):
            apply_T_periodic(qbar, 2, np.ones(4))


class TestTruncationRadius:
    def test_frozen_auto_radius(self):
        assert truncation_radius(sos(2.5), 3.0, 1e-14) == 12

    @pytest.mark.parametrize("bound", [1e-6, 1e-10])
    def test_minimality(self, bound):
        from treegibbs.potentials import _tail_bracket

        pot = log_potential(3.0)
        R = truncation_radius(pot, 3.0, bound)

        def tail(r):
            return (2.0 * _tail_bracket(pot, r + 1, 1, 3.0)[1]) ** (1.0 / 3.0)

        assert tail(R) <= bound
        assert tail(R - 1) > bound

    def test_table_end_floor(self):
        # the table end is no floor: R is the smallest radius whose tail
        # (table terms past R included) fits, inside the table or not
        from treegibbs.potentials import _tail_beyond

        table = [[j, float(j)] for j in range(1, 7)]
        pot = custom(2.0, table, TailModel("exp", 3.0))
        radii = []
        for bound in (0.5, 1e-2, 1e-3, 1e-4, 1e-6):
            R = truncation_radius(pot, 3.0, bound)

            def fits(r):
                return _tail_beyond(pot, r, 3.0) ** (1.0 / 3.0) <= bound

            assert fits(R)
            assert R == 1 or not fits(R - 1)
            radii.append(R)
        assert radii[1:-1] == [2, 3, 4]  # inside the table, which ends at 6

    def test_radius_inside_table_matches_builtin(self):
        # U(j) = j tabulated on 1..40 is sos(3) there; the search starts at 1
        table = [[j, float(j)] for j in range(1, 41)]
        pot = custom(3.0, table, TailModel("exp", 1.0))
        assert truncation_radius(pot, 3.0, 1e-14) == 10
        assert truncation_radius(sos(3.0), 3.0, 1e-14) == 10

    def test_bad_bound(self):
        with pytest.raises(ConfigError, match="positive"):
            truncation_radius(sos(2.0), 3.0, 0.0)

    def test_infeasible_bound(self):
        with pytest.raises(NumericalError, match="loosen tol"):
            truncation_radius(log_potential(2.0), 3.0, 1e-30)


@pytest.fixture(scope="module")
def sos25():
    return solve_fixed_point(sos(2.5), 2)


class TestSolveTruncated:
    def test_frozen_fixed_point(self, sos25):
        law, report = sos25
        assert law.kind == SUPPORT_TRUNCATED
        assert law.radius == 11
        assert law.x_at(0) == 1.0
        assert law.x_at(1) == pytest.approx(SOS25_X1, rel=1e-10)
        assert law.x_at(-1) == pytest.approx(SOS25_X1, rel=1e-10)
        assert law.x_at(2) == pytest.approx(SOS25_X2, rel=1e-10)
        assert law.x_at(3) == pytest.approx(SOS25_X3, rel=1e-9)
        assert law.lam_at(1) == pytest.approx(SOS25_LAM1, rel=1e-10)
        assert law.offzero_norm() ** 3 == pytest.approx(SOS25_NORM3, rel=1e-9)
        assert np.allclose(law.x, law.x[::-1], rtol=0, atol=1e-13)

    def test_certificates(self, sos25):
        law, report = sos25
        assert law.certified and report.certified
        assert law.offzero_norm() <= report.epsilon
        assert report.lipschitz == pytest.approx(SOS25_L, rel=1e-9)
        assert report.epsilon == pytest.approx(SOS25_EPS, abs=1e-9)
        assert report.gamma == pytest.approx(SOS25_GAMMA, rel=1e-10)
        assert report.delta == pytest.approx(SOS25_DELTA, rel=1e-10)
        assert report.contraction_estimate <= report.lipschitz + 1e-9
        assert report.a_posteriori_bound <= 1e-12
        assert report.a_posteriori_bound <= report.a_priori_bound * (1 + 1e-9)
        assert report.iterations > 1

    def test_residual_recheck(self, sos25):
        law, report = sos25
        again = apply_T(sos(2.5), 2, law.x, law.radius)
        assert offzero_norm(again - law.x, law.radius, 2) < 1e-12
        assert report.final_residual < 1e-12

    def test_marginal(self, sos25):
        law, _ = sos25
        marg = single_site_marginal(law)
        assert math.fsum(marg.tolist()) == pytest.approx(1.0, abs=1e-14)
        assert marg[law.radius] == pytest.approx(SOS25_MARG0, rel=1e-10)
        ratio = marg[law.radius + 1] / marg[law.radius]
        assert ratio == pytest.approx(SOS25_X1**3, rel=1e-9)

    def test_localization_sandwich(self, sos25):
        law, _ = sos25
        lo, hi = localization_bounds(SOS25_GAMMA, SOS25_DELTA, 2)
        assert lo == pytest.approx(SOS25_SANDWICH[0], rel=1e-9)
        assert hi == pytest.approx(SOS25_SANDWICH[1], rel=1e-9)
        assert lo <= law.offzero_norm() ** 3 <= hi

    def test_distance_to_Q_bound(self, sos25):
        law, report = sos25
        q = sos(2.5).Q(law.indices)
        q[law.radius] = 1.0
        dist = offzero_norm(law.x - q, law.radius, 2)
        n = law.offzero_norm()
        assert dist <= n**2 * (report.delta**2 + report.gamma)

    def test_uniqueness_from_zero_start(self, sos25):
        law, _ = sos25
        x0 = np.zeros(2 * law.radius + 1)
        x0[law.radius] = 1.0
        x = _iterate_to_rest(lambda v: apply_T(sos(2.5), 2, v, law.radius), x0)
        assert np.max(np.abs(law.x - x)) <= 2e-12

    def test_truncation_stability(self, sos25):
        law, _ = sos25
        wide, _ = solve_fixed_point(sos(2.5), 2, SolveConfig(radius=24))
        # the default radius keeps the certified truncation bound below tol
        assert abs(wide.offzero_norm() - law.offzero_norm()) < 1e-14

    def test_log_potential_frozen(self):
        law, report = solve_fixed_point(log_potential(3.0), 2, SolveConfig(tol=1e-10))
        assert law.certified
        assert law.x_at(1) == pytest.approx(LOG3_X1, rel=1e-8)
        assert law.x_at(2) == pytest.approx(LOG3_X2, rel=1e-8)
        assert law.x_at(5) == pytest.approx(LOG3_X5, rel=1e-8)
        assert law.offzero_norm() ** 3 == pytest.approx(LOG3_NORM3, rel=1e-7)
        assert report.contraction_estimate <= report.lipschitz + 1e-9

    def test_point_mass_limit(self):
        # beta -> infinity: x collapses onto Q and the marginal onto 0
        pot = sos(50.0)
        law, _ = solve_fixed_point(pot, 2)
        q = pot.Q(law.indices)
        q[law.radius] = 1.0
        assert np.allclose(law.x, q, rtol=1e-9, atol=0)
        marg = single_site_marginal(law)
        assert marg[law.radius] == pytest.approx(1.0, abs=1e-15)

    def test_custom_potential_certified(self):
        pot = custom(1.0, [[1, 2.0], [2, 4.5]], TailModel("exp", 2.5))
        law, report = solve_fixed_point(pot, 2)
        assert law.certified
        again = apply_T(pot, 2, law.x, law.radius)
        assert offzero_norm(again - law.x, law.radius, 2) < 1e-12
        assert law.offzero_norm() <= report.epsilon

    def test_refusal_outside_good_set(self):
        with pytest.raises(OutsideGoodSetError, match="outside good set") as exc:
            solve_fixed_point(sos(1.0), 2)
        assert exc.value.verdict.reason == REASON_NO_EPSILON

    def test_best_effort_outside_good_set(self):
        law, report = solve_fixed_point(
            sos(1.5), 2, SolveConfig(mode=MODE_AUTO)
        )
        assert not law.certified
        assert report.epsilon is None
        assert report.lipschitz is None and report.a_posteriori_bound is None
        assert law.x_at(1) == pytest.approx(SOS15_X1, rel=1e-6)
        assert law.offzero_norm() ** 3 == pytest.approx(SOS15_NORM3, rel=1e-6)
        again = apply_T(sos(1.5), 2, law.x, law.radius)
        assert offzero_norm(again - law.x, law.radius, 2) < 1e-11

    def test_auto_mode_prefers_certificate(self):
        law, _ = solve_fixed_point(sos(2.5), 2, SolveConfig(mode="auto"))
        assert law.certified

    def test_infinite_norm_refusal_carries_verdict(self):
        with pytest.raises(OutsideGoodSetError) as exc:
            solve_fixed_point(log_potential(0.5), 2)
        assert str(exc.value) == (
            "outside good set - no contraction certificate "
            "(a norm is infinite: p*beta = 0.75 <= 1)")
        verdict = exc.value.verdict
        assert verdict.reason == REASON_NORM_INFINITE
        assert not verdict.in_good_set
        assert verdict.epsilon is None and verdict.lipschitz is None
        assert math.isinf(verdict.gamma)

    def test_infinite_norm_refusal(self):
        # 1.5 * 0.6 < 1 makes the gamma series diverge
        with pytest.raises(OutsideGoodSetError, match="infinite"):
            solve_fixed_point(log_potential(0.6), 2)
        with pytest.raises(NumericalError, match="no meaningful truncated solve"):
            solve_fixed_point(
                log_potential(0.6), 2, SolveConfig(mode=MODE_AUTO)
            )

    def test_user_radius_too_small(self):
        with pytest.raises(ConfigError, match="tail"):
            solve_fixed_point(sos(2.5), 2, SolveConfig(radius=5))

    def test_bad_degree(self):
        with pytest.raises(ConfigError, match="d must be"):
            solve_fixed_point(sos(2.5), 1)

    def test_config_validation(self):
        # an inf tolerance certified the first iterate; nan blamed the radius
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="tol must be a positive finite"):
                SolveConfig(tol=tol)
        for mode in ("sloppy", "best_effort"):
            with pytest.raises(ConfigError, match="mode"):
                SolveConfig(mode=mode)
        assert [f.name for f in dataclasses.fields(SolveConfig)] == [
            "radius", "tol", "mode"]
        with pytest.raises(ConfigError, match="radius"):
            SolveConfig(radius=0)


class TestTwoStageSolve:
    """A core solve from Q, extended to the window by one linear convolution."""

    def test_full_window_applies(self, monkeypatch):
        # no operator and no Banach step at the window radius: the window
        # sees only the one convolution of `_extend`
        calls, windows, extended, stages = {}, [], [], []
        apply, window, extend, iterate = (bl._Operator.apply, bl._window_operator,
                                          bl._extend, bl._iterate)

        def counting(self, x):
            calls[self.zero] = calls.get(self.zero, 0) + 1
            return apply(self, x)

        def recording(*args):
            stages.append(iterate(*args))
            return stages[-1]

        monkeypatch.setattr(bl._Operator, "apply", counting)
        monkeypatch.setattr(bl, "_iterate", recording)
        monkeypatch.setattr(bl, "_window_operator",
                            lambda pot, d, R: windows.append(R) or window(pot, d, R))
        monkeypatch.setattr(bl, "_extend", lambda pot, d, x, R: extended.append(
            (len(x) // 2, R)) or extend(pot, d, x, R))
        law, report = solve_fixed_point(log_potential(3.0), 2)
        R, R_c = law.radius, report.coarse_radius
        assert R == 57995 and report.certified
        assert R_c is not None and R_c < 1000
        assert windows == [R_c] and set(calls) == {R_c}
        assert extended == [(R_c, R)]
        # the core's Banach steps plus its residual
        ((_, n, steps, _),) = stages
        assert report.iterations == n == calls[R_c] - 1
        L = report.lipschitz
        assert report.a_priori_bound == L**n / (1.0 - L) * steps[0]
        assert report.a_posteriori_bound == steps[-1] * L / (1.0 - L)
        assert report.a_posteriori_bound <= bl._CORE_SHARE * SolveConfig().tol
        assert report.contraction_estimate <= report.lipschitz
        assert report.total_error_bound <= SolveConfig().tol

    def test_near_the_threshold_without_a_window_step(self, monkeypatch):
        # log 2.91 (L = 0.9975) needs R = 85 449; the core alone iterates
        radii = set()
        apply = bl._Operator.apply
        monkeypatch.setattr(bl._Operator, "apply",
                            lambda self, x: radii.add(self.zero) or apply(self, x))
        law, report = solve_fixed_point(log_potential(2.91), 2)
        assert law.radius == 85449 and report.certified
        assert radii == {report.coarse_radius} and report.coarse_radius < 2000
        assert report.total_error_bound <= SolveConfig().tol

    @pytest.mark.parametrize("pot,config", [
        (sos(2.5), SolveConfig()),
        (log_potential(4.0), SolveConfig()),
        (log_potential(3.0), SolveConfig(radius=1100, tol=1e-8)),
    ])
    def test_agrees_with_cold_start(self, pot, config):
        # the cold start iterates the whole window from Q; each solution lies
        # within its own bound of the fixed point on Z
        law, report = solve_fixed_point(pot, 2, config)
        assert report.coarse_radius is not None
        L, R = report.lipschitz, law.radius
        x, _, steps, _ = bl._iterate(bl._window_operator(pot, 2, R), 2, config.tol, L)
        cold_bound = (steps[-1] * L + bl._cut_bound(pot, 2, x, R)) / (1.0 - L)
        gap = offzero_norm(law.x - x, R, 2)
        assert gap <= report.total_error_bound + cold_bound

    def test_coarse_start_outside_the_ball_is_refused(self, monkeypatch):
        iterate = bl._iterate

        def pushed(op, d, tol, L):
            x, *rest = iterate(op, d, tol, L)
            far = x * 10.0  # move the core's fixed point out of the ball
            far[op.zero] = 1.0
            return (far, *rest)

        monkeypatch.setattr(bl, "_iterate", pushed)
        with pytest.raises(NumericalError, match="coarse start left the certified ball"):
            solve_fixed_point(sos(2.5), 2)

    @pytest.mark.parametrize("pot,config", [
        # R_c >= 4 = R
        (sos(2.5), SolveConfig(radius=4, tol=1e-5)),
        # the tail beyond 4 is above (0.01 tol / gamma)^(1/d), so R_c >= 5 = R
        (log_potential(1.0), SolveConfig(radius=5, tol=0.5, mode=MODE_AUTO)),
    ])
    def test_one_stage_when_the_coarse_radius_is_not_smaller(self, monkeypatch,
                                                             pot, config):
        sizes = []
        window = bl._window_operator
        monkeypatch.setattr(bl, "_window_operator",
                            lambda pot, d, R: sizes.append(R) or window(pot, d, R))
        law, report = solve_fixed_point(pot, 2, config)
        assert report.coarse_radius is None
        assert sizes == [config.radius] and law.radius == config.radius


def _direct_cut(pot, d, x, R, reach=50):
    """An upper end of |(I - P_R) T x|_{d+1} from direct sums: T x(i) for
    R < |i| <= reach R with the window's own normaliser, and beyond them
    (sum w / Z) times the certified tail of Q past (reach - 1) R, which
    bounds every shifted kernel there."""
    j = np.arange(-R, R + 1)
    w = x**d
    w[R] = 1.0
    Z = math.fsum((pot.Q(j) * w).tolist())
    i = np.arange(R + 1, reach * R + 1)
    i = np.concatenate([i, -i])
    tx = pot.Q(i[:, None] - j[None, :]) @ w / Z
    far = math.fsum(w.tolist()) / Z * bl._tail_norm(pot, (reach - 1) * R, d + 1)
    return (math.fsum((tx ** (d + 1)).tolist()) + far ** (d + 1)) ** (1.0 / (d + 1))


_EXP_TABLE = custom(1.0, [[1, 2.0], [2, 4.5]], TailModel("exp", 2.5))


def _record_extensions(monkeypatch):
    """(x_c, x~, closure) of every `_extend` call of a solve, in call order."""
    extensions = []
    extend = bl._extend

    def recording(pot, d, x, R):
        extensions.append((x.copy(), *extend(pot, d, x, R)))
        return extensions[-1][1:]

    monkeypatch.setattr(bl, "_extend", recording)
    return extensions


class TestTruncationBound:
    """The window's truncation bound: |(I - P_R) T x| / (1 - L) from
    `_cut_bound`, checked against direct sums and against wider windows."""

    @pytest.mark.parametrize("pot,d", [
        (sos(2.5), 2), (sos(2.0), 2), (sos(3.0), 3), (_EXP_TABLE, 2),
    ], ids=["sos2.5", "sos2.0", "sos3.0-d3", "exp-table"])
    def test_default_window_against_direct_sums(self, monkeypatch, pot, d):
        # what the extension T(x_c) puts beyond R, by direct sums
        extensions = _record_extensions(monkeypatch)
        law, report = solve_fixed_point(pot, d)
        ((x_c, _, _),) = extensions
        R = law.radius
        direct = _direct_cut(pot, d, np.pad(x_c, R - len(x_c) // 2), R)
        assert direct <= report.truncation_bound
        assert report.total_error_bound <= SolveConfig().tol
        assert report.total_error_bound == pytest.approx(
            report.truncation_bound + report.final_residual / (1.0 - report.lipschitz),
            rel=1e-12)

    @pytest.mark.parametrize("pot,R", [(sos(2.5), 12), (sos(2.0), 20),
                                       (log_potential(3.0), 40)],
                             ids=["sos2.5", "sos2.0", "log3"])
    def test_any_ball_vector_against_direct_sums(self, pot, R):
        # mass near the window's edge: the far groups carry the cut
        rng = np.random.default_rng(R)
        for _ in range(20):
            x = ball_vector(rng, R, 2, 0.3)
            assert _direct_cut(pot, 2, x, R) <= bl._cut_bound(pot, 2, x.copy(), R)

    def test_odd_degree_with_negative_entries(self):
        # a negative x lowers the normaliser only for odd d
        rng = np.random.default_rng(4)
        x = ball_vector(rng, 10, 3, 0.3)
        x[3] = -x[3]
        pot = sos(2.0)
        flipped = np.abs(x)
        assert bl._cut_bound(pot, 3, x, 10) > bl._cut_bound(pot, 3, flipped, 10)
        assert bl._cut_bound(pot, 2, x, 10) == bl._cut_bound(pot, 2, flipped, 10)

    @pytest.mark.parametrize("pot", [log_potential(4.0), sos(2.5)], ids=["log4", "sos2.5"])
    def test_twice_the_radius_within_the_total_bound(self, pot):
        law, report = solve_fixed_point(pot, 2)
        R = law.radius
        wide, wide_report = solve_fixed_point(pot, 2, SolveConfig(radius=2 * R))
        assert wide.radius == 2 * R
        gap = offzero_norm(wide.x - np.pad(law.x, R), 2 * R, 2)
        assert gap <= report.total_error_bound
        assert wide_report.truncation_bound < report.truncation_bound

    @pytest.mark.parametrize("pot", [log_potential(4.0), sos(2.0)], ids=["log4", "sos2.0"])
    def test_too_small_a_radius_takes_one_more_stage(self, monkeypatch, pot):
        # a default window whose total misses tol is evaluated wider from
        # the same core: one more extension, no new solve
        tol = SolveConfig().tol
        default, default_report = solve_fixed_point(pot, 2)
        small = {2186: 546, 14: 12}[default.radius]
        windows, extended = [], []
        window, extend = bl._window_operator, bl._extend
        monkeypatch.setattr(bl, "_window_radius", lambda pot, d, config, L: small)
        monkeypatch.setattr(bl, "_window_operator",
                            lambda pot, d, R: windows.append(R) or window(pot, d, R))
        monkeypatch.setattr(bl, "_extend", lambda pot, d, x, R: extended.append(
            (x.copy(), R)) or extend(pot, d, x, R))
        law, report = solve_fixed_point(pot, 2)
        assert windows == [default_report.coarse_radius]
        assert report.iterations == default_report.iterations
        assert report.final_residual == default_report.final_residual
        (x_c, first), (x_again, wider) = extended
        assert np.array_equal(x_c, x_again)
        assert first == small and wider == law.radius > small
        L = report.lipschitz
        assert bl._cut_bound(pot, 2, x_c, small) + report.final_residual / (1.0 - L) > tol
        assert report.truncation_bound == bl._cut_bound(pot, 2, x_c, wider)
        assert report.certified and report.total_error_bound <= tol

    def test_explicit_radius_only_reports(self):
        # the smallest radius whose tail meets tol leaves a truncation bound
        # above tol, which an explicit radius only reports
        pot = log_potential(3.0)
        assert truncation_radius(pot, 3, 1e-8) == 840
        law, report = solve_fixed_point(pot, 2, SolveConfig(radius=840, tol=1e-8))
        assert law.radius == 840
        assert 1e-8 < report.truncation_bound < 1.1e-8
        assert report.total_error_bound > report.truncation_bound

    def test_none_without_a_window_certificate(self):
        _, report = solve_fixed_point(sos(1.5), 2, SolveConfig(mode=MODE_AUTO))
        assert not report.certified
        assert report.truncation_bound is None and report.total_error_bound is None
        for q, mode in ((2, MODE_AUTO), (2, MODE_CERTIFIED), (1, MODE_AUTO)):
            _, report = periodic_solve(sos(3.0), 2, q, SolveConfig(mode=mode))
            assert report.truncation_bound is None and report.total_error_bound is None

    def test_radius_beyond_the_cap_refused(self):
        with pytest.raises(NumericalError, match="truncation radius beyond 33554432"):
            solve_fixed_point(log_potential(3.0), 2, SolveConfig(tol=1e-30))


def _extension_by_sums(pot, d, x, M):
    """(T(x) on [-M, M], sum w / N) for x on a core [-r, r], zero outside
    it: every slot one np.convolve dot product, the normaliser N by fsum."""
    r = len(x) // 2
    w = x**d
    w[r] = 1.0
    N = math.fsum((pot.Q(np.arange(-r, r + 1)) * w).tolist())
    num = np.convolve(pot.Q(np.arange(-(M + r), M + r + 1)), w)[2 * r:2 * r + 2 * M + 1]
    return num / N, math.fsum(w.tolist()) / N


def _direct_residual(pot, d, x_c, R, far, reach=50):
    """An upper end of |T x^ - x^|_{d+1} on Z for x^ = T(x_c), x_c a core
    vector, from direct sums out to M = reach R.

    With v = x^ cut to [-R, R]: |T v - x^| by direct sums on [-M, M] plus
    the certified tails of T v and x^ beyond M (the weight sum w / N times
    the tail of Q past M less the support's radius, as in `_direct_cut`),
    and |T x^ - T v| <= far |x^ beyond R|^d with far = gamma + eps delta,
    |x^ beyond R| again by direct sums plus its tail."""
    M, p, r = reach * R, d + 1, len(x_c) // 2
    x_hat, weight_c = _extension_by_sums(pot, d, x_c, M)
    tv, weight_v = _extension_by_sums(pot, d, x_hat[M - R:M + R + 1], M)
    diff = np.abs(tv - x_hat)
    diff[M] = 0.0
    tail_c = weight_c * bl._tail_norm(pot, M - r, p)
    tails = weight_v * bl._tail_norm(pot, M - R, p) + tail_c
    beyond = np.concatenate([x_hat[:M - R], x_hat[M + R + 1:]])
    cut = math.fsum((beyond**p).tolist()) ** (1.0 / p) + tail_c
    return math.fsum((diff**p).tolist()) ** (1.0 / p) + tails + far * cut**d


def _assert_slots(pot, d, law, x_c, closure, slots):
    """x~(i) of a window law against fsum dot products sum_j Q(i - j) w(j) / N,
    N the near band's normaliser as the solve computes it: within the
    rounding bound of that convolution (`_convolution_error`) in the band,
    and beyond it within the closure's e(i) plus the error of the float
    Q(i - j) the dot product reads (`_q_rounding`)."""
    R, r = law.radius, len(x_c) // 2
    near = R if closure is None else closure.radius
    w = x_c**d
    w[r] = 1.0
    j = np.arange(-r, r + 1)
    kernel = pot.Q(np.arange(-(near + r), near + r + 1))
    convolve, L_fft = bl._linear_convolver(kernel, r, near)
    N = float(convolve(w)[near])
    u = bl._UNIT_ROUNDOFF
    g1 = math.fsum(kernel.tolist()) * (1.0 + u)
    g2 = math.sqrt(math.fsum((kernel * kernel).tolist())) * (1.0 + 2 * u)
    a, b, c = bl._convolution_error(L_fft, min(len(kernel), 2 * r + 1), g1, g2)
    err = a * w.max() + b * math.fsum(w.tolist()) + c * math.sqrt(
        math.fsum((w * w).tolist()))
    for i in slots:
        exact = math.fsum((pot.Q(i - j) * w).tolist()) / N
        if abs(i) <= near:
            allowed = err / N + 4 * u * exact
        else:
            e = closure.scale * pot.Q(abs(i) - closure.shift)
            allowed = e + (bl._q_rounding(pot, abs(i) + r) + 4 * u) * exact
        assert abs(law.x[i + R] - exact) <= allowed, i
    return L_fft


class TestExtensionOracle:
    """The window law is x^ = T(x_c) for the core's fixed point x_c, by one
    convolution: direct sums check its residual bound and its slots."""

    @pytest.mark.parametrize("pot,tol", [
        (log_potential(3.0), 1e-8), (sos(2.0), 1e-8),
        # the direct residual exceeds the L rho_c term alone (log 4) and
        # the far term alone (sos 2.0 at 1e-5)
        (log_potential(4.0), 1e-6), (sos(2.0), 1e-5),
    ], ids=["log3", "sos2.0", "log4-far", "sos2.0-core"])
    def test_residual_and_slots_by_direct_sums(self, monkeypatch, pot, tol):
        extensions = _record_extensions(monkeypatch)
        law, report = solve_fixed_point(pot, 2, SolveConfig(tol=tol))
        ((x_c, _, closure),) = extensions
        R, r = law.radius, len(x_c) // 2
        assert r == report.coarse_radius < R
        far = report.gamma + report.epsilon * report.delta
        assert _direct_residual(pot, 2, x_c, R, far) <= report.final_residual

        # about 100 slots against fsum dot products, within the rounding
        # bound of the convolution or the closure that computed them
        rng = np.random.default_rng(26)
        slots = {0, r, -r, r + 1, -r - 1, R, -R, *rng.integers(-R, R + 1, 93).tolist()}
        _assert_slots(pot, 2, law, x_c, closure, slots)


_POWER_TABLE = custom(3.0, [[1, 0.8], [2, 1.2]], TailModel("power", 1.0))
_EXP_WIDE = custom(2.0, [[1, 1.0], [2, 1.9]], TailModel("exp", 1.0))


class TestFarFieldClosure:
    """Beyond r0 = 8 R_c + J a window law comes from the core's moments
    (`_far_field`), not from a convolution of window length."""

    def test_no_window_length_transform(self, monkeypatch):
        lengths = []
        fft = bl._fft_convolve
        monkeypatch.setattr(bl, "_fft_convolve", lambda kernel, n, lo, hi: lengths.append(
            n) or fft(kernel, n, lo, hi))
        law, report = solve_fixed_point(log_potential(3.0), 2)
        assert report.closure_radius == 8 * report.coarse_radius
        assert lengths and max(lengths) < 2 * law.radius

    @pytest.mark.parametrize("tail,R", [(60.0, 2000), (45.0, 1500)], ids=["s120", "s90"])
    def test_window_without_closure_has_no_negative_slot(self, monkeypatch, tail, R):
        # a power tail of exponent s = 2 tail needs more than _MAX_ORDER
        # terms, so nothing is closed beyond r0 < R: every slot is a dot
        # product of the core's 2 R_c + 1 non-negative terms, within their
        # rounding of its value, which is 0 where Q underflows (|i| > 969 at
        # s = 120)
        extensions = _record_extensions(monkeypatch)
        pot = custom(2.0, [[1, 1.5]], TailModel("power", tail))
        law, report = solve_fixed_point(pot, 2, SolveConfig(radius=R))
        x_c, x, closure = extensions[-1]
        r = len(x_c) // 2
        assert closure is None and report.closure_radius is None
        assert report.coarse_radius == r == 4 and R > 8 * r + pot.table_end
        w = x_c**2
        w[r] = 1.0
        j, i = np.arange(-r, r + 1), law.indices
        exact = pot.Q(i[:, None] - j[None, :]) @ w
        exact /= exact[R]
        rel = 2 * bl._gamma(2 * r + 2) + bl._q_rounding(pot, R + r)
        tiny = 4 * (2 * r + 1) * math.ulp(0.0)
        assert np.all(np.abs(law.x - exact) <= rel * exact + tiny)
        assert law.x.min() >= 0.0
        assert (law.x.min() > 0.0) == (tail == 45.0)

    @pytest.mark.parametrize("pot,config", [
        (log_potential(3.0), SolveConfig()),
        (log_potential(2.91), SolveConfig()),
        (log_potential(4.0), SolveConfig()),
        (_POWER_TABLE, SolveConfig()),
        (_EXP_WIDE, SolveConfig(radius=120)),
    ], ids=["log3", "log2.91", "log4", "power-table", "exp-table"])
    def test_slots_against_direct_sums(self, monkeypatch, pot, config):
        extensions = _record_extensions(monkeypatch)
        law, report = solve_fixed_point(pot, 2, config)
        x_c, x, closure = extensions[-1]
        R, r = law.radius, len(x_c) // 2
        r0 = 8 * r + pot.table_end
        assert x is law.x and closure.radius == r0 < R
        assert (report.closure_radius, report.closure_bound) == (r0, closure.bound)
        assert law.x.min() > 0.0
        # the closure's bound counts in the total
        L = report.lipschitz
        spill = report.truncation_bound + report.closure_bound
        assert report.total_error_bound >= spill + report.final_residual / (1.0 - L)
        assert report.total_error_bound <= config.tol
        rng = np.random.default_rng(27)
        slots = {0, r0, -r0, r0 + 1, -r0 - 1, R, -R,
                 *rng.integers(-R, R + 1, 93).tolist()}
        L_fft = _assert_slots(pot, 2, law, x_c, closure, slots)
        # the near bands of log 3.0 and 2.91 are transformed
        assert (L_fft is not None) == (2 * r0 + 1 > bl._FFT_WINDOW)


class TestDetailedBalance:
    def test_truncated_law_reversible(self):
        law, _ = solve_fixed_point(sos(2.5), 2)
        lam = law.lam
        idx = law.indices
        Q = sos(2.5).Q(idx[:, None] - idx[None, :])
        N = Q @ lam
        P = Q * lam[None, :] / N[:, None]
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        alpha = single_site_marginal(law)
        flux = alpha[:, None] * P
        assert np.max(np.abs(flux - flux.T)) < 1e-10
        assert np.max(np.abs(alpha @ P - alpha)) < 1e-11

    def test_periodic_law_reversible(self):
        pot = sos(2.5)
        law, _ = periodic_solve(pot, 2, 2)
        lam = law.lam
        qbar = fuzzy_Q(pot, 2).normalized_op()
        v = np.asarray(qbar.values, dtype=float)
        Q = v[(np.arange(2)[:, None] - np.arange(2)[None, :]) % 2]
        N = Q @ lam
        P = Q * lam[None, :] / N[:, None]
        alpha = single_site_marginal(law)
        flux = alpha[:, None] * P
        assert np.max(np.abs(flux - flux.T)) < 1e-12
        assert np.max(np.abs(alpha @ P - alpha)) < 1e-12


class TestPeriodicSolve:
    def test_free_state_q1(self):
        law, report = periodic_solve(sos(2.0), 2, 1)
        assert law.free_state and law.certified
        assert law.kind == SUPPORT_PERIODIC and law.q == 1
        assert law.lam.tolist() == [1.0]
        assert report.iterations == 0

    def test_q2_certified_frozen(self):
        law, report = periodic_solve(sos(2.5), 2, 2)
        assert law.certified and not law.free_state
        assert law.x_at(1) == pytest.approx(Q2_X_B25, rel=1e-10)
        assert law.lam_at(1) == pytest.approx(Q2_LAM_B25, rel=1e-10)
        assert report.gamma == pytest.approx(Q2_GAMMA_B25, rel=1e-10)
        assert report.delta == pytest.approx(Q2_S_B25, rel=1e-12)
        assert report.epsilon == pytest.approx(Q2_EPS_B25, abs=1e-9)
        assert report.lipschitz == pytest.approx(Q2_L_B25, rel=1e-7)
        assert law.offzero_norm() <= report.epsilon

    def test_q2_best_effort_frozen(self):
        # outside the good set (4*gamma_q*delta_q > 1) but the scalar
        # iteration still lands on the smaller positive root of the cubic
        law, report = periodic_solve(sos(2.0), 2, 2)
        assert not law.certified
        assert report.lipschitz is None
        assert law.lam_at(1) == pytest.approx(Q2_LAM_B20, abs=1e-9)
        marg = single_site_marginal(law)
        assert marg[0] == pytest.approx(Q2_ALPHA_B20[0], abs=1e-9)
        assert marg[1] == pytest.approx(Q2_ALPHA_B20[1], abs=1e-9)

    def test_q2_strict_mode_refuses(self):
        with pytest.raises(OutsideGoodSetError, match="outside good set"):
            periodic_solve(sos(2.0), 2, 2, SolveConfig(mode=MODE_CERTIFIED))

    def test_q2_trivial_branch_detected(self):
        # below arccosh(3) the cubic has no positive root besides 1
        with pytest.raises(NumericalError, match="trivial branch"):
            periodic_solve(sos(1.5), 2, 2)

    def test_uniqueness_from_zero_start(self):
        law, _ = periodic_solve(sos(2.5), 2, 2)
        qq = fuzzy_Q(sos(2.5), 2)
        x = _iterate_to_rest(lambda v: apply_T_periodic(qq, 2, v), np.array([1.0, 0.0]))
        assert np.max(np.abs(law.x - x)) <= 2e-12

    def test_larger_period_certified(self):
        law, report = periodic_solve(sos(2.5), 2, 5)
        assert law.certified
        assert law.x.shape == (5,)
        again = apply_T_periodic(fuzzy_Q(sos(2.5), 5), 2, law.x)
        assert offzero_norm(again - law.x, 0, 2) < 1e-12
        assert np.allclose(law.x[1:], law.x[1:][::-1], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [600, 1000])
    def test_delta_at_large_degree(self, d):
        # the p = d + 1 power sum of the normalized classes underflows;
        # delta_q is still qbar(1) 2^(1/(d+1)) and sets the ball radius
        qbar1 = (math.exp(-2.0) + math.exp(-4.0)) / (1.0 + math.exp(-6.0))
        law, report = periodic_solve(sos(2.0), d, 3)
        assert report.delta == pytest.approx(qbar1 * 2.0 ** (1 / (d + 1)), rel=1e-12)
        assert report.delta == fuzzy_Q(sos(2.0), 3).normalized_op().p_norm(
            float(d + 1), without_zero=True).value
        assert report.epsilon >= report.delta > 0.153
        assert law.offzero_norm() <= report.epsilon

    def test_bad_degree(self):
        with pytest.raises(ConfigError, match="d must be"):
            periodic_solve(sos(2.0), 1, 2)

    def test_no_ball_refusal_on_the_grid(self):
        # a fixed point lies in its ball up to the 1e-9 allowance, so the
        # ball check must never refuse; an off-zero sum that kept the zero
        # slot's 1 lost delta^(d+1) to rounding and refused 63 of these cells
        certified = 0
        for family, betas in ((sos, (1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 10, 12)),
                              (log_potential, (2.5, 3, 4, 6, 8, 10, 14))):
            for beta, d, q in itertools.product(betas, range(2, 9), range(2, 7)):
                try:
                    law, _ = periodic_solve(family(beta), d, q, SolveConfig(mode=MODE_AUTO))
                    certified += law.certified
                except NumericalError as exc:
                    assert "left the certified ball" not in str(exc), (family, beta, d, q)
        assert certified >= 607


class TestLocalizationBounds:
    def test_refuses_outside(self):
        with pytest.raises(OutsideGoodSetError, match="good set"):
            localization_bounds(1.09, 0.266, 2)

    def test_perfect_localization_limit(self):
        lo, hi = localization_bounds(1.03, 1e-8, 2)
        assert 0 < lo <= hi < 1e-23

    def test_ordering(self):
        lo, hi = localization_bounds(SOS25_GAMMA, SOS25_DELTA, 2)
        assert 0 < lo < hi

    def test_one_bound_in_log_space(self):
        # boundary_law re-exports goodset's bound, which agrees with the
        # linear-space formula up to rounding
        assert bl.localization_bounds is treegibbs.goodset.localization_bounds
        log3 = [r.value for r in norm_pair(log_potential(3.0), 2)]
        for g, dl in ((SOS25_GAMMA, SOS25_DELTA), log3, (1.03, 1e-8)):
            eps = membership(GoodSetQuery(2, g, dl)).epsilon
            lo, hi = localization_bounds(g, dl, 2)
            assert lo == pytest.approx((dl * (1 - dl * eps**2) / (1 + g * eps)) ** 3,
                                       rel=1e-14)
            assert hi == pytest.approx((dl * (1 + dl * eps**2) / (1 - g * eps)) ** 3,
                                       rel=1e-14)

    def test_zero_delta_and_underflow(self):
        assert localization_bounds(1.5, 0.0, 2) == (0.0, 0.0)
        # delta^(d+1) = 1e-2002 is below the float range: both ends read 0
        assert localization_bounds(1.01, 0.01, 1000) == (0.0, 0.0)


class TestBoundaryLawType:
    def test_indexing(self):
        law = BoundaryLaw(
            kind=SUPPORT_TRUNCATED, d=2, x=np.array([0.2, 1.0, 0.2]), radius=1
        )
        assert law.x_at(-1) == 0.2
        assert law.lam_at(1) == pytest.approx(0.04)
        assert law.indices.tolist() == [-1, 0, 1]
        with pytest.raises(IndexError):
            law.x_at(2)

    def test_periodic_indexing_wraps(self):
        law = BoundaryLaw(kind=SUPPORT_PERIODIC, d=2, x=np.array([1.0, 0.3]), q=2)
        assert law.x_at(-1) == 0.3
        assert law.x_at(3) == 0.3

    def test_offzero_norm_manual(self):
        law = BoundaryLaw(
            kind=SUPPORT_TRUNCATED, d=2, x=np.array([0.1, 1.0, 0.2]), radius=1
        )
        assert law.offzero_norm() == pytest.approx((0.1**3 + 0.2**3) ** (1 / 3))

    def test_vector_is_read_only(self):
        law = BoundaryLaw(
            kind=SUPPORT_TRUNCATED, d=2, x=np.array([0.1, 1.0, 0.1]), radius=1
        )
        with pytest.raises(ValueError):
            law.x[0] = 0.5


# Reference operators: the two operator classes the shared operator replaced,
# kept verbatim (scipy.fft transforms on the window included) so every output
# bit of the window, periodic and FFT paths is pinned.  ``zero`` exposes the
# zero slot the way the solve core reads it.


class _RefWindowOperator:
    def __init__(self, pot, d, R):
        self.d = d
        self.R = R
        self.Q2 = pot.Q(np.arange(-2 * R, 2 * R + 1))
        self.Q_win = self.Q2[R : 3 * R + 1]
        self.use_fft = 2 * R + 1 > 2048
        if self.use_fft:
            import scipy.fft

            self.fft = scipy.fft
            self.nfft = scipy.fft.next_fast_len(4 * R + 1, real=True)
            self.kernel_f = scipy.fft.rfft(self.Q2, self.nfft)

    def start(self):
        x = self.Q_win.copy()
        x[self.R] = 1.0
        return x

    def apply(self, x):
        R = self.R
        w = x**self.d
        w[R] = 1.0
        if self.use_fft:
            c = self.fft.irfft(self.kernel_f * self.fft.rfft(w, self.nfft), self.nfft)
            num = c[2 * R : 4 * R + 1]
        else:
            num = np.convolve(self.Q2, w)[2 * R : 4 * R + 1]
        return num / num[R]

    @property
    def zero(self):
        return self.R


class _RefPeriodicOperator:
    def __init__(self, qbar, d):
        self.d = d
        self.q = qbar.q
        self.values = np.asarray(qbar.values, dtype=float)
        self.use_fft = self.q > 64
        if self.use_fft:
            self.kernel_f = np.fft.rfft(self.values)
        else:
            idx = np.arange(self.q)
            self.matrix = self.values[(idx[:, None] - idx[None, :]) % self.q]

    def start(self):
        x = self.values.copy()
        x[0] = 1.0
        return x

    def apply(self, x):
        w = x**self.d
        w[0] = 1.0
        if self.use_fft:
            num = np.fft.irfft(self.kernel_f * np.fft.rfft(w), self.q)
        else:
            num = self.matrix @ w
        return num / num[0]

    zero = 0


def _outcome(solve):
    """x, law fields and report of one solve, or the error it raised."""
    try:
        law, report = solve()
    except (ConfigError, NumericalError, OutsideGoodSetError) as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = (law.radius, law.q, law.certified)
    return law.x.tobytes(), fields, dataclasses.astuple(report)


class TestOperatorOracle:
    """The shared operator and solve core reproduce the reference operators
    bit for bit: np.array_equal on every vector, == on every report field."""

    @pytest.mark.parametrize("R", [3, 50, 1100])
    @pytest.mark.parametrize("d", [2, 3])
    def test_window_apply(self, R, d):
        rng = np.random.default_rng(R * 10 + d)
        for pot in (sos(2.0), log_potential(3.0)):
            for x in (np.zeros(2 * R + 1), rng.random(2 * R + 1) * 0.3):
                ref = _RefWindowOperator(pot, d, R).apply(x.copy())
                assert np.array_equal(apply_T(pot, d, x, R), ref)

    @pytest.mark.parametrize("q", [2, 3, 64, 65, 256])
    @pytest.mark.parametrize("d", [2, 3])
    def test_periodic_apply(self, q, d):
        rng = np.random.default_rng(q * 10 + d)
        for pot in (sos(2.0), log_potential(3.0)):
            qq = fuzzy_Q(pot, q)
            x = rng.random(q) * 0.3
            ref = _RefPeriodicOperator(qq.normalized_op(), d).apply(x.copy())
            assert np.array_equal(apply_T_periodic(qq, d, x), ref)

    @pytest.mark.parametrize("mode", [MODE_CERTIFIED, MODE_AUTO])
    def test_window_solves(self, monkeypatch, mode):
        import treegibbs.boundary_law as bl

        cases = [
            (sos(2.5), 2, SolveConfig(mode=mode)),
            (sos(2.5), 3, SolveConfig(mode=mode)),
            (sos(1.5), 2, SolveConfig(mode=mode)),
            (sos(2.5), 2, SolveConfig(radius=1100, mode=mode)),
            (log_potential(3.0), 2, SolveConfig(radius=1100, tol=1e-8, mode=mode)),
        ]
        new = [_outcome(lambda: solve_fixed_point(*c)) for c in cases]
        monkeypatch.setattr(bl, "_window_operator", _RefWindowOperator)
        ref = [_outcome(lambda: solve_fixed_point(*c)) for c in cases]
        assert new == ref
        assert not isinstance(new[0], str)

    @pytest.mark.parametrize("mode", [MODE_CERTIFIED, MODE_AUTO])
    def test_periodic_solves(self, monkeypatch, mode):
        import treegibbs.boundary_law as bl

        cases = [
            (pot, d, q, SolveConfig(mode=mode))
            for pot in (sos(3.0), sos(2.0), sos(1.5))
            for d in (2, 3)
            for q in (2, 3, 64, 65, 256)
        ]
        new = [_outcome(lambda: periodic_solve(*c)) for c in cases]
        monkeypatch.setattr(bl, "_periodic_operator", _RefPeriodicOperator)
        ref = [_outcome(lambda: periodic_solve(*c)) for c in cases]
        assert new == ref
        assert sum(not isinstance(o, str) for o in new) >= 10


# ---------------------------------------------------------------------------
# banded step norms: every decision is the one on the exactly rounded norm
# ---------------------------------------------------------------------------


def _offzero_dp1(v, zero_slot, d):
    """The exactly rounded off-zero l_{d+1} norm: one fsum over every slot
    but the zero slot, so the zero slot's term cannot cancel the rest."""
    terms = np.abs(np.delete(v, zero_slot)) ** (d + 1)
    return math.fsum(terms.tolist()) ** (1.0 / (d + 1))


class _FsumNorm(bl._OffzeroNorm):
    """A zero-width band at the fsum value: every decision by fsum."""

    def __init__(self, v, zero_slot, d):
        self.lo = self.hi = self._exact = float(_offzero_dp1(v, zero_slot, d))


def _banded_outcome(solve):
    """(error text) or (x bytes, law fields, exact report fields, step
    fields)."""
    try:
        law, report = solve()
    except (ConfigError, NumericalError, OutsideGoodSetError) as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = (law.radius, law.q, law.certified)
    steps = ("final_residual", "contraction_estimate", "a_priori_bound",
             "a_posteriori_bound", "total_error_bound")
    exact = {k: v for k, v in dataclasses.asdict(report).items() if k not in steps}
    return (law.x.tobytes(), fields, exact, [getattr(report, k) for k in steps])


class TestBandedDecisions:
    """The solve core decides on step-norm bands and falls back to fsum on a
    straddle; its verdicts equal those of an fsum on every step."""

    def test_corpus_matches_fsum_decisions(self, monkeypatch):
        cases = [
            lambda: solve_fixed_point(sos(2.5), 2),
            lambda: solve_fixed_point(sos(2.5), 3),
            lambda: solve_fixed_point(log_potential(4.0), 2),
            lambda: solve_fixed_point(log_potential(3.0), 2,
                                      SolveConfig(radius=1100, tol=1e-8)),
            lambda: solve_fixed_point(sos(1.8), 2),
            lambda: solve_fixed_point(sos(1.8), 2, SolveConfig(mode=MODE_AUTO)),
            lambda: solve_fixed_point(sos(1.5), 3, SolveConfig(mode=MODE_AUTO)),
            lambda: periodic_solve(sos(3.0), 2, 256),
            lambda: periodic_solve(log_potential(2.6), 2, 5),
            lambda: periodic_solve(sos(2.0), 2, 2),
            lambda: periodic_solve(sos(1.5), 2, 2),
            lambda: periodic_solve(sos(2.0), 2, 2, SolveConfig(mode=MODE_CERTIFIED)),
        ]
        new = [_banded_outcome(c) for c in cases]
        monkeypatch.setattr(bl, "_OffzeroNorm", _FsumNorm)
        ref = [_banded_outcome(c) for c in cases]
        assert sum(isinstance(o, str) for o in new) == 3
        for got, want in zip(new, ref):
            if isinstance(want, str):
                assert got == want
                continue
            assert got[:3] == want[:3]
            for hi, value in zip(got[3], want[3]):
                assert (hi is None) == (value is None)
                if value is not None:
                    assert value <= hi <= value * (1.0 + 1e-11)

    def test_band_holds_the_fsum_norm(self):
        rng = np.random.default_rng(12)
        for size, zero, d in ((7, 3, 2), (70001, 35000, 3), (140001, 0, 2)):
            v = rng.random(size) * 10.0 ** rng.integers(-12, 1, size)
            norm = bl._OffzeroNorm(v, zero, d)
            exact = _offzero_dp1(v, zero, d)
            assert norm.lo <= exact <= norm.hi
            assert norm.exact() == exact

    def test_straddled_threshold_takes_the_fallback(self, monkeypatch):
        calls = []
        exact = bl._OffzeroNorm.exact
        monkeypatch.setattr(bl._OffzeroNorm, "exact",
                            lambda self: calls.append(1) or exact(self))
        v = np.random.default_rng(5).random(3 * 65536 + 5)
        value = float(_offzero_dp1(v, 9, 2))
        for threshold, above, fsums in ((value, False, 1),
                                        (math.nextafter(value, 0.0), True, 1),
                                        (2.0 * value, False, 0),
                                        (0.5 * value, True, 0)):
            calls.clear()
            assert bl._OffzeroNorm(v, 9, 2).exceeds(threshold) is above
            assert len(calls) == fsums
        # two norms: equal exact values overlap and need both sums
        calls.clear()
        assert not bl._OffzeroNorm(v, 9, 2).exceeds(bl._OffzeroNorm(v.copy(), 9, 2))
        assert len(calls) == 2
        calls.clear()
        assert bl._OffzeroNorm(2.0 * v, 9, 2).exceeds(bl._OffzeroNorm(v, 9, 2))
        assert calls == []

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_stop_at_a_threshold_equal_to_the_fsum_step(self, monkeypatch, k):
        # L = 0.25 makes the stop threshold tol itself; tol at the k-th exact
        # step stops there, one ulp below it does not
        op = bl._window_operator(log_potential(4.0), 2, 1500)
        with monkeypatch.context() as m:
            m.setattr(bl, "_OffzeroNorm", _FsumNorm)
            _, n_ref, steps, _ = bl._iterate(op, 2, 1e-12, 0.25)
        assert n_ref > k
        for tol, stops_at_k in ((steps[k - 1], True),
                                (math.nextafter(steps[k - 1], 0.0), False)):
            x, n, _, _ = bl._iterate(op, 2, tol, 0.25)
            with monkeypatch.context() as m:
                m.setattr(bl, "_OffzeroNorm", _FsumNorm)
                x_ref, n_ref, _, _ = bl._iterate(op, 2, tol, 0.25)
            assert n == n_ref
            assert np.array_equal(x, x_ref)
            assert n >= k and (n == k) is stops_at_k

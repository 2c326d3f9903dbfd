"""Tests for the W_n path laws, sampling, and period recovery.

Reference values were frozen from independent evaluations: an iterative
joint-law evolution for the localized chain (the module uses binary matrix
powers), a sparse augmented-space transition for the class DP (the module
uses slice convolutions), plain convolution powers for the free state, and
the closed sech algebra for the two-class chain.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from treegibbs import pathsim
from treegibbs.boundary_law import (
    SUPPORT_TRUNCATED,
    BoundaryLaw,
    periodic_solve,
    solve_fixed_point,
)
from treegibbs.errors import ConfigError, NumericalError
from treegibbs.ggm import IncrementLaw, fuzzy_chain, ggm_edge_marginal, increment_laws
from treegibbs.pathsim import (
    MODE_GGM,
    MODE_GIBBS,
    VERDICT_ACCEPT,
    _BLOCK,
    PathDistribution,
    _CdfTable,
    _Scratch,
    _SliceStream,
    _cumulative_rows,
    _height_kernel,
    _stream,
    default_window,
    recover_period,
    sample_path,
    sample_wn,
    wn_ggm_exact,
    wn_localized_exact,
)
from treegibbs.potentials import fuzzy_Q, log_potential, sos

# localized chain, SOS beta=2.5 d=2: gap to the limit vector and the
# stationary one-step law
GAP_N1 = 0.00026130510384658745
GAP_N2 = 2.3356803768415091e-05
GAP_N8 = 1.191668985711658e-11
NU1_AT_0 = 0.99733642744440942
NU1_AT_1 = 0.001330594610121752
LIMIT_AT_0 = 0.99707512234056284
LIMIT_AT_1 = 0.0014610762090255984

# class DP, SOS beta=2 d=2 q=2
GGM_SUP = {1: 0.88085050613122973, 8: 0.58043226831294648,
           64: 0.18431407510847622, 256: 0.089153264494043524}
Q2_NU0_EXACT = 0.88085050613045436
Q2_NU1_EXACT = 0.042350257597783661
Q2_NU2_EXACT = 0.016133339785244135

# free state, SOS beta=2
FREE_P0 = {16: 0.17446584423659928, 64: 0.083841937383929352,
           256: 0.041557245238484961}


@pytest.fixture(scope="module")
def sos25():
    law, _ = solve_fixed_point(sos(2.5), 2)
    return law


@pytest.fixture(scope="module")
def sos20():
    law, _ = solve_fixed_point(sos(2.0), 2)
    return law


@pytest.fixture(scope="module")
def chain2():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 2)
    return fuzzy_chain(law, fuzzy_Q(pot, 2)), increment_laws(pot, 2)


@pytest.fixture(scope="module")
def chain_free():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 1)
    return fuzzy_chain(law, fuzzy_Q(pot, 1)), increment_laws(pot, 1)


class TestPathDistributionType:
    def test_accessors(self):
        dist = PathDistribution(n=3, window=1, law=np.array([0.25, 0.5, 0.25]),
                                leaked_mass=0.0, mode=MODE_GIBBS)
        assert dist.indices.tolist() == [-1, 0, 1]
        assert dist.prob_at(0) == 0.5
        assert dist.prob_at(-1) == 0.25
        assert dist.sup() == 0.5
        assert dist.mean() == 0.0
        with pytest.raises(IndexError):
            dist.prob_at(2)
        with pytest.raises(ValueError):
            dist.law[0] = 1.0

    def test_mass_defect_rejected(self):
        with pytest.raises(NumericalError, match="leaked"):
            PathDistribution(n=1, window=1, law=np.array([0.2, 0.5, 0.2]),
                             leaked_mass=0.0, mode=MODE_GIBBS)

    def test_negative_entry_rejected(self):
        with pytest.raises(NumericalError, match="negative"):
            PathDistribution(n=1, window=1, law=np.array([-0.1, 1.0, 0.1]),
                             leaked_mass=0.0, mode=MODE_GIBBS)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="shape"):
            PathDistribution(n=1, window=2, law=np.array([1.0]),
                             leaked_mass=0.0, mode=MODE_GIBBS)

    @pytest.mark.parametrize("edge", [1.0 - 1e-9, 1.0 + 1e-12])
    def test_sum_check_at_its_edges_uses_the_exact_total(self, edge):
        # leaked masses a few ulps around the one that puts fsum(law) + leaked
        # on an edge of [1 - 1e-9, 1 + 1e-12]: the verdict and its message
        # are those of the exactly rounded total
        law = np.random.default_rng(8).random(2 * 70001 + 1)
        law /= 2.0 * law.sum()
        total = math.fsum(law.tolist())
        leaked = edge - total
        for _ in range(4):
            leaked = math.nextafter(leaked, -math.inf)
        verdicts = set()
        for _ in range(9):
            ref = total + leaked
            ok = 1.0 - 1e-9 <= ref <= 1.0 + 1e-12
            verdicts.add(ok)
            if ok:
                PathDistribution(n=1, window=70001, law=law.copy(),
                                 leaked_mass=leaked, mode=MODE_GIBBS)
            else:
                with pytest.raises(NumericalError) as exc:
                    PathDistribution(n=1, window=70001, law=law.copy(),
                                     leaked_mass=leaked, mode=MODE_GIBBS)
                assert str(exc.value) == (f"law plus leaked mass sums to {ref!r}, "
                                          "expected 1 within 1e-9")
            leaked = math.nextafter(leaked, math.inf)
        assert verdicts == {True, False}


@pytest.mark.parametrize("tail_tol", [math.nan, math.inf, -1.0])
def test_tail_tol_must_be_finite_and_nonnegative(sos20, chain2, tail_tol):
    # nan once passed a leak of 0.586 (sos 2, q = 2, n = 64, window 3), and
    # -1 failed every window as a NumericalError
    fc, laws = chain2
    for call in (lambda: wn_localized_exact(sos20, 8, window=1, tail_tol=tail_tol),
                 lambda: wn_ggm_exact(fc, laws, 64, window=3, tail_tol=tail_tol)):
        with pytest.raises(ConfigError, match="tail_tol must be a finite float >= 0"):
            call()


class TestWnLocalized:
    def test_point_mass_is_frozen(self):
        # lam concentrated at zero keeps the walker pinned for every n
        x = np.zeros(7)
        x[3] = 1.0
        frozen = BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=x, radius=3,
                             pot=sos(2.5))
        for n in (1, 5):
            dist = wn_localized_exact(frozen, n)
            assert dist.prob_at(0) == 1.0
            assert math.fsum(dist.law.tolist()) == 1.0

    def test_one_step_law(self, sos25):
        dist = wn_localized_exact(sos25, 1)
        assert dist.mode == MODE_GIBBS
        assert dist.prob_at(0) == pytest.approx(NU1_AT_0, rel=1e-12)
        assert dist.prob_at(1) == pytest.approx(NU1_AT_1, rel=1e-12)
        assert dist.prob_at(-1) == pytest.approx(dist.prob_at(1), rel=1e-14)

    def test_one_step_brute_force(self, sos25):
        dist = wn_localized_exact(sos25, 1)
        lam = sos25.lam
        idx = sos25.indices
        alpha = lam ** 1.5 / np.sum(lam ** 1.5)
        m = len(idx)
        for k in (0, 1, 2, -3):
            acc = 0.0
            for i in range(m):
                if not 0 <= i + k < m:
                    continue
                num = sos25.pot.Q(idx[i] - idx) * lam
                acc += alpha[i] * num[i + k] / num.sum()
            assert dist.prob_at(k) == pytest.approx(acc, abs=1e-15)

    def test_limit_vector(self, sos25):
        dist = wn_localized_exact(sos25, 1)
        K = dist.window
        assert dist.limit[K] == pytest.approx(LIMIT_AT_0, rel=1e-12)
        assert dist.limit[K + 1] == pytest.approx(LIMIT_AT_1, rel=1e-12)
        alpha = single = sos25.lam ** 1.5
        alpha = alpha / np.sum(alpha)
        brute = math.fsum((alpha[:-2] * alpha[2:]).tolist())
        assert dist.limit[K + 2] == pytest.approx(brute, abs=1e-16)

    def test_convergence_to_limit(self, sos25):
        gaps = {}
        for n in (1, 2, 4, 8, 16):
            dist = wn_localized_exact(sos25, n)
            gaps[n] = float(np.max(np.abs(dist.law - dist.limit)))
        assert gaps[1] == pytest.approx(GAP_N1, rel=1e-12)
        assert gaps[2] == pytest.approx(GAP_N2, rel=1e-7)
        assert gaps[8] == pytest.approx(GAP_N8, rel=1e-4)
        assert gaps[16] < 1e-13
        assert sorted(gaps.values(), reverse=True) == list(gaps.values())

    def test_symmetry_and_zero_tilt(self, sos25):
        dist = wn_localized_exact(sos25, 6)
        np.testing.assert_allclose(dist.law, dist.law[::-1], atol=1e-15, rtol=0)
        assert abs(dist.mean()) < 1e-15

    def test_window_slicing(self, sos25):
        full = wn_localized_exact(sos25, 2)
        small = wn_localized_exact(sos25, 2, window=3, tail_tol=1e-6)
        np.testing.assert_array_equal(
            small.law, full.law[full.window - 3: full.window + 4])
        assert small.leaked_mass > 0.0
        padded = wn_localized_exact(sos25, 2, window=full.window + 5)
        assert padded.prob_at(full.window + 4) == 0.0
        assert padded.prob_at(0) == full.prob_at(0)

    def test_window_too_small(self, sos25):
        with pytest.raises(NumericalError, match="use window >="):
            wn_localized_exact(sos25, 2, window=1)

    def test_input_validation(self, sos25, chain2):
        with pytest.raises(ConfigError, match="n must be"):
            wn_localized_exact(sos25, 0)
        periodic = periodic_solve(sos(2.0), 2, 2)[0]
        with pytest.raises(ConfigError, match="truncated"):
            wn_localized_exact(periodic, 1)
        x = np.zeros(5)
        x[2] = 1.0
        orphan = BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=x, radius=2)
        with pytest.raises(ConfigError, match="no potential"):
            wn_localized_exact(orphan, 1)

    def test_dense_size_guard(self):
        x = np.zeros(2 * 2500 + 1)
        x[2500] = 1.0
        huge = BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=x, radius=2500,
                           pot=sos(2.5))
        with pytest.raises(NumericalError, match="dense"):
            wn_localized_exact(huge, 1)


def _reference_leak_message(bl, n, K, tail_tol):
    """The leak error of wn_localized_exact before its window search bisected:
    one exactly rounded sum per candidate window, K + 1 up to m - 1."""
    P, alpha = _height_kernel(bl)
    m = len(alpha)
    Pn = np.linalg.matrix_power(P, n)
    full = np.array([
        math.fsum((alpha[max(0, -k): m - max(0, k)]
                   * np.diagonal(Pn, offset=k)).tolist())
        for k in range(-(m - 1), m)
    ])

    def window_law(R):
        out = np.zeros(2 * R + 1)
        lo, hi = max(0, m - 1 - R), min(len(full), m + R)
        out[lo - (m - 1) + R: hi - (m - 1) + R] = full[lo:hi]
        return out

    leaked = max(0.0, 1.0 - math.fsum(window_law(K).tolist()))
    if leaked <= tail_tol:
        return None
    need = K
    while need < m - 1:
        need += 1
        if 1.0 - math.fsum(window_law(need).tolist()) <= tail_tol:
            break
    return f"window {K} leaks mass {leaked:.3g} > {tail_tol:.3g}; use window >= {need}"


class TestWnLocalizedLeakOracle:
    @pytest.mark.parametrize("tail_tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("n", [1, 4])
    def test_leak_message_matches_linear_search(self, sos25, n, tail_tol):
        m = len(sos25.x)
        refused = 0
        for K in range(m - 1):
            expected = _reference_leak_message(sos25, n, K, tail_tol)
            try:
                wn_localized_exact(sos25, n, window=K, tail_tol=tail_tol)
                got = None
            except NumericalError as exc:
                got = str(exc)
            assert got == expected, K
            refused += expected is not None
        assert refused > 0

    def test_no_fitting_window_asks_for_the_full_one(self):
        # this flat law's full window sums to 1 - 1.11e-16, so at tail_tol 0
        # no window fits: the hint is m - 1 below it and K itself from there
        flat = BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=np.ones(9), radius=4,
                           pot=sos(0.1))
        for K in range(12):
            message = _reference_leak_message(flat, 3, K, 0.0)
            assert message.endswith(f"use window >= {max(K, 8)}")
            with pytest.raises(NumericalError) as exc:
                wn_localized_exact(flat, 3, window=K, tail_tol=0.0)
            assert str(exc.value) == message


class TestWnGgm:
    def test_frozen_sups(self, chain2):
        fc, laws = chain2
        for n, ref in GGM_SUP.items():
            dist = wn_ggm_exact(fc, laws, n)
            assert dist.mode == MODE_GGM and dist.q == 2
            assert dist.sup() == pytest.approx(ref, rel=1e-10)

    def test_sup_monotone_delocalization(self, chain2):
        fc, laws = chain2
        sups = [wn_ggm_exact(fc, laws, n).sup() for n in (1, 2, 4, 8, 16, 32)]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_sup_small_at_large_n(self, chain2):
        fc, laws = chain2
        assert wn_ggm_exact(fc, laws, 1024).sup() < 0.05

    def test_one_step_matches_edge_marginal(self, chain2):
        fc, laws = chain2
        dist = wn_ggm_exact(fc, laws, 1, window=20)
        np.testing.assert_allclose(
            dist.law, ggm_edge_marginal(fc, laws, 20), atol=1e-16, rtol=0)

    def test_one_step_exact_algebra(self, chain2):
        # closed form from the sech fixed-point root; the solve is only
        # certified to 1e-12 so the agreement is capped there
        fc, laws = chain2
        dist = wn_ggm_exact(fc, laws, 1)
        assert dist.prob_at(0) == pytest.approx(Q2_NU0_EXACT, rel=5e-9)
        assert dist.prob_at(1) == pytest.approx(Q2_NU1_EXACT, rel=5e-9)
        assert dist.prob_at(2) == pytest.approx(Q2_NU2_EXACT, rel=5e-9)

    def test_free_state_convolution(self, chain_free):
        fc, laws = chain_free
        d1 = wn_ggm_exact(fc, laws, 1, window=40)
        d2 = wn_ggm_exact(fc, laws, 2, window=40)
        conv = np.convolve(d1.law, d1.law)[40:121]
        np.testing.assert_allclose(d2.law, conv, atol=1e-16, rtol=0)

    def test_free_state_sqrt_n_decay(self, chain_free):
        fc, laws = chain_free
        p0 = {n: wn_ggm_exact(fc, laws, n).prob_at(0) for n in (16, 64, 256)}
        for n, ref in FREE_P0.items():
            assert p0[n] == pytest.approx(ref, rel=1e-12)
        assert p0[256] / p0[64] == pytest.approx(0.5, abs=0.025)

    def test_zero_tilt_and_symmetry(self, chain2):
        fc, laws = chain2
        for n in (1, 8, 64):
            dist = wn_ggm_exact(fc, laws, n)
            assert abs(dist.mean()) < 1e-12
            np.testing.assert_allclose(dist.law, dist.law[::-1],
                                       atol=1e-15, rtol=0)

    def test_leak_within_increment_truncation(self, chain2):
        fc, laws = chain2
        n = 64
        dist = wn_ggm_exact(fc, laws, n)
        assert dist.leaked_mass <= n * max(l.tail_mass_bound for l in laws)

    def test_window_overflow(self, chain2):
        fc, laws = chain2
        with pytest.raises(NumericalError, match="use window >="):
            wn_ggm_exact(fc, laws, 64, window=5)

    def test_default_window_scale(self, chain2):
        fc, laws = chain2
        k64 = default_window(fc, laws, 64)
        k256 = default_window(fc, laws, 256)
        reach = max(law.radius for law in laws)
        assert k256 - reach - fc.q == pytest.approx(
            2 * (k64 - reach - fc.q), abs=2)

    def test_validation(self, chain2):
        fc, laws = chain2
        with pytest.raises(ConfigError, match="n must be"):
            wn_ggm_exact(fc, laws, 0)
        with pytest.raises(ConfigError):
            wn_ggm_exact(fc, laws[:1], 1)


class TestSampling:
    def test_reproducible_streams(self, chain2):
        inc_a, cls_a = sample_path(chain2, 300, seed=11, replicate=3)
        inc_b, cls_b = sample_path(chain2, 300, seed=11, replicate=3)
        inc_c, _ = sample_path(chain2, 300, seed=11, replicate=4)
        inc_d, _ = sample_path(chain2, 300, seed=12, replicate=3)
        np.testing.assert_array_equal(inc_a, inc_b)
        np.testing.assert_array_equal(cls_a, cls_b)
        assert not np.array_equal(inc_a, inc_c)
        assert not np.array_equal(inc_a, inc_d)

    def test_gibbs_path_is_height_chain(self, sos25):
        inc, heights = sample_path(sos25, 2000, seed=7)
        assert len(heights) == 2001
        np.testing.assert_array_equal(np.diff(heights), inc)
        assert heights.max() <= sos25.radius
        assert heights.min() >= -sos25.radius

    def test_ggm_path_class_consistency(self, chain2):
        fc, laws = chain2
        inc, classes = sample_path((fc, laws), 2000, seed=7)
        assert set(np.unique(classes)) <= {0, 1}
        np.testing.assert_array_equal(
            (classes[1:] - classes[:-1]) % 2, np.asarray(inc) % 2)

    def test_free_state_iid_chisquare(self, chain_free):
        fc, laws = chain_free
        inc, classes = sample_path((fc, laws), 200_000, seed=42)
        assert not classes.any()
        law = laws[0]
        offsets = inc - law.support.min()
        counts = np.bincount(offsets, minlength=len(law.support))
        keep = law.weights * len(inc) >= 5
        f_obs = counts[keep]
        f_exp = law.weights[keep] / law.weights[keep].sum() * f_obs.sum()
        assert stats.chisquare(f_obs, f_exp).pvalue > 0.01

    def test_wn_sampler_matches_exact_gibbs(self, sos25):
        n, N = 8, 200_000
        w = sample_wn(sos25, n, N, seed=3)
        dist = wn_localized_exact(sos25, n)
        emp = np.bincount(w + dist.window, minlength=2 * dist.window + 1) / N
        bound = 5 * np.sqrt(dist.law * (1 - dist.law) / N) + 1e-6
        assert np.all(np.abs(emp - dist.law) <= bound)

    def test_wn_sampler_matches_exact_ggm(self, chain2):
        fc, laws = chain2
        n, N = 8, 200_000
        w = sample_wn((fc, laws), n, N, seed=3)
        dist = wn_ggm_exact(fc, laws, n)
        assert np.all(np.abs(w) <= dist.window)
        emp = np.bincount(w + dist.window, minlength=2 * dist.window + 1) / N
        bound = 5 * np.sqrt(dist.law * (1 - dist.law) / N) + 1e-6
        assert np.all(np.abs(emp - dist.law) <= bound)

    def test_path_and_wn_agree_on_totals(self, sos25):
        inc, heights = sample_path(sos25, 50, seed=21)
        assert inc.sum() == heights[-1] - heights[0]

    def test_validation(self, sos25, chain2):
        with pytest.raises(ConfigError, match="source"):
            sample_path("nonsense", 10, seed=1)
        with pytest.raises(ConfigError, match="n must be"):
            sample_path(sos25, 0, seed=1)
        with pytest.raises(ConfigError, match="seed"):
            sample_path(sos25, 10, seed=-1)
        with pytest.raises(ConfigError, match="replicate"):
            sample_path(sos25, 10, seed=1, replicate=2.5)
        with pytest.raises(ConfigError, match="replicates"):
            sample_wn(chain2, 4, 0, seed=1)

    def test_sizes_must_be_integers(self, sos25, chain2):
        with pytest.raises(ConfigError, match="n must be an integer >= 1, got 2.5"):
            sample_wn(sos25, 2.5, 10, seed=1)
        with pytest.raises(ConfigError, match="n must be an integer >= 1, got 2.5"):
            sample_path(sos25, 2.5, seed=1)
        with pytest.raises(ConfigError, match="replicates must be an integer"):
            sample_wn(chain2, 4, 2.5, seed=1)
        with pytest.raises(ConfigError, match="replicates must be an integer"):
            sample_wn(chain2, 4, True, seed=1)
        w = sample_wn(sos25, np.int64(3), np.int32(5), seed=1)
        assert w.shape == (5,) and w.dtype == np.int64

    def test_huge_buffers_refused_before_allocating(self, sos25, chain2):
        # 7.28 TiB of walkers and a 745 GiB path: both named, neither allocated
        with pytest.raises(NumericalError, match=r"replicates=1000000000000 needs "
                           r"1000000000000 uniforms .*7\.45e\+03 GiB"):
            sample_wn(sos25, 2, 10**12, seed=1)
        with pytest.raises(NumericalError, match=r"n=100000000000 needs "
                           r"100000000001 uniforms .*745 GiB"):
            sample_path(chain2, 10**11, seed=1)


@pytest.fixture(scope="module")
def chain3():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 3)
    return fuzzy_chain(law, fuzzy_Q(pot, 3)), increment_laws(pot, 3)


@pytest.fixture(scope="module")
def chain_log():
    pot = log_potential(4.0)
    law, _ = periodic_solve(pot, 2, 2)
    return fuzzy_chain(law, fuzzy_Q(pot, 2)), increment_laws(pot, 2)


def _reference_states(cum_start, cum_rows, u):
    """The per-step np.searchsorted loop that sample_path replaced, as an oracle."""
    states = np.empty(len(u), dtype=np.int64)
    s = int(np.searchsorted(cum_start, u[0], side="right"))
    states[0] = s
    for k in range(1, len(u)):
        s = int(np.searchsorted(cum_rows[s], u[k], side="right"))
        states[k] = s
    return states


def _reference_ggm_path(fc, laws, n, seed, replicate):
    """Classes (no draws for q = 1), then one per-residue searchsorted loop."""
    q = fc.q
    rng = _stream(seed, replicate)
    if q > 1:
        classes = _reference_states(
            _cumulative_rows(fc.alpha), _cumulative_rows(fc.P), rng.random(n + 1))
    else:
        classes = np.zeros(n + 1, dtype=np.int64)
    residues = (classes[1:] - classes[:-1]) % q
    u = rng.random(n)
    increments = np.empty(n, dtype=np.int64)
    for s, law in enumerate(laws):
        mask = residues == s
        increments[mask] = law.support[
            np.searchsorted(_cumulative_rows(law.weights), u[mask], side="right")]
    return increments, classes


class TestSamplePathReference:
    """sample_path draws the same states as the searchsorted loop it replaced."""

    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_gibbs_heights(self, sos20, seed, replicate):
        n = 5000
        P, alpha = _height_kernel(sos20)
        u = _stream(seed, replicate).random(n + 1)
        states = _reference_states(_cumulative_rows(alpha), _cumulative_rows(P), u)
        assert len(np.unique(states)) > 1
        inc, heights = sample_path(sos20, n, seed=seed, replicate=replicate)
        np.testing.assert_array_equal(heights, sos20.indices[states])
        np.testing.assert_array_equal(inc, np.diff(heights))

    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_ggm_classes_and_increments(self, chain3, seed, replicate):
        fc, laws = chain3
        n = 5000
        increments, classes = _reference_ggm_path(fc, laws, n, seed, replicate)
        assert len(np.unique(classes)) == 3
        inc, got = sample_path(chain3, n, seed=seed, replicate=replicate)
        np.testing.assert_array_equal(got, classes)
        np.testing.assert_array_equal(inc, increments)

    @pytest.mark.parametrize("chain", ["chain_free", "chain_log"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_free_state_and_log_chain(self, request, chain, seed, replicate):
        fc, laws = request.getfixturevalue(chain)
        n = 5000
        increments, classes = _reference_ggm_path(fc, laws, n, seed, replicate)
        inc, got = sample_path((fc, laws), n, seed=seed, replicate=replicate)
        assert got.dtype == classes.dtype and inc.dtype == increments.dtype
        np.testing.assert_array_equal(got, classes)
        np.testing.assert_array_equal(inc, increments)
        assert len(np.unique(inc)) > 1


def _reference_wn(source, n, replicates, seed, replicate=0):
    """The two-branch sample_wn that one Markov-additive walk replaced, as an oracle."""
    rng = _stream(seed, replicate)
    N = int(replicates)
    if isinstance(source, BoundaryLaw):
        P, alpha = _height_kernel(source)
        cumP = _cumulative_rows(P)
        cum_alpha = _cumulative_rows(alpha)
        states = np.searchsorted(cum_alpha, rng.random(N), side="right")
        start = states.copy()
        for _ in range(n):
            u = rng.random(N)
            nxt = np.empty_like(states)
            for s in np.unique(states):
                mask = states == s
                nxt[mask] = np.searchsorted(cumP[s], u[mask], side="right")
            states = nxt
        idx = source.indices
        return (idx[states] - idx[start]).astype(np.int64)
    fc, laws = source
    q = fc.q
    cum_alpha = _cumulative_rows(fc.alpha)
    cumP = _cumulative_rows(fc.P)
    cumw = [_cumulative_rows(law.weights) for law in laws]
    classes = np.searchsorted(cum_alpha, rng.random(N), side="right")
    W = np.zeros(N, dtype=np.int64)
    for _ in range(n):
        u = rng.random(N)
        nxt = np.empty_like(classes)
        for i in range(q):
            mask = classes == i
            if mask.any():
                nxt[mask] = np.searchsorted(cumP[i], u[mask], side="right")
        residues = (nxt - classes) % q
        u = rng.random(N)
        for s in range(q):
            mask = residues == s
            if mask.any():
                W[mask] += laws[s].support[
                    np.searchsorted(cumw[s], u[mask], side="right")
                ]
        classes = nxt
    return W


class TestSampleWnReference:
    """sample_wn draws the same W_n, bit for bit, as the two-branch sampler."""

    @pytest.mark.parametrize("source", [
        "sos20", "sos25", "chain_free", "chain2", "chain3", "chain_log"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_matches_two_branch_sampler(self, request, source, seed, replicate):
        src = request.getfixturevalue(source)
        for n, N in ((1, 7), (6, 3000), (17, 20000)):
            want = _reference_wn(src, n, N, seed, replicate)
            got = sample_wn(src, n, N, seed=seed, replicate=replicate)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (n, N)
        assert len(np.unique(want)) > 1

    @pytest.mark.parametrize("source", ["sos20", "chain2", "chain_log"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (20260814, 1)])
    def test_any_thread_count(self, request, monkeypatch, source, seed, replicate):
        # 2 _BLOCK + 17 walkers allow three slices; N is odd, so the slices
        # of later calls start at every offset mod 4 inside a Philox block
        src = request.getfixturevalue(source)
        N, n = 2 * _BLOCK + 17, 3
        want = _reference_wn(src, n, N, seed, replicate)
        assert len(np.unique(want)) > 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent thread switches between the slices
        try:
            for threads in (1, 2, 3):
                monkeypatch.setattr(pathsim, "_threads", lambda N, t=threads: t)
                got = sample_wn(src, n, N, seed=seed, replicate=replicate)
                assert np.array_equal(got, want), threads
        finally:
            sys.setswitchinterval(interval)

    def test_slice_stream_matches_sequential_draws(self):
        rng = _stream(11, 3)
        key = rng.bit_generator.state["state"]["key"]
        N = 1001
        calls = rng.random(5 * N).reshape(5, N)
        for lo, hi in ((0, N), (3, 4), (4, 700), (999, N)):
            stream = _SliceStream(key, N, lo)
            for k in range(5):
                assert np.array_equal(
                    stream.random(out=np.empty(hi - lo)), calls[k, lo:hi])

    def test_slice_error_reaches_the_caller(self, monkeypatch, chain2):
        monkeypatch.setattr(pathsim, "_threads", lambda N: 2)

        def fail(self, *args):
            raise MemoryError("slice")
        monkeypatch.setattr(_CdfTable, "draw", fail)
        with pytest.raises(MemoryError, match="slice"):
            sample_wn(chain2, 2, 2 * _BLOCK, seed=1)

    def test_thread_count(self, monkeypatch):
        monkeypatch.setattr(pathsim.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert pathsim._cpus() == 1 and pathsim._threads(10 * _BLOCK) == 1
        monkeypatch.setattr(pathsim.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert pathsim._threads(10 * _BLOCK) == pathsim._MAX_THREADS
        assert pathsim._threads(_BLOCK) == 1


class TestCdfTableSearch:
    """The padded table search returns searchsorted(row, u, side="right")."""

    @given(
        lengths=st.lists(st.integers(1, 70), min_size=1, max_size=6),
        dense=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.5, 0.95]),
        scale=st.sampled_from([1.0, 0.5, 1.0 + 2.0**-40, 1.5]),
        walkers=st.sampled_from([1, 5, _BLOCK - 1, _BLOCK + 3, 2 * _BLOCK + 17]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted(self, lengths, dense, zero_share, scale,
                                  walkers, seed):
        rng = np.random.default_rng(seed)
        if dense:
            lengths = [lengths[0]] * len(lengths)
        rows = []
        for m in lengths:
            w = rng.random(m) * (rng.random(m) >= zero_share)  # flat runs
            total = w.sum()
            # scale > 1 makes the running sum pass 1.0 before the last slot
            rows.append(w * (scale / total) if total > 0 else w)
        # progression supports, the form every increment law takes
        first = rng.integers(-10**6, 10**6, size=len(rows))
        stride = int(rng.integers(1, 50))
        support = [f + stride * np.arange(m) for f, m in zip(first, lengths)]
        table = _CdfTable(np.array(rows) if dense else rows, first, stride)
        plain = _CdfTable(np.array(rows) if dense else rows)
        cums = [_cumulative_rows(r) for r in rows]

        keys = rng.integers(0, len(rows), size=walkers)
        u = rng.random(walkers)
        # exact ties with an entry of the key row (0.0 for entries >= 1.0),
        # and u = 0.0
        entries = np.ones((len(rows), max(lengths)))
        for e, cum in zip(entries, cums):
            e[:len(cum)] = cum
        tie = entries[keys, rng.integers(0, np.array(lengths)[keys])]
        u = np.where(rng.random(walkers) < 0.5, tie, u)
        u[(u >= 1.0) | (rng.random(walkers) < 0.05)] = 0.0

        slots = plain.draw(keys, u, np.empty(walkers, dtype=np.int64), _Scratch())
        values = table.draw(keys, u, np.empty(walkers, dtype=np.int64), _Scratch())
        want = np.empty(walkers, dtype=np.int64)
        for s, cum in enumerate(cums):
            mask = keys == s
            want[mask] = np.searchsorted(cum, u[mask], side="right")
            np.testing.assert_array_equal(slots[mask], want[mask])
            np.testing.assert_array_equal(values[mask], support[s][want[mask]])

    def test_width_is_the_next_power_of_two(self):
        for m, width in ((1, 1), (2, 2), (3, 4), (64, 64), (65, 128)):
            table = _CdfTable([np.full(m, 1.0 / m), np.ones(1)])
            assert table.cum.shape == (2, width)
            assert np.all(table.cum[:, -1] == 1.0)


def _reference_wn_ggm(fc, laws, n, K):
    """The class DP before per-residue convolutions, kept verbatim as an
    oracle: one shifted row per support point per step."""
    q = fc.q
    width = 2 * K + 1
    D = np.zeros((q, width))
    D[:, K] = fc.alpha
    for _ in range(n):
        newD = np.zeros_like(D)
        for i in range(q):
            for s in range(q):
                c = (i + s) % q
                p = fc.P[i, c]
                if p == 0.0:
                    continue
                row = D[i] * p
                for j, w in zip(laws[s].support.tolist(), laws[s].weights.tolist()):
                    if abs(j) >= width:
                        continue
                    if j >= 0:
                        newD[c, j:] += w * row[: width - j]
                    else:
                        newD[c, : width + j] += w * row[-j:]
        D = newD
    return D.sum(axis=0)


def _sos_chain(q):
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, q)
    return fuzzy_chain(law, fuzzy_Q(pot, q)), increment_laws(pot, q)


class TestWnGgmOracle:
    """The per-residue convolution DP against the per-support-point loop:
    bit for bit at n = 1, within roundoff_bound beyond."""

    @staticmethod
    def _check(chain, n, window=None, tail_tol=1e-9):
        fc, laws = chain
        dist = wn_ggm_exact(fc, laws, n, window=window, tail_tol=tail_tol)
        ref = _reference_wn_ggm(fc, laws, n, dist.window)
        if n == 1:
            assert np.array_equal(dist.law, ref)
        err = float(np.max(np.abs(dist.law - ref)))
        assert err <= dist.roundoff_bound, (err, dist.roundoff_bound)
        return dist

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_sos(self, q, n):
        self._check(_sos_chain(q), n)

    @pytest.mark.parametrize("window", [1023, 1100])
    @pytest.mark.parametrize("n", [1, 3])
    def test_log_both_sides_of_the_fft_switch(self, chain_log, window, n):
        self._check(chain_log, n, window=window, tail_tol=1.0)

    def test_bench_wide_case(self, chain_log):
        dist = self._check(chain_log, 32)
        assert dist.roundoff_bound <= 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_weights_are_trimmed(self, n):
        # zero weights at the ends of a law change neither the kernel radius
        # nor G, so the law and its bound keep their bits; one inside stays
        fc, laws = _sos_chain(3)
        inner, padded = [], []
        for law in laws:
            w = law.weights.copy()
            w[w.size // 2] = 0.0
            inner.append(IncrementLaw(q=3, residue=law.residue, first=law.first,
                                      weights=w, tail_mass_bound=1.0))
            padded.append(IncrementLaw(
                q=3, residue=law.residue, first=law.first - 6,
                weights=np.concatenate([[0.0, 0.0], w, [0.0]]), tail_mass_bound=1.0))
        want = self._check((fc, inner), n, window=30)
        got = self._check((fc, padded), n, window=30)
        assert np.array_equal(got.law, want.law)
        assert got.roundoff_bound == want.roundoff_bound

    def test_gibbs_mode_has_no_bound(self, sos25):
        assert wn_localized_exact(sos25, 2).roundoff_bound is None


def test_fft_law_is_nonnegative(chain_log):
    # FFT rounding leaves entries near -1e-16; the exact DP is nonnegative
    dist = wn_ggm_exact(*chain_log, 32)
    assert dist.window > 1023
    assert float(dist.law.min()) >= 0.0


@pytest.fixture(scope="module")
def ggm_path(chain2):
    inc, _ = sample_path(chain2, 100_000, seed=20260814)
    return inc


class TestRecoverPeriod:
    def test_two_periodic_source(self, chain2, ggm_path):
        fc, _ = chain2
        reports = recover_period(ggm_path, [1, 2, 3, 4], 2, sos(2.0))
        by_q = {r.q_tested: r for r in reports}
        assert all(r.minimal_period == 2 for r in reports)
        r2 = by_q[2]
        assert r2.verdict == VERDICT_ACCEPT
        assert not r2.gibbs_like
        assert r2.matched_alpha is not None
        # empirical class frequencies sit on the stationary law up to
        # multinomial noise (path is positively correlated, hence the 10x)
        sigma = math.sqrt(0.25 / (len(ggm_path) / 10))
        best = min(np.max(np.abs(r2.empirical - np.roll(fc.alpha, t)))
                   for t in range(2))
        assert best < 5 * sigma

    def test_lifted_period_detected(self, ggm_path):
        # a 2-periodic law is also 4-periodic; q~=4 must accept and the
        # gcd with q~=2 still recovers 2
        reports = recover_period(ggm_path, [2, 4], 2, sos(2.0))
        assert [r.verdict for r in reports] == [VERDICT_ACCEPT] * 2
        assert reports[0].minimal_period == 2

    def test_free_state_source(self, chain_free):
        inc, _ = sample_path(chain_free, 100_000, seed=5)
        reports = recover_period(inc, [1, 2, 3, 4], 2, sos(2.0))
        assert all(r.verdict == VERDICT_ACCEPT for r in reports)
        assert all(r.minimal_period == 1 for r in reports)
        for r in reports:
            assert np.max(np.abs(r.empirical - 1.0 / r.q_tested)) < 0.01

    def test_gibbs_source_flagged(self, sos20):
        inc, _ = sample_path(sos20, 100_000, seed=9)
        reports = recover_period(inc, [2, 3], 2, sos(2.0))
        assert all(r.gibbs_like for r in reports)
        assert all(r.minimal_period is None for r in reports)

    def test_shift_invariance(self, ggm_path):
        for drop in (1, 7):
            reports = recover_period(ggm_path[drop:], [2, 3, 4], 2, sos(2.0))
            assert reports[0].minimal_period == 2

    def test_non_summable_operator_rejects(self):
        path = np.tile([1, -1, 0, 2, -2], 10)
        reports = recover_period(path, [1, 2], 2, log_potential(0.9))
        assert all(r.verdict == "reject" for r in reports)
        assert all(r.minimal_period is None for r in reports)

    def test_validation(self):
        with pytest.raises(ConfigError, match="length >= 10"):
            recover_period([1, -1], [2], 2, sos(2.0))
        path = np.tile([1, -1], 20)
        with pytest.raises(ConfigError, match="q_tilde_list"):
            recover_period(path, [], 2, sos(2.0))
        with pytest.raises(ConfigError, match="q_tilde_list"):
            recover_period(path, [0], 2, sos(2.0))
        with pytest.raises(ConfigError, match="integers"):
            recover_period(np.array([0.5, 1.0] * 20), [2], 2, sos(2.0))

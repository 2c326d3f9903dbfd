"""Tests for the W_n path laws, sampling, and period recovery.

Reference values were frozen from independent evaluations: an iterative
joint-law evolution for the localized chain (the module uses binary matrix
powers), a sparse augmented-space transition for the class DP (the module
uses slice convolutions), plain convolution powers for the free state, and
the closed sech algebra for the two-class chain.
"""

import concurrent.futures
import math
import sys
import tracemalloc

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
from treegibbs.ggm import fuzzy_chain, ggm_edge_marginal, increment_laws
from treegibbs.pathsim import (
    MODE_GGM,
    MODE_GIBBS,
    VERDICT_ACCEPT,
    _BLOCK,
    PathDistribution,
    _CdfTable,
    _Guided,
    _Scratch,
    _StepTable,
    _cumulative_rows,
    _height_kernel,
    default_window,
    recover_period,
    sample_path,
    sample_wn,
    wn_ggm_exact,
    wn_localized_exact,
)
from treegibbs.potentials import TailModel, custom, fuzzy_Q, log_potential, sos

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

    def test_window_slicing(self, sos25, monkeypatch):
        full = wn_localized_exact(sos25, 2)
        monkeypatch.setattr(pathsim, "_LEAK_TOL", 1e-6)
        small = wn_localized_exact(sos25, 2, window=3)
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
    def test_leak_message_matches_linear_search(self, sos25, n, tail_tol, monkeypatch):
        monkeypatch.setattr(pathsim, "_LEAK_TOL", tail_tol)
        m = len(sos25.x)
        refused = 0
        for K in range(m - 1):
            expected = _reference_leak_message(sos25, n, K, tail_tol)
            try:
                wn_localized_exact(sos25, n, window=K)
                got = None
            except NumericalError as exc:
                got = str(exc)
            assert got == expected, K
            refused += expected is not None
        assert refused > 0

    def test_no_fitting_window_asks_for_the_full_one(self, monkeypatch):
        # this flat law's full window sums to 1 - 1.11e-16, so at a leak
        # budget of 0 no window fits: the hint is m - 1 below it and K itself
        # from there
        monkeypatch.setattr(pathsim, "_LEAK_TOL", 0.0)
        flat = BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=np.ones(9), radius=4,
                           pot=sos(0.1))
        for K in range(12):
            message = _reference_leak_message(flat, 3, K, 0.0)
            assert message.endswith(f"use window >= {max(K, 8)}")
            with pytest.raises(NumericalError) as exc:
                wn_localized_exact(flat, 3, window=K)
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
        # both samplers check their key alike, and refuse a bool
        for sample in (lambda **key: sample_wn(chain2, 2, 10, **key),
                       lambda **key: sample_path(sos25, 10, **key)):
            with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
                sample(seed=-1)
            with pytest.raises(ConfigError, match="replicate must be .* got 1.5"):
                sample(seed=1, replicate=1.5)
            with pytest.raises(ConfigError, match="seed must be .* got True"):
                sample(seed=True)
            with pytest.raises(ConfigError, match="replicate must be .* got False"):
                sample(seed=1, replicate=False)

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
                           r"1000000000000 entries in the int64 result W "
                           r"\(7\.45e\+03 GiB\)"):
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


@pytest.fixture(scope="module")
def chain_log30():
    # heavy tails: 1.1% of the guide buckets of its laws are sentinels
    pot = log_potential(3.0)
    law, _ = periodic_solve(pot, 2, 5)
    return fuzzy_chain(law, fuzzy_Q(pot, 5)), increment_laws(pot, 5)


@pytest.fixture(scope="module")
def heights_flat():
    # a flat law on [-10, 10] under sos 0.5: W_7 is nonzero for 92% of walkers
    return BoundaryLaw(kind=SUPPORT_TRUNCATED, d=2, x=np.ones(21), radius=10, pot=sos(0.5))


# _GUIDE_BITS = 0 leaves one bucket per row, so every multi-slot row falls
# back to the search for every walker
GUIDE_BITS = (0, pathsim._GUIDE_BITS)


def _reference_states(cum_start, cum_rows, u):
    """The per-step np.searchsorted loop that sample_path replaced, as an oracle."""
    states = np.empty(len(u), dtype=np.int64)
    s = int(np.searchsorted(cum_start, u[0], side="right"))
    states[0] = s
    for k in range(1, len(u)):
        s = int(np.searchsorted(cum_rows[s], u[k], side="right"))
        states[k] = s
    return states


def _reference_stream(seed, replicate):
    """The samplers' PCG64DXSM stream keyed by (seed, replicate), read in order."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, replicate])))


def _reference_ggm_path(fc, laws, n, seed, replicate):
    """Classes from the searchsorted loop, then each step's increment from
    the one-uniform class step (`_reference_class_step`) at the uniform that
    drew its next class."""
    u = _reference_stream(seed, replicate).random(n + 1)
    classes = _reference_states(
        _cumulative_rows(fc.alpha), _cumulative_rows(fc.P), u)
    weights, firsts = _law_rows(laws)
    nxt, increments = _reference_class_step(fc.P, weights, firsts, classes[:-1], u[1:])
    np.testing.assert_array_equal(nxt, classes[1:])
    return increments, classes


class TestSamplePathReference:
    """sample_path draws the same states as the searchsorted loop it replaced,
    reading the PCG64DXSM stream in order, and the class increments of the
    one-uniform class step.  Class paths are checked with the guide and
    with the search alone (GUIDE_BITS); the height walk reads no
    `_CdfTable`."""

    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_gibbs_heights(self, sos20, seed, replicate):
        n = 5000
        P, alpha = _height_kernel(sos20)
        u = _reference_stream(seed, replicate).random(n + 1)
        states = _reference_states(_cumulative_rows(alpha), _cumulative_rows(P), u)
        assert len(np.unique(states)) > 1
        inc, heights = sample_path(sos20, n, seed=seed, replicate=replicate)
        np.testing.assert_array_equal(heights, sos20.indices[states])
        np.testing.assert_array_equal(inc, np.diff(heights))

    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_ggm_classes_and_increments(self, chain3, seed, replicate, monkeypatch):
        fc, laws = chain3
        n = 5000
        increments, classes = _reference_ggm_path(fc, laws, n, seed, replicate)
        assert len(np.unique(classes)) == 3
        for bits in GUIDE_BITS:
            monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
            inc, got = sample_path(chain3, n, seed=seed, replicate=replicate)
            np.testing.assert_array_equal(got, classes)
            np.testing.assert_array_equal(inc, increments)

    @pytest.mark.parametrize("chain", ["chain_free", "chain_log", "chain_log30"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_free_state_and_log_chain(self, request, chain, seed, replicate, monkeypatch):
        fc, laws = request.getfixturevalue(chain)
        n = 5000
        increments, classes = _reference_ggm_path(fc, laws, n, seed, replicate)
        for bits in GUIDE_BITS:
            monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
            inc, got = sample_path((fc, laws), n, seed=seed, replicate=replicate)
            assert got.dtype == classes.dtype and inc.dtype == increments.dtype
            np.testing.assert_array_equal(got, classes)
            np.testing.assert_array_equal(inc, increments)
            assert len(np.unique(inc)) > 1

    @pytest.mark.parametrize("bits", GUIDE_BITS)
    @pytest.mark.parametrize("source", ["sos25", "heights_flat", "chain2", "chain_log30"])
    def test_path_is_the_one_walker_of_sample_wn(self, request, source, bits, monkeypatch):
        # one stream and one step rule: a one-walker sample_wn reads the
        # positions the path reads and draws the same steps from them.  The
        # sos 2.5 heights rarely move, so W_n is mostly 0 on any stream; the
        # flat law moves at nearly every step
        src = request.getfixturevalue(source)
        monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
        for n in (1, 7, 100):
            for seed, replicate in ((1, 0), (7, 0), (11, 3), (20260814, 1), (3705, 2)):
                inc, _ = sample_path(src, n, seed=seed, replicate=replicate)
                w = sample_wn(src, n, 1, seed=seed, replicate=replicate)
                assert w[0] == inc.sum(), (n, seed, replicate)


def _reference_class_step(P, weights, firsts, classes, u):
    """One class step from one uniform each, as an oracle: per-class
    searchsorted for the next class b, the second uniform
    v = min((u - C) / P[a, b], 1 - 2^-53) (C the kernel's running sum
    before b), then per-residue searchsorted at v, for the point
    firsts[s] + q slot of law s = (b - a) mod q.  Returns (b, increment)."""
    q = len(P)
    cumP = _cumulative_rows(np.asarray(P, dtype=float))
    nxt = np.empty_like(classes)
    v = np.empty(len(u))
    for i in range(q):
        mask = classes == i
        if mask.any():
            b = np.searchsorted(cumP[i], u[mask], side="right")
            before = np.concatenate([[0.0], cumP[i][:-1]])[b]
            with np.errstate(divide="ignore", invalid="ignore"):
                v[mask] = np.fmin((u[mask] - before) / P[i][b], 1.0 - 2.0**-53)
            nxt[mask] = b
    residues = (nxt - classes) % q
    increments = np.zeros(len(u), dtype=np.int64)
    for s in range(q):
        mask = residues == s
        if mask.any():
            slot = np.searchsorted(_cumulative_rows(weights[s]), v[mask], side="right")
            increments[mask] = firsts[s] + q * slot
    return nxt, increments


def _reference_wn(source, n, replicates, seed, replicate=0):
    """sample_wn by per-state searchsorted loops, as an oracle, on its own
    sequential PCG64DXSM stream: call 0 draws the start and call k the
    step k, each reading positions [kN, (k+1)N) of that stream.  The height
    branch is the two-branch sampler that one Markov-additive walk
    replaced; the class branch draws the next class and its increment from
    one uniform (`_reference_class_step`)."""
    rng = _reference_stream(seed, replicate)
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
    weights, firsts = _law_rows(laws)
    classes = np.searchsorted(_cumulative_rows(fc.alpha), rng.random(N), side="right")
    W = np.zeros(N, dtype=np.int64)
    for _ in range(n):
        classes, increments = _reference_class_step(
            fc.P, weights, firsts, classes, rng.random(N))
        W += increments
    return W


class TestSampleWnReference:
    """sample_wn draws the same W_n, bit for bit, as the searchsorted oracle."""

    @pytest.mark.parametrize("source", [
        "sos20", "sos25", "chain_free", "chain2", "chain3", "chain_log", "chain_log30"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (11, 3), (20260814, 1)])
    def test_matches_two_branch_sampler(self, request, source, seed, replicate, monkeypatch):
        src = request.getfixturevalue(source)
        for n, N in ((1, 7), (6, 3000), (17, 20000)):
            want = _reference_wn(src, n, N, seed, replicate)
            for bits in GUIDE_BITS:
                monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
                got = sample_wn(src, n, N, seed=seed, replicate=replicate)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, N, bits)
        assert len(np.unique(want)) > 1

    @pytest.mark.parametrize("source", ["sos20", "chain2", "chain_log"])
    @pytest.mark.parametrize("seed,replicate", [(7, 0), (20260814, 1)])
    def test_any_thread_count(self, request, monkeypatch, source, seed, replicate):
        # 2 _BLOCK + 17 walkers make three blocks, the last one short; then
        # 13 walkers in blocks of every size 1..13, so that blocks start at
        # every offset lo and skip every distance between two calls (30
        # steps, so that the class chains' 13 walkers end apart)
        src = request.getfixturevalue(source)
        N, n = 2 * _BLOCK + 17, 3
        want = _reference_wn(src, n, N, seed, replicate)
        assert len(np.unique(want)) > 1
        layouts = [(N, n, _BLOCK, want)] + [
            (13, 30, block, _reference_wn(src, 30, 13, seed, replicate))
            for block in range(1, 14)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent thread switches between the blocks
        try:
            for N, n, block, want in layouts:
                monkeypatch.setattr(pathsim, "_BLOCK", block)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(pathsim, "_MAX_THREADS", workers)
                    monkeypatch.setattr(pathsim, "_cpus", lambda w=workers: w)
                    got = sample_wn(src, n, N, seed=seed, replicate=replicate)
                    assert np.array_equal(got, want), (N, block, workers)
        finally:
            sys.setswitchinterval(interval)

    def test_slice_error_reaches_the_caller(self, monkeypatch, chain2):
        # the class walk draws each step from its _StepTable
        draw = _StepTable.draw

        def fail(self, keys, u, out, scratch):
            if len(u) < _BLOCK:  # only the last, short block fails
                raise MemoryError("block")
            return draw(self, keys, u, out, scratch)
        monkeypatch.setattr(_StepTable, "draw", fail)
        for workers in (1, 2, 3):
            monkeypatch.setattr(pathsim, "_MAX_THREADS", workers)
            monkeypatch.setattr(pathsim, "_cpus", lambda w=workers: w)
            with pytest.raises(MemoryError, match="block"):
                sample_wn(chain2, 2, 2 * _BLOCK + 17, seed=1)

    def test_thread_count(self, monkeypatch, chain2):
        # the pool holds one thread per CPU the process may use, at most
        # _MAX_THREADS
        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(pathsim.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert pathsim._cpus() == 1
        sample_wn(chain2, 2, 100, seed=1)
        monkeypatch.setattr(pathsim.os, "sched_getaffinity", lambda pid: set(range(64)))
        sample_wn(chain2, 2, 100, seed=1)
        assert sizes == [1, pathsim._MAX_THREADS]


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

        slots = plain.draw(keys, u, np.empty(walkers, dtype=np.int64), _Scratch(walkers))
        values = table.draw(keys, u, np.empty(walkers, dtype=np.int64), _Scratch(walkers))
        want = np.empty(walkers, dtype=np.int64)
        for s, cum in enumerate(cums):
            mask = keys == s
            want[mask] = np.searchsorted(cum, u[mask], side="right")
            np.testing.assert_array_equal(slots[mask], want[mask])
            np.testing.assert_array_equal(values[mask], support[s][want[mask]])

    @staticmethod
    def _check_draws(rows, first, stride, keys, u):
        """draw on (keys, u) against searchsorted on each key row."""
        table = _CdfTable(rows, first, stride)
        got = table.draw(keys, u, np.empty(len(u), dtype=np.int64), _Scratch(len(u)))
        for s, row in enumerate(rows):
            mask = keys == s
            slot = np.searchsorted(_cumulative_rows(row), u[mask], side="right")
            want = slot if first is None else first[s] + stride * slot
            np.testing.assert_array_equal(got[mask], want, err_msg=f"row {s}")
        return table

    @staticmethod
    def _edges(rows):
        """Every bucket's two ends, each running sum and its neighbours, and 0."""
        buckets = 1 << pathsim._GUIDE_BITS
        lo = np.arange(buckets) / buckets
        sums = np.concatenate([_cumulative_rows(r) for r in rows])
        sums = sums[sums < 1.0]
        u = np.concatenate([lo, np.nextafter(lo + 1.0 / buckets, 0.0), sums,
                            np.nextafter(sums, 0.0), np.nextafter(sums, 1.0), [0.0]])
        return np.unique(u[(u >= 0.0) & (u < 1.0)])

    @pytest.mark.parametrize("first,stride", [(None, 1), (np.array([-7, 100, 0, 5, -1000]), 3)])
    def test_guide_edges(self, first, stride):
        h = 2.0 ** -pathsim._GUIDE_BITS
        rows = [
            np.full(4, 0.25),  # running sums on bucket edges
            np.array([3.0, 0.0, 0.0, 5.0, 1.0 / h - 24.0, 0.0, 16.0]) * h,  # and flat runs
            np.array([0.3, 0.0, 0.0, 0.5, 0.4, 0.1]),  # passes 1.0 before the last slot
            np.ones(1),
            np.array([0.1, h / 4, h / 4, h / 4, 0.6]),  # three sums inside one bucket
        ]
        u = self._edges(rows)
        keys = np.repeat(np.arange(len(rows)), len(u))
        table = self._check_draws(rows, first, stride, keys, np.tile(u, len(rows)))
        straddled = (table.guide == pathsim._SENTINEL).any(axis=1)
        np.testing.assert_array_equal(straddled, [False, False, True, False, True])

    @pytest.mark.parametrize("first,stride", [(None, 1), (np.array([40]), 7)])
    def test_more_steps_than_buckets_fall_back_whole(self, first, stride):
        # every bucket holds running sums, so a whole block goes to the search
        rows = [np.full(4 << pathsim._GUIDE_BITS, 1.0 / (4 << pathsim._GUIDE_BITS))]
        u = np.concatenate([self._edges(rows), np.random.default_rng(3).random(_BLOCK)])[:_BLOCK]
        table = self._check_draws(rows, first, stride, np.zeros(_BLOCK, dtype=np.int64), u)
        assert np.all(table.guide == pathsim._SENTINEL)

    @pytest.mark.parametrize("first,stride", [(None, 1), (np.array([-3, 8, 0]), 2)])
    def test_table_without_sentinel(self, first, stride):
        h = 2.0 ** -pathsim._GUIDE_BITS
        rows = [np.full(4, 0.25), np.array([3.0, 0.0, 1.0 / h - 3.0]) * h, np.ones(1)]
        edges = self._edges(rows)
        u = np.random.default_rng(5).random(_BLOCK)
        u[:len(edges)] = edges
        keys = np.arange(_BLOCK) % len(rows)
        table = self._check_draws(rows, first, stride, keys, u)
        assert not np.any(table.guide == pathsim._SENTINEL)

    @pytest.mark.parametrize("source", ["sos25", "chain2", "chain_log30"])
    def test_guide_entries_hold_across_their_bucket(self, request, source):
        # a guide entry is the search's answer at both ends of its bucket,
        # and searchsorted's; the sentinel marks exactly the buckets where
        # the two ends differ
        src = request.getfixturevalue(source)
        if isinstance(src, BoundaryLaw):
            rows, first, stride = _height_kernel(src)[0], None, 1
        else:
            fc, laws = src
            rows = [law.weights for law in laws]
            first, stride = np.array([law.first for law in laws]), fc.q
        table = _CdfTable(rows, first, stride)
        guide = table.guide
        buckets = guide.shape[1]
        lo = np.arange(buckets) / buckets
        for s, row in enumerate(rows):
            ends = []
            for u in (lo, np.nextafter(lo + 1.0 / buckets, 0.0)):
                keys = np.full(buckets, s)
                at = table._search(keys, u, keys, _Scratch(buckets))
                slot = np.searchsorted(_cumulative_rows(row), u, side="right")
                np.testing.assert_array_equal(at, slot if first is None else first[s] + stride * slot)
                ends.append(at)
            same = ends[0] == ends[1]
            np.testing.assert_array_equal(guide[s][same], ends[0][same])
            assert np.all(guide[s][~same] == pathsim._SENTINEL)
            assert same.any()

    def test_width_is_the_next_power_of_two(self):
        for m, width in ((1, 1), (2, 2), (3, 4), (64, 64), (65, 128)):
            table = _CdfTable([np.full(m, 1.0 / m), np.ones(1)])
            assert table.cum.shape == (2, width)
            assert np.all(table.cum[:, -1] == 1.0)


def _law_rows(laws):
    return [law.weights for law in laws], [law.first for law in laws]


def _step_table(P, weights, firsts):
    """The _StepTable that sample_wn builds for kernel P and these laws."""
    return _StepTable(P, _CdfTable(weights, firsts, len(P), guide=False))


def _held_bytes(table):
    """Bytes of the arrays a table holds, its sub-tables' included."""
    total = 0
    for name in table.__slots__ + _Guided.__slots__:
        value = getattr(table, name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, _Guided):
            total += _held_bytes(value)
    return total


class TestStepTable:
    """The one-uniform class step (`_StepTable`) against
    `_reference_class_step`, on a kernel built for the rule's edges."""

    P = np.array([
        # a running sum that rounds up: fl(3 2^-54 + 0.75) = 0.75 + 2^-52,
        # so at u = 0.75 + 2^-53 the second uniform rounds to 1.0
        [3 * 2.0**-54, 0.75, 0.125, 0.125 - 3 * 2.0**-54],
        # sums to 1 - 2^-40: the forced 1.0 draws the last class above it
        [0.5, 0.125, 0.125, 0.25 - 2.0**-40],
        # zeros inside and at the end, summing to 1.0
        [0.5, 0.0, 0.5, 0.0],
        # zeros, summing to 1 - 2^-40: the forced 1.0 draws the zero at the end
        [0.25, 0.0, 0.75 - 2.0**-40, 0.0],
    ])
    WEIGHTS = [np.ones(1), np.full(5, 0.2), np.array([0.5, 0.25, 0.25 - 2.0**-30]),
               np.array([0.1, 0.0, 0.6, 0.3])]
    FIRSTS = [-8, -3, 6, -1]  # first = residue mod 4

    def _edges(self):
        """Every bucket's two ends, each kernel running sum and its
        neighbours, the tops of [0, 1), and random u."""
        buckets = 1 << pathsim._GUIDE_BITS
        lo = np.arange(buckets) / buckets
        sums = _cumulative_rows(self.P).ravel()
        u = np.concatenate([lo, np.nextafter(lo + 1.0 / buckets, 0.0), sums,
                            np.nextafter(sums, 0.0), np.nextafter(sums, 1.0),
                            [0.0, 1.0 - 2.0**-41, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(8).random(3000)])
        return np.unique(u[(u >= 0.0) & (u < 1.0)])

    def _draw(self, a, u):
        """(next class, increment) of the table's draw from class a at u."""
        table = _step_table(self.P, self.WEIGHTS, self.FIRSTS)
        keys = np.full(len(u), a)
        code = table.draw(keys, u, np.empty(len(u), dtype=np.int64), _Scratch(len(u)))
        return code & ((1 << table.bits) - 1), code >> table.bits

    @pytest.mark.parametrize("bits", GUIDE_BITS)
    def test_matches_reference_on_the_edges(self, monkeypatch, bits):
        monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
        u = self._edges()
        for a in range(len(self.P)):
            b, k = self._draw(a, u)
            want_b, want_k = _reference_class_step(
                self.P, self.WEIGHTS, self.FIRSTS, np.full(len(u), a), u)
            np.testing.assert_array_equal(b, want_b, err_msg=f"class {a}")
            np.testing.assert_array_equal(k, want_k, err_msg=f"class {a}")

    def test_second_uniform_clipped_below_a_running_sum(self):
        C, p = self.P[0, 0], self.P[0, 1]
        u = np.array([0.75 + 2.0**-53])
        assert u[0] == np.nextafter(_cumulative_rows(self.P[0])[1], 0.0)
        assert (u[0] - C) / p >= 1.0  # unclipped, v would leave [0, 1)
        b, k = self._draw(0, u)
        # class 1, residue 1: the last of the law's five points, where
        # searchsorted at v = 1.0 would return a sixth slot
        assert np.searchsorted(_cumulative_rows(self.WEIGHTS[1]), 1.0, side="right") == 5
        assert b.tolist() == [1] and k.tolist() == [-3 + 4 * 4]

    def test_forced_last_class(self):
        row = self.P[1]
        total = math.fsum(row.tolist())
        assert np.cumsum(row)[-1] == total == 1.0 - 2.0**-40
        u = np.array([total, 1.0 - 2.0**-41, np.nextafter(1.0, 0.0)])
        assert np.all((u - 0.75) / row[3] >= 1.0)  # unclipped, v would leave [0, 1)
        b, k = self._draw(1, u)
        # class 3, residue 2: the law's last point, 6 + 4 * 2
        assert b.tolist() == [3, 3, 3] and k.tolist() == [14, 14, 14]
        # just below fl(sum P) the second uniform stays below 1 unclipped
        assert (np.nextafter(total, 0.0) - 0.75) / row[3] < 1.0

    @pytest.mark.parametrize("bits", GUIDE_BITS)
    def test_zero_weights_are_not_drawn(self, monkeypatch, bits):
        monkeypatch.setattr(pathsim, "_GUIDE_BITS", bits)
        u = self._edges()
        b, _ = self._draw(2, u)
        assert set(b.tolist()) == {0, 2}
        b, k = self._draw(3, u)
        assert set(b.tolist()) == {0, 2, 3}
        # the zero last class only where the forced 1.0 leaves it the mass
        # the kernel's rounding lost; its 0/0 or inf is clipped like any v
        np.testing.assert_array_equal(b == 3, u >= 1.0 - 2.0**-40)
        assert np.all(k[b == 3] == -8)

    @pytest.mark.parametrize("source", ["chain2", "chain_log30"])
    def test_joint_guide_entries_hold_across_their_bucket(self, request, source):
        # a joint guide entry is the rule's code (k << bits) | b at both ends
        # of its bucket; the sentinel marks exactly the buckets where the
        # two ends differ
        fc, laws = request.getfixturevalue(source)
        weights, firsts = _law_rows(laws)
        table = _step_table(fc.P, weights, firsts)
        assert table.bits == max(1, (fc.q - 1).bit_length())
        buckets = table.guide.shape[1]
        lo = np.arange(buckets) / buckets
        for a in range(fc.q):
            keys = np.full(buckets, a)
            ends = []
            for u in (lo, np.nextafter(lo + 1.0 / buckets, 0.0)):
                b, k = _reference_class_step(fc.P, weights, firsts, keys, u)
                want = (k << table.bits) | b
                got = table._search(keys, u, np.empty(buckets, dtype=np.int64),
                                    _Scratch(buckets))
                np.testing.assert_array_equal(got, want)
                ends.append(want)
            same = ends[0] == ends[1]
            np.testing.assert_array_equal(table.guide[a][same], ends[0][same])
            assert np.all(table.guide[a][~same] == pathsim._SENTINEL)
            assert same.any()

    def test_class_block_allocates_only_its_index_list(self, monkeypatch, chain2):
        # at one bucket per row every walker goes to the two-level rule,
        # which works in the scratch buffers: the fallback index list of
        # np.flatnonzero, 8 bytes a walker, is the one block-sized array.
        # The rest of the peak is the same at a 4x larger block: numpy's
        # casting buffer of the search's bool x int step (8192 entries)
        monkeypatch.setattr(pathsim, "_GUIDE_BITS", 0)
        fc, laws = chain2
        table = _step_table(fc.P, *_law_rows(laws))
        assert np.all(table.guide == pathsim._SENTINEL)
        rng = np.random.default_rng(4)
        beyond = []
        for size in (_BLOCK, 4 * _BLOCK):
            keys, u = rng.integers(0, fc.q, size), rng.random(size)
            out, scratch = np.empty(size, dtype=np.int64), _Scratch(size)
            table.draw(keys, u, out, scratch)
            tracemalloc.start()
            try:
                table.draw(keys, u, out, scratch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            beyond.append(peak - 8 * size)
        assert 0 <= beyond[0] < 96 * 1024
        assert abs(beyond[1] - beyond[0]) < 4096, beyond

    def test_tables_take_no_more_than_two_guided_tables(self, monkeypatch, chain_log30):
        # the class walk holds the kernel and law running sums and one joint
        # guide, where two guided tables held one guide each
        fc, laws = chain_log30
        built = []

        class Recorded(_StepTable):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)
        monkeypatch.setattr(pathsim, "_StepTable", Recorded)
        sample_wn((fc, laws), 1, 10, seed=1)
        (table,) = built
        assert table.kernel.guide is None and table.laws.guide is None
        weights, firsts = _law_rows(laws)
        guided = _held_bytes(_CdfTable(fc.P)) + _held_bytes(_CdfTable(weights, firsts, fc.q))
        assert _held_bytes(table) <= guided


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
    def _check(chain, n, window=None):
        fc, laws = chain
        dist = wn_ggm_exact(fc, laws, n, window=window)
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
    def test_log_both_sides_of_the_fft_switch(self, chain_log, window, n, monkeypatch):
        monkeypatch.setattr(pathsim, "_LEAK_TOL", 1.0)
        self._check(chain_log, n, window=window)

    def test_bench_wide_case(self, chain_log):
        dist = self._check(chain_log, 32)
        assert dist.roundoff_bound <= 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_weights_are_trimmed(self, n):
        # zero weights at the ends of a law change neither the kernel radius
        # nor G, so the law and its bound keep their bits; one inside stays.
        # Q(+-2) = e^-3000 flushes to 0 inside the support, and the exp tail
        # of rate 100 flushes Q to 0 from |j| = 8 on
        fc, _ = _sos_chain(3)
        pot = custom(3.0, [[1, 1.0], [2, 1000.0], [3, 3.0], [4, 4.0], [5, 5.0]],
                     TailModel("exp", 100.0))
        assert pot.Q(2) == 0.0 < pot.Q(7) and pot.Q(8) == 0.0
        inner, padded = increment_laws(pot, 3, radius=7), increment_laws(pot, 3, radius=13)
        assert all(law.weights[-1] == law.weights[0] == 0.0 for law in padded)
        assert all(0.0 in law.weights[1:-1] for law in inner[1:])
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
        # refused before the class counts of q-tilde = 2^40 are allocated
        with pytest.raises(NumericalError, match="^q=1099511627776 exceeds the cap"):
            recover_period(path, [2, 1 << 40], 2, sos(2.0))

"""Tests for the W_n path laws, sampling, and period recovery.

Reference values were frozen from independent evaluations: an iterative
joint-law evolution for the localized chain (the module uses binary matrix
powers), a sparse augmented-space transition for the class DP (the module
uses slice convolutions), plain convolution powers for the free state, and
the closed sech algebra for the two-class chain.
"""

import io
import math

import numpy as np
import pytest
from scipy import stats

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
    PathDistribution,
    _cumulative_rows,
    _height_kernel,
    _stream,
    default_window,
    recover_period,
    sample_path,
    sample_wn,
    wn_ggm_exact,
    wn_localized_exact,
    write_samples_csv,
    write_wn_csv,
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


class TestCsvOutput:
    def test_wn_roundtrip(self, chain2):
        fc, laws = chain2
        dists = [wn_ggm_exact(fc, laws, n) for n in (1, 2)]
        buf = io.StringIO()
        write_wn_csv(dists, buf, meta={"model": "sos", "beta": 2.0})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# beta=2.0"
        assert lines[1] == "# model=sos"
        assert lines[2] == "n,k,prob,leaked_mass"
        rows = [ln.split(",") for ln in lines[3:]]
        assert len(rows) == sum(2 * d.window + 1 for d in dists)
        first = rows[0]
        assert first[0] == "1"
        assert int(first[1]) == -dists[0].window
        assert float(first[2]) == dists[0].law[0]
        assert float(first[3]) == dists[0].leaked_mass

    def test_single_distribution_accepted(self, sos25):
        dist = wn_localized_exact(sos25, 1)
        buf = io.StringIO()
        write_wn_csv(dist, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,k,prob,leaked_mass"
        assert len(lines) == 1 + 2 * dist.window + 1

    def test_samples_roundtrip(self, chain2):
        inc, classes = sample_path(chain2, 10, seed=2)
        buf = io.StringIO()
        write_samples_csv(inc, classes, buf, meta={"seed": 2})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# seed=2"
        assert lines[1] == "step,increment,fuzzy_class"
        assert len(lines) == 12
        step, j, c = lines[2].split(",")
        assert step == "1"
        assert int(j) == inc[0]
        assert int(c) == classes[1]

    def test_samples_length_mismatch(self):
        with pytest.raises(ConfigError, match="one longer"):
            write_samples_csv([1, 2], [0, 1], io.StringIO())

"""Tests for the fuzzy chain, class-conditional increment laws, and exact
edge/star marginals of the two-layer construction.

The q=2 references are exact algebra: with s = sech(beta) the two-class
chain has P = [[1/(1+s*lam), s*lam/(1+s*lam)], [s/(s+lam), lam/(s+lam)]]
and alpha proportional to (1, lam^{3/2}) for d=2.
"""

import dataclasses
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import ggm as ggm_mod
from treegibbs.boundary_law import (
    MODE_AUTO,
    SUPPORT_PERIODIC,
    BoundaryLaw,
    SolveConfig,
    periodic_solve,
    single_site_marginal,
)
from treegibbs.errors import ConfigError, NotSummableError, NumericalError
from treegibbs.ggm import (
    FuzzyChain,
    fuzzy_chain,
    ggm_edge_marginal,
    increment_law,
    increment_laws,
    star_marginal,
)
from treegibbs.potentials import TailModel, custom, fuzzy_Q, log_potential, sos

Q2_S_B25 = 0.16307123192997783
Q2_LAM_B25 = 0.041153547508175042
Q2_LAM_B20 = 0.18361737639648509
# edge marginal nu(1), SOS beta=2 d=2 q=2 (the W_n reference in test_pathsim)
Q2_NU1_EXACT = 0.042350257597783661


@pytest.fixture(scope="module")
def chain25():
    pot = sos(2.5)
    law, _ = periodic_solve(pot, 2, 2)
    return fuzzy_chain(law, fuzzy_Q(pot, 2))


@pytest.fixture(scope="module")
def chain20():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 2)
    return fuzzy_chain(law, fuzzy_Q(pot, 2))


class TestFuzzyChain:
    def test_two_class_exact_algebra(self, chain25):
        s, lam = Q2_S_B25, Q2_LAM_B25
        expected = np.array(
            [
                [1.0 / (1.0 + s * lam), s * lam / (1.0 + s * lam)],
                [s / (s + lam), lam / (s + lam)],
            ]
        )
        assert np.allclose(chain25.P, expected, rtol=1e-9, atol=0)
        w = lam ** 1.5
        assert chain25.alpha[1] == pytest.approx(w / (1.0 + w), rel=1e-9)

    def test_invariants(self, chain20):
        assert np.allclose(chain20.P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.max(np.abs(chain20.alpha @ chain20.P - chain20.alpha)) < 1e-12
        flux = chain20.alpha[:, None] * chain20.P
        assert np.max(np.abs(flux - flux.T)) < 1e-12

    def test_q1_trivial(self):
        law, _ = periodic_solve(sos(2.0), 2, 1)
        fc = fuzzy_chain(law, fuzzy_Q(sos(2.0), 1))
        assert fc.P.tolist() == [[1.0]]
        assert fc.alpha.tolist() == [1.0]

    def test_free_state_collapses(self):
        # constant lam: P rows become the normalized class operator, alpha uniform
        pot = sos(2.0)
        qq = fuzzy_Q(pot, 3)
        bl = BoundaryLaw(kind=SUPPORT_PERIODIC, d=2, x=np.ones(3), q=3, free_state=True)
        fc = fuzzy_chain(bl, qq)
        row = np.asarray(qq.values, dtype=float)
        row = row / row.sum()
        assert np.allclose(fc.P[0], row, rtol=1e-14, atol=0)
        assert np.allclose(fc.alpha, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_rejects_non_solution(self):
        bl = BoundaryLaw(
            kind=SUPPORT_PERIODIC, d=2, x=np.array([1.0, 0.9, 0.1]), q=3
        )
        with pytest.raises(NumericalError, match="stationarity"):
            fuzzy_chain(bl, fuzzy_Q(sos(2.0), 3))

    def test_q_mismatch(self):
        law, _ = periodic_solve(sos(2.0), 2, 2)
        with pytest.raises(ConfigError, match="q="):
            fuzzy_chain(law, fuzzy_Q(sos(2.0), 3))

    def test_huge_q_refused_before_allocating(self):
        q = 5000
        bl = BoundaryLaw(kind=SUPPORT_PERIODIC, d=2, x=np.ones(q), q=q, free_state=True)
        with pytest.raises(NumericalError, match="5000x5000"):
            fuzzy_chain(bl, fuzzy_Q(sos(2.0), q))

    def test_row_mass_underflow_refused(self):
        # at beta 800 the classes 1 and 2 have lam = 0 and Q_q = 0: rows 1
        # and 2 of the chain would be 0/0
        pot = sos(800.0)
        law, _ = periodic_solve(pot, 2, 3)
        with pytest.raises(NumericalError, match="row 1 of the chain has mass 0"):
            fuzzy_chain(law, fuzzy_Q(pot, 3))

    def test_needs_periodic_law(self):
        from treegibbs.boundary_law import solve_fixed_point

        law, _ = solve_fixed_point(sos(2.5), 2)
        with pytest.raises(ConfigError, match="periodic"):
            fuzzy_chain(law, fuzzy_Q(sos(2.5), 2))


class TestIncrementLaw:
    def test_free_state_single_edge(self):
        # q=1: rho = Q / l1 norm; for SOS the mass at 0 is tanh(beta/2)
        law = increment_law(sos(2.0), 1, 0)
        center = np.nonzero(law.support == 0)[0][0]
        assert law.weights[center] == pytest.approx(math.tanh(1.0), rel=1e-12)
        assert law.weights[center + 1] == pytest.approx(
            math.exp(-2.0) * math.tanh(1.0), rel=1e-12
        )
        assert law.tail_mass_bound <= 1e-10

    def test_two_class_odd_part(self):
        # Q_2(1bar) = 1/sinh(beta), so rho(+-1) = exp(-beta)*sinh(beta)
        law = increment_law(sos(2.0), 2, 1)
        assert set(np.abs(law.support) % 2) == {1}
        w1 = math.exp(-2.0) * math.sinh(2.0)
        w3 = math.exp(-6.0) * math.sinh(2.0)
        i1 = np.nonzero(law.support == 1)[0][0]
        im1 = np.nonzero(law.support == -1)[0][0]
        i3 = np.nonzero(law.support == 3)[0][0]
        assert law.weights[i1] == pytest.approx(w1, rel=1e-12)
        assert law.weights[im1] == pytest.approx(w1, rel=1e-12)
        assert law.weights[i3] == pytest.approx(w3, rel=1e-12)

    def test_normalization_bracket(self):
        for s in (0, 1, 2):
            law = increment_law(log_potential(3.0), 3, s)
            total = math.fsum(law.weights.tolist())
            assert total <= 1.0 + 1e-12
            assert total + law.tail_mass_bound >= 1.0 - 1e-12
            assert np.all(law.weights >= 0)
            assert np.all(law.support % 3 == s)

    def test_explicit_radius(self):
        law = increment_law(sos(2.0), 2, 1, radius=5)
        assert law.radius == 5
        assert law.support.tolist() == [-5, -3, -1, 1, 3, 5]

    def test_radius_inside_custom_table(self):
        # the certified tail covers the table entries beyond the radius
        pot = custom(3.0, [[1, 1.0], [2, 1.5], [3, 1.8]], TailModel("power", 2.0))
        law = increment_law(pot, 1, 0, radius=1)
        assert law.support.tolist() == [-1, 0, 1]
        missing = 1.0 - math.fsum(law.weights.tolist())
        assert missing - 1e-12 <= law.tail_mass_bound <= 1.1 * missing

    def test_default_radius_inside_custom_table(self):
        # U(j) = j tabulated on 1..40 is sos(3) there; the search starts at
        # max(1, residue), not at the table end
        pot = custom(3.0, [[j, float(j)] for j in range(1, 41)], TailModel("exp", 1.0))
        radii = [law.radius for law in increment_laws(pot, 3)]
        assert radii == [law.radius for law in increment_laws(sos(3.0), 3)] == [6, 8, 8]

    @pytest.mark.parametrize("pot", [
        sos(2.0), log_potential(3.0),
        custom(3.0, [[j, float(j)] for j in range(1, 41)], TailModel("exp", 1.0)),
        custom(3.0, [[1, 1.0], [2, 1.5], [3, 1.8]], TailModel("power", 2.0)),
    ], ids=["sos", "log", "custom-exp", "custom-power"])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 9])
    def test_default_radius_is_the_least_with_a_small_class_tail(self, pot, q):
        # one rule: the default radius is the least one whose certified class
        # tail is within 1e-10, and tail_mass_bound is that same tail
        for s, law in enumerate(increment_laws(pot, q)):
            assert law.tail_mass_bound == law.tail(law.radius) <= 1e-10
            # every smaller radius leaves out the class point at |j| = radius,
            # as radius - 1 does, so its tail must miss the bound
            if law.radius > max(1, min(s, q - s)):
                assert law.tail(law.radius - 1) > 1e-10

    def test_radius_too_small_for_residue(self):
        # the point of class 3 mod 5 nearest 0 is -2
        with pytest.raises(ConfigError, match="radius 1 cannot hold residue 3"):
            increment_law(sos(2.0), 5, 3, radius=1)
        with pytest.raises(ConfigError, match="radius 1 cannot hold residue 2"):
            increment_law(sos(2.0), 4, 2, radius=1)

    def test_radius_holds_the_negative_representative(self):
        # -2 = 3 (mod 5) lies inside radius 2
        law = increment_law(sos(2.0), 5, 3, radius=2)
        assert law.support.tolist() == [-2]
        assert law.radius == 2
        assert law.weights[0] == pytest.approx(
            math.exp(-4.0) / fuzzy_Q(sos(2.0), 5).at(3), rel=1e-12)
        assert increment_law(sos(2.0), 5, 4, radius=1).support.tolist() == [-1]

    def test_default_search_starts_at_the_nearest_point(self):
        # class 15 mod 20 of sos(3) holds -5 and 15; Q(15)/Q(5) = e^-30, so
        # a radius below 15 already certifies the tail, and the search,
        # which starts at min(s, q - s) = 5, stops before it reaches 15
        law = increment_law(sos(3.0), 20, 15)
        assert law.support.tolist() == [-5]
        # past the support radius the law's tail is the mass it leaves out
        assert law.tail(5) == law.tail(14) == law.tail(10**6) == law.tail_mass_bound <= 1e-10
        assert law.tail(4) > law.tail(5)
        assert increment_law(sos(3.0), 20, 15, radius=15).support.tolist() == [-5, 15]

    def test_underflowing_class_mass_refused(self):
        with pytest.raises(NumericalError, match=r"Q_q\(1\) underflows to 0 at q=3: residue 1 "):
            increment_law(sos(800.0), 3, 1)
        assert increment_law(sos(800.0), 3, 0).support.tolist() == [0]

    @pytest.mark.parametrize("pot,q,residue,radius", [
        (sos(400.0), 3, 1, None), (sos(400.0), 3, 2, None),
        (log_potential(400.0), 3, 1, 5), (sos(100.0), 7, 3, 5),
    ], ids=["sos400-1", "sos400-2", "log400-1-R5", "sos100-3-R5"])
    def test_flushed_tail_is_bounded_relative_to_the_class(self, pot, q, residue, radius):
        # the absolute tail of the class is below the normal range (e^-800
        # for sos 400), which once gave a bound of 5e-324: the relative tail
        # is e^-400 ~ 1.9e-174 there.  Reference: the class members' sum of
        # Q(j) over |j| > R, over the class mass, in log space to 50 digits.
        # Class 3 mod 7 holds 3, -4 and then 10: past the support radius 4
        # of R5 its sos 100 tail is e^-700, still a normal float
        law = increment_law(pot, q, residue, radius)
        R = law.radius
        with mpmath.workdps(50):
            beta = mpmath.mpf(pot.beta)
            logQ = ((lambda j: -beta * abs(j)) if pot.kind == "sos"
                    else (lambda j: -beta * mpmath.log1p(abs(j))))

            def log_sum(js):
                top = max(logQ(j) for j in js)
                return top + mpmath.log(mpmath.fsum(mpmath.exp(logQ(j) - top) for j in js))

            members = [j for j in range(-R - 4000, R + 4000) if j % q == residue]
            far = [j for j in members if abs(j) > R]
            ref = mpmath.exp(log_sum(far) - log_sum(members))
        assert ref <= law.tail_mass_bound <= 1.05 * ref

    def test_tail_below_the_normal_range_relative_to_the_class_too(self):
        # the zero class of sos 400 leaves e^-800 of its mass of about 1 out:
        # no float carries that relative size, and the bound says so
        law = increment_law(sos(400.0), 3, 0)
        assert law.tail_mass_bound == 2.0**-1022

    @pytest.mark.parametrize("beta,q", [(40.0, 3), (12.0, 8), (3.0, 256)])
    def test_every_class_certifies_a_positive_tail(self, beta, q):
        # classes far below the zero class keep their own relative error:
        # one absolute error for all classes left 2, 3 and 233 of these
        # class masses certified <= 0 and their tail bounds at 0
        assert all(law.tail_mass_bound > 0.0 for law in increment_laws(sos(beta), q))

    @pytest.mark.filterwarnings("error")
    def test_log_classes_past_the_overflow_of_q_to_the_beta(self):
        # 3^1000 overflows; the zero class still holds Q(0) = 1, and each
        # class is carried by its point nearest 0
        laws = increment_laws(log_potential(1000.0), 3)
        assert [law.first for law in laws] == [0, 1, -1]
        for law in laws:
            assert law.weights.tolist() == pytest.approx([1.0], rel=1e-12)

    def test_not_summable(self):
        with pytest.raises(NotSummableError):
            increment_law(log_potential(0.9), 2, 0)

    @pytest.mark.parametrize("pot", [sos(2.0), log_potential(3.0)], ids=["sos", "log"])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_support_is_the_old_concatenation(self, pot, q):
        # the support array built before the progression became the type
        qq = fuzzy_Q(pot, q)
        for radius in (None, q // 2 + 1, q, 3 * q + 1, 40):
            for s in range(q):
                law = increment_law(pot, q, s, radius=radius)
                R = law.radius
                first = s if s else q
                pos = np.arange(first, R + 1, q)
                neg = -np.arange(q - s, R + 1, q)
                old = np.concatenate([neg[::-1], [0] if s == 0 else [], pos]).astype(int)
                assert law.support.dtype == old.dtype
                assert np.array_equal(law.support, old)
                assert np.array_equal(law.weights, pot.Q(old) / qq.at(s))
                if radius is not None:
                    assert R == max(radius - (radius - s) % q,
                                    radius - (radius + s) % q)

    def test_law_is_a_formula(self):
        # no field holds an array, so building the laws of the log 2.6 q=5
        # edge (radii near 3.2M, 4.5M support points) allocates almost nothing
        law = increment_law(sos(2.0), 5, 3)
        assert not any(isinstance(getattr(law, f.name), np.ndarray)
                       for f in dataclasses.fields(law))
        tracemalloc.start()
        try:
            laws = increment_laws(log_potential(2.6), 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(law.radius for law in laws) > 3_000_000
        assert peak < 1 << 20

    def test_clip_reads_the_window_by_stride(self):
        law = increment_law(sos(2.0), 5, 3, radius=20)  # -17, -12, ..., 18
        for radius in range(0, 25):
            j0, w = law.clip(radius)
            inside = np.abs(law.support) <= radius
            assert np.array_equal(w, law.weights[inside])
            if w.size:
                assert j0 == law.support[inside][0]

    def test_all_classes_helper(self):
        laws = increment_laws(sos(2.0), 2)
        assert [l.residue for l in laws] == [0, 1]
        assert all(l.q == 2 for l in laws)

    @pytest.mark.parametrize("pot", [sos(2.0), log_potential(3.0)], ids=["sos", "log"])
    def test_all_classes_match_single_calls(self, pot):
        for law, s in zip(increment_laws(pot, 4), range(4)):
            ref = increment_law(pot, 4, s)
            assert np.array_equal(law.support, ref.support)
            assert np.array_equal(law.weights, ref.weights)
            assert law.tail_mass_bound == ref.tail_mass_bound

    def test_moments(self):
        law = increment_law(sos(2.0), 1, 0)
        # E j^2 = 2 sum j^2 e^(-2j) / coth(1); the tail certificate controls
        # mass, so the truncated second moment is off by ~radius^2 * tail
        r = math.exp(-2.0)
        second = 2.0 * r * (1 + r) / (1 - r) ** 3 * math.tanh(1.0)
        slack = law.tail_mass_bound * (law.radius + 2) ** 2
        assert law.second_moment() == pytest.approx(second, abs=slack)


class TestEdgeMarginal:
    def test_free_state_is_normalized_Q(self):
        pot = sos(2.0)
        law, _ = periodic_solve(pot, 2, 1)
        fc = fuzzy_chain(law, fuzzy_Q(pot, 1))
        laws = increment_laws(pot, 1)
        nu = ggm_edge_marginal(fc, laws, window=laws[0].radius)
        K = laws[0].radius
        expected = pot.Q(np.arange(-K, K + 1)) * math.tanh(1.0)
        assert np.allclose(nu, expected, rtol=1e-12, atol=1e-18)

    def test_two_class_expansion(self, chain20):
        pot = sos(2.0)
        laws = increment_laws(pot, 2)
        K = max(l.radius for l in laws)
        nu = ggm_edge_marginal(chain20, laws, window=K)
        # nu(1) = [alpha0 P(0,1) + alpha1 P(1,0)] rho(1 | 1bar)
        a, P = chain20.alpha, chain20.P
        rho1 = math.exp(-2.0) * math.sinh(2.0)
        expected = (a[0] * P[0, 1] + a[1] * P[1, 0]) * rho1
        assert nu[K + 1] == pytest.approx(expected, rel=1e-12)
        assert nu[K + 1] == pytest.approx(Q2_NU1_EXACT, rel=1e-12)

    def test_symmetry_and_zero_tilt(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        K = max(l.radius for l in laws)
        nu = ggm_edge_marginal(chain20, laws, window=K)
        assert np.allclose(nu, nu[::-1], rtol=0, atol=1e-16)
        tilt = math.fsum((np.arange(-K, K + 1) * nu).tolist())
        assert abs(tilt) < 1e-14

    def test_class_consistency(self, chain20):
        # summing nu over a residue class recovers the fuzzy step law
        laws = increment_laws(sos(2.0), 2)
        K = max(l.radius for l in laws)
        nu = ggm_edge_marginal(chain20, laws, window=K)
        js = np.arange(-K, K + 1)
        a, P = chain20.alpha, chain20.P
        for s in (0, 1):
            lhs = math.fsum(nu[js % 2 == s].tolist())
            rhs = a[0] * P[0, s] + a[1] * P[1, (1 + s) % 2]
            # lhs misses the class law's certified tail
            assert lhs == pytest.approx(rhs, abs=laws[s].tail_mass_bound + 1e-13)

    def test_window_too_small(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        with pytest.raises(NumericalError, match="window"):
            ggm_edge_marginal(chain20, laws, window=1)

    def test_negative_window_refused(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        with pytest.raises(ConfigError, match="window must be >= 0, got -1"):
            ggm_edge_marginal(chain20, laws, -1)

    def test_leak_hint_asks_for_a_wider_window(self, chain20):
        # the hint names the least window whose certified leak fits: it is
        # accepted, and the window below it is refused with the same hint
        laws = increment_laws(sos(2.0), 2)
        with pytest.raises(NumericalError) as exc:
            ggm_edge_marginal(chain20, laws, window=1)
        hint = str(exc.value).rsplit("; ", 1)[1]
        least = int(hint.removeprefix("use window >= "))
        assert hint == f"use window >= {least}"
        assert 1 < least <= max(l.radius for l in laws)
        ggm_edge_marginal(chain20, laws, window=least)
        with pytest.raises(NumericalError) as exc:
            ggm_edge_marginal(chain20, laws, window=least - 1)
        assert str(exc.value).endswith(f"; use window >= {least}")

    def test_leak_hint_blames_increment_truncation(self, chain20):
        # every support point of radius-4 laws sits inside window 6, so no
        # window helps: the hint points at the increment radius instead
        laws = increment_laws(sos(2.0), 2, radius=4)
        with pytest.raises(NumericalError) as exc:
            ggm_edge_marginal(chain20, laws, window=6)
        msg = str(exc.value)
        assert "use window" not in msg
        assert msg.endswith("the increment laws are truncated at radius 4; "
                            "raise the increment radius (--truncation)")

    def test_law_validation(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        with pytest.raises(ConfigError, match="increment laws"):
            ggm_edge_marginal(chain20, laws[:1], window=8)
        with pytest.raises(ConfigError, match="residue"):
            ggm_edge_marginal(chain20, laws[::-1], window=8)


def _reference_edge_marginal(fc, laws, window, tail_tol=1e-9):
    """The per-support-point loop that ggm_edge_marginal replaced, as an
    oracle, with its verdict on the exact deficit 1 - fsum(nu)."""
    q = fc.q
    need = max(law.radius for law in laws)
    nu = np.zeros(2 * window + 1)
    for s, law in enumerate(laws):
        step = math.fsum(
            float(fc.alpha[i] * fc.P[i, (i + s) % q]) for i in range(q)
        )
        for j, w in zip(law.support.tolist(), law.weights.tolist()):
            if abs(j) <= window:
                nu[j + window] += step * w
    deficit = 1.0 - math.fsum(nu.tolist())
    if deficit > tail_tol:
        hint = (f"use window >= {need}" if window < need else
                f"the increment laws are truncated at radius {need}; "
                "raise the increment radius (--truncation)")
        raise NumericalError(
            f"window {window} leaks mass {deficit:.3g} > {tail_tol:.3g}; {hint}"
        )
    return nu


def _certified_leak(fc, laws, window):
    """sum_s step(s) tail_s(K), the leak the marginal certifies before
    rounding it up."""
    steps = ggm_mod._class_step_law(fc)
    return math.fsum([step * law.tail(window) for step, law in zip(steps, laws)])


# nu's own rounding (Q, the class masses, the step law and the products)
# may move its exact deficit by this much past the certified leak
_ROUNDING = 1e-13


def _marginal_or_message(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        return str(exc)


def _edge_marginal_at(tol, *args):
    """ggm_edge_marginal, or its leak message, under the leak budget tol."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggm_mod, "_LEAK_TOL", tol)
        return _marginal_or_message(ggm_edge_marginal, *args)


_BIT_POTENTIALS = {
    "sos": sos(2.0),
    "log": log_potential(6.0),
    "custom": custom(3.0, [[1, 1.0], [2, 1.5]], TailModel("power", 2.0)),
}


@functools.lru_cache(maxsize=None)
def _bit_chain(family, q):
    pot = _BIT_POTENTIALS[family]
    law, _ = periodic_solve(pot, 2, q, SolveConfig(mode=MODE_AUTO))
    return fuzzy_chain(law, fuzzy_Q(pot, q))


class TestEdgeMarginalBitIdentity:
    """The strided form reproduces the old loop bit for bit, and its leak,
    read off the laws' certified class tails, bounds the loop's exact deficit."""

    @given(
        family=st.sampled_from(sorted(_BIT_POTENTIALS)),
        q=st.integers(1, 9),
        radius=st.none() | st.integers(1, 400),
        shrink=st.integers(-12, 0) | st.integers(1, 400),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_loop(self, family, q, radius, shrink):
        pot = _BIT_POTENTIALS[family]
        fc = _bit_chain(family, q)
        # every radius >= floor(q/2) holds the nearest point of each class
        laws = increment_laws(pot, q, radius=None if radius is None else max(radius, q // 2))
        window = max(max(law.radius for law in laws) - shrink, 0)
        got, deficit = self._check(fc, laws, window)
        if radius is None and shrink <= 0:
            # the default radii leave each class at most 1e-10 out: both
            # rules accept every window past them (every CLI and bench call)
            assert not isinstance(got, str) and deficit <= ggm_mod._LEAK_TOL

    def test_mirror_laws_of_mixed_radii(self):
        # classes s and q - s cut at different radii are not reflections of
        # each other: each is evaluated on its own support
        pot, q = _BIT_POTENTIALS["log"], 5
        fc = _bit_chain("log", q)
        laws = [increment_law(pot, q, s, radius=r)
                for s, r in enumerate((300, 300, 120, 250, 40))]
        for window in (0, 3, 39, 40, 119, 120, 299, 300, 310):
            self._check(fc, laws, window)

    @staticmethod
    def _check(fc, laws, window):
        """(marginal or message, the loop's exact deficit).  Where the marginal
        is accepted (always, at windows inside the radii), nu is the
        loop's bit for bit and the certified leak bounds the loop's exact
        deficit.  Past every radius, at the default budget, the marginal
        refuses exactly the windows the loop refused: each class tail is
        bounded on the class's own terms, within rounding of the deficit."""
        ref = _reference_edge_marginal(fc, laws, window, tail_tol=1.0)
        deficit = 1.0 - math.fsum(ref.tolist())
        past = window >= max(law.radius for law in laws)
        got = _edge_marginal_at(ggm_mod._LEAK_TOL if past else math.inf, fc, laws, window)
        if past:
            assert isinstance(got, str) == (deficit > ggm_mod._LEAK_TOL)
        if not isinstance(got, str):
            assert got.tobytes() == ref.tobytes()
            assert deficit <= _certified_leak(fc, laws, window) + _ROUNDING
        return got, deficit

    def test_leak_message_unchanged(self, chain20):
        laws = increment_laws(sos(2.0), 2, radius=4)
        with pytest.raises(NumericalError) as exc:
            ggm_edge_marginal(chain20, laws, window=6)
        assert str(exc.value) == _marginal_or_message(
            _reference_edge_marginal, chain20, laws, 6)

    def test_multi_chunk_window_matches_reference_loop(self):
        # a free-state window of 2 * 40000 + 1 entries leaks about 1e-7; the
        # certified leak lies within rounding above the exact deficit, so
        # budgets a millionth off it either way give the loop's verdicts
        pot = log_potential(2.5)
        law, _ = periodic_solve(pot, 2, 1)
        fc = fuzzy_chain(law, fuzzy_Q(pot, 1))
        laws = increment_laws(pot, 1, radius=60000)
        ref = _reference_edge_marginal(fc, laws, 40000, tail_tol=1.0)
        deficit = 1.0 - math.fsum(ref.tolist())
        assert deficit <= _certified_leak(fc, laws, 40000) <= deficit * (1.0 + 1e-8)
        messages = 0
        for tol in (deficit * (1.0 + 1e-6), deficit * (1.0 - 1e-6), 2.0 * deficit,
                    0.5 * deficit):
            got = _edge_marginal_at(tol, fc, laws, 40000)
            want = _marginal_or_message(_reference_edge_marginal, fc, laws, 40000,
                                        tail_tol=tol)
            if isinstance(want, str):
                messages += 1
                assert got.startswith("window 40000 leaks mass ")
            else:
                assert np.array_equal(got, want)
        assert messages == 2

    @pytest.mark.parametrize("q", [2, 5, 6])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_streamed_blocks_match_reference_loop(self, q, block, monkeypatch):
        # stretches of q * block slots, so each class crosses many block
        # boundaries: one radius makes classes s and q - s reflections of
        # each other, mixed radii do not, and both keep the loop's bits
        pot, fc = _BIT_POTENTIALS["log"], _bit_chain("log", q)
        monkeypatch.setattr(ggm_mod, "_EVAL_BLOCK", block)
        radii = (300, 41, 170, 299, 120, 300)
        for laws in (increment_laws(pot, q, radius=300),
                     [increment_law(pot, q, s, radius=r) for s, r in enumerate(radii[:q])]):
            for window in (0, 2, 7, 40, 41, 169, 300, 311):
                self._check(fc, laws, window)

    def test_default_block_boundaries_match_reference_loop(self):
        # 160 001 slots: three whole stretches of q * _EVAL_BLOCK slots and a
        # part, each class ending in a different one
        pot, q = _BIT_POTENTIALS["log"], 3
        fc = _bit_chain("log", q)
        laws = [increment_law(pot, q, s, radius=r) for s, r in enumerate((70000, 50001, 90000))]
        assert 3 * q * ggm_mod._EVAL_BLOCK < 2 * 80000 + 1 < 4 * q * ggm_mod._EVAL_BLOCK
        assert not isinstance(self._check(fc, laws, 80000)[0], str)

    def test_marginal_allocates_little_beyond_nu(self):
        # 2^21 + 1 slots, each of the two laws 2^20 points (8 MiB of weights):
        # the marginal is written a block at a time, so no array spans a law
        pot, q = _BIT_POTENTIALS["log"], 2
        fc = _bit_chain("log", q)
        laws = increment_laws(pot, q, radius=1 << 20)
        tracemalloc.start()
        try:
            nu = _edge_marginal_at(math.inf, fc, laws, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nu.size == (1 << 21) + 1 and laws[1].span(-(1 << 20), 1 << 20)[1] == 1 << 20
        assert peak <= nu.nbytes + 4 * 2**20


class TestStarMarginal:
    def test_single_edge_matches_marginal(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        K = max(l.radius for l in laws)
        nu = ggm_edge_marginal(chain20, laws, window=K)
        for j in (0, 1, -2, 3):
            assert star_marginal(chain20, laws, [j]) == pytest.approx(
                float(nu[K + j]), rel=1e-12
            )

    def test_root_independence(self, chain20):
        # a single-edge volume evaluated from either endpoint agrees
        laws = increment_laws(sos(2.0), 2)
        for j in (1, 2, 5):
            assert star_marginal(chain20, laws, [j]) == pytest.approx(
                star_marginal(chain20, laws, [-j]), rel=1e-11
            )

    def test_two_edge_star_marginalizes(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        K = max(l.radius for l in laws)
        nu = ggm_edge_marginal(chain20, laws, window=K)
        j1 = 1
        total = math.fsum(
            star_marginal(chain20, laws, [j1, j2]) for j2 in range(-K, K + 1)
        )
        deficit = 1.0 - math.fsum(nu.tolist())
        assert total == pytest.approx(float(nu[K + j1]), abs=deficit + 1e-13)

    def test_missing_support_gives_zero(self, chain20):
        laws = increment_laws(sos(2.0), 2, radius=5)
        assert star_marginal(chain20, laws, [7]) == 0.0
        assert star_marginal(chain20, laws, [-7]) == 0.0
        assert star_marginal(chain20, laws, [-5]) > 0.0

    def test_edge_cap(self, chain20):
        laws = increment_laws(sos(2.0), 2)
        with pytest.raises(ConfigError, match="12"):
            star_marginal(chain20, laws, [0] * 13)

    def test_star_probabilities_positive(self, chain25):
        laws = increment_laws(sos(2.5), 2)
        p = star_marginal(chain25, laws, [1, -1, 2])
        assert 0 < p < 1

"""Tests for good-set membership, the d=2 boundary curve, and thresholds.

Frozen values come from an mpmath oracle (dps 40-50): bisection on the
defining equations with closed-form norms, independent of this package.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegibbs
from treegibbs import goodset
from treegibbs.errors import ConfigError, NumericalError
from treegibbs.goodset import (
    REASON_NORM_INFINITE,
    GoodSetQuery,
    beta_threshold,
    binary_delta_boundary,
    binary_delta_boundary_radical,
    large_degree_scan,
    lipschitz_constant,
    localization_bounds,
    membership,
    norm_membership,
    smallest_epsilon,
)
from treegibbs.potentials import TailModel, custom, log_potential, norm_pair, sos

# mpmath bisection oracle
EPS_CASES = [
    (2, 2.0, 0.1, 0.13819660112501053, 1.1132121292250863),
    (3, 1.2, 0.1, 0.10124539489728598, 0.07442723336157613),
    (2, 1.5, 0.05, 0.054446657821974821, 0.32727283464144557),
    (4, 1.05, 0.08, 0.0800431007588001, 0.0043340259748226758),
]

QUARTIC_ROOTS = [
    (1.05, 0.17412908648811364),
    (1.5, 0.12387604886007741),
    (2.0, 0.093388358806718208),
    (10.0, 0.018749414122000982),
    (100.0, 0.0018749999414062560),
]

SOS_THRESHOLDS = {
    2: 1.9965898974,
    3: 1.32114490335,
    6: 0.724020533943,
    7: 0.637195217087,
    100: 0.0694561024931,
    1000: 0.00923867138814,
}
LOG_THRESHOLDS = {
    2: 2.90798667209,
    3: 1.93030634278,
    6: 1.05697603805,
    7: 0.929639331196,
    100: 0.100438266965,
    1000: 0.0133350099527,
}


class TestSmallestEpsilon:
    @pytest.mark.parametrize("d,g,dl,eps,_", EPS_CASES)
    def test_oracle_values(self, d, g, dl, eps, _):
        got = smallest_epsilon(GoodSetQuery(d, g, dl))
        assert got == pytest.approx(eps, abs=1e-12)

    def test_no_root(self):
        assert smallest_epsilon(GoodSetQuery(2, 2.0, 0.2)) is None

    def test_residual_and_ball(self):
        q = GoodSetQuery(3, 1.2, 0.1)
        e = smallest_epsilon(q)
        assert abs(q.gamma * e**3 + q.delta - e) < 1e-11
        assert q.delta + q.gamma * e**3 <= e  # upper bracket end is returned

    @given(g=st.floats(1.01, 3.0), frac=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_d2_closed_form(self, g, frac):
        dl = frac / (4.0 * g)
        e = smallest_epsilon(GoodSetQuery(2, g, dl))
        closed = (1.0 - math.sqrt(1.0 - 4.0 * g * dl)) / (2.0 * g)
        assert e == pytest.approx(closed, abs=1e-11)

    def test_infinite_inputs(self):
        assert smallest_epsilon(GoodSetQuery(2, math.inf, 0.1)) is None

    def test_query_validation(self):
        with pytest.raises(ConfigError):
            GoodSetQuery(1, 1.0, 0.1)
        with pytest.raises(ConfigError):
            GoodSetQuery(2, -1.0, 0.1)


class TestMembership:
    @pytest.mark.parametrize("d,g,dl,eps,L", EPS_CASES)
    def test_verdict_values(self, d, g, dl, eps, L):
        v = membership(GoodSetQuery(d, g, dl))
        assert v.lipschitz == pytest.approx(L, rel=1e-10)
        assert v.in_good_set == (L < 1)
        assert v.reason == ("ok" if L < 1 else "lipschitz_ge_one")

    def test_no_epsilon_reason(self):
        v = membership(GoodSetQuery(2, 2.0, 0.2))
        assert not v.in_good_set
        assert v.reason == "no_epsilon_exists"
        assert v.epsilon is None and v.lipschitz is None

    def test_d2_closed_lipschitz_form(self):
        # closed d=2 form at the minimal root: 2(1-a) + (delta/gamma^2)(1-a)^2
        g, dl = 2.0, 0.1
        a = math.sqrt(1.0 - 4.0 * dl * g)
        expected = 2.0 * (1.0 - a) + dl / g**2 * (1.0 - a) ** 2
        v = membership(GoodSetQuery(2, g, dl))
        assert v.lipschitz == pytest.approx(expected, rel=1e-12)

    def test_gamma_flag(self):
        v = membership(GoodSetQuery(2, 0.9, 0.01))
        assert v.reason == "gamma_out_of_domain_flag"
        assert v.in_good_set  # inequalities still evaluated

    @given(
        d=st.integers(2, 6),
        g=st.floats(1.01, 4.0),
        dl=st.floats(0.001, 0.8),
    )
    @settings(max_examples=60, deadline=None)
    def test_inequalities_hold_when_member(self, d, g, dl):
        v = membership(GoodSetQuery(d, g, dl))
        if v.in_good_set:
            assert v.delta + v.gamma * v.epsilon**d <= v.epsilon
            assert lipschitz_constant(GoodSetQuery(d, g, dl), v.epsilon) < 1

    @given(d=st.integers(2, 5), g=st.floats(1.01, 3.0), dl=st.floats(0.01, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_delta(self, d, g, dl):
        if membership(GoodSetQuery(d, g, dl)).in_good_set:
            assert membership(GoodSetQuery(d, g, dl / 2)).in_good_set


class TestNormMembership:
    @given(
        family=st.sampled_from(["sos", "log"]),
        pairing=st.sampled_from(["half", "one"]),
        d=st.integers(2, 7),
        beta=st.floats(0.3, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_membership_on_finite_pairs(self, family, pairing, d, beta):
        pot = sos(beta) if family == "sos" else log_potential(beta)
        g, dl = norm_pair(pot, d, pairing, cross_check=False)
        v = norm_membership(d, g, dl)
        if g.is_infinite or dl.is_infinite:
            assert (v.in_good_set, v.epsilon, v.lipschitz, v.reason) == (
                False, None, None, REASON_NORM_INFINITE)
        else:
            assert v == membership(GoodSetQuery(d, g.value, dl.value))

    def test_infinite_norm_skips_membership(self, monkeypatch):
        g, dl = norm_pair(log_potential(0.5), 2, "half")
        assert g.is_infinite and not dl.is_infinite

        def fail(query):
            raise AssertionError("membership called on an infinite norm")

        monkeypatch.setattr(goodset, "membership", fail)
        v = norm_membership(2, g, dl)
        assert v == goodset.MembershipVerdict(
            2, math.inf, dl.value, False, None, None, "norm_infinite")
        assert not v

    @pytest.mark.parametrize("pot", [log_potential(0.5), sos(2.5)], ids=["infinite", "finite"])
    def test_degree_below_two_refused(self, pot):
        with pytest.raises(ConfigError, match="d must be an integer >= 2"):
            norm_membership(1, *norm_pair(pot, 1, "half"))

    def test_exported(self):
        assert "norm_membership" in goodset.__all__
        assert "norm_membership" in treegibbs.__all__
        assert treegibbs.norm_membership is norm_membership


class TestBinaryBoundary:
    @pytest.mark.parametrize("g,root", QUARTIC_ROOTS)
    def test_oracle_roots(self, g, root):
        assert binary_delta_boundary(g) == pytest.approx(root, rel=1e-11)

    def test_quartic_residual(self):
        for k in range(50):
            g = 1.0 + 9.0 * (k + 1) / 50.0
            dl = binary_delta_boundary(g)
            res = 16 * g**2 * dl**4 + 24 * g**3 * dl**2 + (16 * g**5 - 4 * g**2) * dl - 3 * g**4
            assert abs(res) < 1e-10 * g**4

    def test_radical_agreement(self):
        for k in range(50):
            g = 1.0 + 9.0 * (k + 1) / 50.0
            assert binary_delta_boundary(g) == pytest.approx(
                binary_delta_boundary_radical(g), rel=1e-8
            )

    def test_series_expansion(self):
        for g in (5.0, 7.0, 10.0):
            dl = binary_delta_boundary(g)
            assert abs(dl * 16.0 * g / 3.0 - 1.0) < 0.02

    def test_domain_error(self):
        with pytest.raises(ConfigError):
            binary_delta_boundary(1.0)
        with pytest.raises(ConfigError):
            binary_delta_boundary(0.5)

    @given(g=st.floats(1.05, 10.0), off=st.floats(0.02, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_curve_separates_membership(self, g, off):
        dl = binary_delta_boundary(g)
        below = membership(GoodSetQuery(2, g, dl * (1.0 - off)))
        above = membership(GoodSetQuery(2, g, dl * (1.0 + off)))
        assert below.in_good_set
        assert not above.in_good_set


class TestBetaThreshold:
    @pytest.mark.parametrize("d,ref", sorted(SOS_THRESHOLDS.items()))
    def test_sos_table(self, d, ref):
        assert beta_threshold("sos", d, tol=1e-7) == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("d,ref", sorted(LOG_THRESHOLDS.items()))
    def test_log_table(self, d, ref):
        assert beta_threshold("log", d, tol=1e-7) == pytest.approx(ref, abs=1e-6)

    def test_decreasing_in_d(self):
        for family, table in (("sos", SOS_THRESHOLDS), ("log", LOG_THRESHOLDS)):
            vals = [table[d] for d in sorted(table)]
            assert vals == sorted(vals, reverse=True)

    def test_no_threshold_in_range(self):
        # U(1) = 0 keeps Q(1) = 1 at every beta, so delta >= 2^(1/(d+1)) > eps always
        flat = lambda beta: custom(beta, [[1, 0.0]], TailModel("exp", 1.0))
        with pytest.raises(NumericalError, match="no threshold"):
            beta_threshold(flat, 2)

    def test_custom_family_matches_builtin(self):
        # table reproducing U(j) = |j| must give the sos threshold
        mimic = lambda beta: custom(beta, [[1, 1.0], [2, 2.0]], TailModel("exp", 1.0))
        got = beta_threshold(mimic, 3, tol=1e-4)
        assert got == pytest.approx(SOS_THRESHOLDS[3], abs=5e-4)

    def test_custom_family_at_large_degree(self):
        # the first probe, beta = 1, has a delta power sum e^-1001 that is 0
        # in float64; the norm is still about e^-1 and the bisection goes on
        mimic = lambda beta: custom(beta, [[1, 1.0]], TailModel("exp", 1.0))
        assert beta_threshold(mimic, 1000) == beta_threshold("sos", 1000)

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            beta_threshold("ising", 2)
        with pytest.raises(ConfigError, match="unknown potential family"):
            beta_threshold(["sos"], 2)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a nan width ended the bisection at once and returned 1.5 for log d=3
        with pytest.raises(ConfigError, match="tol must be a positive finite"):
            beta_threshold("log", 3, tol=tol)


class TestLargeDegreeScan:
    def test_sos_schedule(self):
        ds = list(range(10, 31)) + [40, 60, 100, 200]
        report = large_degree_scan("sos", 2.0, ds)
        assert report.v == 1.0
        assert report.d0 == 16  # oracle: membership holds from d=16 on
        by_d = {r.d: r for r in report.rows}
        assert not by_d[10].in_good_set
        assert by_d[200].in_good_set
        members = [r for r in report.rows if r.in_good_set]
        assert all(r.ratio_upper_bound is not None for r in members)
        # concentration: bound decays at least like 1/d
        assert max(r.ratio_upper_bound * r.d for r in members) < 0.5
        ordered = [r.ratio_upper_bound for r in members]
        assert ordered == sorted(ordered, reverse=True)

    def test_ratio_value_frozen(self):
        report = large_degree_scan("sos", 2.0, [25])
        assert report.rows[0].ratio_upper_bound == pytest.approx(0.00410055, rel=1e-5)

    def test_ratio_is_the_upper_localization_bound(self):
        report = large_degree_scan("sos", 2.0, [20, 25, 200])
        assert all(r.in_good_set for r in report.rows)
        for r in report.rows:
            assert r.ratio_upper_bound == localization_bounds(r.gamma, r.delta, r.d)[1]

    def test_v_is_the_least_nonzero_potential_value(self):
        # log1p(1) has the bits of log 2; a custom table's least entry wins
        assert large_degree_scan("log", 4.0, [7]).v == math.log(2.0)
        bump = lambda beta: custom(beta, [[1, 2.0], [2, 0.5], [3, 1.5]],
                                   TailModel("exp", 1.0))
        assert large_degree_scan(bump, 4.0, [50]).v == 0.5

    def test_precondition(self):
        with pytest.raises(ConfigError):
            large_degree_scan("sos", 0.9, [10, 20])
        with pytest.raises(ConfigError):
            large_degree_scan("log", 1.2, [10, 20])  # 1/v = 1/log 2 ~ 1.443

    def test_log_flagged_rows(self):
        # at small d the halfnorm explodes for the log family (p*beta <= 1)
        report = large_degree_scan("log", 2.0, [2, 3, 50])
        flagged = [r for r in report.rows if r.flag == "gamma_infinite"]
        assert {r.d for r in flagged} == {2}

    def test_log_onset(self):
        report = large_degree_scan("log", 4.0, range(3, 12))
        assert report.d0 == 7  # oracle for A=4
        assert report.v == pytest.approx(math.log(2.0))

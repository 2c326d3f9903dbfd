"""Tests for transfer operators, certified norms, class sums, double sums.

Reference values were frozen from an independent mpmath script (40 digits,
brute summation over windows up to 3e6 plus crude remainder brackets).
"""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegibbs.errors import ConfigError, NotSummableError, NumericalError, TailUndeclaredError
from treegibbs.potentials import (
    DOMAIN_Z,
    DOMAIN_Z_STAR,
    DOMAIN_ZQ,
    DOMAIN_ZQ_STAR,
    _CHUNK,
    TailModel,
    _banded_sum,
    _MonotoneEnvelope,
    _power_tail,
    _progression_sum,
    _tail_beyond,
    _tail_bracket,
    check_double_sum,
    custom,
    fuzzy_Q,
    hurwitz_zeta,
    log_potential,
    norm_pair,
    p_norm,
    potential_from_json,
    sos,
)

# mpmath brute-force oracle, 40 digits
SOS25_GAMMA_D2 = 1.0318597714150849515
SOS25_DELTA_D2 = 0.10343969145594840871
SOS25_GAMMA_D3 = 1.0067608006932969886
SOS25_DELTA_D3 = 0.097617172370584697727
LOG3_GAMMA_D2 = 1.0716740006337929985
LOG3_DELTA_D2 = 0.15896184166871307753
LOG3_GAMMA_D3 = 1.0171952241182113804
LOG3_DELTA_D3 = 0.14894621443369429533
LOG3_L1_Z = 1.4041138063191885708  # 2 zeta(3) - 1

FUZZY_LOG2_Q3 = (1.2434660278726875737, 0.52320105291188264961, 0.52320105291188264961)
FUZZY_SOS2_Q2 = (1.0373147207275480959, 0.27572056477178320776)
FUZZY_LOG3_Q2 = (1.10359958052923444, 0.30051422578984301526)

DOUBLE_SOS25_D2 = 0.027313936633625246622
DOUBLE_LOG3_D2 = 0.10768527319507500575

HURWITZ_CASES = [
    (2.0, 2.0 / 3.0, 3.0638754093587176833),
    (3.0, 0.25, 64.663869968768460167),
    (1.5, 1.0, 2.6123753486854883433),
]

CUSTOM_EXP_ARM_P15 = 0.39692228175488382029
CUSTOM_POW_ARM_P2 = 0.24434148848994347479


def brute_power_sum(pot, p, include_zero, N=400000):
    j = np.arange(1, N + 1)
    s = 2.0 * math.fsum((pot.Q(j) ** p).tolist())
    return s + 1.0 if include_zero else s


def brute_class_sum(pot, q, jbar, N=300000):
    pos = np.arange(jbar if jbar else q, N, q)
    neg = np.arange(q - jbar, N, q)
    s = math.fsum(pot.Q(pos).tolist()) + math.fsum(pot.Q(neg).tolist())
    return s + 1.0 if jbar == 0 else s


class TestPotentialBasics:
    def test_sos_values(self):
        pot = sos(2.0)
        assert pot.Q(0) == 1.0
        assert pot.Q(3) == pytest.approx(math.exp(-6.0), rel=1e-15)
        assert pot.Q(-3) == pot.Q(3)

    def test_log_values(self):
        pot = log_potential(1.5)
        assert pot.U(0) == 0.0
        assert pot.Q(4) == pytest.approx(5.0**-1.5, rel=1e-15)

    def test_array_matches_scalar(self):
        pot = log_potential(2.0)
        js = np.array([-5, -1, 0, 2, 7])
        arr = pot.Q(js)
        assert arr == pytest.approx([pot.Q(int(j)) for j in js])

    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            sos(0.0)
        with pytest.raises(ConfigError):
            log_potential(-1.0)
        with pytest.raises(ConfigError):
            sos(math.inf)


class TestCustomPotential:
    def make(self, tail=TailModel("exp", 0.9)):
        return custom(1.3, [[1, 0.7], [2, 1.1]], tail)

    def test_table_and_tail_values(self):
        pot = self.make()
        assert pot.U(1) == 0.7
        assert pot.U(2) == 1.1
        # exp tail continues linearly from the last table entry
        assert pot.U(5) == pytest.approx(1.1 + 0.9 * 3)

    def test_power_tail_values(self):
        pot = self.make(TailModel("power", 1.8))
        assert pot.U(9) == pytest.approx(1.1 + 1.8 * (math.log(10) - math.log(3)))

    def test_zero_row_rescales(self):
        shifted = custom(1.3, [[0, 0.5], [1, 1.2], [2, 1.6]], TailModel("exp", 0.9))
        plain = self.make()
        js = np.arange(0, 10)
        assert shifted.Q(js) == pytest.approx(plain.Q(js), rel=1e-14)

    def test_no_tail_refuses_beyond_table(self):
        pot = custom(1.3, [[1, 0.7], [2, 1.1]])
        assert pot.U(2) == 1.1
        with pytest.raises(TailUndeclaredError):
            pot.U(3)
        with pytest.raises(TailUndeclaredError):
            p_norm(pot, 2.0)

    def test_gapped_table_rejected(self):
        with pytest.raises(ConfigError):
            custom(1.0, [[1, 0.5], [3, 1.0]], TailModel("exp", 1.0))

    def test_json_round_trip(self):
        text = json.dumps(
            {
                "kind": "custom",
                "beta": 1.3,
                "table": [[1, 0.7], [2, 1.1]],
                "tail": {"type": "power", "exponent": 1.8},
            }
        )
        pot = potential_from_json(text)
        assert pot.tail == TailModel("power", 1.8)
        assert pot.Q(7) == pytest.approx(self.make(TailModel("power", 1.8)).Q(7))

    def test_builtin_json(self):
        pot = potential_from_json('{"kind": "log", "beta": 2.5}')
        assert pot.kind == "log" and pot.beta == 2.5

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            potential_from_json("{not json")
        with pytest.raises(ConfigError):
            potential_from_json('{"kind": "mystery", "beta": 1.0}')
        with pytest.raises(ConfigError):
            potential_from_json(
                '{"kind": "custom", "beta": 1.0, "table": [[1, 0.5]], "tail": {"type": "cubic"}}'
            )
        custom_head = '{"kind": "custom", "beta": 1.0, "table": [[1, 0.5]], '
        for text in (
            "[1, 2]",
            '"sos"',
            '{"kind": "sos"}',
            '{"kind": "sos", "beta": "abc"}',
            custom_head + '"tail": [1]}',
            custom_head + '"tail": {"type": "power"}}',
            '{"kind": "custom", "beta": 1.0, "table": 5}',
        ):
            with pytest.raises(ConfigError):
                potential_from_json(text)
        with pytest.raises(ConfigError, match=r"^unknown potential kind \[1\]$"):
            potential_from_json('{"kind": [1], "beta": 1.0}')


class TestNorms:
    @pytest.mark.parametrize(
        "pot,d,gamma,delta",
        [
            (sos(2.5), 2, SOS25_GAMMA_D2, SOS25_DELTA_D2),
            (sos(2.5), 3, SOS25_GAMMA_D3, SOS25_DELTA_D3),
            (log_potential(3.0), 2, LOG3_GAMMA_D2, LOG3_DELTA_D2),
            (log_potential(3.0), 3, LOG3_GAMMA_D3, LOG3_DELTA_D3),
        ],
    )
    def test_norm_pair_against_oracle(self, pot, d, gamma, delta):
        g, dl = norm_pair(pot, d)
        assert g.value == pytest.approx(gamma, rel=1e-12)
        assert dl.value == pytest.approx(delta, rel=1e-12)
        assert g.domain == DOMAIN_Z and dl.domain == DOMAIN_Z_STAR

    def test_log_l1_closed_form(self):
        rep = p_norm(log_potential(3.0), 1.0)
        assert rep.value == pytest.approx(LOG3_L1_Z, rel=1e-13)
        assert rep.method == "closed_form"

    def test_series_only_path(self):
        pot = custom(1.3, [[1, 0.7], [2, 1.1]], TailModel("exp", 0.9))
        rep = p_norm(pot, 1.5, DOMAIN_Z_STAR, rel_tol=1e-12)
        assert rep.method == "series"
        assert rep.value == pytest.approx((2 * CUSTOM_EXP_ARM_P15) ** (1 / 1.5), rel=1e-12)
        assert rep.truncation_radius is not None

    def test_power_tail_series(self):
        pot = custom(1.3, [[1, 0.7], [2, 1.1]], TailModel("power", 1.8))
        rep = p_norm(pot, 2.0, DOMAIN_Z_STAR, rel_tol=1e-12)
        assert rep.value == pytest.approx(math.sqrt(2 * CUSTOM_POW_ARM_P2), rel=1e-11)

    def test_divergent_log_norm(self):
        rep = p_norm(log_potential(0.8), 1.0)
        assert rep.is_infinite
        assert "<= 1" in rep.witness

    def test_divergent_custom_power(self):
        pot = custom(0.4, [[1, 1.0]], TailModel("power", 1.5))
        rep = p_norm(pot, 1.0)  # 0.4 * 1.5 = 0.6 <= 1
        assert rep.is_infinite and rep.witness

    def test_p_below_one_rejected(self):
        with pytest.raises(ConfigError):
            p_norm(sos(1.0), 0.5)

    def test_pairing_one(self):
        g, dl = norm_pair(sos(2.0), 4, pairing="one")
        assert g.p == 1.0 and dl.p == 1.0
        assert g.value == pytest.approx(1.0 / math.tanh(1.0), rel=1e-13)

    def test_error_bound_is_honest(self):
        rep = p_norm(sos(2.5), 1.5, rel_tol=1e-10)
        truth = brute_power_sum(sos(2.5), 1.5, True, N=3000)
        assert abs(rep.value**1.5 - truth) <= max(rep.tail_bound, 1e-13)

    @given(beta=st.floats(0.6, 4.0), p=st.floats(1.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_sos_closed_matches_brute(self, beta, p):
        rep = p_norm(sos(beta), p, rel_tol=1e-9)
        brute = brute_power_sum(sos(beta), p, True, N=2000) ** (1 / p)
        assert rep.value == pytest.approx(brute, rel=1e-9)

    @given(beta=st.floats(1.3, 4.0), p=st.floats(1.0, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_log_norm_decreases_in_p_times_beta(self, beta, p):
        a = p_norm(log_potential(beta), p, DOMAIN_Z_STAR, rel_tol=1e-8)
        b = p_norm(log_potential(beta + 0.3), p, DOMAIN_Z_STAR, rel_tol=1e-8)
        assert b.value < a.value

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, rel_tol):
        # 0 and -1 once summed 2^26 terms before failing; nan and inf
        # certified nothing
        with pytest.raises(ConfigError, match="rel_tol must be a positive finite"):
            p_norm(sos(2.5), 1.5, rel_tol=rel_tol)
        with pytest.raises(ConfigError, match="rel_tol must be a positive finite"):
            norm_pair(sos(2.5), 2, rel_tol=rel_tol)

    def test_norm_pair_degree(self):
        # d = 0 once reached p_norm and was refused as "p must be >= 1, got 0.5"
        with pytest.raises(ConfigError, match="d must be >= 1, got 0"):
            norm_pair(sos(2.0), 0)
        g, dl = norm_pair(sos(2.0), 1)
        assert (g.p, dl.p) == (1.0, 2.0)


class TestHurwitzZeta:
    @pytest.mark.parametrize("s,a,ref", HURWITZ_CASES)
    def test_against_oracle(self, s, a, ref):
        val, err = hurwitz_zeta(s, a, rel_tol=1e-12)
        assert val == pytest.approx(ref, rel=1e-12)
        assert abs(val - ref) <= err + 1e-15 * ref

    @given(s=st.floats(1.3, 6.0), a=st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_against_scipy(self, s, a):
        val, _ = hurwitz_zeta(s, a, rel_tol=1e-10)
        assert val == pytest.approx(float(scipy.special.zeta(s, a)), rel=1e-8)

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            hurwitz_zeta(0.9, 1.0)
        with pytest.raises(ConfigError):
            hurwitz_zeta(2.0, 0.0)

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, rel_tol):
        # nan and 0 once summed 2^26 terms and then blamed the tail; inf
        # returned an uncertified sum
        with pytest.raises(ConfigError, match="rel_tol must be a positive finite"):
            hurwitz_zeta(2.5, 1.0, rel_tol=rel_tol)

    def test_rounding_floor_refuses_at_the_first_n(self):
        # the terms' rounding alone is about 3e-16 of the sum, which no
        # number of terms brings under 1e-17: refused at N = 64, not 2^26
        with pytest.raises(NumericalError, match=r"rounding floor .* after 64 terms"):
            hurwitz_zeta(2.0, 1.5, rel_tol=1e-17)


class TestFuzzyOperator:
    def test_log_beta2_q3(self):
        fq = fuzzy_Q(log_potential(2.0), 3)
        assert fq.values == pytest.approx(FUZZY_LOG2_Q3, rel=1e-11)
        # identity with Hurwitz zeta for the middle class
        ident = (scipy.special.zeta(2.0, 2.0 / 3.0) + scipy.special.zeta(2.0, 1.0)) / 9.0
        assert fq.at(1) == pytest.approx(float(ident), rel=1e-10)
        assert fq.at(1) == fq.at(2) == fq.at(-1)

    def test_sos_beta2_q2(self):
        fq = fuzzy_Q(sos(2.0), 2)
        assert fq.values == pytest.approx(FUZZY_SOS2_Q2, rel=1e-13)

    def test_log_beta3_q2(self):
        fq = fuzzy_Q(log_potential(3.0), 2)
        assert fq.values == pytest.approx(FUZZY_LOG3_Q2, rel=1e-11)

    def test_brute_force_agreement(self):
        fq = fuzzy_Q(log_potential(2.0), 5)
        for j in range(5):
            brute = brute_class_sum(log_potential(2.0), 5, j)
            assert fq.at(j) == pytest.approx(brute, abs=5e-6, rel=1e-5)

    def test_custom_classes(self):
        pot = custom(1.3, [[1, 0.7], [2, 1.1]], TailModel("exp", 0.9))
        fq = fuzzy_Q(pot, 3, rel_tol=1e-12)
        for j in range(3):
            assert fq.at(j) == pytest.approx(brute_class_sum(pot, 3, j, N=4000), rel=1e-12)

    def test_q1_equals_l1_norm(self):
        fq = fuzzy_Q(log_potential(2.2), 1)
        rep = p_norm(log_potential(2.2), 1.0)
        assert fq.at(0) == pytest.approx(rep.value, rel=1e-11)

    @given(q=st.integers(1, 7), beta=st.floats(0.8, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_classes_conserve_total_mass(self, q, beta):
        pot = sos(beta)
        fq = fuzzy_Q(pot, q)
        total = math.fsum(fq.values.tolist())
        assert total == pytest.approx(p_norm(pot, 1.0).value, rel=1e-12)

    def test_normalized(self):
        fq = fuzzy_Q(sos(2.0), 4).normalized_op()
        assert fq.values[0] == 1.0
        assert fq.normalized

    def test_zq_norm_domain(self):
        rep = fuzzy_Q(sos(2.0), 2).p_norm(1.5)
        by_hand = (FUZZY_SOS2_Q2[0] ** 1.5 + FUZZY_SOS2_Q2[1] ** 1.5) ** (1 / 1.5)
        assert rep.value == pytest.approx(by_hand, rel=1e-12)
        assert rep.domain == DOMAIN_ZQ
        star = fuzzy_Q(sos(2.0), 2).p_norm(1.5, without_zero=True)
        assert star.value == pytest.approx(FUZZY_SOS2_Q2[1], rel=1e-12)
        assert star.domain == DOMAIN_ZQ_STAR
        # p_norm is the norm on Z; the class-sum norm is the operator's own
        for domain in (DOMAIN_ZQ, DOMAIN_ZQ_STAR):
            with pytest.raises(ConfigError, match="unknown domain"):
                p_norm(sos(2.0), 1.5, domain)

    def test_zq_norm_survives_power_sum_underflow(self):
        # Q_3(1)^1001 ~ 1e-814 is 0 in float64; the norm Q_3(1) 2^(1/1001) is not
        q1 = (math.exp(-2.0) + math.exp(-4.0)) / -math.expm1(-6.0)
        rep = fuzzy_Q(sos(2.0), 3).p_norm(1001.0, without_zero=True)
        assert rep.value == pytest.approx(q1 * 2.0 ** (1 / 1001), rel=1e-12)
        assert rep.value == pytest.approx(0.15414, abs=5e-6)

    @pytest.mark.parametrize("pot", [log_potential(2.6), sos(2.0)], ids=["log", "sos"])
    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, pot, rel_tol):
        # log 2.6, q = 5 at nan once ran 11 s before blaming the tail
        with pytest.raises(ConfigError, match="rel_tol must be a positive finite"):
            fuzzy_Q(pot, 5, rel_tol=rel_tol)

    def test_not_summable(self):
        with pytest.raises(NotSummableError):
            fuzzy_Q(log_potential(0.9), 3)
        with pytest.raises(ConfigError):
            p_norm(sos(1.0), 2.0, DOMAIN_ZQ)  # Z_q norms are fuzzy_Q(...).p_norm


class TestDoubleSum:
    def test_sos_finite(self):
        rep = check_double_sum(sos(2.5), 2)
        assert rep.verdict == "finite"
        assert rep.value == pytest.approx(DOUBLE_SOS25_D2, rel=1e-9)

    def test_log_finite(self):
        rep = check_double_sum(log_potential(3.0), 2)
        assert rep.verdict == "finite"
        assert rep.value == pytest.approx(DOUBLE_LOG3_D2, rel=1e-8)

    def test_log_divergent(self):
        rep = check_double_sum(log_potential(0.9), 2)
        assert rep.verdict == "infinite"
        assert "diverges" in rep.witness

    def test_custom_non_monotone_table(self):
        # table bump: envelope must use the suffix max, not Q itself
        pot = custom(1.0, [[1, 2.0], [2, 0.5], [3, 1.5]], TailModel("exp", 1.0))
        rep = check_double_sum(pot, 2)
        assert rep.verdict == "finite"

        def env(m):
            tail = [pot.Q(k) for k in range(m, 5)]  # tail is monotone past 3
            return max(tail) if tail else pot.Q(m)

        brute = math.fsum(
            math.fsum(env(i * j) for j in range(1, 200)) ** 1.5 for i in range(1, 80)
        )
        assert rep.value == pytest.approx(brute, rel=1e-9)

    def test_d_validation(self):
        with pytest.raises(ConfigError):
            check_double_sum(sos(1.0), 1)

    @pytest.mark.parametrize("pot", [
        log_potential(3.0),
        custom(2.5, [[1, 0.4], [2, 0.9]], TailModel("power", 1.2)),
    ])
    def test_outer_tail_bracket_bounds_the_envelope_sums(self, pot):
        # inner(i) lies in [C zeta(s) (1+i)^-s, C zeta(s) i^-s], so the
        # outer tail lies in [(C zeta(s))^p zeta(ps, I+2), (C zeta(s))^p zeta(ps, I+1)]
        env = _MonotoneEnvelope(pot)
        p, I = 1.5, 256
        lo, hi = env.outer_tail_bracket(p, I)
        with mpmath.workdps(40):
            s = mpmath.mpf(pot.beta * env.expo)
            logC = mpmath.mpf(env.lq) + s * mpmath.log1p(env.J)
            amp = (mpmath.exp(logC) * mpmath.zeta(s)) ** p
            assert lo <= amp * mpmath.zeta(p * s, I + 2)
            assert amp * mpmath.zeta(p * s, I + 1) <= hi


@st.composite
def tail_cases(draw):
    """(potential, decay kind, rate or exponent, l0, step, p) with l0 beyond the table."""
    family = draw(st.sampled_from(["sos", "log", "custom_exp", "custom_power"]))
    p = draw(st.floats(1.0, 4.0))
    if family == "sos":
        pot, kind, expo = sos(draw(st.floats(0.2, 3.0))), "exp", 1.0
    elif family == "log":
        # p * beta >= 2.5 keeps the brute-force remainder within reach
        pot, kind, expo = log_potential(draw(st.floats(2.5, 5.0))), "power", 1.0
    else:
        kind = "exp" if family == "custom_exp" else "power"
        expo = draw(st.floats(0.5, 2.0) if kind == "exp" else st.floats(1.0, 2.0))
        us = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5))
        table = [[j, u] for j, u in enumerate(us, start=1)]
        beta = draw(st.floats(0.5, 3.0) if kind == "exp" else st.floats(2.5, 4.0))
        pot = custom(beta, table, TailModel(kind, expo))
    l0 = pot.table_end + 1 + draw(st.integers(0, 100))
    step = draw(st.integers(1, 8))
    return pot, kind, expo, l0, step, p


def power_tail_exact(pot, expo, l0, step, p):
    """sum_{n>=0} Q(l0 + n*step)^p beyond the table of a power tail, from
    mpmath's Hurwitz zeta with 60 significant digits."""
    _, _, lq, J = pot._decay()
    s = p * pot.beta * expo
    with mpmath.workdps(60 + int(s * math.log10(1 + l0))):
        S = mpmath.mpf(s)
        logC = p * mpmath.mpf(lq) + S * mpmath.log1p(J)
        return +(mpmath.exp(logC) * mpmath.mpf(step) ** -S
                 * mpmath.zeta(S, mpmath.mpf(1 + l0) / step))


class TestTailBracket:
    @given(case=tail_cases())
    @settings(max_examples=60, deadline=None)
    def test_brackets_brute_force_sum(self, case):
        pot, kind, expo, l0, step, p = case
        lo, hi = _tail_bracket(pot, l0, step, p)
        assert 0.0 <= lo <= hi < math.inf
        if kind == "power":
            # the Euler-Maclaurin bracket is narrower than any brute-force
            # remainder within reach, so mpmath's Hurwitz zeta is the oracle
            exact = power_tail_exact(pot, expo, l0, step, p)
            assert lo <= exact * (1.0 + 1e-12) and exact <= hi * (1.0 + 1e-12)
            return
        s = p * pot.beta * expo

        def f(x):
            return pot.Q(x) ** p

        def remainder(M):
            # bound on the terms n >= M, from the decay law alone
            return f(l0 + M * step) / -math.expm1(-s * step)

        # brute force runs until its own remainder is below the bracket width
        target = max(0.1 * (hi - lo), 1e-13 * lo, 1e-300)
        M = 64
        while remainder(M) > target:
            M *= 2
        assert M <= 1 << 22
        brute = math.fsum(f(l0 + step * np.arange(M)).tolist())
        rem = remainder(M)
        # relative slack for rounding, absolute slack for subnormal tails
        assert brute <= hi * (1.0 + 1e-12) + 1e-300
        assert lo <= (brute + rem) * (1.0 + 1e-12) + 1e-300

    @given(case=tail_cases(), offset=st.integers(-5, 100))
    @settings(max_examples=60, deadline=None)
    def test_tail_beyond_bounds_brute_force_sum(self, case, offset):
        # R inside, at and beyond a custom table; at and beyond 0 for sos and log
        pot, kind, expo, _, _, p = case
        end = pot.table_end
        R = max(0, end + offset)
        bound = _tail_beyond(pot, R, p)
        lo, hi = _tail_bracket(pot, max(R, end) + 1, 1, p)
        if R >= end:
            assert bound == 2.0 * hi
        s = p * pot.beta * expo

        def f(x):
            return pot.Q(x) ** p

        if kind == "power":
            # the table terms past R plus mpmath's sum beyond the table
            inside = math.fsum(f(np.arange(R + 1, end + 1)).tolist())
            exact = 2 * (inside + power_tail_exact(pot, expo, max(R, end) + 1, 1, p))
            assert exact <= bound * (1.0 + 1e-12)
            assert bound <= (exact + 2.0 * (hi - lo)) * (1.0 + 1e-12)
            return

        def remainder(L):
            # bound on the terms j > L, from the decay law alone
            return f(L + 1) / -math.expm1(-s)

        target = max(0.1 * (hi - lo), 1e-13 * lo, 1e-300)
        L = max(R, end) + 64
        while remainder(L) > target:
            L *= 2
        assert L <= 1 << 23
        brute = math.fsum(f(np.arange(R + 1, L + 1)).tolist())
        # the two sides of sum_{|j|>R} Q(j)^p; relative slack for rounding
        assert 2.0 * brute <= bound * (1.0 + 1e-12) + 1e-300
        assert bound <= 2.0 * (brute + remainder(L) + (hi - lo)) * (1.0 + 1e-12) + 1e-300

    def test_divergent_and_overflowing_tails_are_infinite(self):
        assert _tail_bracket(log_potential(0.8), 1, 1, 1.0) == (math.inf, math.inf)
        assert _tail_bracket(sos(1e-320), 65, 1, 1.5) == (math.inf, math.inf)

    def test_requires_l0_beyond_table(self):
        pot = custom(2.0, [[1, 0.5], [2, 1.0]], TailModel("exp", 1.0))
        with pytest.raises(ValueError):
            _tail_bracket(pot, 2, 1, 1.0)


def _exact_sum(values) -> Fraction:
    """The exact sum of a float array: every float is an integer multiple of 2^-1074."""
    total = 0
    for v in values.tolist():
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return Fraction(total, 1 << 1074)


class TestBandedSum:
    @given(
        size=st.sampled_from([0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
        low=st.integers(-1074, 996),
        span=st.integers(0, 2070),
        signs=st.sampled_from(["positive", "negative", "mixed"]),
        specials=st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_band_encloses_exact_sum(self, size, low, span, signs, specials, seed):
        # entries from subnormals to 1e300: mantissa in [1, 2) times 2^e
        rng = np.random.default_rng(seed)
        e = rng.integers(low, min(low + span, 996) + 1, size=size)
        a = np.ldexp(rng.uniform(1.0, 2.0, size=size), e)
        if signs == "negative":
            a = -a
        elif signs == "mixed":
            a *= rng.choice([-1.0, 1.0], size=size)
        if size:
            a[rng.integers(0, size, size=len(specials))] = specials
        lo, hi = _banded_sum(a)
        assert Fraction(lo) <= _exact_sum(a) <= Fraction(hi)
        assert lo <= math.fsum(a.tolist()) <= hi

    def test_band_is_tight(self):
        # half width gamma_{_CHUNK} sum|a| + u |sum|, about 7.3e-12 relative
        a = np.random.default_rng(3).uniform(0.0, 1.0, size=3 * _CHUNK + 5)
        lo, hi = _banded_sum(a)
        assert hi - lo <= 2.0 * (_CHUNK + 4) * 2.0**-53 * math.fsum(a.tolist())

    def test_band_covers_a_lossy_numpy_sum(self):
        # a 1.0 at the head of every 128-entry block and 2^-53 elsewhere:
        # np.sum rounds the small entries away in one of its accumulators
        # and ends 8 ulps below the exact sum, outside any one-ulp band
        a = np.full(3 * _CHUNK + 5, 2.0**-53)
        a[::128] = 1.0
        exact = _exact_sum(a)
        assert Fraction(float(np.sum(a))) < exact - 4 * Fraction(math.ulp(float(exact)))
        lo, hi = _banded_sum(a)
        assert Fraction(lo) <= exact <= Fraction(hi)

    def test_cancellation_and_empty(self):
        a = np.array([1e300, 1.0, -1e300, 2.0**-1074])
        lo, hi = _banded_sum(a)
        assert Fraction(lo) <= _exact_sum(a) <= Fraction(hi)
        lo, hi = _banded_sum(np.zeros(0))
        assert lo <= 0.0 <= hi

    def test_non_finite(self):
        assert _banded_sum(np.array([1.0, math.inf])) == (math.inf, math.inf)
        lo, hi = _banded_sum(np.array([math.nan, 1.0]))
        assert math.isnan(lo) and math.isnan(hi)


class TestSeriesTailBound:
    @staticmethod
    def check_grid(beta, rate, domain):
        # custom copies of sos(beta) (rate 1) and a slower tail: the reported
        # tail_bound covers the rounding of Q(j)**p, which the power
        # multiplies, and on Z the rounding of 1 + 2 * arm as well
        pot = custom(beta, [[j, j] for j in range(1, 6)], {"type": "exp", "rate": rate})
        zero = 1.0 if domain == DOMAIN_Z else 0.0
        with mpmath.workdps(50):
            b, r = mpmath.mpf(beta), mpmath.mpf(rate)
            for p in range(1, 8):
                report = p_norm(pot, float(p), domain)
                arm = _progression_sum(pot, 1, 1, float(p), 1e-10)[0]
                computed = zero + 2.0 * arm
                assert report.value == computed ** (1.0 / p)
                x = p * b
                exact = zero + 2 * (sum(mpmath.exp(-x * j) for j in range(1, 6))
                                    + mpmath.exp(-x * (5 + r)) / -mpmath.expm1(-x * r))
                assert abs(mpmath.mpf(computed) - exact) <= report.tail_bound
                assert report.tail_bound <= 1e-15 * computed

    @pytest.mark.parametrize("rate", [1.0, 0.37])
    @pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 2.0, 3.0, 3.7])
    def test_z_domain_bound_holds(self, beta, rate):
        self.check_grid(beta, rate, DOMAIN_Z)

    @pytest.mark.parametrize("rate", [1.0, 0.37])
    @pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 2.0, 3.0, 3.7])
    def test_z_star_domain_bound_holds(self, beta, rate):
        # all of the bound is series error here: at beta 2, p 7 a flat
        # 4e-16 * value allowance was 6.65e-22 against an error of 8.10e-22
        self.check_grid(beta, rate, DOMAIN_Z_STAR)

    def test_custom_sos_copy_at_p7(self):
        pot = custom(3.7, [[j, j] for j in range(1, 6)], {"type": "exp", "rate": 1})
        report = p_norm(pot, 7.0, DOMAIN_Z)
        assert report.tail_bound >= 2.0**-53
        assert p_norm(pot, 7.0, DOMAIN_Z_STAR).tail_bound < 1e-26


class TestPowerTail:
    @given(
        s=st.floats(1.0, 100.0, exclude_min=True),
        x0=st.one_of(st.integers(1, 100).map(float), st.floats(1.0, 1e7)),
        step=st.integers(1, 8),
    )
    # corrections stop at the third and the remainder is about 0.024 f(x0);
    # a dropped remainder or a flipped Bernoulli sign misses zeta(2)
    @example(s=2.0, x0=1.0, step=1)
    @example(s=3.5, x0=7.0, step=3)
    # a subnormal integral (6.069e-319): the outward nextafter moves lo one
    # subnormal ulp below it, far beyond the relative allowance
    @example(s=49.0, x0=3930904.0, step=1)
    @settings(max_examples=60, deadline=None)
    def test_encloses_mpmath_sum_inside_integral_bracket(self, s, x0, step):
        lo, hi = _power_tail(0.0, x0, s, step)
        # sum_n (x0 + n step)^-s = step^-s zeta(s, x0/step), to 60 digits
        with mpmath.workdps(60 + int(s * math.log10(x0))):
            S = mpmath.mpf(s)
            exact = +(mpmath.mpf(step) ** -S * mpmath.zeta(S, mpmath.mpf(x0) / step))
        # the allowance is relative: certified down to the smallest normal float
        tiny = 2.0**-1022
        assert lo - tiny <= exact <= hi + tiny
        if exact > tiny:
            assert lo <= exact <= hi
        # the integral bracket [integral, integral + f(x0)], up to the
        # rounding allowance (below 1e-11 relative on this domain) and the
        # outward nextafter of each end (one ulp, which is absolute among
        # the subnormals)
        y = (1.0 - s) * math.log(x0)
        integral = (math.exp(y) if y > -745 else 0.0) / (step * (s - 1.0))
        first = math.exp(-s * math.log(x0)) if -s * math.log(x0) > -745 else 0.0
        assert lo >= integral - 1e-11 * (integral + first) - 2.0**-1074
        assert hi <= (integral + first) * (1.0 + 1e-11) + 2.0**-1074

    def test_divergent_and_overflowing(self):
        assert _power_tail(0.0, 5.0, 1.0, 1) == (math.inf, math.inf)
        assert _power_tail(800.0, 5.0, 1.5, 1) == (math.inf, math.inf)


class TestLogClosedForm:
    def test_within_tail_bound_of_mpmath(self):
        # p * beta from 1.0001 to 90 (p = 1, so value is the power sum):
        # 1 + 2 zeta(s, 2) on Z and 2 zeta(s, 2) on Z without zero
        for s in np.linspace(1.0001, 90.0, 300).tolist():
            with mpmath.workdps(90):
                zm1 = mpmath.zeta(mpmath.mpf(s)) - 1
            for domain, exact in ((DOMAIN_Z, 1 + 2 * zm1), (DOMAIN_Z_STAR, 2 * zm1)):
                rep = p_norm(log_potential(s), 1.0, domain, cross_check=False)
                assert rep.method == "closed_form"
                assert abs(mpmath.mpf(rep.value) - exact) <= rep.tail_bound, (s, domain)

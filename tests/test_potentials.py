"""Tests for transfer operators, certified norms, class sums, double sums.

Reference values were frozen from an independent mpmath script (40 digits,
brute summation over windows up to 3e6 plus crude remainder brackets).
"""

import hashlib
import json
import math
import statistics
import timeit
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treegibbs.potentials as potentials_mod
from treegibbs.errors import ConfigError, NotSummableError, NumericalError, TailUndeclaredError
from treegibbs.potentials import (
    DOMAIN_Z,
    DOMAIN_Z_STAR,
    DOMAIN_ZQ,
    DOMAIN_ZQ_STAR,
    _CHUNK,
    _ROW_BLOCK,
    _START_RADIUS,
    _UNIT_ROUNDOFF,
    TailModel,
    _banded_sum,
    _Bracket,
    _certified_sum,
    _closed_power_sum,
    _EM_COEFFS,
    _exp,
    _hurwitz_rows,
    _MonotoneEnvelope,
    _power_tail,
    _smallest_radius,
    _progression_sum,
    _progression_sums,
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

    def test_integer_arguments(self):
        # an int base met an int power in numpy, which raised a bare ValueError
        assert hurwitz_zeta(2, 1) == hurwitz_zeta(2.0, 1.0)
        for s, a in (("two", 1.0), (None, 1.0), (2.0, [1.0])):
            with pytest.raises(ConfigError, match="real s and a"):
                hurwitz_zeta(s, a)

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

    def test_hopeless_power_names_its_own_floor(self):
        # at beta = 1e308 the power's rounding alone, u/2 (1 + (|s| + 4) u),
        # is about 6e275 of the sum: no rel_tol below 1 certifies it, so the
        # refusal names that floor and does not advise loosening rel_tol
        with pytest.raises(NumericalError, match=r"rounding floor .* after 64 terms") as exc:
            fuzzy_Q(log_potential(1e308), 3)
        message = str(exc.value)
        assert "loosen rel_tol" not in message
        assert message.endswith("so no number of terms certifies it; "
                                "no rel_tol below 6.16e+275 can")


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

    @pytest.mark.parametrize("make", [sos, log_potential], ids=["sos", "log"])
    def test_huge_q_refused_before_allocating(self, make):
        # q = 2^40 classes would need 8 TiB per array: refused in milliseconds
        with pytest.raises(NumericalError, match="^q=1099511627776 exceeds the cap of 67108864"):
            fuzzy_Q(make(2.0), 1 << 40)

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

    @pytest.mark.parametrize("pot,q", [
        (sos(0.7), 64), (sos(3.0), 256), (sos(12.0), 8), (sos(40.0), 3),
        (log_potential(2.6), 5), (log_potential(3.0), 8),
    ])
    def test_each_class_within_its_own_error(self, pot, q):
        # sos 0.7 at q = 64 rounds the exponent 0.7 * 40 of class 24 and
        # misses by 1.8e-15 relative: a flat 4e-16 relative error is too small
        fq = fuzzy_Q(pot, q)
        norm = fq.normalized_op()
        with mpmath.workdps(40):
            b = mpmath.mpf(pot.beta)
            if pot.kind == "sos":
                exact = [(mpmath.exp(-b * j) + mpmath.exp(-b * (q - j))) / -mpmath.expm1(-b * q)
                         for j in range(q)]
            else:
                exact = [q ** -b * (mpmath.zeta(b, mpmath.mpf(1 + j) / q)
                                    + mpmath.zeta(b, mpmath.mpf(q + 1 - j) / q)) for j in range(q)]
            for j in range(q):
                assert abs(mpmath.mpf(fq.values[j]) - exact[j]) <= fq.errors[j], j
                ratio = exact[j] / exact[0]
                assert abs(mpmath.mpf(norm.values[j]) - ratio) <= norm.errors[j], j
                assert fq.errors[j] <= 1e-12 * fq.values[j]

    @pytest.mark.parametrize("beta", [1.05, 1.5, 2.3, 2.6, 3.0, 5.0, 8.0, 20.0, 120.0, 650.0])
    def test_log_classes_against_40_digits(self, beta):
        # a log class is off by its two arms' certified errors plus u for
        # their sum; at beta >= 20 the arms' tails are far below u, so the
        # class is within 4e-16 and its bound within 1e-15, relative
        for q in (2, 3, 5, 8, 17, 64, 1000):
            fq = fuzzy_Q(log_potential(beta), q)
            assert fq.values[1:].tobytes() == fq.values[:0:-1].tobytes()
            classes = range(q) if q <= 17 else sorted({*range(9), q // 4, q // 3, q // 2})
            with mpmath.workdps(40):
                b = mpmath.mpf(beta)
                for j in classes:
                    value, error = fq.values[j], fq.errors[j]
                    if value < 2.0**-1022:  # below the normal range
                        continue
                    exact = mpmath.mpf(q) ** -b * (mpmath.zeta(b, mpmath.mpf(1 + j) / q)
                                                   + mpmath.zeta(b, mpmath.mpf(q + 1 - j) / q))
                    miss = abs(mpmath.mpf(value) - exact)
                    assert miss <= error, (q, j)
                    if beta >= 20:
                        assert miss <= 4e-16 * exact and error <= 1e-15 * value, (q, j)

    @pytest.mark.parametrize("beta,q,digest", [
        (4.0, 2, "b360fbded754efdd"), (3.0, 16, "d7d3136a35104395"),
    ])
    def test_log_classes_keep_the_bytes_of_the_scaled_form(self, beta, q, digest):
        # the chains of the bench's wide W_n law and of periodic log 3.0,
        # q = 16 read these classes; q^(-beta) zeta(beta, (1 + r)/q) gave them
        values = fuzzy_Q(log_potential(beta), q).values
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta,q", [
        (650.0, 3), (700.0, 3), (1000.0, 3), (1022.0, 2), (1023.5, 2), (120.0, 1000),
    ])
    def test_log_classes_where_q_to_the_beta_overflows(self, beta, q):
        # zeta(beta, 1/q) holds q^beta, which overflows; the arms are
        # progressions of Q, summed with no overflow warning
        fq = fuzzy_Q(log_potential(beta), q)
        assert np.all(np.isfinite(fq.values)) and fq.values[0] >= 1.0
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            for j in range(q):
                exact = q ** -b * (mpmath.zeta(b, mpmath.mpf(1 + j) / q)
                                   + mpmath.zeta(b, mpmath.mpf(q + 1 - j) / q))
                assert abs(mpmath.mpf(fq.values[j]) - exact) <= fq.errors[j], j

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e308, 1.7e308])
    @pytest.mark.parametrize("q", [2, 5])
    def test_sos_classes_where_beta_q_overflows(self, beta, q):
        # b q overflows: every e^{-bj}, j >= 1, is 0, and so are Q off 0; the
        # closed form charges those zero terms as it does at beta = 1e16,
        # one subnormal unit each, and class 0 its 16 u besides
        fq = fuzzy_Q(sos(beta), q)
        assert fq.values.tolist() == [1.0] + [0.0] * (q - 1)
        assert fq.errors.tolist() == [16 * 2.0**-53 + 2.0**-1074] + [2 * 2.0**-1074] * (q - 1)
        assert sos(beta).Q(np.arange(-2, 3)).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e16, 1e308])
    def test_sos_class_bound_where_a_term_is_zero(self, beta):
        # Q_1(0) = (1 + e^{-b})/(1 - e^{-b}) = 1 within far less than a
        # subnormal unit; the zero term e^{-b} costs that unit, not b u
        fq = fuzzy_Q(sos(beta), 1)
        assert fq.values.tolist() == [1.0]
        assert 0.0 < fq.errors[0] <= 16 * 2.0**-53 + 2.0**-1074
        # q = 3: classes 1 and 2 hold two zero terms each, e^{-b} and e^{-2b}
        fq = fuzzy_Q(sos(1e16), 3)
        assert fq.values.tolist() == [1.0, 0.0, 0.0]
        assert fq.errors.tolist()[1:] == [2 * 2.0**-1074] * 2
        assert fq.errors[0] <= 16 * 2.0**-53 + 2.0**-1074

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

    def test_zq_star_norm_of_one_class_is_zero(self):
        # q = 1 has only the zero class, so Z_q without zero is empty
        rep = fuzzy_Q(log_potential(3.0), 1).p_norm(1.5, without_zero=True)
        assert (rep.value, rep.tail_bound, rep.domain) == (0.0, 0.0, DOMAIN_ZQ_STAR)
        assert rep.method == "finite_sum"

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


def _fuzzy_from_one_row_arms(pot, q, rel_tol=1e-12):
    """fuzzy_Q's log and custom class sums from one one-row call per arm, as
    it took them before its arms shared one summation pass."""
    if pot.kind == "log":
        rounding = 1.0
        arms = [_hurwitz_rows(pot.beta, [1.0 + r], rel_tol / 4, q)[0][:2] for r in range(q + 1)]
    else:
        rounding = pot.beta + 8
        arms = [_progression_sum(pot, r, q, 1.0, rel_tol / 4)[:2] for r in range(q + 1)]
    values = np.array([arms[j][0] + arms[q - j][0] for j in range(q)])
    errors = np.array([arms[j][1] + arms[q - j][1] for j in range(q)])
    return values, errors + rounding * _UNIT_ROUNDOFF * values


# U = j / 10 tabulated on 1..199: at q = 1 and 2 the arms start past the
# table, at N = 99 to 200 terms and at two different starts
LONG_TABLE = custom(1.2, [[j, 0.1 * j] for j in range(1, 200)], TailModel("power", 1.1))

CLASS_SUM_POTENTIALS = {
    "log_2.6": log_potential(2.6),
    "log_1.05": log_potential(1.05),
    "custom_exp": custom(1.5, [[1, 0.5], [2, 1.7], [3, 2.0]], TailModel("exp", 0.3)),
    "custom_power": custom(2.0, [[1, 0.8], [2, 1.3]], TailModel("power", 1.5)),
    "custom_long_table": LONG_TABLE,
}


class TestClassSumRows:
    """One summation pass over many rows gives each row its one-row result."""

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 17, 256, 1000])
    @pytest.mark.parametrize("name", sorted(CLASS_SUM_POTENTIALS))
    def test_fuzzy_Q_matches_one_row_arms_bit_for_bit(self, name, q):
        pot = CLASS_SUM_POTENTIALS[name]
        fq = fuzzy_Q(pot, q)
        values, errors = _fuzzy_from_one_row_arms(pot, q)
        assert fq.values.tobytes() == values.tobytes()
        assert fq.errors.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_progression_rows_with_their_own_starts(self, q):
        rows = _progression_sums(LONG_TABLE, range(q + 1), q, 1.0, 2.5e-13)
        assert rows == [_progression_sum(LONG_TABLE, r, q, 1.0, 2.5e-13) for r in range(q + 1)]
        if q < 5:
            assert len({N for _, _, N in rows}) > 1 and min(N for _, _, N in rows) > 64

    def test_hurwitz_rows_match_one_row_calls(self):
        # a = 1 is an integral base, summed apart from the rounded ones
        a = [(1 + r) / 7 for r in range(8)]
        rows = _hurwitz_rows(3.3, a, 1e-13)
        assert rows == [_hurwitz_rows(3.3, [x], 1e-13)[0] for x in a]
        assert [row[:2] for row in rows] == [hurwitz_zeta(3.3, x, 1e-13) for x in a]

    def test_rows_stop_at_their_own_n(self):
        # row i brackets its remainder sum_{n>=N} (n+1)^-2 <= 1/N loosely, as
        # [0, 4^i / N], so it certifies 1e-3 only from N ~ 300 * 4^i on; the
        # last two rows share the chunks of 2^16 terms, one array each
        def run(rows):
            ones = np.ones((len(rows), 1))
            return _certified_sum(lambda sel, n: n + ones[sel], -2.0,
                                  lambda i, N: (0.0, 4.0 ** rows[i] / N),
                                  [64] * len(rows), 1e-3, str, [False] * len(rows))

        together = run(list(range(6)))
        assert [N for _, _, N in together] == [512, 2048, 8192, 32768, 131072, 524288]
        assert together == [run([i])[0] for i in range(6)]

    def test_a_row_no_n_certifies_is_refused_before_the_others_run_on(self, monkeypatch):
        # no row certifies; the rows run in lockstep only while their chunks
        # are shorter than _ROW_BLOCK terms, then one by one, so row 0 is
        # refused before rows 1 and 2 are summed past that
        monkeypatch.setattr(potentials_mod, "_MAX_RADIUS", 1 << 14)
        ones, summed = np.ones((3, 1)), []

        def base(sel, n):
            summed.append((sel, n[-1]))
            return n + ones[sel]

        with pytest.raises(NumericalError, match="row 0 did not certify"):
            _certified_sum(base, -2.0, lambda i, N: (0.0, 1e9), [64] * 3, 1e-3,
                           lambda i: f"row {i}", [False] * 3)
        assert max(last for sel, last in summed) == (1 << 14) - 1
        assert max(last for sel, last in summed if sel != slice(0, 1)) < _ROW_BLOCK


def _power_tail_per_term_loop(logC, x0, s, step):
    """_power_tail as it was before its loop was tightened: the same bits."""
    if s <= 1.0:
        return _Bracket(math.inf, math.inf)
    lx = math.log(x0)
    first = _exp(logC - s * lx)
    integral = _exp(logC + (1.0 - s) * lx) / (step * (s - 1.0))
    lo, hi = integral, integral + first
    if not math.isfinite(hi):
        return _Bracket(math.inf, math.inf)
    if hi == 0.0:
        return _Bracket(0.0, 0.0)
    est, prev = integral + 0.5 * first, 0.5 * first
    r = step / x0
    scale = first * s * r
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * scale
        if not abs(term) < prev:
            break
        lo, hi = (est, est + term) if term > 0 else (est + term, est)
        est += term
        prev = abs(term)
        scale *= (s + 2 * k - 1) * (s + 2 * k) * r * r
    e = abs(logC) + 4.0 * s * abs(lx) + 5.0
    slack = (e + 9 * k + 2) * _UNIT_ROUNDOFF * (integral + (k + 1) * first)
    lo, hi = _Bracket(lo, hi).widen(slack)
    return _Bracket(max(0.0, lo), hi)


def _certified_sum_per_call(base, power, tail, start, rel_tol, what, rounded_base=True):
    """_certified_sum as it was before it took rows: one series per call."""
    parts: list[float] = []
    slop: list[float] = []
    upto, N = 0, start
    while True:
        while upto < N:
            hi = min(upto + _CHUNK, N)
            b = base(np.arange(upto, hi))
            t = b ** power
            chunk = t.tolist()
            c = math.fsum(chunk)
            chunk.append(-c)
            parts += (c, math.fsum(chunk) if math.isfinite(c) else 0.0)
            half = 0.5 * abs(power) * np.spacing(b) / np.maximum(b, 2.0**-1022) if rounded_base else 0.0
            slop.append(math.fsum((t * half + np.spacing(t)).tolist()))
            upto = hi
        lo, hi = tail(N)
        if not math.isfinite(hi):
            raise NumericalError(f"{what}: the tail bracket after {N} terms is not finite")
        value = 0.5 * math.fsum([*parts, *parts, lo, hi])
        if not math.isfinite(value):
            return (value, math.inf, N)
        floor = math.fsum(slop)
        rounding = floor + 0.5 * math.ulp(value)
        err = (0.5 * (hi - lo) + rounding) * (1.0 + (abs(power) + 4) * _UNIT_ROUNDOFF)
        if err <= rel_tol * value:
            return (value, err, N)
        if value < 2.0**-1022:
            return (0.0, value + err, N)
        if floor * (1.0 - rel_tol) > rel_tol * (value + err):
            raise NumericalError(f"{what}: rounding floor")
        if N >= 1 << 26:
            raise NumericalError(f"{what} did not certify")
        N *= 2


def _hurwitz_zeta_per_call(s, a, rel_tol=1e-12):
    """hurwitz_zeta as it was before rows shared one summation loop."""
    try:
        s, a = float(s), float(a)
    except (TypeError, ValueError):
        raise ConfigError(f"hurwitz_zeta needs real s and a, got {s!r}, {a!r}") from None
    if s <= 1.0:
        raise ConfigError(f"hurwitz_zeta needs s > 1, got {s}")
    if a <= 0.0:
        raise ConfigError(f"hurwitz_zeta needs a > 0, got {a}")
    if not 0.0 < rel_tol < math.inf:
        raise ConfigError(f"rel_tol must be a positive finite float, got {rel_tol!r}")
    value, err, _ = _certified_sum_per_call(
        lambda n: n + a, -s, lambda N: _power_tail_per_term_loop(0.0, N + a, s, 1.0),
        _START_RADIUS, rel_tol, f"hurwitz_zeta(s={s}, a={a})",
        rounded_base=not a.is_integer(),
    )
    return (value, err)


class TestOneRowSpeed:
    def test_hurwitz_zeta_is_no_slower_than_the_per_call_loop(self):
        # threshold probes call hurwitz_zeta twice each; the row-valued loop
        # must not make one call slower.  The median time ratio of 60
        # back-to-back pairs read 0.94-0.97 on a 2-core host; the margin
        # absorbs timer noise on a shared one
        assert hurwitz_zeta(5.2, 2.0) == _hurwitz_zeta_per_call(5.2, 2.0)
        ratios = [timeit.timeit(lambda: hurwitz_zeta(5.2, 2.0), number=100)
                  / timeit.timeit(lambda: _hurwitz_zeta_per_call(5.2, 2.0), number=100)
                  for _ in range(60)]
        assert statistics.median(ratios) <= 1.1

    @given(logC=st.floats(-800.0, 800.0), x0=st.floats(1.0, 1e12),
           s=st.floats(1.0, 200.0), step=st.integers(1, 1000))
    @example(logC=0.0, x0=66.0, s=5.2, step=1)
    @settings(max_examples=300, deadline=None)
    def test_power_tail_keeps_its_bits(self, logC, x0, s, step):
        assert _power_tail(logC, x0, s, step) == _power_tail_per_term_loop(logC, x0, s, step)


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

    # verdict, value and outer radius of the earlier loop, which summed each
    # inner sum to a fixed length by a bare fsum plus its tail bracket
    @pytest.mark.parametrize("pot,value,radius", [
        (sos(2.5), 0.027313936633625246, 256),
        (log_potential(3.0), 0.10768527321587382, 256),
        (log_potential(2.2), 0.46275886845869507, 512),
        (log_potential(1.1), 67.77655744416316, 32768),
        (custom(2.0, [[1, 1.0]], TailModel("power", 0.6)), 3.5262051777458328, 16384),
    ], ids=["sos2.5", "log3.0", "log2.2", "log1.1", "power0.6"])
    def test_pinned_verdicts(self, pot, value, radius):
        rep = check_double_sum(pot, 2)
        assert (rep.verdict, rep.outer_radius, rep.witness) == ("finite", radius, None)
        assert rep.value == pytest.approx(value, rel=1e-12)

    def test_unknown_past_the_outer_cap(self):
        rep = check_double_sum(log_potential(1.02), 2)
        assert (rep.verdict, rep.outer_radius) == ("unknown", 32768)
        assert rep.witness == "certificate did not converge within caps"
        assert rep.value == pytest.approx(884.4350629092473, rel=1e-12)

    def test_outer_tail_starts_past_a_long_table(self):
        # a bump at 290 in a 300-entry table: the outer bound models the
        # tail past the table, so it must not stand for i = 257..300
        pot = custom(2.0, [[j, 0.1 if j == 290 else 10.0] for j in range(1, 301)],
                     TailModel("exp", 0.05))
        rep = check_double_sum(pot, 2)
        assert (rep.verdict, rep.outer_radius) == ("finite", 512)
        # the envelope is the suffix max of Q up to m = M (Q decreases past
        # the table), and each inner sum adds its geometric tail past M
        M, rate = 20000, pot.beta * 0.05
        env = np.maximum.accumulate(pot.Q(np.arange(M, 0, -1)))[::-1]
        inner = [math.fsum(env[i - 1::i].tolist())
                 + pot.Q((M // i + 1) * i) / -math.expm1(-rate * i) for i in range(1, M + 1)]
        brute = math.fsum(x ** 1.5 for x in inner)
        assert brute == pytest.approx(8901.992511205255, rel=1e-14)
        assert rep.value == pytest.approx(brute, rel=potentials_mod._DOUBLE_SUM_TOL)

    def test_a_refused_inner_sum_is_unknown(self, monkeypatch):
        def refuse(base, power, tail, starts, rel_tol, what, rounded):
            raise NumericalError(f"{what(0)}: refused")

        monkeypatch.setattr(potentials_mod, "_certified_sum", refuse)
        rep = check_double_sum(log_potential(3.0), 2)
        assert (rep.verdict, rep.value, rep.outer_radius) == ("unknown", None, None)
        assert rep.witness == "double-sum inner sum i=1: refused"

    def test_rows_run_once(self, monkeypatch):
        # each doubling of I sums only the new rows
        calls = []
        certified_sum = potentials_mod._certified_sum

        def recording(base, power, tail, starts, rel_tol, what, rounded):
            calls.append((what(0), len(starts)))
            return certified_sum(base, power, tail, starts, rel_tol, what, rounded)

        monkeypatch.setattr(potentials_mod, "_certified_sum", recording)
        rep = check_double_sum(log_potential(2.2), 2)
        rows = [call for call in calls if call[0].startswith("double-sum")]
        assert rep.outer_radius == 512
        assert rows == [("double-sum inner sum i=1", 256), ("double-sum inner sum i=257", 256)]

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

    @pytest.mark.parametrize("beta", [2.0, 40.0, 400.0])
    def test_exp_bracket_holds_the_mpmath_value(self, beta):
        # the closed form e^(-s l0) / (1 - e^(-s step)), s = p beta, rounds:
        # its bracket must hold the 50-digit value wherever that is normal
        cases = 0
        for l0 in (1, 2, 3):
            for step in (1, 2, 5):
                for p in (1.0, 1.5, 3.0):
                    with mpmath.workdps(50):
                        s = mpmath.mpf(p) * mpmath.mpf(beta)
                        exact = mpmath.exp(-s * l0) / -mpmath.expm1(-s * step)
                    if exact < 2.0**-1022:
                        continue
                    lo, hi = _tail_bracket(sos(beta), l0, step, p)
                    assert lo <= exact <= hi, (l0, step, p)
                    cases += 1
        assert cases >= 6

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


@st.composite
def brackets(draw, size, positive=False):
    """A float bracket (size None) or an array bracket of that size, each
    entry with finite ends 0 <= lo <= hi, or 1e-30 <= lo <= hi if positive."""
    end = st.floats(1e-30 if positive else 0.0, 1e30)
    pairs = draw(st.lists(st.tuples(end, end).map(sorted),
                          min_size=size or 1, max_size=size or 1))
    if size is None:
        return _Bracket(*pairs[0])
    lo, hi = np.array(pairs).T
    return _Bracket(lo, hi)


def _ends(b):
    """Each entry's (lo, hi) as Fractions."""
    return [(Fraction(lo), Fraction(hi))
            for lo, hi in zip(np.atleast_1d(b.lo).tolist(), np.atleast_1d(b.hi).tolist())]


class TestBracket:
    @given(data=st.data(), size=st.sampled_from([None, 1, 3]),
           err=st.floats(0.0, 1e30), quarters=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_every_operation_encloses_the_exact_value(self, data, size, err, quarters):
        x = data.draw(brackets(size))
        y = data.draw(brackets(size, positive=True))
        E = Fraction(err)
        mid = (x.lo + x.hi) / 2  # a float inside x
        cases = [  # (result, exact lower end, exact upper end) per entry
            (_Bracket.around(x.lo, err), lambda X, Y: X[0] - E, lambda X, Y: X[0] + E),
            (x.widen(err), lambda X, Y: X[0] - E, lambda X, Y: X[1] + E),
            (x + y, lambda X, Y: X[0] + Y[0], lambda X, Y: X[1] + Y[1]),
            (x + err, lambda X, Y: X[0] + E, lambda X, Y: X[1] + E),
            (x / y, lambda X, Y: X[0] / Y[1], lambda X, Y: X[1] / Y[0]),
            (x / y.hi, lambda X, Y: X[0] / Y[1], lambda X, Y: X[1] / Y[1]),
            (err / y, lambda X, Y: E / Y[1], lambda X, Y: E / Y[0]),
        ]
        for result, lower, upper in cases:
            if size is None:
                assert type(result.lo) is float and type(result.hi) is float
            for (lo, hi), X, Y in zip(_ends(result), _ends(x), _ends(y)):
                assert lo <= lower(X, Y) and upper(X, Y) <= hi
        # x ** (quarters / 4): compare fourth powers with x^quarters
        for (lo, hi), (xl, xh) in zip(_ends(x ** (quarters / 4)), _ends(x)):
            assert lo <= 0 or lo**4 <= xl**quarters
            assert xh**quarters <= hi**4
        for r, (xl, xh), m in zip(np.atleast_1d(x.radius(mid)).tolist(), _ends(x),
                                  np.atleast_1d(mid).tolist()):
            assert max(xh - Fraction(m), Fraction(m) - xl) <= Fraction(r)


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


class TestSosClosedForm:
    @given(beta=st.floats(0.5, 8.0), p=st.floats(1.0, 700.0),
           include_zero=st.booleans())
    # norms --model sos at d = 199, 249 and 599: the rounding of p * beta
    # moves e^-(p beta) by 3.5e-14 to 5.3e-14 relative, far beyond a flat
    # 4e-16 * value allowance
    @example(beta=3.3, p=200.0, include_zero=False)
    @example(beta=2.7, p=250.0, include_zero=False)
    @example(beta=1.1, p=600.0, include_zero=False)
    @example(beta=8.0, p=700.0, include_zero=False)  # 2 e^-5600 flushes to 0
    @settings(max_examples=200, deadline=None)
    def test_within_tail_bound_of_mpmath(self, beta, p, include_zero):
        value, err = _closed_power_sum(sos(beta), p, include_zero)
        domain = DOMAIN_Z if include_zero else DOMAIN_Z_STAR
        assert p_norm(sos(beta), p, domain, cross_check=False).tail_bound == err
        with mpmath.workdps(50):
            off = 2 / mpmath.expm1(mpmath.mpf(p) * mpmath.mpf(beta))
            exact = 1 + off if include_zero else off
            assert abs(mpmath.mpf(value) - exact) <= err


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


class TestSmallestRadius:
    @staticmethod
    def _fits_from(least):
        calls = []

        def fits(R):
            calls.append(R)
            # a search that stops making progress fails here instead of hanging
            assert len(calls) < 200, calls[-5:]
            return R >= least
        return fits, calls

    @pytest.mark.parametrize("start", [0, 1, 3, 5])
    def test_least_fitting_radius(self, start):
        fits, _ = self._fits_from(5)
        assert _smallest_radius(fits, start, 1 << 20, "") == max(start, 5)

    def test_start_zero_that_fits(self):
        fits, calls = self._fits_from(0)
        assert _smallest_radius(fits, 0, 10, "") == 0 and calls == [0]

    def test_refuses_past_the_cap(self):
        fits, _ = self._fits_from(100)
        with pytest.raises(NumericalError, match="too far"):
            _smallest_radius(fits, 0, 64, "too far")

"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits a single PASS/FAIL line on
the real stdout (bypassing capture) so a plain pytest run yields a ten-line
scorecard.  Tolerances and runtime budgets are stated inline; reference
values are recomputed from closed forms wherever one exists.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from treegibbs.boundary_law import (
    SolveConfig,
    localization_bounds,
    periodic_solve,
    solve_fixed_point,
)
from treegibbs.errors import NotSummableError, NumericalError
from treegibbs.ggm import fuzzy_chain, ggm_edge_marginal, increment_laws
from treegibbs.goodset import (
    GoodSetQuery,
    beta_threshold,
    binary_delta_boundary,
    binary_delta_boundary_radical,
    membership,
)
from treegibbs.potentials import (
    DOMAIN_Z,
    DOMAIN_Z_STAR,
    check_double_sum,
    custom,
    fuzzy_Q,
    log_potential,
    norm_pair,
    p_norm,
    sos,
)
from treegibbs.pathsim import (
    recover_period,
    sample_path,
    sample_wn,
    wn_ggm_exact,
    wn_localized_exact,
)


@contextlib.contextmanager
def stamp(capfd, num, name):
    """Print one scorecard line per criterion, visible under capture."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"acceptance {num:02d} {name}: FAIL", flush=True)
        raise
    dt = time.monotonic() - t0
    with capfd.disabled():
        print(f"acceptance {num:02d} {name}: PASS ({dt:.2f}s)", flush=True)


FAMILIES = {"sos": sos, "log": log_potential}

# Reference thresholds, one per (family, degree).  The sos d=7 entry is a
# recomputation: the commonly quoted 0.6198 fails its own defining
# inequalities (the norm pair at that beta is not on the membership
# boundary), see the decisions ledger.  All other cells are the published
# rounded values.
SOS_REF = {2: 1.997, 3: 1.321, 6: 0.7240, 7: 0.637195217087,
           100: 0.06946, 1000: 9.238e-3}
LOG_REF = {2: 2.908, 3: 1.930, 6: 1.057, 7: 0.9297, 100: 0.1005,
           1000: 0.01334}


@pytest.fixture(scope="module")
def sos25():
    pot = sos(2.5)
    law, report = solve_fixed_point(pot, 2)
    return pot, law, report


@pytest.fixture(scope="module")
def ggm2():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 2)
    fc = fuzzy_chain(law, fuzzy_Q(pot, 2))
    return pot, fc, increment_laws(pot, 2)


@pytest.fixture(scope="module")
def ggm_free():
    pot = sos(2.0)
    law, _ = periodic_solve(pot, 2, 1)
    fc = fuzzy_chain(law, fuzzy_Q(pot, 1))
    return pot, fc, increment_laws(pot, 1)


def test_criterion_01_threshold_table(capfd):
    with stamp(capfd, 1, "threshold table"):
        t0 = time.monotonic()
        for family, refs in (("sos", SOS_REF), ("log", LOG_REF)):
            for d, ref in refs.items():
                got = beta_threshold(family, d, tol=1e-7)
                unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 3)
                assert abs(got - ref) <= unit, (family, d, got, ref)
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_binary_boundary_curve(capfd):
    with stamp(capfd, 2, "binary boundary curve"):
        t0 = time.monotonic()
        for k in range(50):
            g = 1.0 + 9.0 * (k + 1) / 50.0
            dl = binary_delta_boundary(g)
            res = (16 * g**2 * dl**4 + 24 * g**3 * dl**2
                   + (16 * g**5 - 4 * g**2) * dl - 3 * g**4)
            assert abs(res) < 1e-10 * g**4
            assert dl == pytest.approx(binary_delta_boundary_radical(g),
                                       rel=1e-8)
            if g >= 5.0:
                assert abs(dl * 16.0 * g / 3.0 - 1.0) < 0.02
        assert time.monotonic() - t0 < 1.0


def test_criterion_03_norm_cross_checks(capfd):
    # Pure-series evaluation is forced by rebuilding each family as a custom
    # table with the identical declared tail; no closed form is attached to
    # those, so p_norm falls back to certified summation.
    def sos_clone(beta):
        return custom(beta, [[j, float(j)] for j in range(1, 9)],
                      {"type": "exp", "rate": 1.0})

    def log_clone(beta):
        return custom(beta, [[j, math.log1p(j)] for j in range(1, 9)],
                      {"type": "power", "exponent": 1.0})

    with stamp(capfd, 3, "norm cross-checks"):
        t0 = time.monotonic()
        pairs = 0
        for family, clone, betas in (
            ("sos", sos_clone, np.linspace(0.4, 3.0, 10)),
            ("log", log_clone, np.linspace(1.6, 3.4, 10)),
        ):
            for beta in betas.tolist():
                for d in (2, 3, 4, 6, 10):
                    pairs += 1
                    pot = FAMILIES[family](beta)
                    cl = clone(beta)
                    for p, dom in (((d + 1) / 2, DOMAIN_Z),
                                   (d + 1.0, DOMAIN_Z_STAR)):
                        a = p_norm(pot, p, dom, cross_check=False)
                        b = p_norm(cl, p, dom, rel_tol=1e-12)
                        assert a.method == "closed_form"
                        assert b.method == "series"
                        assert abs(a.value - b.value) <= 1e-9 * a.value
        assert pairs == 100
        assert time.monotonic() - t0 < 10.0


def test_criterion_04_solver_certification(capfd):
    with stamp(capfd, 4, "solver certification"):
        for pot, sandwich in ((sos(2.5), (7.81e-4, 1.64e-3)),
                              (log_potential(3.0), None)):
            t0 = time.monotonic()
            law, report = solve_fixed_point(pot, 2)
            assert report.certified and law.certified
            assert report.final_residual < 1e-12
            assert report.contraction_estimate <= report.lipschitz
            assert law.offzero_norm() <= report.epsilon
            # off-center mass ratio sum_{i != 0} x(i)^{d+1} with x(0) = 1
            ratio = law.offzero_norm() ** 3
            g, dl = norm_pair(pot, 2)
            lo, hi = localization_bounds(g.value, dl.value, 2)
            assert lo <= ratio <= hi
            if sandwich is not None:
                assert sandwich[0] <= ratio <= sandwich[1]
            assert time.monotonic() - t0 < 5.0


def test_criterion_05_periodic_vs_algebra(capfd):
    with stamp(capfd, 5, "periodic solution vs algebra"):
        t0 = time.monotonic()
        # nontrivial root of s*x^2 + (s - 1)*x + s = 0 with s = sech(beta);
        # lambda(1) = x^2 for d = 2
        s = 1.0 / math.cosh(2.0)
        x_root = ((1.0 - s) - math.sqrt((1.0 - s) ** 2 - 4.0 * s * s)) / (2 * s)
        law, _ = periodic_solve(sos(2.0), 2, 2)
        assert abs(law.lam_at(1) - x_root**2) < 1e-9
        # below arccosh(3) only the constant branch exists
        assert 1.5 < math.acosh(3.0)
        with pytest.raises(NumericalError, match="trivial branch"):
            periodic_solve(sos(1.5), 2, 2)
        assert time.monotonic() - t0 < 1.0


def test_criterion_06_ggm_structural_invariants(capfd):
    grid = [("sos", beta, d, q)
            for beta in (2.0, 2.4, 2.8) for d in (2, 3) for q in (1, 2, 4)]
    grid += [("log", beta, d, q)
             for beta in (2.6, 3.2) for d in (2, 3) for q in (1, 3, 5)]
    assert len(grid) == 30
    with stamp(capfd, 6, "ggm structural invariants"):
        for family, beta, d, q in grid:
            pot = FAMILIES[family](beta)
            law, _ = periodic_solve(pot, d, q)
            fc = fuzzy_chain(law, fuzzy_Q(pot, q))
            laws = increment_laws(pot, q)
            assert np.max(np.abs(fc.P.sum(axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(fc.alpha @ fc.P - fc.alpha)) < 1e-12
            flow = fc.alpha[:, None] * fc.P
            assert np.max(np.abs(flow - flow.T)) < 1e-10
            K = max(inc.radius for inc in laws) + q
            nu = ggm_edge_marginal(fc, laws, K)
            tilt = math.fsum((np.arange(-K, K + 1) * nu).tolist())
            # truncation certificate: leaked tail mass can displace the
            # first moment by at most the window length times the bound
            cert = 2.0 * K * (q * 1e-10 + 1e-9) + 1e-13
            assert abs(tilt) < cert


def test_criterion_07_localization_vs_delocalization(capfd, sos25, ggm2, ggm_free):
    with stamp(capfd, 7, "localization vs delocalization"):
        t0 = time.monotonic()
        _, law, _ = sos25
        dist = wn_localized_exact(law, 200)
        assert np.max(np.abs(dist.law - dist.limit)) < 1e-6
        _, fcf, lawsf = ggm_free
        sup64 = wn_ggm_exact(fcf, lawsf, 64).sup()
        sup256 = wn_ggm_exact(fcf, lawsf, 256).sup()
        assert abs(sup256 / sup64 - 0.5) <= 0.05
        _, fc, laws = ggm2
        sups = [wn_ggm_exact(fc, laws, n).sup() for n in (8, 16, 32, 64, 128)]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert time.monotonic() - t0 < 60.0


def test_criterion_08_oracle_equivalence(capfd, sos25, ggm2):
    N = 1_000_000
    with stamp(capfd, 8, "monte carlo vs exact"):
        _, law, _ = sos25
        _, fc, laws = ggm2
        for mode, source in (("gibbs", law), ("ggm", (fc, laws))):
            for n in (1, 8, 32):
                if mode == "gibbs":
                    dist = wn_localized_exact(law, n)
                else:
                    dist = wn_ggm_exact(fc, laws, n)
                w = sample_wn(source, n, N, seed=1000 + n)
                K = dist.window
                assert np.all(np.abs(w) <= K)
                freq = np.bincount((w + K).astype(np.int64),
                                   minlength=2 * K + 1) / N
                for k in range(-K, K + 1):
                    p = dist.prob_at(k)
                    if p < 1e-5:
                        continue
                    bound = 5.0 * math.sqrt(p * (1.0 - p) / N)
                    assert abs(freq[k + K] - p) <= bound, (mode, n, k)


def test_criterion_09_identifiability(capfd, ggm2, ggm_free):
    with stamp(capfd, 9, "period identifiability"):
        pot, fc, laws = ggm2
        inc, _ = sample_path((fc, laws), 100_000, seed=20260814)
        reports = recover_period(inc, [1, 2, 3, 4], 2, pot)
        assert all(r.minimal_period == 2 for r in reports)
        r2 = next(r for r in reports if r.q_tested == 2)
        alpha = np.array([0.92706, 0.07294])
        dev = min(float(np.max(np.abs(r2.empirical - np.roll(alpha, s))))
                  for s in range(2))
        # sigma inflated by the exact integrated autocorrelation time of
        # the two-state class chain
        rho = 1.0 - fc.P[0, 1] - fc.P[1, 0]
        tau = (1.0 + rho) / (1.0 - rho)
        sigma = math.sqrt(alpha[0] * alpha[1] * tau / 100_000)
        assert dev <= 3.0 * sigma
        potf, fcf, lawsf = ggm_free
        incf, _ = sample_path((fcf, lawsf), 100_000, seed=5)
        reports_f = recover_period(incf, [1, 2, 3, 4], 2, potf)
        assert all(r.minimal_period == 1 for r in reports_f)


def test_criterion_10_coexistence_map(capfd):
    with stamp(capfd, 10, "coexistence map"):
        # (a) strong coupling: localized measures and q-periodic GGMs coexist
        pot = sos(2.5)
        law, report = solve_fixed_point(pot, 2)
        assert report.certified and law.certified
        ds = check_double_sum(pot, 2)
        assert ds.verdict == "finite"
        for q in range(2, 13):
            plaw, preport = periodic_solve(pot, 2, q)
            assert preport.certified and plaw.certified
        # (b) slowly decaying operator: localized measures certified while
        # every q-periodic construction is refused (Q not summable)
        lp = log_potential(0.9)
        assert p_norm(lp, 1.0, DOMAIN_Z).is_infinite
        found = None
        for d in range(2, 16):
            g, dl = norm_pair(lp, d)
            if membership(GoodSetQuery(d, g.value, dl.value)).in_good_set:
                found = d
                break
        assert found == 8
        for q in (1, 2, 3, 5, 8):
            with pytest.raises(NotSummableError):
                periodic_solve(lp, found, q)
        with capfd.disabled():
            print(f"acceptance 10b recorded: first good degree d = {found} "
                  f"with norm_1 infinite", flush=True)

"""Total increment of the height field along a tree path.

Both measure families drive one Markov-additive walk along a path: a state
chain plus an increment per step.  The localized measure moves an integer
height with kernel P(i,j) = Q(i-j) lam(j) / N(i) on the truncated window,
and its increment is the deterministic j - i; the delocalized one moves a
height class with the fuzzy kernel and draws the increment from the
conditional class law.  The total increment after n steps, W_n, separates
the two regimes: under the localized chain its law converges to the fixed
vector sum_i alpha(i) alpha(i+k), under a class chain the sup of the law
decays to zero at a diffusive rate.

The module computes W_n laws exactly (matrix powers for heights, dynamic
programming over (class, displacement) for classes), samples both walks
through one stepping kernel with counter-based streams keyed by (seed,
replicate), and recovers the height period of an unknown source from the
empirical distribution of its partial sums mod q-tilde.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .boundary_law import (
    MODE_AUTO,
    SUPPORT_TRUNCATED,
    BoundaryLaw,
    SolveConfig,
    _write_meta,
    apply_T_periodic,
    single_site_marginal,
    solve_fixed_point,
    periodic_solve,
)
from .errors import ConfigError, NotSummableError, NumericalError, TreeGibbsError
from .ggm import _MAX_DENSE, FuzzyChain, _check_laws, _class_step_law
from .potentials import _float_stream, fuzzy_Q

__all__ = [
    "MODE_GIBBS",
    "MODE_GGM",
    "VERDICT_ACCEPT",
    "VERDICT_REJECT",
    "VERDICT_UNKNOWN",
    "PathDistribution",
    "RecoveryReport",
    "wn_localized_exact",
    "wn_ggm_exact",
    "sample_path",
    "sample_wn",
    "recover_period",
    "write_wn_csv",
    "write_samples_csv",
]

MODE_GIBBS = "gibbs"
MODE_GGM = "ggm"

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"
VERDICT_UNKNOWN = "unknown"

# effective sample size for the period test discounts serial correlation
# of the height chain by a fixed factor; crude but calibrated on the
# exactly solvable two-class chain
_N_EFF_FACTOR = 10.0

# a sampler refuses a uniform buffer beyond this many float64 draws (512 MiB)
_MAX_UNIFORMS = 1 << 26


@dataclass(frozen=True, eq=False)
class PathDistribution:
    """Law of the total increment W_n on the window {-window, ..., window}.

    ``leaked_mass`` is the exact defect 1 - sum(law): probability that the
    walk left the window, plus whatever the increment truncation already
    gave away.  ``limit`` is only set in gibbs mode and holds the n -> inf
    vector sum_i alpha(i) alpha(i+k) on the same window.
    """

    n: int
    window: int
    law: np.ndarray
    leaked_mass: float
    mode: str
    q: int | None = None
    limit: np.ndarray | None = None

    def __post_init__(self):
        if self.law.shape != (2 * self.window + 1,):
            raise ConfigError(
                f"law has shape {self.law.shape}, window {self.window} "
                f"needs {2 * self.window + 1} entries"
            )
        if float(self.law.min()) < -1e-12:
            raise NumericalError("negative probability in the W_n law")
        total = math.fsum(self.law.tolist()) + self.leaked_mass
        if not (1.0 - 1e-9 <= total <= 1.0 + 1e-12):
            raise NumericalError(
                f"law plus leaked mass sums to {total!r}, expected 1 within 1e-9"
            )
        self.law.setflags(write=False)
        if self.limit is not None:
            self.limit.setflags(write=False)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.window, self.window + 1)

    def prob_at(self, k: int) -> float:
        if abs(k) > self.window:
            raise IndexError(f"k={k} outside window {self.window}")
        return float(self.law[k + self.window])

    def sup(self) -> float:
        return float(self.law.max())

    def mean(self) -> float:
        return math.fsum((self.indices * self.law).tolist())


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Outcome of the period test for one candidate class count q_tested.

    ``lam_tilde`` is the class law proposed from the empirical mod-q
    distribution, empirical^(d/(d+1)) normalized to sum one.  The verdict
    compares the fixed-point residual of that proposal against the
    statistical error of the estimate.  ``gibbs_like`` marks paths whose
    empirical distribution is explained better by the height marginal of a
    localized measure than by any cyclic shift of the class marginal.
    ``minimal_period`` is shared across the reports of one call: the gcd of
    the accepted class counts with non-constant proposals.
    """

    q_tested: int
    empirical: np.ndarray
    lam_tilde: np.ndarray
    residual: float
    stat_error: float
    verdict: str
    matched_alpha: np.ndarray | None
    gibbs_like: bool
    minimal_period: int | None

    def __post_init__(self):
        total = math.fsum(self.empirical.tolist())
        if abs(total - 1.0) > 1e-9:
            raise NumericalError(f"empirical distribution sums to {total!r}")
        self.empirical.setflags(write=False)
        self.lam_tilde.setflags(write=False)
        if self.matched_alpha is not None:
            self.matched_alpha.setflags(write=False)


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------


def _height_kernel(bl: BoundaryLaw) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic height chain P(i,j) = Q(i-j) lam(j) / N(i) and alpha."""
    if bl.kind != SUPPORT_TRUNCATED:
        raise ConfigError("height chain needs a law on the truncated window")
    if bl.pot is None:
        raise ConfigError("boundary law carries no potential; rebuild it "
                          "with solve_fixed_point")
    m = len(bl.x)
    if m > _MAX_DENSE:
        raise NumericalError(
            f"window holds {m} sites; the dense height kernel needs m^2 "
            "entries, solve with a looser tol or smaller radius"
        )
    idx = bl.indices
    num = bl.pot.Q(idx[:, None] - idx[None, :]) * bl.lam[None, :]
    P = num / num.sum(axis=1, keepdims=True)
    return P, single_site_marginal(bl)


def _slice_to_window(full: np.ndarray, center: int, window: int) -> np.ndarray:
    """Re-center ``full`` (zero at ``center``) on {-window..window}, padding."""
    out = np.zeros(2 * window + 1)
    lo = max(0, center - window)
    hi = min(len(full), center + window + 1)
    out[lo - center + window: hi - center + window] = full[lo:hi]
    return out


def wn_localized_exact(
    bl: BoundaryLaw, n: int, window: int | None = None, tail_tol: float = 1e-9
) -> PathDistribution:
    """Exact law of W_n under the localized height chain.

    nu(W_n = k) = sum_i alpha(i) P^n(i, i+k), read off the k-th diagonal of
    the n-th kernel power.  The returned distribution carries the limit
    vector sum_i alpha(i) alpha(i+k) on the same window, so convergence can
    be checked without a second call.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    P, alpha = _height_kernel(bl)
    m = len(alpha)
    Pn = np.linalg.matrix_power(P, n)
    full = np.empty(2 * m - 1)
    for k in range(-(m - 1), m):
        diag = np.diagonal(Pn, offset=k)
        a = alpha[: m - k] if k >= 0 else alpha[-k:]
        full[k + m - 1] = math.fsum((a * diag).tolist())
    limit_full = np.correlate(alpha, alpha, "full")

    K = m - 1 if window is None else int(window)
    if K < 0:
        raise ConfigError(f"window must be >= 0, got {window}")
    law = _slice_to_window(full, m - 1, K)
    limit = _slice_to_window(limit_full, m - 1, K)
    leaked = max(0.0, 1.0 - math.fsum(law.tolist()))
    if leaked > tail_tol:
        need = K
        while need < m - 1:
            need += 1
            if 1.0 - math.fsum(_slice_to_window(full, m - 1, need).tolist()) <= tail_tol:
                break
        raise NumericalError(
            f"window {K} leaks mass {leaked:.3g} > {tail_tol:.3g}; "
            f"use window >= {need}"
        )
    return PathDistribution(
        n=n, window=K, law=law, leaked_mass=leaked, mode=MODE_GIBBS, limit=limit
    )


def _step_second_moment(fc: FuzzyChain, laws) -> float:
    """Second moment of the stationary one-step increment."""
    total = 0.0
    for step_prob, law in zip(_class_step_law(fc).tolist(), laws):
        total += step_prob * law.second_moment()
    return total


def default_window(fc: FuzzyChain, laws, n: int) -> int:
    """Gaussian-scale window ceil(8 sigma sqrt(n)) + q for the exact DP.

    One single-step radius is added on top: the increment laws have heavier
    than Gaussian tails over one step, so the pure 8 sigma sqrt(n) scale
    leaks at small n even though it is ample for the diffusive bulk.
    """
    sigma = math.sqrt(_step_second_moment(fc, laws))
    reach = max(law.radius for law in laws)
    return math.ceil(8.0 * sigma * math.sqrt(n)) + fc.q + reach


def wn_ggm_exact(
    fc: FuzzyChain, laws, n: int, window: int | None = None, tail_tol: float = 1e-9
) -> PathDistribution:
    """Exact law of W_n under the class chain with conditional increments.

    Dynamic programming over (class, displacement): each step first moves
    the class with the fuzzy kernel, then convolves the displacement with
    the increment law of the class difference.  States outside the window
    are dropped and accounted for in leaked_mass, together with the mass
    the increment truncation gives away (at most n times the per-law tail
    bound, which tail_tol does not need to cover).
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    laws = _check_laws(fc, laws)
    q = fc.q
    K = default_window(fc, laws, n) if window is None else int(window)
    if K < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
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
    law = D.sum(axis=0)
    leaked = max(0.0, 1.0 - math.fsum(law.tolist()))
    budget = tail_tol + n * max(law_.tail_mass_bound for law_ in laws)
    if leaked > budget:
        need = max(default_window(fc, laws, n), 2 * K)
        raise NumericalError(
            f"window {K} leaks mass {leaked:.3g} > {budget:.3g}; "
            f"use window >= {need}"
        )
    return PathDistribution(
        n=n, window=K, law=law, leaked_mass=leaked, mode=MODE_GGM, q=q
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _stream(seed: int, replicate: int) -> np.random.Generator:
    for name, v in (("seed", seed), ("replicate", replicate)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ConfigError(f"{name} must be a non-negative integer, got {v!r}")
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence([int(seed), int(replicate)]))
    )


def _cumulative_rows(P: np.ndarray) -> np.ndarray:
    cum = np.cumsum(P, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _walk(cum_start: np.ndarray, cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States of the inverse-CDF chain driven by the uniforms u.

    u[0] draws the start from cum_start, u[k] moves along row cum_rows[s].
    bisect_right makes the same comparisons as searchsorted(side="right"),
    without its per-call overhead; a row becomes a list when first visited.
    """
    rows = [None] * len(cum_rows)
    s = bisect.bisect_right(cum_start.tolist(), float(u[0]))
    states = [s]
    for x in _float_stream(u[1:]):
        row = rows[s]
        if row is None:
            row = rows[s] = cum_rows[s].tolist()
        s = bisect.bisect_right(row, x)
        states.append(s)
    return np.array(states, dtype=np.int64)


def _check_sizes(n, *replicates) -> None:
    """Sizes are integers >= 1 whose uniform buffer fits in _MAX_UNIFORMS."""
    named = list(zip(("n", "replicates"), (n, *replicates)))
    for name, v in named:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
    name, v = named[-1]
    size = int(v) + (name == "n")  # n + 1 for a path, one per walker per step
    if size > _MAX_UNIFORMS:
        raise NumericalError(
            f"{name}={v} needs {size} uniforms in one buffer "
            f"({size * 8 / 2**30:.3g} GiB), beyond {_MAX_UNIFORMS}; "
            "use smaller runs on distinct replicate keys")


def _draw(cum_rows, keys, u: np.ndarray, values=None) -> np.ndarray:
    """Inverse-CDF draw of each u[k] on row keys[k] of cum_rows.

    One searchsorted per occupied row; slot j of row s is values[s][j] if given.
    """
    out = np.empty(len(keys), dtype=np.int64)
    for s in np.flatnonzero(np.bincount(keys, minlength=len(cum_rows))):
        mask = keys == s
        slots = np.searchsorted(cum_rows[s], u[mask], side="right")
        out[mask] = slots if values is None else values[s][slots]
    return out


def _markov_additive(source):
    """(labels, cum_start, cum_rows, increment) of a sampling source.

    increment(a, b, rng) is the height change of the steps a -> b: for a
    truncated BoundaryLaw (labels = heights) the deterministic
    labels[b] - labels[a], for a (FuzzyChain, laws) pair (labels = classes)
    one draw per step from the law of the class step (b - a) mod q.
    """
    if isinstance(source, BoundaryLaw):
        P, alpha = _height_kernel(source)
        idx = source.indices

        def increment(a, b, rng):
            return idx[b] - idx[a]
        return idx, _cumulative_rows(alpha), _cumulative_rows(P), increment
    if isinstance(source, (tuple, list)) and len(source) == 2 \
            and isinstance(source[0], FuzzyChain):
        fc = source[0]
        laws = _check_laws(fc, source[1])
        cum_w = [_cumulative_rows(law.weights) for law in laws]
        supports = [law.support for law in laws]

        def increment(a, b, rng):
            return _draw(cum_w, (b - a) % fc.q, rng.random(len(a)), supports)
        return (np.arange(fc.q), _cumulative_rows(fc.alpha),
                _cumulative_rows(fc.P), increment)
    raise ConfigError(
        "source must be a truncated BoundaryLaw or a (FuzzyChain, laws) pair"
    )


def sample_path(source, n: int, seed: int, replicate: int = 0):
    """One reproducible path of n increments from a solved source.

    Returns (increments, states): states has length n+1 and holds heights
    in gibbs mode, classes in ggm mode.  Equal (seed, replicate) always
    reproduces the same path; replicates are independent streams.
    """
    _check_sizes(n)
    labels, cum_start, cum_rows, increment = _markov_additive(source)
    rng = _stream(seed, replicate)
    if len(labels) > 1:
        states = _walk(cum_start, cum_rows, rng.random(n + 1))
    else:
        states = np.zeros(n + 1, dtype=np.int64)
    return increment(states[:-1], states[1:], rng), labels[states]


def sample_wn(source, n: int, replicates: int, seed: int, replicate: int = 0):
    """W_n over independent walkers, vectorized; one stream per call.

    Returns an int64 array of length ``replicates``.  The stream is keyed
    by (seed, replicate) like sample_path; parallel batches should use
    distinct replicate keys.
    """
    _check_sizes(n, replicates)
    labels, cum_start, cum_rows, increment = _markov_additive(source)
    rng = _stream(seed, replicate)
    N = int(replicates)
    states = np.searchsorted(cum_start, rng.random(N), side="right")
    W = np.zeros(N, dtype=np.int64)
    for _ in range(n):
        nxt = _draw(cum_rows, states, rng.random(N))
        W += increment(states, nxt, rng)
        states = nxt
    return W


# ---------------------------------------------------------------------------
# period recovery
# ---------------------------------------------------------------------------


def _best_cyclic_match(target: np.ndarray, ref: np.ndarray):
    """Cyclic shift of ref closest to target in sup norm."""
    best_t, best_d = 0, math.inf
    for t in range(len(ref)):
        dist = float(np.max(np.abs(target - np.roll(ref, t))))
        if dist < best_d:
            best_t, best_d = t, dist
    return best_t, best_d


def recover_period(path, q_tilde_list, d: int, pot) -> list[RecoveryReport]:
    """Test candidate height periods against the partial sums of a path.

    For each q-tilde the heights mod q-tilde give an empirical class
    distribution; a class law lam-tilde = empirical^(d/(d+1)) is proposed
    and its fixed-point residual on Z_{q-tilde} is compared with the
    statistical error of the estimate (accept below 5x, reject above 20x,
    unknown between).  A class operator that is not summable rejects
    outright.  The gcd of the accepted counts with non-constant proposals
    is reported as minimal_period on every report: 1 when only constant
    proposals were accepted (free state), None when nothing was.

    Localized sources are detected separately: when the empirical
    distribution matches the mod-q projection of the localized height
    marginal at least as well as any cyclic shift of the class marginal,
    the report is flagged gibbs_like and left out of the gcd.
    """
    increments = np.asarray(path)
    if increments.ndim != 1 or len(increments) < 10:
        raise ConfigError("path must be a 1-d increment sequence, length >= 10")
    if not np.issubdtype(increments.dtype, np.integer):
        rounded = np.rint(increments)
        if np.max(np.abs(increments - rounded)) > 0:
            raise ConfigError("increments must be integers")
        increments = rounded.astype(np.int64)
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    q_list = [int(qt) for qt in q_tilde_list]
    if not q_list or any(qt < 1 for qt in q_list):
        raise ConfigError("q_tilde_list must hold integers >= 1")

    heights = np.concatenate([[0], np.cumsum(increments)])
    n_obs = len(heights)
    n_eff = n_obs / _N_EFF_FACTOR
    freq_err = math.sqrt(0.25 / n_eff)

    mu = None
    try:
        ref_law, _ = solve_fixed_point(pot, d, SolveConfig(mode=MODE_AUTO))
        mu = single_site_marginal(ref_law)
        mu_idx = ref_law.indices
    except TreeGibbsError:
        pass

    rows = []
    for qt in q_list:
        counts = np.bincount(heights % qt, minlength=qt)
        empirical = counts / n_obs
        spread = float(np.max(np.abs(empirical - 1.0 / qt)))
        non_constant = spread > 5.0 * freq_err

        p_eff = np.maximum(empirical, 1.0 / n_obs)
        lam_tilde = empirical ** (d / (d + 1.0))
        lam_tilde /= math.fsum(lam_tilde.tolist())

        # residual test in the frame rolled so the heaviest class sits at 0,
        # where the operator's normalization slot lives
        shift = int(np.argmax(empirical))
        p_rolled = np.roll(p_eff, -shift)
        x_tilde = (p_rolled / p_rolled[0]) ** (1.0 / (d + 1.0))
        x_tilde[0] = 1.0
        dx = x_tilde / (d + 1.0) * (
            1.0 / np.sqrt(n_eff * p_rolled) + 1.0 / math.sqrt(n_eff * p_rolled[0])
        )
        stat_error = 2.0 * float(dx.max())
        try:
            qq = fuzzy_Q(pot, qt)
            residual = float(np.max(np.abs(apply_T_periodic(qq, d, x_tilde) - x_tilde)))
        except NotSummableError:
            residual = math.inf
        if residual < 5.0 * stat_error:
            verdict = VERDICT_ACCEPT
        elif residual > 20.0 * stat_error:
            verdict = VERDICT_REJECT
        else:
            verdict = VERDICT_UNKNOWN

        matched = None
        d_alpha = None
        try:
            ref, _ = periodic_solve(pot, d, qt, SolveConfig(mode=MODE_AUTO))
            alpha_ref = single_site_marginal(ref)
            t, d_alpha = _best_cyclic_match(empirical, alpha_ref)
            if d_alpha <= 5.0 * freq_err + 1e-6:
                matched = np.roll(alpha_ref, t)
        except TreeGibbsError:
            pass

        gibbs_like = False
        if qt > 1 and mu is not None:
            proj = np.bincount(mu_idx % qt, weights=mu, minlength=qt)
            _, d_loc = _best_cyclic_match(empirical, proj)
            gibbs_like = d_loc <= 8.0 * freq_err and (
                d_alpha is None or d_loc <= d_alpha
            )

        rows.append(dict(
            q_tested=qt, empirical=empirical, lam_tilde=lam_tilde,
            residual=residual, stat_error=stat_error, verdict=verdict,
            matched_alpha=matched, gibbs_like=gibbs_like,
            non_constant=non_constant,
        ))

    accepted = [r for r in rows if r["verdict"] == VERDICT_ACCEPT
                and not r["gibbs_like"]]
    informative = [r["q_tested"] for r in accepted if r["non_constant"]]
    if informative:
        period = math.gcd(*informative) if len(informative) > 1 else informative[0]
    elif accepted:
        period = 1
    else:
        period = None

    return [
        RecoveryReport(
            q_tested=r["q_tested"], empirical=r["empirical"],
            lam_tilde=r["lam_tilde"], residual=r["residual"],
            stat_error=r["stat_error"], verdict=r["verdict"],
            matched_alpha=r["matched_alpha"], gibbs_like=r["gibbs_like"],
            minimal_period=period,
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# csv output
# ---------------------------------------------------------------------------


def write_wn_csv(dists, fh, meta=None) -> None:
    """Dump one or more W_n laws as rows ``n,k,prob,leaked_mass``."""
    if isinstance(dists, PathDistribution):
        dists = [dists]
    _write_meta(fh, meta)
    fh.write("n,k,prob,leaked_mass\n")
    for dist in dists:
        for k, p in zip(dist.indices.tolist(), dist.law.tolist()):
            fh.write(f"{dist.n},{k},{p:.17g},{dist.leaked_mass:.17g}\n")


def write_samples_csv(increments, states, fh, meta=None) -> None:
    """Dump a sampled path as rows ``step,increment,fuzzy_class``.

    ``states`` is the length-(n+1) state sequence from sample_path; the
    class column holds the walker state after each step, which is a height
    for gibbs-mode paths and a class on Z_q for ggm-mode paths.
    """
    if len(states) != len(increments) + 1:
        raise ConfigError("states must be one longer than increments")
    _write_meta(fh, meta)
    fh.write("step,increment,fuzzy_class\n")
    for k, (j, s) in enumerate(zip(increments, states[1:]), start=1):
        fh.write(f"{k},{j},{s}\n")

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

The module computes W_n laws exactly (matrix powers for heights; for
classes, dynamic programming over (class, displacement) with one linear
convolution per class row and class step, direct or by FFT, and a rigorous
bound on its rounding), samples both walks, and recovers the height period
of an unknown source from the empirical distribution of its partial sums
mod q-tilde.  Both samplers read one PCG64DXSM stream keyed by
(seed, replicate): `sample_path` reads it in order, and is the walk of
`sample_wn`'s one walker.  The sampler's unit of work is one block of at
most `_BLOCK` walkers or steps: `sample_wn` runs each block's whole walk
in block-sized buffers, on a pool of threads, one per CPU the process may
use and at most `_MAX_THREADS` (the count measured so far).  The stream
advances by any distance at once, so each block reads its share of it
directly and W_n has the same bytes for any thread count.

Every walk reads one uniform per walker and step.  A height step is an
inverse-CDF draw from the padded running sums of the kernel (`_CdfTable`,
rows padded with 1.0 to one power-of-two width w < 2m for rows of length
at most m).  A class step draws the next class and its increment together
(`_StepTable`): the uniform picks the next class from the kernel row, and
its position inside that class's share of the row, rescaled to [0, 1),
picks the increment from the law of the class step.  A guide of 2^b
buckets per row (Chen & Asau, 1974; b = `_GUIDE_BITS`, 8 KiB per row)
answers by one gather each walker whose bucket [t/2^b, (t+1)/2^b) holds
one answer throughout; the others, 0.4-2% of a block on the tables
measured, are searched at once by branchless upper-bound searches.
Because the entries <= u form a prefix of each row, a search returns
exactly searchsorted(row, u, side="right"), and the guide holds the
search's own answer wherever it is the same at both ends of a bucket, so
the draws do not depend on how the lookup is laid out.
W_n laws and paths are returned as arrays; `cli` prints them as CSV or
JSON.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .boundary_law import (
    MODE_AUTO,
    SUPPORT_TRUNCATED,
    BoundaryLaw,
    SolveConfig,
    _convolution_error,
    _linear_convolver,
    apply_T_periodic,
    single_site_marginal,
    solve_fixed_point,
    periodic_solve,
)
from .errors import ConfigError, NotSummableError, NumericalError, TreeGibbsError
from .ggm import _LEAK_TOL, FuzzyChain, _check_laws, _class_step_law, _dense_chain
from .potentials import _MAX_RADIUS, _Bracket, _float_stream, _gamma, _smallest_radius, fuzzy_Q

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

# a sampler refuses an 8-byte buffer beyond this many entries (512 MiB): the
# uniforms of a path, the int64 result W of sample_wn
_MAX_BUFFER = 1 << 26

# the sampler works on blocks of at most this many walkers (or path steps),
# so that their positions and uniforms stay in cache across the search
_BLOCK = 1 << 15
# sample_wn threads: the speed-up was measured on 2 CPUs only (where 8 and
# 31 threads ran 1.3-1.7x and 2.1-2.8x slower than 2); raise this once a
# larger host has been measured
_MAX_THREADS = 2

# a draw reads its answer from a guide of 2^_GUIDE_BITS buckets per table row
# (`_CdfTable`): of 8, 10 and 12, 10 drew fastest from the height table and
# within 5% of 12 from the increment laws (single thread, one block)
_GUIDE_BITS = 10
# the guide entry of a bucket that straddles a running sum; no draw is this
_SENTINEL = np.iinfo(np.int64).min
# the largest double below 1.0: the clip of the rescaled uniform of a class step
_BELOW_ONE = 1.0 - 2.0**-53


@dataclass(frozen=True, eq=False)
class PathDistribution:
    """Law of the total increment W_n on the window {-window, ..., window}.

    ``leaked_mass`` is 1 - sum of the computed law (an exactly rounded sum,
    clipped at 0): probability that the walk left the window, plus whatever
    the increment truncation already gave away, plus the law's rounding.
    ``roundoff_bound`` is set in ggm mode only: a rigorous bound on
    max_k |law_k - the same dynamic programming in exact arithmetic|_k (see
    `wn_ggm_exact`); it is None in gibbs mode, where it is not computed.
    ``limit`` is only set in gibbs mode and holds the n -> inf vector
    sum_i alpha(i) alpha(i+k) on the same window.
    """

    n: int
    window: int
    law: np.ndarray
    leaked_mass: float
    mode: str
    q: int | None = None
    limit: np.ndarray | None = None
    roundoff_bound: float | None = None

    def __post_init__(self):
        if self.law.shape != (2 * self.window + 1,):
            raise ConfigError(
                f"law has shape {self.law.shape}, window {self.window} "
                f"needs {2 * self.window + 1} entries"
            )
        if float(self.law.min()) < -1e-12:
            raise NumericalError("negative probability in the W_n law")
        total = math.fsum(_float_stream(self.law)) + self.leaked_mass
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
    return _dense_chain(bl, bl.pot.Q, (
        f"window holds {len(bl.x)} sites; the dense height kernel needs m^2 "
        "entries, solve with a looser tol or smaller radius"))


def _slice_to_window(full: np.ndarray, center: int, window: int) -> np.ndarray:
    """Re-center ``full`` (zero at ``center``) on {-window..window}, padding."""
    out = np.zeros(2 * window + 1)
    lo = max(0, center - window)
    hi = min(len(full), center + window + 1)
    out[lo - center + window: hi - center + window] = full[lo:hi]
    return out


def _window_leak(law: np.ndarray, window: int, budget: float, hint) -> float:
    """The leak max(0, 1 - sum(law)) from one exactly rounded sum; a leak above
    budget raises NumericalError with a message ending in hint(), called only then."""
    leaked = max(0.0, 1.0 - math.fsum(_float_stream(law)))
    if leaked > budget:
        raise NumericalError(
            f"window {window} leaks mass {leaked:.3g} > {budget:.3g}; {hint()}"
        )
    return leaked


def wn_localized_exact(bl: BoundaryLaw, n: int, window: int | None = None) -> PathDistribution:
    """Exact law of W_n under the localized height chain.

    nu(W_n = k) = sum_i alpha(i) P^n(i, i+k), read off the k-th diagonal of
    the n-th kernel power.  The returned distribution carries the limit
    vector sum_i alpha(i) alpha(i+k) on the same window, so convergence can
    be checked without a second call.  A window below the default m - 1
    may leak at most `ggm._LEAK_TOL`.
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

    def fits(R: int) -> bool:  # monotone: a wider window sums more entries >= 0
        return R >= m - 1 or 1.0 - math.fsum(
            _float_stream(_slice_to_window(full, m - 1, R))) <= _LEAK_TOL

    leaked = _window_leak(law, K, _LEAK_TOL, lambda: "use window >= " + str(
        K if K >= m - 1 else _smallest_radius(fits, K + 1, 2 * m, "")))
    return PathDistribution(
        n=n, window=K, law=law, leaked_mass=leaked, mode=MODE_GIBBS, limit=limit
    )


def default_window(fc: FuzzyChain, laws, n: int) -> int:
    """Gaussian-scale window ceil(8 sigma sqrt(n)) + q for the exact DP,
    sigma^2 the second moment of the stationary one-step increment.

    One single-step radius is added on top: the increment laws have heavier
    than Gaussian tails over one step, so the pure 8 sigma sqrt(n) scale
    leaks at small n even though it is ample for the diffusive bulk.
    """
    sigma = math.sqrt(sum(p * law.second_moment()
                          for p, law in zip(_class_step_law(fc).tolist(), laws)))
    reach = max(law.radius for law in laws)
    return math.ceil(8.0 * sigma * math.sqrt(n)) + fc.q + reach


def _increment_kernels(laws, K: int):
    """(kernels, convolvers, coef) of the increment laws for the DP on [-K, K],
    from one evaluation of each law on |j| <= 2K.

    Kernel s holds the weights of law s on lags [-r, r], r the largest
    |j| <= 2K with a nonzero weight (farther points cannot reach the
    window).  Row s of coef holds (a, b, c) of its convolver's rounding
    (`_convolution_error`) and G >= sum |w|, which bounds the 1-norm of the
    exact kernel.
    """
    kernels, convolvers, coef = [], [], []
    for law in laws:
        j0, w = law.clip(2 * K)
        k = np.flatnonzero(w)
        nz = j0 + law.q * k  # the points with a nonzero weight
        r = int(np.abs(nz).max()) if nz.size else 0
        kernel = np.zeros(2 * r + 1)
        kernel[nz + r] = w[k]
        convolve, L = _linear_convolver(kernel, K)
        size = max(kernel.size, nz.size)
        G = float(np.abs(w[k]).sum()) / (1.0 - _gamma(size))
        g2 = math.sqrt(float(kernel @ kernel)) / (1.0 - _gamma(size + 2))
        kernels.append(kernel)
        convolvers.append(convolve)
        coef.append((*_convolution_error(L, min(kernel.size, 2 * K + 1), G, g2), G))
    return kernels, convolvers, np.array(coef)


def wn_ggm_exact(fc: FuzzyChain, laws, n: int, window: int | None = None) -> PathDistribution:
    """Exact law of W_n under the class chain with conditional increments.

    Dynamic programming over (class, displacement): each step moves the
    class with the fuzzy kernel and convolves the displacement with the
    increment law of the class difference.  The first step writes each law's
    kernel from the point mass at 0 into the window; every later step is one
    linear convolution per (row i, residue s) against the kernel of law s
    (`_linear_convolver`: direct for narrow kernels or windows, FFT beyond),
    scaled by P(i, i+s).  Results are kept on the window, so states that
    leave it are dropped each step and counted in leaked_mass, together
    with the mass the increment truncation gives away (at most n times the
    per-law tail bound, allowed on top of `ggm._LEAK_TOL`: reported, not refused).

    roundoff_bound bounds max_k |law_k - the same DP in exact arithmetic on
    the same float inputs|.  With E_t = sum_c |D^_t[c] - D_t[c]|_inf over the
    class rows of the computed and exact DP, the exact step maps E to at
    most kappa E, kappa = max_i sum_s P(i, i+s) G_s.  Step 1 errs by at most
    gamma_{q+1} kappa sum_i alpha(i) (at most q terms per entry, two
    roundings each).  A later step from rows v_i errs by
    sum_{i,s} P(i, i+s) [eps_is + gamma_q (G_s |v_i|_inf + eps_is)], where
    eps_is = a_s|v_i|_inf + b_s|v_i|_1 + c_s|v_i|_2 is the convolution's
    rounding and gamma_q covers the q products and sums into row c.
    Summing the rows adds gamma_{q-1} sum_c |D^_n[c]|_inf.  Every term is
    evaluated from the computed rows, in floating point on nonnegative
    numbers with fewer than width + q^2 + (q + 3) n + 128 roundings on any
    path (a row norm, kappa^n, the convolver coefficients), and the result
    is divided by one minus gamma of that count.  Underflow is neglected.
    The law is clipped at 0 (FFT rounding leaves entries near -1e-16): the
    exact DP, like the float reference DP, is nonnegative, so clipping
    never moves an entry away from it and the bound still holds.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    laws = _check_laws(fc, laws)
    q = fc.q
    K = default_window(fc, laws, n) if window is None else int(window)
    if K < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    width = 2 * K + 1
    kernels, convolvers, coef = _increment_kernels(laws, K)
    a, b, c, G = coef.T
    idx = np.arange(q)
    step = fc.P[idx[:, None], (idx[:, None] + idx[None, :]) % q]  # P(i, i+s)
    kappa = float(np.max(step @ G))

    D = np.zeros((q, width))
    for s, kernel in enumerate(kernels):
        r = kernel.size // 2
        h = min(r, K)  # window lags [-h, h]; zero entries and p = 0 add exactly 0.0
        for i in range(q):
            D[(i + s) % q, K - h:K + h + 1] += kernel[r - h:r + h + 1] * (fc.alpha[i] * step[i, s])
    bound = _gamma(q + 1) * kappa * float(np.abs(fc.alpha).sum())

    for _ in range(n - 1):
        absD = np.abs(D)
        vinf = absD.max(axis=1)[:, None]
        v1 = absD.sum(axis=1)[:, None]
        v2 = np.sqrt((D * D).sum(axis=1))[:, None]
        eps = vinf * a + v1 * b + v2 * c
        bound = kappa * bound + float(
            (step * (eps + _gamma(q) * (vinf * G + eps))).sum())
        newD = np.zeros_like(D)
        for i in range(q):
            for s in range(q):
                p = step[i, s]
                if p != 0.0:
                    newD[(i + s) % q] += p * convolvers[s](D[i])
        D = newD
    bound += _gamma(q - 1) * float(np.abs(D).max(axis=1).sum())
    law = np.maximum(D.sum(axis=0), 0.0)
    rounds = width + q * q + (q + 3) * n + 128
    bound = (_Bracket(bound, bound) / (1.0 - _gamma(rounds))).hi
    budget = _LEAK_TOL + n * max(law_.tail_mass_bound for law_ in laws)
    leaked = _window_leak(law, K, budget, lambda: (
        f"use window >= {max(default_window(fc, laws, n), 2 * K)}"))
    return PathDistribution(
        n=n, window=K, law=law, leaked_mass=leaked, mode=MODE_GGM, q=q,
        roundoff_bound=bound,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _seed_sequence(seed: int, replicate: int) -> np.random.SeedSequence:
    """The key (seed, replicate) of a sampler's stream: integers >= 0, not bools."""
    for name, v in (("seed", seed), ("replicate", replicate)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise ConfigError(f"{name} must be a non-negative integer, got {v!r}")
    return np.random.SeedSequence([int(seed), int(replicate)])


def _cumulative_rows(P: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, the last slot forced to 1.0."""
    cum = np.cumsum(P, axis=-1)
    cum[..., -1] = 1.0
    return cum


class _Scratch:
    """Buffers for the draws of one block (`_Guided.draw`, the searches).

    A walk that passes the same scratch to every step allocates no
    block-sized buffer per step; block-sized temporaries on worker threads
    would make each thread's malloc arena shrink and regrow.  ``key`` and
    ``uniform`` hold the compacted keys (then results) and uniforms of the
    walkers that `draw` hands to the search; their index list, from
    np.flatnonzero, which takes no out=, is the one array a draw allocates
    (0.4-1.7% of the block on the tables measured).  ``state`` holds the
    next class of the two-level rule of `_StepTable`, which works out its
    rescaled uniform in ``uniform``.
    """

    __slots__ = ("entry", "below", "term", "key", "uniform", "state")

    def __init__(self, size: int):
        self.entry = np.empty(size)
        self.below = np.empty(size, dtype=bool)
        self.term = np.empty(size, dtype=np.int64)
        self.key = np.empty(size, dtype=np.int64)
        self.uniform = np.empty(size)
        self.state = np.empty(size, dtype=np.int64)

    def views(self, size: int):
        return self.entry[:size], self.below[:size], self.term[:size]


class _Guided:
    """A draw rule per table row with a guide table that answers most draws
    by one gather.

    A subclass defines ``_search(keys, u, out, scratch)``: the draw of row
    keys[k] at u[k] for u in [0, 1), non-decreasing in u on every row, run
    in the buffers of scratch (len(u) entries); keys may be out itself.
    The guide (Chen & Asau, On generating random variates from an empirical
    distribution, 1974) splits [0, 1) into 2^b buckets, b = `_GUIDE_BITS`.
    Entry (s, t) holds the draw of row s for every u in [t/2^b, (t+1)/2^b),
    found by `_search` at the bucket's two ends, t/2^b and the largest
    double below (t+1)/2^b, or `_SENTINEL` where the two differ.  This is
    exact: the draw is non-decreasing in u, so equal answers at the ends
    hold for every u between them, and t = floor(u 2^b) is exact, since
    scaling by a power of two only moves the exponent.  `draw` reads the
    guide for the whole block and searches only the walkers whose bucket
    the guide leaves to the search.  The guide takes 8 * 2^b bytes per row
    (8 KiB at b = 10).
    """

    __slots__ = ("guide",)

    def _build_guide(self, rows: int) -> None:
        buckets = 1 << _GUIDE_BITS
        lo = np.arange(buckets) / buckets  # t / 2^b, exact
        ends = np.concatenate([lo, np.nextafter(lo + 1.0 / buckets, 0.0)])
        self.guide = np.empty((rows, buckets), dtype=np.int64)
        # a few rows at a time, so that the search buffers stay block-sized
        per = max(1, _BLOCK // (2 * buckets))
        scratch = _Scratch(2 * buckets * min(per, rows))
        for r0 in range(0, rows, per):
            block = self.guide[r0:r0 + per]
            keys = np.repeat(np.arange(r0, r0 + len(block)), 2 * buckets)
            at = self._search(keys, np.tile(ends, len(block)), keys, scratch)
            at = at.reshape(len(block), 2, buckets)
            block[...] = np.where(at[:, 0] == at[:, 1], at[:, 0], _SENTINEL)

    def draw(self, keys, u: np.ndarray, out: np.ndarray,
             scratch: _Scratch) -> np.ndarray:
        """What `_search` writes, for one block of walkers: one gather from
        the guide, then `_search` on the walkers it leaves to the search,
        compacted into the scratch buffers; keys may be out itself.  scratch
        must hold len(u) entries."""
        guide = self.guide
        bits = guide.shape[1].bit_length() - 1
        _, hit, index = scratch.views(len(u))
        # index = key 2^b + floor(u 2^b); the float -> int cast truncates
        np.multiply(u, guide.shape[1], out=index, casting="unsafe")
        np.left_shift(keys, bits, out=out)
        index += out
        np.take(guide.ravel(), index, out=out, mode="wrap")
        np.equal(out, _SENTINEL, out=hit)
        miss = np.flatnonzero(hit)
        if miss.size:
            key, uniform = scratch.key[:miss.size], scratch.uniform[:miss.size]
            np.take(index, miss, out=key, mode="wrap")
            np.right_shift(key, bits, out=key)
            np.take(u, miss, out=uniform, mode="wrap")
            out[miss] = self._search(key, uniform, key, scratch)
        return out


class _CdfTable(_Guided):
    """Inverse-CDF rows of a kernel, padded with 1.0 to one power-of-two width,
    with a guide table (`_Guided`, unless guide=False) that answers most
    draws by one gather.

    Row s holds the running sums of weight row s with its last slot forced
    to 1.0 (so rounding never leaves mass above 1), then 1.0 up to the
    width w, the least power of two >= the longest row length m.  Since
    w < 2m, the table of a dense m x m kernel takes less than twice its
    memory; r ragged rows take r w < 2 r m slots, which can be several
    times their total length when the rows differ much in length.
    ``first``, when given, holds one int64 per row: row s then draws the
    point first[s] + stride * slot instead of the slot.

    `_search` runs a branchless upper-bound search over one block of walkers
    at once (Khuong & Morin, Array layouts for comparison-based searching,
    2017): from pos = key * w, each step = w/2, ..., 1 adds step times the
    comparison cum[pos + step - 1] <= u.  For u in [0, 1) the predicate
    entry <= u holds on a prefix of every row: a cumsum of nonnegative
    terms never decreases, and the forced last slot and the padding are
    1.0 > u (a sum that overshoots 1.0 before the last slot only ends the
    prefix sooner).  The search stops at the prefix length, and so does
    searchsorted(row, u, side="right"): the two agree bit for bit, and the
    prefix length is non-decreasing in u, as the guide needs.  The guide
    of the largest dense kernel, 4096 rows, takes 32 MiB beside its 128 MiB
    table and took 0.3 s to build against 0.1 s for its running sums (so
    `_walk` builds no table).
    """

    __slots__ = ("cum", "base", "stride")

    def __init__(self, rows, first=None, stride=1, guide=True):
        m = max(len(r) for r in rows)
        cum = np.ones((len(rows), 1 << (m - 1).bit_length()))
        for row, r in zip(cum, rows):
            row[:len(r)] = _cumulative_rows(r)
        self.cum = cum
        self.stride = int(stride)
        # point at pos = s w + slot: first[s] + stride slot = base[s] + stride pos
        self.base = None if first is None else (
            np.asarray(first, dtype=np.int64)
            - self.stride * cum.shape[1] * np.arange(len(rows), dtype=np.int64))
        self.guide = None
        if guide:
            self._build_guide(len(rows))

    def _search(self, keys, u: np.ndarray, out: np.ndarray,
                scratch: _Scratch) -> np.ndarray:
        """out[k] = slot searchsorted(cum[keys[k]], u[k], side="right"), or
        first[keys[k]] + stride * slot; keys may be out itself.  The search
        runs in the buffers of scratch, which must hold len(u) entries."""
        width = self.cum.shape[1]
        flat = self.cum.ravel()
        entry, below, term = scratch.views(len(u))
        np.multiply(keys, width, out=out)
        step = width >> 1
        while step:
            # out += (flat[out + step - 1] <= u) * step; every index is in
            # range, so mode="wrap" never wraps (and take never buffers)
            np.take(flat[step - 1:], out, out=entry, mode="wrap")
            np.less_equal(entry, u, out=below)
            np.multiply(below, step, out=term)
            out += term
            step >>= 1
        if self.base is None:
            out &= width - 1
        else:
            np.right_shift(out, width.bit_length() - 1, out=term)  # the row of each slot
            # term is both index and out: each index is read before its
            # own slot is written, so take(..., out=term) is exact
            np.take(self.base, term, out=term, mode="wrap")
            out *= self.stride
            out += term
        return out


def _wrap_class_step(r: np.ndarray, q: int, term: np.ndarray) -> np.ndarray:
    """r mod q in place, for class differences r in (-q, q): add q where r < 0,
    that is where r >> 63 is -1 (np.remainder's integer division costs about
    5x more).  term is a buffer of len(r) int64 entries."""
    np.right_shift(r, 63, out=term)
    term &= q
    r += term
    return r


class _StepTable(_Guided):
    """One class step of a (FuzzyChain, laws) source: the next class b and the
    increment k drawn together from one uniform, as the code (k << bits) | b,
    bits = max(1, bit_length(q - 1)).

    The rule is the composition step of a Markov-additive chain (Devroye,
    Non-Uniform Random Variate Generation, 1986, II.2 and III.2), in two
    levels from row a of the kernel: b = searchsorted(cumP[a], u, "right")
    on the running sums of the kernel (its `_CdfTable`, last slot forced
    to 1.0); then v = min(fl(fl(u - C) / P[a, b]), 1 - 2^-53), C the
    running sum before b (0 for b = 0), and k = first + q slot, slot =
    searchsorted on the running sums of the law of the class step
    (b - a) mod q at v.  Every level is non-decreasing in u (rounding is
    monotone, and v is clipped below 1 where the forced 1.0 or rounding
    would take it to 1 or beyond; a 0/0 at a zero P[a, b], which only
    the forced last slot can draw, is clipped too), so the joint guide,
    one row per class, is exact as `_Guided` says.  No joint table is
    built: the rule reads the kernel and law running sums, built without
    guides, and this one guide replaces the kernel guide.  It took 0.25 s
    to build beyond 0.07 s of running sums on the 4096-row SOS beta=2
    kernel (where 0.18 s built the kernel guide; its increment laws
    underflow at that q, so one-point laws stood in), and 0.5 ms at
    log 3.0, q = 5 (2-core x86 host).
    """

    __slots__ = ("kernel", "laws", "P", "q", "bits")

    def __init__(self, P: np.ndarray, laws: _CdfTable):
        self.q = len(P)
        self.kernel = _CdfTable(P, guide=False)
        self.P = np.ascontiguousarray(P, dtype=np.float64).ravel()
        self.laws = laws
        self.bits = max(1, (self.q - 1).bit_length())
        self._build_guide(self.q)

    def _search(self, keys, u: np.ndarray, out: np.ndarray,
                scratch: _Scratch) -> np.ndarray:
        """out[k] = the code of the two-level rule from class keys[k] at u[k];
        keys may be out itself, and u may be scratch.uniform (`draw` passes
        it), where the rescaled uniform v is worked out."""
        size = len(u)
        entry, below, term = scratch.views(size)
        b, v = scratch.state[:size], scratch.uniform[:size]
        self.kernel._search(keys, u, b, scratch)
        # C = cum[a, b - 1], taken where b > 0 and set to 0 where b = 0
        np.multiply(keys, self.kernel.cum.shape[1], out=term)
        term += b
        term -= 1
        np.take(self.kernel.cum.ravel(), term, out=entry, mode="wrap")
        np.equal(b, 0, out=below)
        np.copyto(entry, 0.0, where=below)
        np.subtract(u, entry, out=v)
        np.multiply(keys, self.q, out=term)
        term += b
        np.take(self.P, term, out=entry, mode="wrap")
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(v, entry, out=v)
        np.fmin(v, _BELOW_ONE, out=v)
        _wrap_class_step(np.subtract(b, keys, out=out), self.q, term)
        self.laws._search(out, v, out, scratch)
        out <<= self.bits
        out |= b
        return out


def _walk(alpha: np.ndarray, P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States of the inverse-CDF chain driven by the uniforms u.

    u[0] draws the start from the running sums of alpha, u[k] moves along
    those of row s of P (`_cumulative_rows`: the rows of a `_CdfTable`
    without their padding, which never moves a draw).  bisect_right returns
    what searchsorted(side="right") does, without its per-call overhead; a
    row is summed, as a list, when first visited.
    """
    rows = [None] * len(P)
    s = bisect.bisect_right(_cumulative_rows(alpha).tolist(), float(u[0]))
    states = [s]
    for x in _float_stream(u[1:]):
        row = rows[s]
        if row is None:
            row = rows[s] = _cumulative_rows(P[s]).tolist()
        s = bisect.bisect_right(row, x)
        states.append(s)
    return np.array(states, dtype=np.int64)


def _check_sizes(n, *replicates) -> None:
    """Sizes are integers >= 1 whose one full-size buffer fits in
    _MAX_BUFFER: the n + 1 uniforms of a path, or the int64 result W of
    sample_wn, one entry per walker (its blocks use block-sized buffers)."""
    named = list(zip(("n", "replicates"), (n, *replicates)))
    for name, v in named:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
    name, v = named[-1]
    size = int(v) + (name == "n")
    buffer = "uniforms in one buffer" if name == "n" else "entries in the int64 result W"
    if size > _MAX_BUFFER:
        raise NumericalError(
            f"{name}={v} needs {size} {buffer} "
            f"({size * 8 / 2**30:.3g} GiB), beyond {_MAX_BUFFER}; "
            "use smaller runs on distinct replicate keys")


def _markov_additive(source):
    """(labels, alpha, P, table) of a sampling source.

    alpha and P are the start law and the kernel of the state chain:
    sample_path walks them with `_walk`, sample_wn draws its start, and
    its height steps, from them through `_CdfTable`s.  For a truncated
    BoundaryLaw (labels = heights, consecutive integers) table is None: the
    increment of a step a -> b is the deterministic b - a.  For a
    (FuzzyChain, laws) pair (labels = classes) table is the `_StepTable` of
    the chain, which both samplers draw each class step from: the next
    class and its increment from one uniform.  Its laws are a `_CdfTable`
    without a guide whose rows are the increment laws, slot k of row s the
    point first + q * k; heavy tails give the residues of small mass the
    longest laws, so the padded rows can take a few times the laws' own
    length, while the step guide takes only 8 q KiB.
    """
    if isinstance(source, BoundaryLaw):
        P, alpha = _height_kernel(source)
        return source.indices, alpha, P, None
    if isinstance(source, (tuple, list)) and len(source) == 2 \
            and isinstance(source[0], FuzzyChain):
        fc = source[0]
        laws = _check_laws(fc, source[1])
        table = _CdfTable([law.weights for law in laws], [law.first for law in laws],
                          fc.q, guide=False)
        return np.arange(fc.q), fc.alpha, fc.P, _StepTable(fc.P, table)
    raise ConfigError(
        "source must be a truncated BoundaryLaw or a (FuzzyChain, laws) pair"
    )


def sample_path(source, n: int, seed: int, replicate: int = 0):
    """One reproducible path of n increments from a solved source.

    Returns (increments, states): states has length n+1 and holds heights
    in gibbs mode, classes in ggm mode.  Equal (seed, replicate) always
    reproduces the same path; replicates are independent streams.  The
    path reads positions 0..n of the PCG64DXSM stream that sample_wn reads
    for the same key, so it is the walk of sample_wn's one walker:
    u[0] draws the start and u[k] step k.  `_walk` draws the states in
    order; a class step's increment is the one `_StepTable` draws with the
    next class from the same uniform, a block of steps at a time.
    """
    _check_sizes(n)
    labels, alpha, P, table = _markov_additive(source)
    u = np.random.Generator(np.random.PCG64DXSM(_seed_sequence(seed, replicate))).random(n + 1)
    if len(labels) > 1:
        states = _walk(alpha, P, u)
    else:
        states = np.zeros(n + 1, dtype=np.int64)
    increments = np.diff(states)
    if table is not None:
        scratch = _Scratch(min(n, _BLOCK))
        for lo in range(0, n, _BLOCK):
            out = increments[lo:lo + _BLOCK]
            table.draw(states[lo:lo + len(out)], u[lo + 1:lo + 1 + len(out)], out, scratch)
            out >>= table.bits
    return increments, labels[states]


class _SliceStream:
    """The uniforms of walkers [lo, lo + len(out)) from each random(N) call
    of one PCG64DXSM stream.

    The k-th call of the full stream covers positions [kN, (k+1)N).
    PCG64DXSM (O'Neill, PCG, HMC-CS-2014-0905) draws one 64-bit word per
    double and advances by any distance in O(log distance) steps, so the
    generator starts at position lo and, after each call, skips the
    N - len(out) positions of the other walkers.
    """

    __slots__ = ("bits", "gen", "N")

    def __init__(self, seq: np.random.SeedSequence, N: int, lo: int):
        self.bits = np.random.PCG64DXSM(seq).advance(lo)
        self.gen, self.N = np.random.Generator(self.bits), N

    def random(self, out: np.ndarray) -> np.ndarray:
        self.gen.random(out=out)
        self.bits.advance(self.N - len(out))
        return out


def _cpus() -> int:
    """CPUs this process may run on (affinity; CPU quotas are not read)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sample_wn(source, n: int, replicates: int, seed: int, replicate: int = 0):
    """W_n over independent walkers, vectorized; one stream per call.

    Returns an int64 array of length ``replicates``.  The uniforms come
    from one PCG64DXSM stream keyed by (seed, replicate); a one-walker
    call reads the positions sample_path reads, so its W_n is the sum of
    that path.  Parallel batches should use distinct replicate keys.  Both
    walks read one uniform per walker and step, after one for the start: a
    height step draws the next height from the kernel's `_CdfTable`, a
    class step draws the next class and its increment together from
    `_StepTable`.
    Each block of at most `_BLOCK` walkers runs its whole walk in its own
    block-sized buffers, reading its slice of every call of the stream by
    advancing past the other walkers' positions (`_SliceStream`), so no
    step allocates beyond the draws' fallback index lists and W_n has the
    same bytes for any number of threads.  A pool of threads, one per CPU
    the process may use and at most `_MAX_THREADS` (only 2 threads on 2
    CPUs were measured), maps over the blocks; numpy releases the GIL in
    the draws, ufuncs and gathers.
    """
    _check_sizes(n, replicates)
    seq = _seed_sequence(seed, replicate)
    _, alpha, P, table = _markov_additive(source)
    start = _CdfTable([alpha])
    if table is None:
        table = _CdfTable(P)

        # t holds the row of the next height (rows are consecutive heights)
        def advance(s, t, Wb):
            Wb += t
            Wb -= s
            return t, s
    else:
        bits, mask = table.bits, (1 << table.bits) - 1

        # t holds (increment << bits) | next class
        def advance(s, t, Wb):
            np.bitwise_and(t, mask, out=s)
            t >>= bits
            Wb += t
            return s, t
    N = int(replicates)
    W = np.zeros(N, dtype=np.int64)

    def walk(lo):
        Wb = W[lo:lo + _BLOCK]
        size = len(Wb)
        rng, scratch = _SliceStream(seq, N, lo), _Scratch(size)
        u, s = np.empty(size), np.zeros(size, dtype=np.int64)  # every walker starts on row 0
        t = np.empty_like(s)
        start.draw(s, rng.random(out=u), s, scratch)
        for _ in range(n):
            table.draw(s, rng.random(out=u), t, scratch)
            s, t = advance(s, t, Wb)

    # imported here: the pool's imports (logging) cost every CLI command
    # 5-6 ms of start-up, and no command samples W_n
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_cpus(), _MAX_THREADS)) as pool:
        list(pool.map(walk, range(0, N, _BLOCK)))
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
    if max(q_list) > _MAX_RADIUS:  # before bincount allocates q-tilde counts
        raise NumericalError(f"q={max(q_list)} exceeds the cap of {_MAX_RADIUS} classes")

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

    reports, accepted, informative = [], [], []
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

        reports.append(RecoveryReport(
            q_tested=qt, empirical=empirical, lam_tilde=lam_tilde,
            residual=residual, stat_error=stat_error, verdict=verdict,
            matched_alpha=matched, gibbs_like=gibbs_like, minimal_period=None,
        ))
        if verdict == VERDICT_ACCEPT and not gibbs_like:
            accepted.append(qt)
            if non_constant:
                informative.append(qt)

    if informative:
        period = math.gcd(*informative)
    elif accepted:
        period = 1
    else:
        period = None
    return [replace(r, minimal_period=period) for r in reports]

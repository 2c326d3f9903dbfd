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
bound on its rounding), samples both walks through one stepping kernel
with counter-based streams keyed by (seed, replicate), and recovers the
height period of an unknown source from the empirical distribution of its
partial sums mod q-tilde.  `sample_wn` splits its walkers into contiguous
slices, one thread each on the CPUs the process may use (at most
`_MAX_THREADS`, the count measured so far); Philox is counter-based, so
each slice reads its share of the one stream directly and W_n has the
same bytes for any thread count.

Every sampled step is an inverse-CDF draw from one padded table
(`_CdfTable`): the rows of a kernel, or the increment laws, as running
sums padded with 1.0 to one power-of-two width w < 2m for rows of length
at most m.  All walkers are searched at once by a branchless upper-bound
search; because the entries <= u form a prefix of each row, it returns
exactly searchsorted(row, u, side="right"), so the draws do not depend on
how the search is laid out.  W_n laws and paths are returned as arrays;
`cli` prints them as CSV or JSON.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
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
from .ggm import FuzzyChain, _check_laws, _class_step_law, _dense_chain, _window_leak
from .potentials import _check_tail_tol, _float_stream, _gamma, _smallest_radius, fuzzy_Q

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

# a sampler refuses a uniform buffer beyond this many float64 draws (512 MiB)
_MAX_UNIFORMS = 1 << 26

# walkers go through the inverse-CDF table search in blocks of this many,
# so that their positions and uniforms stay in cache across its steps
_BLOCK = 1 << 15
# sample_wn threads: the speed-up was measured on 2 CPUs only (where 8 and
# 31 threads ran 1.3-1.7x and 2.1-2.8x slower than 2); raise this once a
# larger host has been measured
_MAX_THREADS = 2


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
    _check_tail_tol(tail_tol)
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
            _float_stream(_slice_to_window(full, m - 1, R))) <= tail_tol

    leaked = _window_leak(law, K, tail_tol, lambda: "use window >= " + str(
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
    """(convolvers, coef) of the increment laws for the DP on [-K, K].

    Kernel s holds the weights of law s on lags [-r, r], r the largest
    |j| <= 2K with a nonzero weight (farther points cannot reach the
    window).  Row s of coef holds (a, b, c) of its convolver's rounding
    (`_convolution_error`) and G >= sum |w|, which bounds the 1-norm of the
    exact kernel.
    """
    convolvers, coef = [], []
    for law in laws:
        j0, w = law.clip(2 * K)
        nz = j0 + law.q * np.flatnonzero(w)  # the points with a nonzero weight
        r = int(np.abs(nz).max()) if nz.size else 0
        j0, w = law.clip(r)
        kernel = np.zeros(2 * r + 1)
        kernel[j0 + r::law.q][:w.size] = w
        convolve, L = _linear_convolver(kernel, K)
        size = max(kernel.size, nz.size)
        G = float(np.abs(w[w != 0.0]).sum()) / (1.0 - _gamma(size))
        g2 = math.sqrt(float(kernel @ kernel)) / (1.0 - _gamma(size + 2))
        convolvers.append(convolve)
        coef.append((*_convolution_error(L, min(kernel.size, 2 * K + 1), G, g2), G))
    return convolvers, np.array(coef)


def wn_ggm_exact(
    fc: FuzzyChain, laws, n: int, window: int | None = None, tail_tol: float = 1e-9
) -> PathDistribution:
    """Exact law of W_n under the class chain with conditional increments.

    Dynamic programming over (class, displacement): each step moves the
    class with the fuzzy kernel and convolves the displacement with the
    increment law of the class difference.  The first step writes each law
    from the point mass at 0 into a stride-q slice; every later step is one
    linear convolution per (row i, residue s) against the kernel of law s
    (`_linear_convolver`: direct for narrow kernels or windows, FFT beyond),
    scaled by P(i, i+s).  Results are kept on the window, so states that
    leave it are dropped each step and counted in leaked_mass, together
    with the mass the increment truncation gives away (at most n times the
    per-law tail bound, which tail_tol does not need to cover).

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
    _check_tail_tol(tail_tol)
    laws = _check_laws(fc, laws)
    q = fc.q
    K = default_window(fc, laws, n) if window is None else int(window)
    if K < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    width = 2 * K + 1
    convolvers, coef = _increment_kernels(laws, K)
    a, b, c, G = coef.T
    idx = np.arange(q)
    step = fc.P[idx[:, None], (idx[:, None] + idx[None, :]) % q]  # P(i, i+s)
    kappa = float(np.max(step @ G))

    D = np.zeros((q, width))
    for i in range(q):
        for s in range(q):
            p = step[i, s]
            if p == 0.0:
                continue
            j0, w = laws[s].clip(K)
            D[(i + s) % q, j0 + K::q][:w.size] += w * (fc.alpha[i] * p)
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
    bound = math.nextafter(bound / (1.0 - _gamma(rounds)), math.inf)
    budget = tail_tol + n * max(law_.tail_mass_bound for law_ in laws)
    leaked = _window_leak(law, K, budget, lambda: (
        f"use window >= {max(default_window(fc, laws, n), 2 * K)}"))
    return PathDistribution(
        n=n, window=K, law=law, leaked_mass=leaked, mode=MODE_GGM, q=q,
        roundoff_bound=bound,
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
    """Running sums along the last axis, the last slot forced to 1.0."""
    cum = np.cumsum(P, axis=-1)
    cum[..., -1] = 1.0
    return cum


class _Scratch:
    """Block-sized buffers for `_CdfTable.draw` and the class-step wrap.

    A walk that passes the same scratch to every step allocates nothing
    per step; block-sized temporaries on worker threads would make each
    thread's malloc arena shrink and regrow.
    """

    __slots__ = ("entry", "below", "term")

    def __init__(self, size: int = _BLOCK):
        self.entry = np.empty(size)
        self.below = np.empty(size, dtype=bool)
        self.term = np.empty(size, dtype=np.int64)

    def views(self, size: int):
        return self.entry[:size], self.below[:size], self.term[:size]


class _CdfTable:
    """Inverse-CDF rows of a kernel, padded with 1.0 to one power-of-two width.

    Row s holds the running sums of weight row s with its last slot forced
    to 1.0 (so rounding never leaves mass above 1), then 1.0 up to the
    width w, the least power of two >= the longest row length m.  Since
    w < 2m, the table of a dense m x m kernel takes less than twice its
    memory; r ragged rows take r w < 2 r m slots, which can be several
    times their total length when the rows differ much in length.
    ``first``, when given, holds one int64 per row: row s then draws the
    point first[s] + stride * slot instead of the slot.

    `draw` runs a branchless upper-bound search over a block of walkers at
    once (Khuong & Morin, Array layouts for comparison-based searching,
    2017): from pos = key * w, each step = w/2, ..., 1 adds step times the
    comparison cum[pos + step - 1] <= u.  For u in [0, 1) the predicate
    entry <= u holds on a prefix of every row: a cumsum of nonnegative
    terms never decreases, and the forced last slot and the padding are
    1.0 > u (a sum that overshoots 1.0 before the last slot only ends the
    prefix sooner).  The search stops at the prefix length, and so does
    searchsorted(row, u, side="right"): the two agree bit for bit.
    """

    __slots__ = ("cum", "base", "stride")

    def __init__(self, rows, first=None, stride=1):
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

    def draw(self, keys, u: np.ndarray, out: np.ndarray,
             scratch: _Scratch) -> np.ndarray:
        """out[k] = slot searchsorted(cum[keys[k]], u[k], side="right"), or
        first[keys[k]] + stride * slot; keys may be out itself.  The search
        runs in the buffers of scratch."""
        width = self.cum.shape[1]
        shift = width.bit_length() - 1
        flat = self.cum.ravel()
        for lo in range(0, len(u), _BLOCK):
            pos, x = out[lo:lo + _BLOCK], u[lo:lo + _BLOCK]
            entry, below, term = scratch.views(len(x))
            np.multiply(keys[lo:lo + _BLOCK], width, out=pos)
            step = width >> 1
            while step:
                # pos += (flat[pos + step - 1] <= x) * step; every index is
                # in range, so mode="wrap" never wraps (and take never buffers)
                np.take(flat[step - 1:], pos, out=entry, mode="wrap")
                np.less_equal(entry, x, out=below)
                np.multiply(below, step, out=term)
                pos += term
                step >>= 1
            if self.base is not None:
                np.right_shift(pos, shift, out=term)  # the row of each slot
                # term is both index and out: each index is read before
                # its own slot is written, so take(..., out=term) is exact
                np.take(self.base, term, out=term, mode="wrap")
                pos *= self.stride
                pos += term
        if self.base is None:
            out &= width - 1
        return out


def _walk(start: _CdfTable, kernel: _CdfTable, u: np.ndarray) -> np.ndarray:
    """States of the inverse-CDF chain driven by the uniforms u.

    u[0] draws the start from the start table, u[k] moves along row s of
    the kernel table.  bisect_right returns what searchsorted(side="right")
    does, without its per-call overhead (the padding 1.0 > u never moves a
    draw); a row becomes a list when first visited.
    """
    rows = [None] * len(kernel.cum)
    s = bisect.bisect_right(start.cum[0].tolist(), float(u[0]))
    states = [s]
    for x in _float_stream(u[1:]):
        row = rows[s]
        if row is None:
            row = rows[s] = kernel.cum[s].tolist()
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


def _markov_additive(source):
    """(labels, start, kernel, increment) of a sampling source.

    start and kernel are `_CdfTable`s of the start law and the state chain;
    increment(a, b, rng, u, out, scratch) writes the height change of
    the steps a -> b into out, drawing any uniforms it needs into the
    buffer u with rng.random(out=u) and working in the `_Scratch` buffers.
    For a truncated BoundaryLaw (labels = heights, consecutive integers) it
    is the deterministic b - a.  For a (FuzzyChain, laws) pair (labels =
    classes) it is one draw per step from the law of the class step
    (b - a) mod q, read from a third table whose rows are the increment
    laws, so the drawn slot maps to first + q * slot.  Each table pads its
    rows with 1.0 to a power-of-two width w below twice the longest row, and
    each draw equals searchsorted(row, u, side="right") because the
    entries <= u form a prefix of every row.  The kernel tables are dense,
    so each takes less than twice the memory of its rows.  The increment-law
    table takes q w < 2 q (longest law) slots; heavy tails give the
    residues of small mass the longest laws, so that can be a few times
    the laws' own length.
    """
    if isinstance(source, BoundaryLaw):
        P, alpha = _height_kernel(source)

        def increment(a, b, rng, u, out, scratch):
            return np.subtract(b, a, out=out)
        return source.indices, _CdfTable([alpha]), _CdfTable(P), increment
    if isinstance(source, (tuple, list)) and len(source) == 2 \
            and isinstance(source[0], FuzzyChain):
        fc = source[0]
        laws = _check_laws(fc, source[1])
        table = _CdfTable([law.weights for law in laws], [law.first for law in laws], fc.q)

        def increment(a, b, rng, u, out, scratch):
            r = np.subtract(b, a, out=out)
            # r in (-q, q): add q where r < 0, that is where r >> 63 is -1
            # (np.remainder's integer division costs about 5x more)
            for lo in range(0, len(r), _BLOCK):
                rb = r[lo:lo + _BLOCK]
                term = scratch.term[:len(rb)]
                np.right_shift(rb, 63, out=term)
                term &= fc.q
                rb += term
            return table.draw(r, rng.random(out=u), out, scratch)
        return (np.arange(fc.q), _CdfTable([fc.alpha]), _CdfTable(fc.P),
                increment)
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
    labels, start, kernel, increment = _markov_additive(source)
    rng = _stream(seed, replicate)
    if len(labels) > 1:
        states = _walk(start, kernel, rng.random(n + 1))
    else:
        states = np.zeros(n + 1, dtype=np.int64)
    increments = increment(states[:-1], states[1:], rng, np.empty(n),
                           np.empty(n, dtype=np.int64), _Scratch(min(n, _BLOCK)))
    return increments, labels[states]


class _SliceStream:
    """The uniforms of walkers [lo, lo + len(out)) from each random(N) call
    of one Philox stream.

    The k-th call of the full stream covers positions [kN, (k+1)N).  Philox
    is counter-based (Salmon et al., Parallel random numbers: as easy as
    1, 2, 3, SC'11) and Philox 4x64 yields four doubles per counter value,
    so position P is reached directly: counter P // 4, then P % 4 doubles
    discarded.  A generator already standing at P (one slice of all
    walkers) is read on without a restart.
    """

    __slots__ = ("key", "N", "lo", "calls", "gen", "at")

    def __init__(self, key, N: int, lo: int):
        self.key, self.N, self.lo = key, N, lo
        self.calls, self.gen, self.at = 0, None, -1

    def random(self, out: np.ndarray) -> np.ndarray:
        P = self.calls * self.N + self.lo
        self.calls += 1
        if P != self.at:
            self.gen = np.random.Generator(
                np.random.Philox(key=self.key, counter=P // 4))
            self.gen.random(P % 4)
        self.at = P + len(out)
        return self.gen.random(out=out)


def _cpus() -> int:
    """CPUs this process may run on (affinity; CPU quotas are not read)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads(N: int) -> int:
    """Slices for N walkers: one per CPU, at most one per `_BLOCK` walkers
    and at most `_MAX_THREADS`."""
    return min(_cpus(), _MAX_THREADS, -(-N // _BLOCK))


def _run_slices(work, bounds) -> None:
    """work(lo, hi) for every slice: the first here, the rest on threads.

    All threads are joined before the first error of any slice is raised.
    """
    errors = []

    def guarded(lo, hi):
        try:
            work(lo, hi)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=b) for b in bounds[1:]]
    for t in threads:
        t.start()
    try:
        work(*bounds[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def sample_wn(source, n: int, replicates: int, seed: int, replicate: int = 0):
    """W_n over independent walkers, vectorized; one stream per call.

    Returns an int64 array of length ``replicates``.  The stream is keyed
    by (seed, replicate) like sample_path; parallel batches should use
    distinct replicate keys.  The walkers are split into contiguous
    slices, at most one per CPU the process may use, per `_BLOCK` walkers
    and `_MAX_THREADS` in all (only 2 threads on 2 CPUs were measured),
    and each slice runs the whole walk on its own thread (numpy releases
    the GIL in the draws, ufuncs and gathers).  A slice reads its uniforms
    from the one stream by counter (`_SliceStream`), so W_n has the same
    bytes for any number of slices.  Each step refills the same per-walker
    buffers, allocated once at full size (fresh arrays of this size would
    page-fault on every step), and each slice searches in its own
    block-sized `_Scratch`, so no step allocates.
    """
    _check_sizes(n, replicates)
    labels, start, kernel, increment = _markov_additive(source)
    key = _stream(seed, replicate).bit_generator.state["state"]["key"]
    N = int(replicates)
    W = np.zeros(N, dtype=np.int64)
    u = np.empty(N)
    states = np.zeros(N, dtype=np.int64)  # every walker starts on row 0
    nxt, dW = np.empty_like(states), np.empty_like(states)

    def walk(lo, hi):
        rng, scratch = _SliceStream(key, N, lo), _Scratch(min(hi - lo, _BLOCK))
        us, s, t, dWs, Ws = (a[lo:hi] for a in (u, states, nxt, dW, W))
        start.draw(s, rng.random(out=us), s, scratch)
        for _ in range(n):
            kernel.draw(s, rng.random(out=us), t, scratch)
            Ws += increment(s, t, rng, us, dWs, scratch)
            s, t = t, s

    T = _threads(N)
    _run_slices(walk, [(k * N // T, (k + 1) * N // T) for k in range(T)])
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

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
classes, the edge marginal at n = 1, and binary powering of the one-step
kernel over (class, displacement) on a window beyond, each product one
batch of transforms, with a rigorous bound on its rounding), samples both
walks, and recovers the height period of an unknown source from the
empirical distribution of its partial sums mod q-tilde.  Both samplers
read one PCG64DXSM stream keyed by (seed, replicate): `sample_path` reads
it in order, and is the walk of `sample_wn`'s one walker.  The sampler's unit of work is one block of at
most `_BLOCK` walkers or steps: `sample_wn` runs each block's whole walk
in block-sized buffers, on a pool of threads, one per CPU the process may
use and at most `_MAX_THREADS` (the count measured so far).  The stream
advances by any distance at once, so each block reads its share of it
directly and W_n has the same bytes for any thread count.

Every walk reads one uniform per walker and step, and each step draws
the next state and its increment together (`_StepTable`): the uniform
picks the next state by inverse CDF from the kernel row (`_CdfTable`,
rows padded with 1.0 to one power-of-two width w < 2m for rows of length
at most m); a height moves by the difference, and a class step rescales
the uniform's position inside the next class's share of the row to
[0, 1) to pick the increment from the law of the class step.  A walker
is one int64 that packs W_n above its state, and a step adds one code to
it.  A guide of 2^b buckets per row (Chen & Asau, 1974; b = `_GUIDE_BITS`,
8 KiB per row) holds that code for each walker whose bucket
[t/2^b, (t+1)/2^b) has one answer throughout; the others, 0.4-2% of a
block on the tables measured, are searched by branchless upper-bound
searches.
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
    _next_fast_len,
    apply_T_periodic,
    single_site_marginal,
    solve_fixed_point,
    periodic_solve,
)
from .errors import ConfigError, NotSummableError, NumericalError, TreeGibbsError
from .ggm import (_LEAK_TOL, FuzzyChain, _check_laws, _class_step_law, _dense_chain, _edge_rows,
                  _edge_window)
from .potentials import _MAX_RADIUS, _Bracket, _float_stream, _gamma, fuzzy_Q

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

# a transform product of `wn_ggm_exact` multiplies this many frequencies at a
# time, and by np.matmul only over this many rows: at q <= 3 its cost per
# matrix made a product 4-25x slower than q broadcast products, which at
# q >= 8 run 1.6-6x slower than matmul
_FREQ_BLOCK = 1 << 12
_BROADCAST_ROWS = 5
# its transforms take at most this many 8-byte entries of sequences per call
_FFT_ENTRIES = 1 << 20
# it refuses more vector steps than this: with the squarings on there are at
# most J + 2q + 1 < 2^10 of them (they need q^2 * 5q <= _MAX_BUFFER, q <= 237),
# so the cap binds only where the squared kernels do not fit; a step there
# takes about 5 s at log 2.6, q = 5 (2-core x86 host)
_MAX_VECTOR_STEPS = 1 << 10

# the sampler works on blocks of at most this many walkers (or path steps):
# 2^17 stepped 10^6 walkers fastest of 2^15-2^18 on 2 threads; on one, 2^12
# ran 3-5x slower than 2^17 (numpy's per-call cost) and 2^19 1.2x (cache)
_BLOCK = 1 << 17
# a step searches the walkers its guide leaves to the search at most this
# many at a time, in buffers of this size
_SEARCH_CHUNK = 1 << 12
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
    clipped at 0): probability that the walk left the window (in ggm mode,
    what the window's cuts drop), plus whatever the increment truncation
    already gave away, plus the law's rounding; None takes it from the sum
    that the sum check reads.  ``roundoff_bound``, None in gibbs mode, is a
    rigorous bound on max_k |law_k - the same formula (n = 1) or powering
    with the same cuts, in exact arithmetic|_k (see `wn_ggm_exact`), so law
    plus leaked mass may exceed 1 by up to that much per entry.
    ``limit`` is only set in gibbs mode and holds the n -> inf vector
    sum_i alpha(i) alpha(i+k) on the same window.
    """

    n: int
    window: int
    law: np.ndarray
    leaked_mass: float | None
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
        total = math.fsum(_float_stream(self.law))
        if self.leaked_mass is None:
            object.__setattr__(self, "leaked_mass", max(0.0, 1.0 - total))
        total += self.leaked_mass
        # a ggm entry may sit roundoff_bound above the exact law, which sums
        # to at most 1: transform rounding clipped at 0 in the far tails
        excess = 1e-12 if self.roundoff_bound is None else \
            1e-12 + len(self.law) * self.roundoff_bound
        if not (1.0 - 1e-9 <= total <= 1.0 + excess):
            bound = f"at most 1 + {excess:.3g}" if total > 1.0 else "at least 1 - 1e-9"
            raise NumericalError(f"law plus leaked mass sums to {total!r}, expected {bound}")
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
    return _dense_chain(bl, bl.pot.Q)


def _within(dist: PathDistribution, budget: float) -> PathDistribution:
    """dist, unless its leaked mass exceeds budget: NumericalError."""
    if dist.leaked_mass <= budget:
        return dist
    raise NumericalError(f"window {dist.window} leaks mass {dist.leaked_mass:.3g} > {budget:.3g}")


def _check_count(name: str, v) -> None:
    """ConfigError unless v is an integer >= 1 (a bool is not)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")


def _rows_to_one(A: np.ndarray) -> np.ndarray:
    return A / A.sum(axis=1, keepdims=True)


def wn_localized_exact(bl: BoundaryLaw, n: int) -> PathDistribution:
    """Exact law of W_n under the localized height chain, on the chain's
    full window m - 1 (m heights), which W_n cannot leave.

    nu(W_n = k) = sum_i alpha(i) P^n(i, i+k), read off the k-th diagonal of
    the n-th kernel power.  A power of a stochastic matrix is stochastic, so
    binary powering rescales each row of every product to sum to 1: P's
    rows sum to 1 only within an ulp or so, and repeated squaring would
    compound that into about n ulps of excess mass, past n ~ 1e18 into an
    overflow.  The returned distribution carries the limit vector sum_i
    alpha(i) alpha(i+k) on the same window, so convergence can be checked
    without a second call.
    """
    _check_count("n", n)
    P, alpha = _height_kernel(bl)
    m = len(alpha)
    Pn, power, bits = None, _rows_to_one(P), int(n)
    while True:  # right to left over the bits of n
        if bits & 1:
            Pn = power if Pn is None else _rows_to_one(Pn @ power)
        bits >>= 1
        if not bits:
            break
        power = _rows_to_one(power @ power)
    law = np.empty(2 * m - 1)
    for k in range(-(m - 1), m):
        diag = np.diagonal(Pn, offset=k)
        a = alpha[: m - k] if k >= 0 else alpha[-k:]
        law[k + m - 1] = math.fsum((a * diag).tolist())
    return _within(PathDistribution(n=n, window=m - 1, law=law, leaked_mass=None, mode=MODE_GIBBS,
                                    limit=np.correlate(alpha, alpha, "full")), _LEAK_TOL)


def default_window(fc: FuzzyChain, laws, n: int) -> int:
    """Gaussian-scale window ceil(8 sigma sqrt(n)) + q for the W_n law at n >= 2,
    sigma^2 the second moment of the stationary one-step increment.

    One single-step radius is added on top: the increment laws have heavier
    than Gaussian tails over one step, so the pure 8 sigma sqrt(n) scale
    leaks at small n even though it is ample for the diffusive bulk.
    """
    sigma = math.sqrt(sum(p * law.second_moment()
                          for p, law in zip(_class_step_law(fc).tolist(), laws)))
    reach = max(law.radius for law in laws)
    return math.ceil(8.0 * sigma * math.sqrt(n)) + fc.q + reach


def _law_kernels(laws, K: int):
    """(points, r, G, g2) of the increment laws for a window [-K, K]: points[s]
    = (j0, w), law s's weights w >= 0 at j0, j0 + q, ... with |j| <= 2K from
    one `IncrementLaw.clip`, trimmed to its nonzero ends; r the largest |j|
    of a nonzero weight; G_s >= sum w and g2_s >= |w|_2, norm bounds."""
    points, r, G, g2 = [], 0, [], []
    for law in laws:
        j0, w = law.clip(2 * K)
        k = np.flatnonzero(w)
        if k.size:
            j0, w = j0 + law.q * int(k[0]), w[k[0]:k[-1] + 1]
            r = max(r, -j0, j0 + law.q * (w.size - 1))
        points.append((j0, w))
        G.append(float(w.sum()) / (1.0 - _gamma(w.size)))
        g2.append(math.sqrt(float(w @ w)) / (1.0 - _gamma(w.size + 2)))
    return points, r, np.array(G), np.array(g2)


def _squarings(n: int, q: int, width: int, L: int) -> int:
    """How many squarings `wn_ggm_exact` runs: none unless the q^2 squared
    kernels (width entries each) and their transforms (L // 2 + 1 complex
    entries each) fit in _MAX_BUFFER 8-byte entries, and then one more
    while more than q steps are left above it.  A square transforms q^2
    sequences and a vector step q, so a square at level j costs about as
    much as the q vector steps by M_j it saves once n >> (j + 1) > q."""
    J = 0
    if q * q * (width + 2 * (L // 2 + 1)) <= _MAX_BUFFER:
        while n >> (J + 1) > q:
            J += 1
    return J


def _residue_spectra(points, q: int, K: int, L: int) -> np.ndarray:
    """The length-L real transforms of the `_law_kernels` points, weight j at
    slot (K + j) mod L, the slots of the windowed sequences it multiplies
    (wrapped where |j| > K; L > 2r, so no two weights share a slot)."""
    out = np.empty((len(points), L // 2 + 1), dtype=complex)
    for s, (j0, w) in enumerate(points):
        buf = np.zeros(L)
        buf[(K + j0 + q * np.arange(w.size)) % L] = w
        out[s] = np.fft.rfft(buf)
    return out


def _spectral_product(x: np.ndarray, y) -> np.ndarray:
    """x[..., f] = x[..., f] @ y(f) at every frequency f, in place, and x.

    x holds the (a, q, F) spectra of the left factor; y(block) returns the
    (q, q, B) spectra of the right factor at the frequencies of a block
    (a view, or the block of a scaled gather).  Each block of `_FREQ_BLOCK`
    frequencies is multiplied as one batch of a x q by q x q complex
    matrices and written back over x, so y may read x itself.  Over
    `_BROADCAST_ROWS` rows the batch goes through np.matmul; at fewer rows
    it is q broadcast products, which skip matmul's cost per matrix.
    """
    a, q, F = x.shape
    for f0 in range(0, F, _FREQ_BLOCK):
        block = slice(f0, f0 + _FREQ_BLOCK)
        xb, yb = x[..., block], y(block)
        if a > _BROADCAST_ROWS:
            zb = np.matmul(xb.transpose(2, 0, 1), yb.transpose(2, 0, 1)).transpose(1, 2, 0)
        else:
            zb = xb[:, 0, None] * yb[None, 0]
            for m in range(1, q):
                zb += xb[:, m, None] * yb[None, m]
        x[..., block] = zb
    return x


def _rfft_rows(a: np.ndarray, L: int) -> np.ndarray:
    """The length-L real transforms of a's sequences (its last axis), at
    most _FFT_ENTRIES // L of them per call, so that numpy's zero-padded
    copy stays small."""
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), L // 2 + 1), dtype=complex)
    per = max(1, _FFT_ENTRIES // L)
    for lo in range(0, len(rows), per):
        out[lo:lo + per] = np.fft.rfft(rows[lo:lo + per], L)
    return out.reshape(*a.shape[:-1], -1)


def _irfft_rows(spectra: np.ndarray, L: int, lo: int, width: int) -> np.ndarray:
    """Entries [lo, lo + width) of the length-L inverse transforms of the
    spectra (their last axis), at most _FFT_ENTRIES // L of them per call."""
    rows = spectra.reshape(-1, spectra.shape[-1])
    out = np.empty((len(rows), width))
    per = max(1, _FFT_ENTRIES // L)
    for r0 in range(0, len(rows), per):
        out[r0:r0 + per] = np.fft.irfft(rows[r0:r0 + per], L)[:, lo:lo + width]
    return out.reshape(*spectra.shape[:-1], width)


def _norms(a: np.ndarray):
    """The 1- and 2-norms of a's sequences along its last axis."""
    return np.abs(a).sum(axis=-1), np.sqrt((a * a).sum(axis=-1))


def wn_ggm_exact(fc: FuzzyChain, laws, n: int) -> PathDistribution:
    """Law of W_n under the class chain with conditional increments: W_1 is
    `ggm`'s edge marginal on `ggm._edge_window`'s window, and W_n, n >= 2,
    comes on `default_window`'s [-K, K] by binary powering of the kernel.

    The kernel M(i, c) = P(i, c) rho_{(c - i) mod q} moves a class and its
    displacement one step on, and W_n has the law alpha^T M^n 1, summed
    over the end class (a Markov-additive process: Ney & Nummelin, Ann.
    Probab. 15, 1987).  M keeps each law's stride-q weights with |j| <= 2K
    (`_law_kernels`), r the largest such |j|.  Right-to-left binary powering
    (Knuth, TAOCP vol. 2, 4.6.3) squares M_{j+1} = M_j * M_j, kept on lags
    [-K, K], for j < J, and moves a row vector v <- v * M_j, kept on
    positions [-K, K], for each set bit j < J of n, then n >> J times by M_J.
    `_squarings` picks J: squares while more than q steps are left above
    them (a square transforms q^2 sequences, a vector step q), and none
    where the q^2 squared kernels and their transforms do not fit in
    `_MAX_BUFFER` 8-byte entries, so that n runs as n vector steps.  The
    first vector step, from the point mass alpha at 0, is written directly:
    by M as law s's weights scaled by alpha(i) P(i, i+s), and by a square
    as sum_i alpha(i) M_j(i, .).  Every other product is one
    `_spectral_product`: the operands' transforms at L = _next_fast_len(K +
    2 max(r, K) + 1) points, q residue spectra for M (each weight at its
    wrapped slot, scaled by P(i, c)) and q^2 for a square, multiplied
    frequency by frequency as q x q matrices, and one inverse transform per
    sequence, kept on [-K, K]; L leaves the kept lags alias-free.

    The cuts drop the steps beyond 2K and the paths whose displacement over
    some dyadic block of steps (or over the steps before a vector step)
    leaves [-K, K]; at J = 0 that is every walk that leaves the window at
    some step.  What is dropped (at n = 1, what lies past the window) is
    counted in leaked_mass = 1 - sum(law), with the mass the increment
    truncation gives away (at most n times the per-law tail bound, allowed
    on top of `ggm._LEAK_TOL`: reported, not refused).  Every dropped term
    is nonnegative, so law(k) <= P(W_n = k) + roundoff_bound for every k.

    roundoff_bound bounds max_k |law_k - the same computation in exact
    arithmetic on the same float inputs|.  At n = 1, entry j is w_s(j), s =
    j mod q, times the exactly rounded sum of the q products alpha(i) P(i,
    i+s): three roundings on nonnegative terms, which gamma_{q+3} max_k
    law_k, rounded up, covers in any order of the sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1).
    At n >= 2, for a kernel X (rows i, columns c, sequences X_ic) let E(X)
    bound max_i sum_c |X^_ic - X_ic|_inf for the computed X^, and let |X| =
    max_i sum_c |X_ic|_1 be its row mass.  The row mass of M is at most
    kappa = max_i sum_s P(i, i+s) G_s, G_s >= |rho_s|_1, so an exact kernel
    of m steps has row mass at most kappa^m and the exact v at most
    |alpha|_1 kappa^m, cuts included.  Since
    |f * g|_inf <= |f|_inf |g|_1, a product errs by

        E(X Y) <= E(X) |Y^| + |X| E(Y) + eps,

    eps the transform product's own rounding: `_convolution_error` applied
    to each of the q products summed at an output frequency (its analysis
    is linear in them), with the complex q-term inner products, and the
    scaling of M's residue spectra by P(i, c) on both sides, accurate to
    sqrt(2) gamma_{q+3} (Higham, 3.6).  So eps = max_i sum_m (b_im R1_m +
    c_im R2_m), with (0, b_im, c_im) the coefficients of the sequence
    X^_im and R1_m, R2_m the sums over c of |Y^_mc|_1 and |Y^_mc|_2.  M is
    exact, E(M) = 0: the error of its transform is in eps.  The first step
    errs by at most gamma_{q+1} kappa |alpha|_1 by M (at most q terms per
    entry, two roundings each), and by at most |alpha|_1 E(M_j) +
    gamma_q sum_{i,c} |alpha(i)| |M^_j(i, c)|_inf by a square.  Summing the
    class rows adds gamma_{q-1} sum_c |v^_c|_inf.  Every term is evaluated
    from the computed arrays, in floating point on nonnegative numbers with
    fewer than width + q^2 + (q + 3) n + 128 + products (2 width + 3q + 128)
    roundings on any path (the norms, a power of kappa, the coefficients of
    eps), and the result is divided by one minus gamma of that count.
    Underflow is neglected.  The law is clipped at 0 (transform rounding
    leaves entries near -1e-16 in the far tails): the exact powering is
    nonnegative, so clipping never moves an entry away from it and the
    bound still holds.
    """
    _check_count("n", n)
    laws = _check_laws(fc, laws)
    q, alpha = fc.q, fc.alpha
    budget = _LEAK_TOL + n * max(law_.tail_mass_bound for law_ in laws)
    if n == 1:
        law = _edge_rows(fc, laws, _edge_window(fc, laws)[0])
        bound = math.nextafter(_gamma(q + 3) * float(law.max()), math.inf)
        return _within(PathDistribution(n=1, window=law.size // 2, law=law, leaked_mass=None,
                                        mode=MODE_GGM, q=q, roundoff_bound=bound), budget)
    K = default_window(fc, laws, n)
    width = 2 * K + 1
    points, r, G, g2 = _law_kernels(laws, K)
    idx = np.arange(q)
    res = (idx[None, :] - idx[:, None]) % q  # the residue (c - i) mod q of entry (i, c)
    step = fc.P[idx[:, None], (idx[:, None] + idx[None, :]) % q]  # P(i, i+s)
    kappa = float(np.max(step @ G))
    mass = float(np.abs(alpha).sum())
    L = _next_fast_len(K + 2 * max(r, K) + 1)
    J = _squarings(n, q, width, L)
    if q * max(width, 2 * (L // 2 + 1)) > _MAX_BUFFER:
        raise NumericalError(f"n={n}: the window [-{K}, {K}] takes {q} sequences of {L} "
                             f"transform points, beyond {_MAX_BUFFER} 8-byte entries")
    steps = (int(n) & ((1 << J) - 1)).bit_count() + (n >> J)
    if steps > _MAX_VECTOR_STEPS:
        raise NumericalError(f"n={n}: {steps} vector steps on the window [-{K}, {K}] exceed "
                             f"the cap of {_MAX_VECTOR_STEPS} (squarings that fit in "
                             f"{_MAX_BUFFER} 8-byte entries: {J})")
    term_rounds = q + 3  # the roundings of one term of a transform product

    R = S = real = None  # M's residue spectra, M_j's spectra, M_j's window (j >= 1)

    def spectra(j):
        """The block getter of M_j's spectra, transformed on first use.  M's
        are P(i, c) times the residue spectrum of law (c - i) mod q: formed
        once for the squares, and block by block without them."""
        nonlocal R, S
        if j == 0 and R is None and S is None:
            R = _residue_spectra(points, q, K, L)
            points.clear()  # read only by the first step by M, which came first
            if J:
                S, R = R[res], None
                S *= fc.P[:, :, None]
        if R is not None:
            return lambda block: fc.P[:, :, None] * R[:, block][res]
        if S is None:
            S = _rfft_rows(real, L)
        return lambda block: S[..., block]

    # M_j's entrywise 1- and 2-norm bounds, E(M_j) and its exact row mass bound
    n1, n2 = fc.P * G[res], fc.P * g2[res]
    err, rowmass = 0.0, kappa
    v, verr, vmass, products = None, 0.0, mass, 0
    for j in range(J + 1):
        for _ in range((n >> j) & 1 if j < J else n >> J):
            if v is None and j == 0:  # the first step, by M
                v = np.zeros((q, width))
                for s, (j0, w) in enumerate(points):
                    a = max(0, -((K + j0) // q))  # the points j0 + qk in [-K, K]
                    b = max(a, min(w.size, (K - j0) // q + 1))
                    at = K + j0 + q * a
                    v[(idx + s) % q, at:at + q * (b - a):q] = np.outer(alpha * step[:, s], w[a:b])
                verr = _gamma(q + 1) * kappa * mass
            elif v is None:  # the first step, by a square
                v = np.tensordot(alpha, real, axes=1)
                verr = mass * err + _gamma(q) * float(
                    np.abs(alpha) @ np.abs(real).max(axis=-1).sum(axis=1))
            else:
                a1, a2 = _norms(v)
                _, b, c = _convolution_error(L, 0, a1, a2, term_rounds)
                verr = verr * float(n1.sum(axis=1).max()) + vmass * err + float(
                    b @ n1.sum(axis=1) + c @ n2.sum(axis=1))
                X, v = _rfft_rows(v, L)[None], None
                v = _irfft_rows(_spectral_product(X, spectra(j))[0], L, K, width)
                products += 1
            vmass *= rowmass
        if j < J:
            spectra(j)
            real = None  # the square reads M_j's spectra only
            R1, R2 = n1.sum(axis=1), n2.sum(axis=1)
            _, b, c = _convolution_error(L, 0, n1, n2, term_rounds)
            err = err * float(R1.max()) + rowmass * err + float(np.max(b @ R1 + c @ R2))
            rowmass *= rowmass
            real = _irfft_rows(_spectral_product(S, lambda block: S[..., block]), L, K, width)
            S = None
            n1, n2 = _norms(real)
            products += 1
    bound = verr + _gamma(q - 1) * float(np.abs(v).max(axis=1).sum())
    law = np.maximum(v.sum(axis=0), 0.0)
    rounds = width + q * q + (q + 3) * n + 128 + products * (2 * width + 3 * q + 128)
    bound = (_Bracket(bound, bound) / (1.0 - _gamma(rounds))).hi
    return _within(PathDistribution(n=n, window=K, law=law, leaked_mass=None, mode=MODE_GGM,
                                    q=q, roundoff_bound=bound), budget)


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
    """Buffers for the steps of one block (`_Guided.step`) and their searches.

    A walk that passes the same scratch to every step allocates no
    block-sized buffer per step (on worker threads, such temporaries make
    each malloc arena shrink and regrow).  ``code`` and ``hit`` hold the
    codes of the block's ``block`` walkers and the misses of their guide;
    the search buffers take ``size`` walkers at a time: ``key`` and
    ``uniform`` the compacted rows (then codes) and uniforms of the misses,
    ``state`` the next state of `_StepTable`, which works out its rescaled
    uniform in ``uniform``.  The misses' index list, from np.flatnonzero,
    which takes no out=, is the one array a step allocates.
    """

    __slots__ = ("code", "hit", "entry", "below", "term", "key", "uniform", "state")

    def __init__(self, size: int, block: int = 0):
        self.code, self.hit = np.empty(block, dtype=np.int64), np.empty(block, dtype=bool)
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
    by one gather, stepping walkers packed in one int64 each.

    A subclass defines ``_search(keys, u, out, scratch)``: the code of a
    draw from row keys[k] at u[k] in [0, 1), non-decreasing in u on every
    row, in the buffers of scratch (len(u) entries); keys may be out.  The
    guide (Chen & Asau, On generating random variates from an empirical
    distribution, 1974) splits [0, 1) into 2^b buckets, b = ``bits`` =
    `_GUIDE_BITS` when the table is built.  Entry (s, t) holds the code of
    row s for every u in
    [t/2^b, (t+1)/2^b), found by `_search` at the bucket's two ends, t/2^b
    and the largest double below (t+1)/2^b, or `_SENTINEL` where the two
    differ.  This is exact: the draw is non-decreasing in u, so equal
    answers at the ends hold for every u between them, and t = floor(u 2^b)
    is exact, since scaling by a power of two only moves the exponent.
    The guide takes 8 * 2^b bytes per row (8 KiB at b = 10).

    A walker is one int64 X whose bits [b, S) hold its row, S = ``shift``
    = b + bit_length(rows - 1), and whose bits below b are 0.  Its guide
    entry is then at (X | floor(u 2^b)) & (2^S - 1), whatever X holds above
    S; `step` gathers it for a whole block, searches the misses and adds
    each code to X.
    """

    __slots__ = ("guide",)

    @property
    def bits(self) -> int:
        return self.guide.shape[1].bit_length() - 1

    @property
    def shift(self) -> int:
        return self.bits + (len(self.guide) - 1).bit_length()

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

    def step(self, X: np.ndarray, u: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """X += the codes of the draws at u from the rows X holds, in place:
        one gather from the guide, then `_search` on the walkers it leaves
        to the search, compacted into the search buffers of scratch, whose
        code and hit buffers must hold len(u) entries."""
        bits, mask, size = self.bits, (1 << self.shift) - 1, len(u)
        code, hit = scratch.code[:size], scratch.hit[:size]
        # the float -> int cast truncates; X has no bits below b
        np.multiply(u, 1 << bits, out=code, casting="unsafe")
        code |= X
        code &= mask
        # every index is in range, so mode="wrap" never wraps (and take never
        # buffers); each index is read before its own slot is written
        np.take(self.guide.ravel(), code, out=code, mode="wrap")
        np.equal(code, _SENTINEL, out=hit)
        miss = np.flatnonzero(hit)
        chunk = len(scratch.key)
        for lo in range(0, miss.size, chunk):
            at = miss[lo:lo + chunk]
            key, uniform = scratch.key[:at.size], scratch.uniform[:at.size]
            np.take(X, at, out=key, mode="wrap")
            key &= mask
            key >>= bits
            np.take(u, at, out=uniform, mode="wrap")
            code[at] = self._search(key, uniform, key, scratch)
        X += code
        return X


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
    """One step of a Markov-additive chain: the next state b and the
    increment k drawn together from one uniform, as the additive code
    (k << shift) + ((b - a) << bits) of a step from state a, which moves
    a packed walker (`_Guided`) X = (W << shift) + (a << bits) to
    ((W + k) << shift) + (b << bits).

    The rule is the composition step of a Markov-additive chain (Devroye,
    Non-Uniform Random Variate Generation, 1986, II.2 and III.2), in two
    levels from row a of the kernel: b = searchsorted(cumP[a], u, "right")
    on the running sums of the kernel (its `_CdfTable`, last slot forced
    to 1.0).  Without laws (the height chain, whose rows are consecutive
    heights) the increment is b - a.  With laws, v = min(fl(fl(u - C) /
    P[a, b]), 1 - 2^-53), C the running sum before b (0 for b = 0), and
    k = first + q slot, slot = searchsorted on the running sums of the law
    of the class step (b - a) mod q at v.  Every level is non-decreasing
    in u (rounding is monotone, and v is clipped below 1 where the forced
    1.0 or rounding would take it to 1 or beyond; a 0/0 at a zero P[a, b],
    which only the forced last slot can draw, is clipped too), and the
    code is one-to-one in (b, k), since |b - a| < 2^(shift - bits), so the
    guide, one row per state, is exact as `_Guided` says.  The rule reads
    the kernel and law running sums, built without guides.  Its guide took
    0.25 s to build beyond 0.07 s of running sums on the 4096-row SOS
    beta=2 kernel (with one-point laws), and 0.5 ms at log 3.0, q = 5
    (2-core x86 host).
    """

    __slots__ = ("kernel", "laws", "P", "q")

    def __init__(self, P: np.ndarray, laws: _CdfTable | None = None):
        self.q = len(P)
        self.kernel = _CdfTable(P, guide=False)
        self.P = np.ascontiguousarray(P, dtype=np.float64).ravel()
        self.laws = laws
        self._build_guide(self.q)

    def _search(self, keys, u: np.ndarray, out: np.ndarray,
                scratch: _Scratch) -> np.ndarray:
        """out[k] = the code of the two-level rule from state keys[k] at u[k];
        keys may be out itself, and u may be scratch.uniform (`step` passes
        it), where the rescaled uniform v is worked out."""
        size = len(u)
        entry, below, term = scratch.views(size)
        b = scratch.state[:size]
        self.kernel._search(keys, u, b, scratch)
        if self.laws is not None:
            v = scratch.uniform[:size]
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
        np.subtract(b, keys, out=b)  # the state step b - a
        np.copyto(out, b)  # keys may be out: read for the last time above
        if self.laws is not None:
            self.laws._search(_wrap_class_step(out, self.q, term), v, out, scratch)
        out <<= self.shift - self.bits
        out += b
        out <<= self.bits
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
        _check_count(name, v)
    name, v = named[-1]
    size = int(v) + (name == "n")
    buffer = "uniforms in one buffer" if name == "n" else "entries in the int64 result W"
    if size > _MAX_BUFFER:
        raise NumericalError(
            f"{name}={v} needs {size} {buffer} "
            f"({size * 8 / 2**30:.3g} GiB), beyond {_MAX_BUFFER}; "
            "use smaller runs on distinct replicate keys")


def _markov_additive(source, n: int):
    """(labels, alpha, P, table) of a sampling source, for walks of n steps.

    alpha and P are the start law and the kernel of the state chain, and
    table its `_StepTable`, which both samplers draw each step from:
    sample_path walks the states with `_walk` and reads each increment
    from the code drawn at the same uniform, sample_wn draws its start from
    alpha and its steps from table.  For a truncated BoundaryLaw (labels =
    heights, consecutive integers) the table has no laws: the increment of
    a step a -> b is b - a.  For a (FuzzyChain, laws) pair (labels =
    classes) its laws are a `_CdfTable` without a guide whose rows are the
    increment laws, slot k of row s the point first + q * k; heavy tails
    give the residues of small mass the longest laws, so the padded rows
    can take a few times the laws' own length, while the step guide takes
    only 8 q KiB.  A walk whose |W|, n times the largest |increment|,
    could reach 2^(63 - shift) does not fit a packed walker (`_Guided`):
    the state count fixes the shift, so it is refused before any table.
    """
    if isinstance(source, BoundaryLaw):
        labels, reach = source.indices, len(source.x) - 1
    elif isinstance(source, (tuple, list)) and len(source) == 2 \
            and isinstance(source[0], FuzzyChain):
        fc, laws = source[0], _check_laws(*source)
        labels, reach = np.arange(fc.q), max(law.radius for law in laws)
    else:
        raise ConfigError("source must be a truncated BoundaryLaw or a (FuzzyChain, laws) pair")
    shift = _GUIDE_BITS + (len(labels) - 1).bit_length()  # `_Guided.shift`
    if int(n) * reach >= 1 << (63 - shift):
        raise NumericalError(f"n={n} steps of increments up to {reach} could reach |W| = "
                             f"2^{63 - shift}, beyond the int64 packing of {len(labels)} states")
    if isinstance(source, BoundaryLaw):
        P, alpha = _height_kernel(source)
        return labels, alpha, P, _StepTable(P)
    return labels, fc.alpha, fc.P, _StepTable(fc.P, _CdfTable(
        [law.weights for law in laws], [law.first for law in laws], fc.q, guide=False))


def sample_path(source, n: int, seed: int, replicate: int = 0):
    """One reproducible path of n increments from a solved source.

    Returns (increments, states): states has length n+1 and holds heights
    in gibbs mode, classes in ggm mode.  Equal (seed, replicate) always
    reproduces the same path; replicates are independent streams.  The
    path reads positions 0..n of the PCG64DXSM stream that sample_wn reads
    for the same key, so it is the walk of sample_wn's one walker:
    u[0] draws the start and u[k] step k.  `_walk` draws the states in
    order; each step's increment is read from the code `_StepTable` draws
    from the same uniform, a block of steps at a time, each step a packed
    walker with W = 0.
    """
    _check_sizes(n)
    labels, alpha, P, table = _markov_additive(source, 1)  # each step packs W = 0
    u = np.random.Generator(np.random.PCG64DXSM(_seed_sequence(seed, replicate))).random(n + 1)
    states = _walk(alpha, P, u) if len(labels) > 1 else np.zeros(n + 1, dtype=np.int64)
    increments = np.empty(n, dtype=np.int64)
    size = min(n, _BLOCK)
    scratch = _Scratch(min(size, _SEARCH_CHUNK), size)
    for lo in range(0, n, _BLOCK):
        X = increments[lo:lo + _BLOCK]
        np.left_shift(states[lo:lo + len(X)], table.bits, out=X)
        table.step(X, u[lo + 1:lo + 1 + len(X)], scratch)
        X >>= table.shift
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
    that path.  Parallel batches should use distinct replicate keys.  Each
    walker is packed in its own entry of W, (W << shift) + (state << bits)
    (`_Guided`): one uniform draws the start, and each step one code from
    `_StepTable` by one guide gather, which one add applies.  Each block of
    at most `_BLOCK` walkers runs its whole walk in its own buffers, 17
    bytes a walker beside the misses' search buffers, reading its slice of
    every call of the stream by advancing past the other walkers'
    positions (`_SliceStream`), so no step allocates beyond the misses'
    index lists and W_n has the same bytes for any number of threads.  A
    pool of threads, one per CPU the process may use and at most
    `_MAX_THREADS` (only 2 threads on 2 CPUs were measured), maps over the
    blocks; numpy releases the GIL in the draws, ufuncs and gathers.
    """
    _check_sizes(n, replicates)
    seq = _seed_sequence(seed, replicate)
    _, alpha, _, table = _markov_additive(source, n)
    # the start is a step from row 0 that moves the row only: code s << bits
    start = _CdfTable([alpha], [0], 1 << table.bits)
    N = int(replicates)
    W = np.zeros(N, dtype=np.int64)  # every walker starts packed on row 0 at W = 0

    def walk(lo):
        X = W[lo:lo + _BLOCK]
        rng, u = _SliceStream(seq, N, lo), np.empty(len(X))
        scratch = _Scratch(min(len(X), _SEARCH_CHUNK), len(X))
        start.step(X, rng.random(out=u), scratch)
        for _ in range(n):
            table.step(X, rng.random(out=u), scratch)
        X >>= table.shift

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
    the report is flagged gibbs_like and left out of the gcd.  That
    marginal comes from the certified `solve_fixed_point` of pot; where the
    solve is refused (pot outside the good set), no report is gibbs_like.
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
        ref_law, _ = solve_fixed_point(pot, d)
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

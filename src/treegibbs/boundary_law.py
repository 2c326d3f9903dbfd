"""Boundary-law fixed points: localized laws on a truncated window of Z and
height-periodic laws on Z_q.

The normalized boundary-law equation is x = T(x) with

    T(x)(i) = (Q(i) + sum_{j != 0} Q(i-j) x(j)^d) / (1 + sum_{j != 0} Q(j) x(j)^d),

a convolution against w = x^d with the zero slot pinned to w(0) = 1,
renormalized so T(x)(0) = 1.  Inside the good set T contracts an eps-ball
around Q in the l_{d+1} norm, and Banach iteration converges to the unique
fixed point there; lambda = x^d is the boundary law and lambda^{(d+1)/d}
normalizes to the single-site marginal.  On Z_q the iteration starts from
x0 = Q.  A window [-R, R] is not iterated on: Banach iteration from Q
solves a small core [-R_c, R_c], and one more application of T to the
core's fixed point x_c, zero-padded, is the returned law (`_extend`).  It
is one linear convolution on a near band [-r0, r0], r0 = 8 R_c + J with J
the table end, and beyond r0, where every Q(i - j) lies in the declared
tail, a closed form in the core's moments, the far-field expansion of a
multipole method (Greengard and Rokhlin, J. Comput. Phys. 73, 1987):
x^(i) = Q(i)/N sum_k b_k mu_k (1 + i)^(-k) for a power tail, Q(i - R_c)/N
sum_j w(j) e^{-a(R_c - j)} for an exp tail, with a certified componentwise
bound (`_far_field`).  No transform of window length runs.

One operator serves two supports; only its convolution differs.  On the
window [-R, R] it is a linear convolution against Q on [-2R, 2R]; on Z_q it
is a circular convolution against the normalized class-sum operator
Qbar_q = Q_q / Q_q(0), and the q = 1 case degenerates to the free state
lambda == 1.  Large sizes convolve through one cached FFT; below that, a
window convolution computes only the outputs it keeps.

Both supports are certified from `goodset.norm_membership` of the
support's norm pair: refusal outside the good set, a-posteriori Banach
stopping ||x_{n+1} - x_n|| * L/(1-L) < tol, and the ball check.  On the
window the certificate covers the extension x^ = T(x_c) on all of Z.  Its
part f outside the core has |f| <= c_c, the `_cut_bound` of x_c at R_c,
and w(x^) is w of x^ on the core plus f^d, so Young's inequality (gamma =
|Q|_{(d+1)/2}) and Hoelder's (delta) give |T x^ - x^| <= L rho_c +
(gamma + eps delta) c_c^d, rho_c the core residual.  The part of x^ beyond
R is at most the `_cut_bound` of x_c at R, and the closure's slots lie
within its bound of x^, so the returned window lies within those two plus
|T x^ - x^|/(1 - L) of the fixed point on Z; the rounding of the near band
and of the core is not counted.  The core radius fits the far term into
_FAR_SHARE (1 - L) tol and the core's Banach stop takes _CORE_SHARE tol; a
core whose bound misses that budget is doubled and solved again.  The
default window is sized for what that leaves the truncation, at least
(1 - _CORE_SHARE - _FAR_SHARE) tol, and a default window whose total
misses tol is evaluated wider, with no new solve.  Outside the good set
"certified" mode refuses and "auto" iterates plainly (divergence and
trivial-branch detection), labelling the result uncertified; an infinite
norm is refused in both.

Step norms are known as rounding bands (`potentials._banded_sum`): every
stop, growth, divergence and ball test is decided exactly as on the exactly
rounded norm, with one fsum only when the band straddles the threshold, and
the reported norms and the bounds built on them are the bands' upper ends.
Laws and reports are returned as data, the report the one record of a
solve's certificate; `cli` prints them as CSV or JSON.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, OutsideGoodSetError
from .goodset import REASON_NORM_INFINITE, localization_bounds, norm_membership
from .potentials import (
    _UNIT_ROUNDOFF,
    FuzzyOperator,
    NormReport,
    Potential,
    _banded_sum,
    _check_tol,
    _float_stream,
    _gamma,
    _smallest_radius,
    _tail_beyond,
    fuzzy_Q,
    norm_pair,
)

__all__ = [
    "SUPPORT_TRUNCATED",
    "SUPPORT_PERIODIC",
    "BoundaryLaw",
    "SolveConfig",
    "SolveReport",
    "apply_T",
    "apply_T_periodic",
    "truncation_radius",
    "solve_fixed_point",
    "periodic_solve",
    "localization_bounds",  # goodset's, re-exported
    "single_site_marginal",
]

SUPPORT_TRUNCATED = "Z_truncated"
SUPPORT_PERIODIC = "Z_q"

MODE_CERTIFIED = "certified"
MODE_AUTO = "auto"

_FFT_WINDOW = 2048
_MAX_WINDOW_RADIUS = 1 << 25
_MAX_ITER = 20000
# default stopping tolerance of the solves
_SOLVE_TOL = 1e-12
# the default window radius allows _KAPPA times the two-sided tail tau(R) of Q
# at exponent d+1 for the window's cut |(I - P_R) T x|: on the default windows
# of sos 2.0, 2.5 and 3.0 (d = 3), log 2.91, 3.0 and 4.0 and an exp-tail table
# the cut was 1.00-1.34 tau(R) by direct sums and its `_cut_bound` 1.00-1.82
# tau(R), so a wider window is rare; the core radius reads the same weight
_KAPPA = 2.0
# shares of tol in a window solve's budget: the far term of the extension
# gets _FAR_SHARE (1 - L) tol of the residual bound, the core's Banach stop
# _CORE_SHARE tol, and the truncation the rest (`solve_fixed_point`)
_FAR_SHARE = 0.25
_CORE_SHARE = 0.5
# an extension convolves the band |i| <= _CLOSURE_REACH R_c + J and takes the
# slots beyond it from the core's moments: a reach of 8 keeps the expansion's
# ratio R_c / (1 + r0) below 1/8, so at s = 3 it stops at order 20, and a
# power-tail expansion that needs more than _MAX_ORDER terms is not used
# (`_closure_order`)
_CLOSURE_REACH = 8
_MAX_ORDER = 64


@dataclass(frozen=True, eq=False)
class BoundaryLaw:
    """A solved boundary law in d-th root representation.

    ``x`` holds the root values on the support including the zero slot
    (pinned to 1): index i lives at x[i + radius] on a truncated window,
    at x[i] on Z_q.  The law itself is lambda = x**d.  ``certified`` says
    whether the contraction certificate held; the certificate itself (the
    ball radius eps, the residual and the error bounds) lives only in the
    `SolveReport` returned with the law.  ``pot`` keeps the generating
    potential so consumers can rebuild the height chain P(i,j) = Q(i-j)
    lambda(j) / N(i).
    """

    kind: str
    d: int
    x: np.ndarray
    radius: int | None = None
    q: int | None = None
    certified: bool = True
    free_state: bool = False
    pot: Potential | None = None

    def __post_init__(self):
        self.x.setflags(write=False)

    @property
    def lam(self) -> np.ndarray:
        """Boundary law lambda = x^d, lambda(0) = 1."""
        return self.x**self.d

    @property
    def indices(self) -> np.ndarray:
        if self.kind == SUPPORT_TRUNCATED:
            return np.arange(-self.radius, self.radius + 1)
        return np.arange(self.q)

    def _slot(self, i: int) -> int:
        if self.kind == SUPPORT_TRUNCATED:
            if abs(i) > self.radius:
                raise IndexError(f"index {i} outside window radius {self.radius}")
            return i + self.radius
        return i % self.q

    def x_at(self, i: int) -> float:
        return float(self.x[self._slot(i)])

    def lam_at(self, i: int) -> float:
        return float(self.x[self._slot(i)] ** self.d)

    def offzero_norm(self) -> float:
        """l_{d+1} norm of x over the support minus the zero slot."""
        return _OffzeroNorm(self.x, self._slot(0), self.d).exact()


@dataclass(frozen=True)
class SolveConfig:
    """Solve controls: radius None picks the certified truncation; mode
    "certified" refuses outside the good set, "auto" iterates uncertified
    there."""

    radius: int | None = None
    tol: float = _SOLVE_TOL
    mode: str = MODE_CERTIFIED

    def __post_init__(self):
        _check_tol("tol", self.tol)
        if self.mode not in (MODE_CERTIFIED, MODE_AUTO):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.radius is not None and self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")


@dataclass(frozen=True)
class SolveReport:
    """Certificate trail of one Banach solve and its only record: the law
    keeps just ``certified``.  epsilon is the certified ball radius.

    On a window the Banach steps run on a core [-R_c, R_c]: coarse_radius
    is R_c (None when the core is the whole window), and iterations counts
    the steps of every core solved (a core whose bound misses its budget is
    doubled and solved again).  contraction_estimate is the largest
    observed ratio of successive step norms (measured while steps are well
    above rounding noise); certified runs keep it at or below the good-set
    Lipschitz constant.  a_priori and a_posteriori are the standard Banach
    error bounds of the last iteration for the fixed point of the operator
    it iterates (T on Z_q, T cut to the core on a window), from its start
    and from its last step; both None without a contraction certificate.

    A certified window returns x, the cut to [-R, R] of the extension
    x^ = T(x_c) of the core's fixed point x_c, zero-padded.  final_residual
    bounds |T x^ - x^| in l_{d+1} on Z by L rho_c + (gamma + eps delta)
    c_c^d, with rho_c the core residual and c_c the `_cut_bound` of x_c at
    R_c.  truncation_bound, the `_cut_bound` of x_c at R, bounds the part
    of x^ beyond the window.  Beyond closure_radius r0 = 8 R_c + J the
    window holds the far-field closure of x^ (`_far_field`), and
    closure_bound bounds its distance from x^ in l_{d+1}; both are None
    where no closure ran (R <= r0).  total_error_bound adds truncation_bound,
    closure_bound and final_residual/(1 - L): x lies within it of the fixed
    point on Z in the off-zero l_{d+1} norm.  Like the Banach bounds, the
    total does not add the rounding of the core's and the near band's
    convolutions.  A default window whose total exceeds tol is evaluated
    wider; an explicit radius only reports it.
    Both are None on Z_q and without a contraction certificate, where
    final_residual is computed: the residual of x on Z_q, and |x - x_c| on
    an uncertified window.

    The step norms behind final_residual and the bounds are the upper
    ends of rounding bands around the exactly rounded norms, at most about
    7.3e-12/(d+1) above them; contraction_estimate divides such an upper end
    by the previous step's lower end.  So the reported values stay upper
    bounds, while iterations and the certificate are decided on the exact
    norms.
    """

    iterations: int
    final_residual: float
    contraction_estimate: float | None
    a_priori_bound: float | None
    a_posteriori_bound: float | None
    lipschitz: float | None
    epsilon: float | None
    gamma: float
    delta: float
    certified: bool
    mode: str
    coarse_radius: int | None = None
    truncation_bound: float | None = None
    total_error_bound: float | None = None
    closure_radius: int | None = None
    closure_bound: float | None = None


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Operator:
    """T on one support: w = x^d with w(zero) = 1, numerator convolve(w),
    renormalized to 1 at the zero slot.

    ``base`` is the kernel restricted to the support, which is also the
    start vector Q; ``zero`` is the slot of index 0 (the radius R on a
    window, 0 on Z_q).
    """

    d: int
    base: np.ndarray
    zero: int
    convolve: Callable[[np.ndarray], np.ndarray]

    def start(self) -> np.ndarray:
        x = self.base.copy()
        x[self.zero] = 1.0
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        w = x**self.d
        w[self.zero] = 1.0
        num = self.convolve(w)
        return num / num[self.zero]


def _fft_convolve(kernel: np.ndarray, n: int, lo: int, hi: int):
    """Circular convolution of length n against a cached kernel transform,
    keeping lags [lo, hi)."""
    kernel_f = np.fft.rfft(kernel, n)

    def convolve(w):
        return np.fft.irfft(kernel_f * np.fft.rfft(w, n), n)[lo:hi]

    return convolve


def _next_fast_len(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n >= 1.

    The same choice as scipy.fft.next_fast_len(n, real=True): every
    transform here is a real one, and numpy's real pocketfft has passes
    for the radices 2, 3, 4 and 5 only, so a factor 7 or 11 costs a generic
    pass.  Computed here so the transform lengths, and with them the output
    bits, do not depend on importing scipy.fft.  Each 5^a 3^b below the
    best length so far is completed by the least power of two that
    reaches n.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p3 = p5
        while p3 < best:
            best = min(best, p3 << ((n - 1) // p3).bit_length())
            p3 *= 3
        p5 *= 5
    return best


def _linear_convolver(kernel: np.ndarray, R: int, R_out: int | None = None):
    """(convolve, L) for the linear convolution of a kernel on lags [-r, r]
    with vectors on [-R, R], kept on [-R_out, R_out] (R_out = R by default;
    r <= R + R_out).

    Direct np.convolve while the kernel has at most _FFT_WINDOW entries
    (every output is then a dot product of at most that many terms) or both
    the vector and the kept window do; otherwise one circular transform of
    length L, the next fast length >= r + R + R_out + 1, which leaves the
    kept lags alias-free.  L is None on the direct path.  The choice and L
    fix the output bits.  When r = R + R_out, as for every window operator
    and extension, each kept output overlaps the whole vector, so the
    direct path computes only those, np.convolve's "valid" mode: the same
    dot products, and so the same bits, as the kept slice of the full
    product, at about half of a core apply's multiply-adds.
    """
    r = (len(kernel) - 1) // 2
    R_out = R if R_out is None else R_out
    lo, n = r + R - R_out, 2 * R_out + 1
    if min(len(kernel), 2 * max(R, R_out) + 1) > _FFT_WINDOW:
        L = _next_fast_len(r + R + R_out + 1)
        return _fft_convolve(kernel, L, lo, lo + n), L
    if r == R + R_out:
        return lambda v: np.convolve(kernel, v, "valid"), None

    def convolve(v):
        return np.convolve(kernel, v)[lo : lo + n]

    return convolve, None


def _convolution_error(L: int | None, m: int, g1: float, g2: float):
    """(a, b, c) with |computed - exact|_inf <= a|v|_inf + b|v|_1 + c|v|_2
    for one call of a `_linear_convolver` whose kernel g has |g|_1 <= g1 and
    |g|_2 <= g2; ``m`` is the number of terms of a direct dot product.

    Direct: every output is a dot product of at most m terms, so its error
    is at most gamma_m |g|_1 |v|_inf in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5).

    FFT: the analysis of Higham section 24.1 (Theorem 24.2), applied pass
    by pass to a mixed-radix transform of length L = prod p_k.  A radix-p
    pass multiplies each block by a twiddle diagonal and a p-point DFT, an
    operator of 2-norm sqrt(p); with twiddles accurate to mu = 4u, every
    output is a complex inner product of p terms with coefficient error at
    most e_p = 2 mu + mu^2 + (1 + mu)^2 sqrt(2) gamma_{p+3}, so the pass
    errs by at most eta_p = sqrt(p) e_p times its norm times the input norm.
    By induction over the passes the computed transform satisfies
    |fl(Fx) - Fx|_2 <= phi |Fx|_2 with phi = prod (1 + eta_p) - 1 <= s/(1-s),
    s = sum eta_p (evaluated in that form, free of cancellation), and the
    inverse, with its 1/L scaling, the same with phi' = (1 + phi)(1 +
    gamma_2) - 1.  Underflow is neglected here and below.  With A = Fg, B = Fv (|A|_inf <= |g|_1, |B|_inf <= |v|_1,
    |B|_2 = sqrt(L)|v|_2) and complex products accurate to sqrt(2) gamma_2,

        |C^ - AB|_2 / sqrt(L) <= (1 + sqrt(2) gamma_2) (phi |g|_2 |v|_1
            + phi^2 sqrt(L) |g|_2 |v|_2 + phi |g|_1 |v|_2)
            + sqrt(2) gamma_2 |g|_1 |v|_2,

    and the inverse transform adds phi' |g|_1 |v|_2 while scaling that
    difference by (1 + phi').  The inf-norm of the kept slice is at most
    the 2-norm of the whole circular result.
    """
    if L is None:
        return _gamma(m) * g1, 0.0, 0.0
    mu = 4.0 * _UNIT_ROUNDOFF
    total, rest = 0.0, L
    for p in (2, 3, 5):
        while rest % p == 0:
            rest //= p
            e_p = 2.0 * mu + mu * mu + (1.0 + mu) ** 2 * math.sqrt(2.0) * _gamma(p + 3)
            total += math.sqrt(p) * e_p
    phi = total / (1.0 - total)
    phi_inv = phi + _gamma(2) * (1.0 + phi)
    mult = math.sqrt(2.0) * _gamma(2)
    b = (1.0 + phi_inv) * (1.0 + mult) * phi * g2
    c = phi_inv * g1 + (1.0 + phi_inv) * (
        (1.0 + mult) * (phi * phi * math.sqrt(L) * g2 + phi * g1) + mult * g1)
    return 0.0, b, c


def _window_operator(pot: Potential, d: int, R: int) -> _Operator:
    """T on the window [-R, R] by linear convolution against Q on [-2R, 2R].

    With r = 2R the convolver switches to the FFT above 2R+1 = _FFT_WINDOW
    entries and transforms at the next fast length >= 4R+1.
    """
    Q2 = pot.Q(np.arange(-2 * R, 2 * R + 1))
    convolve, _ = _linear_convolver(Q2, R)
    return _Operator(d, Q2[R : 3 * R + 1], R, convolve)


class _Closure(NamedTuple):
    """How `_extend` evaluated a window beyond the near band [-radius, radius].

    For radius < |i| <= R the computed x~(i) lies within e(i) = scale *
    Q(|i| - shift) of x^(i) = sum_j Q(i - j) w(j) / N, Q(|i| - shift) the
    float value of Q; ``bound`` is an upper end of |e|_{d+1} over those
    slots."""

    radius: int
    shift: int
    scale: float
    bound: float


def _q_rounding(pot: Potential, m: int) -> float:
    """An upper end of the relative error of the float Q(j), J <= |j| <= m,
    J the table end.  There |beta U(j)| <= V = |lq| + beta expo arg(m) in
    the terms of `Potential._decay`, arg(m) = m - J (exp) or log1p(m) +
    log1p(J) (power), and evaluating beta U(j) takes at most four roundings
    and two log1p calls within two ulps each, so it errs by at most 8 u V;
    exp adds two ulps more, and (10 V + 8) u covers both."""
    kind, expo, lq, J = pot._decay()
    arg = m - J if kind == "exp" else math.log1p(m) + math.log1p(J)
    return (10.0 * (abs(lq) + pot.beta * expo * arg) + 8.0) * _UNIT_ROUNDOFF


def _closure_order(pot: Potential, r: int, r0: int) -> tuple[int, float] | None:
    """(K, remainder) of the far-field expansion beyond r0 of a core of
    radius r, or None when no K <= _MAX_ORDER reaches the unit roundoff.

    A power tail Q(m) = C (1 + m)^(-s) gives, for |j| <= r < i - J,
    Q(i - j) = Q(i) sum_k b_k (j / (1 + i))^k with b_k = (s)_k / k!, whose
    terms after K are at most b_{K+1} rho^{K+1} |w|_1 q^k with rho =
    r / (1 + r0) and q = rho max(1, (s + K + 1)/(K + 2)), since b_{k+1}/b_k
    = (s + k)/(k + 1) is monotone in k.  The remainder returned is the
    least b_{K+1} rho^{K+1} / (1 - q) below u, rounded up.  An exp tail is
    exact with K = 0."""
    kind, expo, _, _ = pot._decay()
    if kind == "exp":
        return 0, 0.0
    s, rho = pot.beta * expo, r / (1.0 + r0)
    term = 1.0  # b_K rho^K
    for K in range(_MAX_ORDER + 1):
        term *= rho * (s + K) / (K + 1)
        q = rho * max(1.0, (s + K + 1) / (K + 2))
        if q < 1.0 and term / (1.0 - q) < _UNIT_ROUNDOFF:
            return K, term / (1.0 - q) * (1.0 + _gamma(4 * K + 8))
    return None


def _horner(coefs: list[float], y: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] y^k by Horner's rule, in place on one array."""
    acc = np.full_like(y, coefs[-1] if coefs else 0.0)
    for c in reversed(coefs[:-1]):
        acc *= y
        acc += c
    return acc


def _far_field(pot: Potential, d: int, w: np.ndarray, r0: int, R: int, N: float,
               order: tuple[int, float]) -> tuple[np.ndarray, np.ndarray, _Closure]:
    """(x~ at r0 < i <= R, x~ at -r0 > i >= -R in order of |i|, closure) for
    x^(i) = sum_j Q(i - j) w(j) / N, w on a core [-r, r] with r0 - r > J.

    Power tail (`_closure_order`): x^(+-i) = Q(i)/N sum_k b_k (+-1)^k mu_k
    (1 + i)^(-k), mu_k = sum_j j^k w(j), cut after K; the even and odd
    parts are two Horner sums in (1 + i)^(-2), shared by both sides.
    Every term is at most b_k rho^k |w|_1, rho = r/(1 + r0), so their sum
    is at most |w|_1 (1 - rho)^(-s); a moment is one dot product of r
    powers of j with w folded about 0 (error gamma_r in any order,
    Higham eq. 3.5), and the moments, coefficients, powers and Horner
    steps round at most 8K + r + 16 times in all.  Exp tail rate a:
    Q(i - j) = Q(i - r) e^{-a(r - j)} exactly, so x^(+-i) = Q(i - r)/N
    sum_j w(+-j) e^{-a(r - j)}, each factor's exp argument rounded twice.
    Besides, Q(i) errs by at most `_q_rounding`; the scale of the closure
    is the relative bound times the weight over N.  Its norm is the
    certified tail norm of Q beyond r0 - shift.  Underflow is neglected.
    """
    r = len(w) // 2
    kind, expo, _, _ = pot._decay()
    a = pot.beta * expo
    i = np.arange(r0 + 1, R + 1)
    delta = _q_rounding(pot, R + r)
    K, remainder = order
    if kind == "exp":
        shift = r
        g = np.exp(-a * np.arange(2 * r, -1, -1))  # e^{-a(r - j)}, j = -r..r
        plus = math.fsum((w * g).tolist())
        minus = math.fsum((w[::-1] * g).tolist())
        weight = max(math.fsum((np.abs(w) * g).tolist()),
                     math.fsum((np.abs(w[::-1]) * g).tolist()))
        rel = (5.0 * a * r + 12.0) * _UNIT_ROUNDOFF + delta
        scale = pot.Q(i - r)
        scale /= N
        pos, neg = scale * plus, scale * minus
    else:
        shift = 0
        # mu_k = sum_{j >= 1} j^k (w(j) + (-1)^k w(-j)), plus w(0) = 1 at k = 0
        sym, anti = w[r + 1:] + w[r - 1::-1], w[r + 1:] - w[r - 1::-1]
        powers = np.cumprod(np.broadcast_to(np.arange(1.0, r + 1), (K, r)), axis=0)
        mu = np.empty(K + 1)
        mu[0] = 1.0 + float(np.sum(sym))
        mu[2::2], mu[1::2] = powers[1::2] @ sym, powers[0::2] @ anti
        b, coefs = 1.0, []
        for k in range(K + 1):
            b *= (a + k - 1) / k if k else 1.0
            coefs.append(b * float(mu[k]))
        weight = math.fsum(np.abs(w).tolist())
        rho = r / (1.0 + r0)
        rel = remainder + (_gamma(8 * K + r + 16) + delta) * math.exp(-a * math.log1p(-rho))
        t = np.arange(r0 + 2.0, R + 2.0)  # 1 + i
        np.divide(1.0, t, out=t)
        y = t * t
        even, odd = _horner(coefs[0::2], y), _horner(coefs[1::2], y)
        odd *= t
        scale = pot.Q(i)
        scale /= N
        pos, neg = even + odd, even - odd
        pos *= scale
        neg *= scale
    kappa = weight * (1.0 + _UNIT_ROUNDOFF) / N * rel * (1.0 + 2.0 * delta) * (1.0 + _gamma(8))
    norm = kappa * (1.0 + delta) * _tail_norm(pot, r0 - shift, d + 1) * (1.0 + _gamma(2))
    return pos, neg, _Closure(r0, shift, kappa, math.nextafter(norm, math.inf))


def _extend(pot: Potential, d: int, x: np.ndarray,
            R: int) -> tuple[np.ndarray, _Closure | None]:
    """(x~, closure): x~ = T(x) on the window [-R, R] for x on a core
    [-r, r], r <= R, zero outside it, with w = x^d (w(0) = 1).

    A near band [-r0, r0], r0 = _CLOSURE_REACH r + J (J the table end), is
    one linear convolution of w against Q on [-(r0 + r), r0 + r], all the
    lags it reads, so an FFT runs at the next fast length >= 2 r0 + 2r + 1,
    never at the window's.  Beyond r0 every Q(i - j) lies in the tail that
    `Potential._decay` declares, and `_far_field` evaluates x^ there from
    the moments of w with a componentwise bound (the closure, None when R
    <= r0 or `_closure_order` finds no order; then the band is the
    window, and if R > r0 each output is a direct dot product of 2r + 1
    terms, as a transform's absolute rounding would turn far slots
    negative).  Both parts divide by the band's normaliser N = num(0).
    """
    r = len(x) // 2
    w = x**d
    w[r] = 1.0
    r0 = _CLOSURE_REACH * r + pot.table_end
    order = _closure_order(pot, r, r0) if R > r0 else None
    near = R if order is None else r0
    kernel = pot.Q(np.arange(-(near + r), near + r + 1))
    direct = R > r0 and order is None
    num = np.convolve(kernel, w, "valid") if direct else _linear_convolver(kernel, r, near)[0](w)
    N = float(num[near])
    if order is None:
        return num / N, None
    pos, neg, closure = _far_field(pot, d, w, r0, R, N, order)
    out = np.empty(2 * R + 1)
    np.divide(num, N, out=out[R - r0:R + r0 + 1])
    out[R + r0 + 1:] = pos
    out[:R - r0] = neg[::-1]
    return out, closure


def _periodic_operator(qbar: FuzzyOperator, d: int) -> _Operator:
    """T on Z_q with the normalized class operator, circular convolution."""
    q = qbar.q
    values = np.asarray(qbar.values, dtype=float)
    if q > 64:
        convolve = _fft_convolve(values, q, 0, q)
    else:
        idx = np.arange(q)
        matrix = values[(idx[:, None] - idx[None, :]) % q]
        convolve = matrix.__matmul__
    return _Operator(d, values, 0, convolve)


def _checked_input(x, n: int, length: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ConfigError(f"x must have length {length}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ConfigError("x must be finite and nonnegative")
    return x


def apply_T(pot: Potential, d: int, x: np.ndarray, radius: int) -> np.ndarray:
    """One application of the boundary-law operator on the window [-R, R].

    ``x`` is the full window vector (length 2*radius+1); the zero slot
    participates as w(0) = 1 regardless of its stored value, and the output
    has value 1 there.
    """
    n = 2 * radius + 1
    x = _checked_input(x, n, f"{n} for radius {radius}")
    return _window_operator(pot, d, radius).apply(x)


def apply_T_periodic(qbar: FuzzyOperator, d: int, x: np.ndarray) -> np.ndarray:
    """One application of the operator on Z_q against a normalized class
    operator; ``x`` is checked like the window input of `apply_T`."""
    x = _checked_input(x, qbar.q, f"q={qbar.q}")
    return _periodic_operator(qbar.normalized_op(), d).apply(x)


# ---------------------------------------------------------------------------
# truncation control
# ---------------------------------------------------------------------------


def _tail_norm(pot: Potential, R: int, p: float) -> float:
    """Certified upper end of (2 * sum_{j>R} Q(j)^p)^(1/p)."""
    return _tail_beyond(pot, R, p) ** (1.0 / p)


def truncation_radius(pot: Potential, p: float, bound: float) -> int:
    """Smallest radius R with the certified tail norm of Q at exponent p below bound.

    The tail norm is (2 * sum_{j>R} Q(j)^p)^(1/p); brackets come from the
    potential's declared decay, so this is exact up to the bracket width.
    Table terms past R count too, so R may lie inside a custom table.
    """
    if bound <= 0:
        raise ConfigError("bound must be positive")

    return _smallest_radius(
        lambda R: _tail_norm(pot, R, p) <= bound,
        1,
        _MAX_WINDOW_RADIUS,
        f"truncation radius beyond {_MAX_WINDOW_RADIUS} needed for tail bound "
        f"{bound:.3g}; loosen tol (slowly decaying operator)",
    )


def _window_radius(pot: Potential, d: int, config: SolveConfig,
                   L: float | None) -> int:
    """The configured radius (at most _MAX_WINDOW_RADIUS) if its dropped
    tail stays below tol, else the smallest R >= 4 with _KAPPA tau(R) <=
    max(1 - L, 1 - _CORE_SHARE - _FAR_SHARE) tol: tau(R) is the tail norm of
    Q at exponent d+1, and the factor is read as 1 without a certificate.
    The core's solve leaves final_residual/(1 - L) at most (_CORE_SHARE +
    _FAR_SHARE) tol of the total, and the rest is the truncation's.  A
    window's `_cut_bound` is about tau(R) times the weight of x^d near
    zero, so the default keeps the truncation bound below half that share
    unless the weight exceeds _KAPPA.
    """
    if config.radius is None:
        gap = 1.0 if L is None else max(1.0 - L, 1.0 - _CORE_SHARE - _FAR_SHARE)
        budget = gap * config.tol
        return max(truncation_radius(pot, d + 1, budget / _KAPPA), 4)
    R = config.radius
    if R > _MAX_WINDOW_RADIUS:
        raise NumericalError(f"radius {R} is beyond the largest window radius "
                             f"{_MAX_WINDOW_RADIUS}")
    tail = _tail_norm(pot, R, d + 1)
    if tail > config.tol:
        raise ConfigError(
            f"radius {R} leaves a truncated tail of {tail:.3g} > tol {config.tol:.3g}"
        )
    return R


def _core_radius(pot: Potential, d: int, tol: float, far: float,
                 L: float | None, R: int) -> int:
    """The radius R_c <= R of the core solve that the window [-R, R] extends.

    The far term far c_c^d of the window's residual bound (far = gamma +
    eps delta) must fit _FAR_SHARE (1 - L) tol; without a certificate eps
    is read as 0 and 1 - L as 1.  The core's `_cut_bound` c_c is about tau(R_c) times the
    weight of x^d near zero, taken as _KAPPA as for the window, so R_c =
    max(4, the least radius with _KAPPA tau(R_c) <= (_FAR_SHARE (1 - L) tol
    / far)^(1/d)); the search never passes R, and R_c = R otherwise.
    """
    gap = 1.0 if L is None else 1.0 - L
    bound = (_FAR_SHARE * gap * tol / far) ** (1.0 / d) / _KAPPA
    if R <= 4 or _tail_norm(pot, R - 1, d + 1) > bound:
        return R
    return max(4, truncation_radius(pot, d + 1, bound))


def _normaliser_loss(x: np.ndarray, w: np.ndarray, d: int) -> float:
    """An upper end of sum Q(j) |w(j)| over the negative entries of x, which
    lower the normaliser sum_j Q(j) w(j) below Q(0) w(0) = 1; only an odd d
    makes such a w negative, and Q <= Q(0) = 1."""
    if d % 2 == 0:
        return 0.0
    return float(np.sum(w[x < 0])) * (1.0 + _gamma(len(x)))


def _cut_bound(pot: Potential, d: int, x: np.ndarray, R: int) -> float:
    """Upper bound on |(I - P_R) T x|_{d+1}, the part of T(x) outside the
    window [-R, R], for x on a core [-r, r], r <= R (zero outside it).

    Outside the window T x(i) <= sum_{|j|<=r} Q(i-j) w(j) with w = x^d and
    w(0) = 1, since the normaliser sum_j Q(j) w(j) is at least Q(0) w(0) = 1
    (less `_normaliser_loss`).  The kernel Q(. - j) cut to |i| > R never
    reaches Q(0), and its l_{d+1} norm is at most tau(R - |j|) =
    `_tail_norm`(R - |j|), so by Minkowski the cut is at most
    sum_j w(j) tau(R - |j|).  The indices are grouped by |j| in
    (2^(k-1), 2^k], each group priced at tau(R - 2^k), and the last group
    (m, r] at tau(R - r), which is the off-zero norm of Q when r = R: O(r)
    arithmetic and O(log r) tail brackets.  Every w, sum and product rounds
    relatively at most r + 8 times in all, which the factor 1 + gamma_{r+8}
    covers.
    """
    r = len(x) // 2
    w = np.abs(x) ** d
    w[r] = 1.0
    fold = w[r + 1:] + w[r - 1::-1]  # |j| = 1, ..., r
    ends = [1 << k for k in range(int(r).bit_length()) if 1 << k < r] + [r]
    sums = np.add.reduceat(fold, [0, *ends[:-1]]).tolist()
    p = d + 1
    cut = math.fsum([_tail_norm(pot, R, p),
                     *(_tail_norm(pot, R - e, p) * s for e, s in zip(ends, sums))])
    lost = _normaliser_loss(x, w, d)
    if lost >= 1.0:
        return math.inf
    return math.nextafter(cut * (1.0 + _gamma(r + 8)) / (1.0 - lost), math.inf)


# ---------------------------------------------------------------------------
# the iteration core
# ---------------------------------------------------------------------------


class _OffzeroNorm:
    """The l_{d+1} norm of v off the zero slot, known as a band [lo, hi].

    The zero slot's term is set to 0 before the sum, so the exact value is
    the exactly rounded fsum of |v|^(d+1) over the other slots, to the power
    1/(d+1), with nothing cancelled against v(zero).  [lo, hi] is the
    `_banded_sum` band to the same power, whose one-ulp outward rounding
    covers the faithful pow.  So a comparison decided by the band agrees with
    the exact value, and `exact()` runs its fsum only inside the band.
    """

    def __init__(self, v: np.ndarray, zero_slot: int, d: int):
        self._terms = np.abs(v) ** (d + 1)
        self._terms[zero_slot] = 0.0
        self._root = 1.0 / (d + 1)
        self._exact = None
        self.lo, self.hi = _banded_sum(self._terms) ** self._root

    def exact(self) -> float:
        if self._exact is None:
            self._exact = math.fsum(_float_stream(self._terms)) ** self._root
        return self._exact

    def exceeds(self, other: "float | _OffzeroNorm") -> bool:
        """Whether the exact norm exceeds a threshold or another exact norm."""
        norm = isinstance(other, _OffzeroNorm)
        lo, hi = (other.lo, other.hi) if norm else (other, other)
        if self.lo > hi:
            return True
        if self.hi <= lo:
            return False
        return self.exact() > (other.exact() if norm else other)


def _iterate(op, d: int, tol: float, L: float | None):
    """Banach loop from ``op.start()``; returns (x, iterations, step_norms,
    contraction_estimate).

    With L the stop is the certified a-posteriori bound; without it, plain
    step smallness plus divergence detection.  The threshold never exceeds
    tol so the final residual stays below tol even for tiny L.  Every test
    is decided on the exactly rounded step norm; the reported step norms
    are the upper ends of their bands.  The contraction estimate is the
    largest ratio of successive steps both above max(100 tol, 1e-13), each
    ratio taken as the upper end of its band.
    """
    x = op.start()
    steps: list[float] = []
    if L is not None and L > 0:
        threshold = tol * min(1.0, (1.0 - L) / L)
    else:
        threshold = tol
    floor = max(100.0 * tol, 1e-13)
    rho = prev = prev_lo = None
    prev_above = False
    grow = 0
    for n in range(1, _MAX_ITER + 1):
        x_next = op.apply(x)
        step = _OffzeroNorm(x_next - x, op.zero, d)
        steps.append(step.hi)
        x = x_next
        if not np.all(np.isfinite(x)) or step.exceeds(1e12):
            raise NumericalError(
                f"iteration diverged at step {n} (step norm {step.exact():.3g})")
        above = step.exceeds(floor)
        if above and prev_above:
            rho = max(rho or 0.0, step.hi / prev_lo)
        if not step.exceeds(threshold):
            return x, n, steps, rho
        if L is None:
            grow = grow + 1 if prev is not None and step.exceeds(prev) else 0
            if grow >= 50:
                raise NumericalError("iteration is not contracting (50 growing steps)")
        # only the growth test reads a whole previous step; the ratio needs
        # just its lower end, so certified runs keep no second window array
        prev = step if L is None else None
        prev_lo, prev_above = step.lo, above
    raise NumericalError(
        f"no convergence in {_MAX_ITER} iterations (last step {step.exact():.3g}, "
        f"threshold {threshold:.3g})"
    )


def _check_ball(x: np.ndarray, op: _Operator, d: int, eps: float, what: str) -> None:
    """NumericalError unless x lies in the certified eps-ball (with a 1e-9
    relative allowance), decided on the exact off-zero norm."""
    ball = _OffzeroNorm(x, op.zero, d)
    if ball.exceeds(eps * (1.0 + 1e-9)):
        raise NumericalError(
            f"{what} left the certified ball: |x| = {ball.exact()!r} > eps = {eps!r}"
        )


def _per_gap(v: float, L: float) -> float:
    """An upper end of v / (1 - L): 1 - L rounded down, the quotient up."""
    return math.nextafter(v / math.nextafter(1.0 - L, 0.0), math.inf)


def _certificate(d: int, gamma: NormReport, delta: NormReport, config: SolveConfig,
                 refusal: str):
    """The `norm_membership` verdict of the NormReports (gamma, delta).

    Certified mode refuses outside the good set with ``refusal`` as the
    message prefix, and both modes refuse an infinite norm.
    """
    verdict = norm_membership(d, gamma, delta)
    if verdict.reason == REASON_NORM_INFINITE:
        witness = gamma.witness or delta.witness
        if config.mode == MODE_CERTIFIED:
            raise OutsideGoodSetError(f"{refusal} (a norm is infinite: {witness})",
                                      verdict=verdict)
        raise NumericalError(
            f"a norm of Q is infinite ({witness}); no meaningful truncated solve exists"
        )
    if not verdict.in_good_set and config.mode == MODE_CERTIFIED:
        raise OutsideGoodSetError(f"{refusal} (reason: {verdict.reason})", verdict=verdict)
    return verdict


def _report(verdict, mode: str, iterations: int, steps: list[float], rho: float | None,
            residual: float, **window) -> SolveReport:
    """The SolveReport of a solve whose last Banach iteration took ``steps``."""
    certified = verdict.in_good_set
    L = verdict.lipschitz if certified else None
    a_priori = a_post = None
    if L is not None and L > 0:
        a_priori = L ** len(steps) / (1.0 - L) * steps[0]
        a_post = steps[-1] * L / (1.0 - L)
    return SolveReport(
        iterations=iterations,
        final_residual=residual,
        contraction_estimate=rho,
        a_priori_bound=a_priori,
        a_posteriori_bound=a_post,
        lipschitz=L,
        epsilon=verdict.epsilon if certified else None,
        gamma=verdict.gamma,
        delta=verdict.delta,
        certified=certified,
        mode=mode,
        **window,
    )


def _extension_residual(pot: Potential, d: int, verdict, x: np.ndarray,
                        y: np.ndarray) -> float:
    """Upper bound on |T x^ - x^|_{d+1} on Z for x^ = T(x), x a core vector
    on [-r, r] in the eps-ball, zero outside it, and y = T(x) on the core.

    Write x^ = y + f, f the part outside the core, |f| <= c = `_cut_bound`
    of x at r.  Then T x^ - x^ = (T(y + f) - T(y)) + (T(y) - T(x)), and
    the second term is at most L |y - x| = L rho, y and x being in the
    ball.  As the supports are disjoint, w(y + f) = w(y) + f^d, so
    T(y + f) - T(y) = (Q * f^d - T(y) sum_j Q(j) f(j)^d) / N(y + f).  By
    Young's inequality |Q * f^d| <= gamma c^d, and by Hoelder's
    |sum_j Q(j) f(j)^d| <= delta c^d, times |T(y)| <= eps off zero.  The
    normaliser N(y + f) is at least 1, less `_normaliser_loss` of y and
    delta c^d for an odd d.  A factor 1 + gamma_8 covers the rounding of
    the bound itself.
    """
    r = len(x) // 2
    rho = _OffzeroNorm(y - x, r, d).hi
    cut_d = _cut_bound(pot, d, x, r) ** d
    floor = 1.0
    if d % 2:
        lost = _normaliser_loss(y, np.abs(y) ** d, d) + verdict.delta * cut_d
        floor = 1.0 - lost * (1.0 + _gamma(4))
        if floor <= 0.0:
            return math.inf
    far = (verdict.gamma + verdict.epsilon * verdict.delta) * cut_d / floor
    return math.nextafter((verdict.lipschitz * rho + far) * (1.0 + _gamma(8)), math.inf)


def _spill(truncation: float, closure: _Closure | None) -> float:
    """An upper end of the truncation bound plus the closure's bound: the
    distance of the returned window from x^ = T(x_c) on Z, near band aside."""
    if closure is None:
        return truncation
    return math.nextafter(truncation + closure.bound, math.inf)


def solve_fixed_point(
    pot: Potential, d: int, config: SolveConfig = SolveConfig()
) -> tuple[BoundaryLaw, SolveReport]:
    """Solve x = T(x) on a truncated window, certified inside the good set.

    The norm pair is computed with series cross-checks, membership decides
    whether the contraction certificate applies, and the window radius R
    comes from `_window_radius`.  Banach iteration from Q solves the core
    [-R_c, R_c] (`_core_radius`, at most R) to _CORE_SHARE tol, and the
    core's fixed point x_c, checked to lie in the eps-ball, is extended to
    the window by one more application of T (`_extend`: a near band by
    convolution, the far field by its closure).  A certified
    solve bounds the extension's residual (`_extension_residual`): while
    its share of the total, final_residual/(1 - L), exceeds (_CORE_SHARE +
    _FAR_SHARE) tol and R_c < R, the core is doubled and solved again.  The
    closure's bound counts like the truncation bound.  With
    the default radius, a total above tol then evaluates the extension on
    a wider window, sized from the measured ratio of the cut to tau(R) with
    a margin of 2; no new solve is needed.  Outside the good set the
    default mode refuses; "auto" iterates uncertified instead.
    """
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    verdict = _certificate(d, *norm_pair(pot, d, "half"), config,
                           "outside good set - no contraction certificate")
    certified = verdict.in_good_set
    L = verdict.lipschitz if certified else None
    eps = verdict.epsilon if certified else None
    R = _window_radius(pot, d, config, L)
    R_c = _core_radius(pot, d, config.tol, verdict.gamma + (eps or 0.0) * verdict.delta,
                       L, R)
    iterations, rho = 0, None
    while True:
        op = _window_operator(pot, d, R_c)
        x_c, n, steps, core_rho = _iterate(op, d, _CORE_SHARE * config.tol, L)
        iterations += n
        if core_rho is not None:
            rho = max(rho or 0.0, core_rho)
        if not certified:
            break
        _check_ball(x_c, op, d, eps, "coarse start")
        residual = _extension_residual(pot, d, verdict, x_c, op.apply(x_c))
        if R_c == R or _per_gap(residual, L) <= (_CORE_SHARE + _FAR_SHARE) * config.tol:
            break
        R_c = min(2 * R_c, R)
    x, closure = _extend(pot, d, x_c, R)
    truncation = total = None
    if certified:
        truncation = _cut_bound(pot, d, x_c, R)
        room = config.tol - _per_gap(residual, L)
        if config.radius is None and _spill(truncation, closure) > room > 0.0:
            R = truncation_radius(pot, d + 1,
                                  0.5 * room * _tail_norm(pot, R, d + 1) / truncation)
            x, closure = _extend(pot, d, x_c, R)
            truncation = _cut_bound(pot, d, x_c, R)
        total = math.nextafter(_spill(truncation, closure) + _per_gap(residual, L),
                               math.inf)
    else:
        residual = _OffzeroNorm(x - np.pad(x_c, R - R_c), R, d).hi
    report = _report(verdict, config.mode, iterations, steps, rho, residual,
                     coarse_radius=R_c if R_c < R else None,
                     truncation_bound=truncation, total_error_bound=total,
                     closure_radius=closure and closure.radius,
                     closure_bound=closure and closure.bound)
    return BoundaryLaw(kind=SUPPORT_TRUNCATED, d=d, x=x, radius=R, certified=certified,
                       pot=pot), report


def periodic_solve(
    pot: Potential, d: int, q: int, config: SolveConfig = SolveConfig(mode=MODE_AUTO)
) -> tuple[BoundaryLaw, SolveReport]:
    """Solve the q-periodic boundary law against the normalized class operator.

    q = 1 returns the free state immediately (the single class forces
    lambda == 1).  For q >= 2 the good-set test runs on the Z_q norms of
    Qbar_q; membership gives a certified contraction, otherwise mode
    decides between refusal and uncertified iteration.  An uncertified run
    that lands on the constant law fails loudly: the trivial branch exists
    at every temperature and is not the sought solution.
    """
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    qbar = fuzzy_Q(pot, q, rel_tol=min(1e-12, config.tol)).normalized_op()
    if q == 1:
        law = BoundaryLaw(kind=SUPPORT_PERIODIC, d=d, x=np.ones(1), q=1,
                          free_state=True, pot=pot)
        report = SolveReport(
            iterations=0, final_residual=0.0, contraction_estimate=None,
            a_priori_bound=None, a_posteriori_bound=None, lipschitz=None,
            epsilon=None, gamma=1.0, delta=0.0, certified=True, mode=config.mode,
        )
        return law, report

    verdict = _certificate(d, qbar.p_norm((d + 1) / 2.0),
                           qbar.p_norm(float(d + 1), without_zero=True), config,
                           f"(gamma_q, delta_q) outside good set for q={q}")
    certified = verdict.in_good_set
    op = _periodic_operator(qbar, d)
    x, n, steps, rho = _iterate(op, d, config.tol,
                                verdict.lipschitz if certified else None)
    lam = x**d
    if float(lam.max() - lam.min()) < 1e-6:
        raise NumericalError(
            "converged to the trivial branch (lambda constant == free state); "
            "no non-trivial q-periodic solution found at these parameters"
        )
    if certified:
        _check_ball(x, op, d, verdict.epsilon, "solution")
    report = _report(verdict, config.mode, n, steps, rho,
                     _OffzeroNorm(op.apply(x) - x, op.zero, d).hi)
    return BoundaryLaw(kind=SUPPORT_PERIODIC, d=d, x=x, q=q, certified=certified,
                       pot=pot), report


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def single_site_marginal(law: BoundaryLaw) -> np.ndarray:
    """Probability vector lambda^{(d+1)/d} / sum over the support.

    On a truncated window this is the height marginal of the localized
    measure; on Z_q it is the stationary distribution of the fuzzy chain.
    """
    weights = law.x ** (law.d + 1)
    return weights / math.fsum(weights.tolist())

"""Boundary-law fixed points: localized laws on a truncated window of Z and
height-periodic laws on Z_q.

The normalized boundary-law equation is x = T(x) with

    T(x)(i) = (Q(i) + sum_{j != 0} Q(i-j) x(j)^d) / (1 + sum_{j != 0} Q(j) x(j)^d),

a convolution against w = x^d with the zero slot pinned to w(0) = 1,
renormalized so T(x)(0) = 1.  Inside the good set T contracts an eps-ball
around Q in the l_{d+1} norm, and Banach iteration from x0 = Q converges to
the unique fixed point there; lambda = x^d is the boundary law and
lambda^{(d+1)/d} normalizes to the single-site marginal.

One operator serves two supports; only its convolution differs.  On the
window [-R, R] it is a linear convolution against Q on [-2R, 2R]; on Z_q it
is a circular convolution against the normalized class-sum operator
Qbar_q = Q_q / Q_q(0), and the q = 1 case degenerates to the free state
lambda == 1.  Large sizes convolve through one cached FFT.

One solve core certifies both from `goodset.norm_membership` of the
support's norm pair: refusal outside the good set, a-posteriori Banach
stopping ||x_{n+1} - x_n|| * L/(1-L) < tol, the ball check, and on the
window a truncation radius chosen so the discarded tail of Q at exponent
d+1 stays below 0.01*tol.  Outside the good set "certified" mode refuses
and "auto" iterates plainly (divergence and trivial-branch detection),
labelling the result uncertified; an infinite norm is refused in both.

Step norms are known as rounding bands (`potentials._banded_sum`): every
stop, growth, divergence and ball test is decided exactly as on the exactly
rounded norm, with one fsum only when the band straddles the threshold, and
the reported norms and the bounds built on them are the bands' upper ends.
Laws and reports are returned as data; `cli` prints them as CSV or JSON.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class BoundaryLaw:
    """A solved boundary law in d-th root representation.

    ``x`` holds the root values on the support including the zero slot
    (pinned to 1): index i lives at x[i + radius] on a truncated window,
    at x[i] on Z_q.  The law itself is lambda = x**d.  ``residual`` is the
    sup norm of x - T(x); ``ball_radius`` the certified eps (None when the
    solve was uncertified); ``certified`` whether the contraction
    certificate held.  ``pot`` keeps the generating potential so consumers
    can rebuild the height chain P(i,j) = Q(i-j) lambda(j) / N(i).
    """

    kind: str
    d: int
    x: np.ndarray
    radius: int | None = None
    q: int | None = None
    ball_radius: float | None = None
    residual: float = 0.0
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
        v = self.x.copy()
        v[self._slot(0)] = 0.0
        return float(np.sum(v ** (self.d + 1)) ** (1.0 / (self.d + 1)))


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
    """Certificate trail of one Banach solve.

    contraction_estimate is the largest observed ratio of successive step
    norms (measured while steps are well above rounding noise); certified
    runs keep it at or below the good-set Lipschitz constant.  a_priori and
    a_posteriori are the standard Banach error bounds; both None without a
    contraction certificate.

    The step norms behind final_residual and the two bounds are the upper
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
    """Smallest 2*3*5*7*11-smooth integer >= n >= 1.

    The same choice as scipy.fft.next_fast_len for complex transforms, so
    the transform lengths, and with them the output bits, do not depend on
    importing scipy.fft.  Each {3,5,7,11}-smooth p below the best length so
    far is completed by the least power of two that reaches n.
    """
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    best = min(best, p3 << ((n - 1) // p3).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _linear_convolver(kernel: np.ndarray, R: int):
    """(convolve, L) for the linear convolution of a kernel on lags [-r, r]
    with vectors on [-R, R], kept on [-R, R].

    Direct np.convolve while the kernel or the vector has at most
    _FFT_WINDOW entries (every output is then a dot product of at most that
    many terms); otherwise one circular transform of length L, the next
    fast length >= r + 2R + 1, which leaves the kept lags alias-free.  L is
    None on the direct path.  The choice and L fix the output bits.
    """
    r = (len(kernel) - 1) // 2
    n = 2 * R + 1
    if min(len(kernel), n) > _FFT_WINDOW:
        L = _next_fast_len(r + n)
        return _fft_convolve(kernel, L, r, r + n), L

    def convolve(v):
        return np.convolve(kernel, v)[r : r + n]

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
    for p in (2, 3, 5, 7, 11):
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


def truncation_radius(pot: Potential, p: float, bound: float) -> int:
    """Smallest radius R with the certified tail norm of Q at exponent p below bound.

    The tail norm is (2 * sum_{j>R} Q(j)^p)^(1/p); brackets come from the
    potential's declared decay, so this is exact up to the bracket width.
    Table terms past R count too, so R may lie inside a custom table.
    """
    if bound <= 0:
        raise ConfigError("bound must be positive")

    return _smallest_radius(
        lambda R: _tail_beyond(pot, R, p) ** (1.0 / p) <= bound,
        1,
        _MAX_WINDOW_RADIUS,
        f"truncation radius beyond {_MAX_WINDOW_RADIUS} needed for tail bound "
        f"{bound:.3g}; loosen tol (slowly decaying operator)",
    )


def _window_radius(pot: Potential, d: int, config: SolveConfig) -> int:
    """The configured radius if its dropped tail stays below tol, else the
    certified radius for a tail below 0.01*tol (at least 4)."""
    if config.radius is None:
        return max(truncation_radius(pot, d + 1, 0.01 * config.tol), 4)
    R = config.radius
    tail = _tail_beyond(pot, R, d + 1) ** (1.0 / (d + 1))
    if tail > config.tol:
        raise ConfigError(
            f"radius {R} leaves a truncated tail of {tail:.3g} > tol {config.tol:.3g}"
        )
    return R


# ---------------------------------------------------------------------------
# the iteration core
# ---------------------------------------------------------------------------


class _OffzeroNorm:
    """The l_{d+1} norm of v off the zero slot, known as a band [lo, hi].

    The exact value is (fsum(|v|^(d+1)) - |v(zero)|^(d+1))^(1/(d+1)) with
    the sum exactly rounded; [lo, hi] applies the same float steps to the
    ends of the `_banded_sum` band, widened by one ulp each since the power
    is faithful, hence monotone to within one ulp.  So a comparison decided
    by the band agrees with the exact value, and `exact()` runs its fsum
    only when a comparison falls inside the band.
    """

    def __init__(self, v: np.ndarray, zero_slot: int, d: int):
        self._terms = np.abs(v) ** (d + 1)
        self._zero_term = abs(v[zero_slot]) ** (d + 1)
        self._root = 1.0 / (d + 1)
        self._exact = None
        lo, hi = _banded_sum(self._terms)
        self.lo = math.nextafter(self._from_sum(lo), -math.inf)
        self.hi = math.nextafter(self._from_sum(hi), math.inf)

    def _from_sum(self, s: float) -> float:
        return float(max(s - self._zero_term, 0.0) ** self._root)

    def exact(self) -> float:
        if self._exact is None:
            self._exact = self._from_sum(math.fsum(_float_stream(self._terms)))
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
    """Banach loop; returns (x, iterations, step_norms, contraction_estimate).

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


def _solve(d: int, gamma: NormReport, delta: NormReport, config: SolveConfig,
           refusal: str, make_op, check=None):
    """The certified solve shared by both supports.

    `norm_membership` of the NormReports (gamma, delta) decides the
    certificate; certified mode refuses outside the good set with
    ``refusal`` as the message prefix, and both modes refuse an infinite
    norm.  ``make_op`` builds the operator only after that refusal,
    ``check(x)`` vets the fixed point before the ball test.  Returns (op,
    x, sup_residual, report).
    """
    verdict = norm_membership(d, gamma, delta)
    certified = verdict.in_good_set
    if verdict.reason == REASON_NORM_INFINITE:
        witness = gamma.witness or delta.witness
        if config.mode == MODE_CERTIFIED:
            raise OutsideGoodSetError(f"{refusal} (a norm is infinite: {witness})",
                                      verdict=verdict)
        raise NumericalError(
            f"a norm of Q is infinite ({witness}); no meaningful truncated solve exists"
        )
    if not certified and config.mode == MODE_CERTIFIED:
        raise OutsideGoodSetError(f"{refusal} (reason: {verdict.reason})", verdict=verdict)
    op = make_op()
    L = verdict.lipschitz if certified else None
    eps = verdict.epsilon if certified else None
    x, n_iter, steps, rho = _iterate(op, d, config.tol, L)
    if check is not None:
        check(x)
    if certified:
        ball = _OffzeroNorm(x, op.zero, d)
        if ball.exceeds(eps * (1.0 + 1e-9)):
            raise NumericalError(
                f"solution left the certified ball: |x| = {ball.exact()!r} > eps = {eps!r}"
            )
    resid_vec = op.apply(x) - x
    a_priori = a_post = None
    if L is not None and L > 0:
        a_priori = L**n_iter / (1.0 - L) * steps[0]
        a_post = steps[-1] * L / (1.0 - L)
    report = SolveReport(
        iterations=n_iter,
        final_residual=_OffzeroNorm(resid_vec, op.zero, d).hi,
        contraction_estimate=rho,
        a_priori_bound=a_priori,
        a_posteriori_bound=a_post,
        lipschitz=L,
        epsilon=eps,
        gamma=verdict.gamma,
        delta=verdict.delta,
        certified=certified,
        mode=config.mode,
    )
    return op, x, float(np.max(np.abs(resid_vec))), report


def solve_fixed_point(
    pot: Potential, d: int, config: SolveConfig = SolveConfig()
) -> tuple[BoundaryLaw, SolveReport]:
    """Solve x = T(x) on a truncated window, certified inside the good set.

    The norm pair is computed with series cross-checks, membership decides
    whether the contraction certificate applies, and the window is sized so
    the discarded tail cannot move the solution by more than the tolerance.
    Outside the good set the default mode refuses; "auto" iterates
    uncertified instead.
    """
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    op, x, residual, report = _solve(
        d, *norm_pair(pot, d, "half"), config,
        "outside good set - no contraction certificate",
        lambda: _window_operator(pot, d, _window_radius(pot, d, config)),
    )
    law = BoundaryLaw(
        kind=SUPPORT_TRUNCATED, d=d, x=x, radius=op.zero, ball_radius=report.epsilon,
        residual=residual, certified=report.certified, pot=pot,
    )
    return law, report


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
        law = BoundaryLaw(
            kind=SUPPORT_PERIODIC, d=d, x=np.ones(1), q=1,
            residual=0.0, certified=True, free_state=True, pot=pot,
        )
        report = SolveReport(
            iterations=0, final_residual=0.0, contraction_estimate=None,
            a_priori_bound=None, a_posteriori_bound=None, lipschitz=None,
            epsilon=None, gamma=1.0, delta=0.0, certified=True, mode=config.mode,
        )
        return law, report

    def nontrivial(x):
        lam = x**d
        if float(lam.max() - lam.min()) < 1e-6:
            raise NumericalError(
                "converged to the trivial branch (lambda constant == free state); "
                "no non-trivial q-periodic solution found at these parameters"
            )

    _, x, residual, report = _solve(
        d,
        qbar.p_norm((d + 1) / 2.0),
        qbar.p_norm(float(d + 1), without_zero=True),
        config,
        f"(gamma_q, delta_q) outside good set for q={q}",
        lambda: _periodic_operator(qbar, d),
        nontrivial,
    )
    law = BoundaryLaw(
        kind=SUPPORT_PERIODIC, d=d, x=x, q=q, ball_radius=report.epsilon,
        residual=residual, certified=report.certified, pot=pot,
    )
    return law, report


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

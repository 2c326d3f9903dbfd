"""Good-set membership for norm pairs of the transfer operator.

A pair (gamma, delta) with d >= 2 belongs to the good set G_d when some
epsilon > 0 satisfies both

    delta + gamma * eps**d <= eps                    (invariant ball)
    L(eps) = 2*d*(gamma*eps**(d-1) + delta*eps**d) < 1   (contraction)

Inside G_d the boundary-law operator maps the eps-ball around the transfer
operator into itself and contracts, which yields a localized Gibbs measure
per center.  This module finds the minimal eps, evaluates L there (optimal,
since L is increasing in eps), maps out the exact d = 2 boundary curve,
locates inverse-temperature thresholds, bounds the localized marginal mass
off the center, and scans large degrees along the beta_{A,d} =
A*log(d)/(d+1) schedule.  Every caller holding certified
norms decides through `norm_membership`.

All root finding runs one bracket loop, ``_bisect``, whose bracket widths
double as error bounds.  It splits at the midpoint everywhere but in the
threshold search, where each probe costs a norm pair and a minimal epsilon,
and secant splits on the bisection's own grid reach the same bracket with
about half the probes.  Each verdict's accuracy is a module constant; only
the width of the beta bisection is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericalError, OutsideGoodSetError
from .potentials import _FAMILIES, _TINY, NormReport, _check_tol, _exp, _nonzero_head, norm_pair

__all__ = [
    "GoodSetQuery",
    "MembershipVerdict",
    "ScanRow",
    "ScanReport",
    "smallest_epsilon",
    "lipschitz_constant",
    "membership",
    "norm_membership",
    "binary_delta_boundary",
    "binary_delta_boundary_radical",
    "beta_threshold",
    "localization_bounds",
    "large_degree_scan",
]

REASON_OK = "ok"
REASON_NO_EPSILON = "no_epsilon_exists"
REASON_LIPSCHITZ = "lipschitz_ge_one"
REASON_GAMMA_FLAG = "gamma_out_of_domain_flag"
REASON_NORM_INFINITE = "norm_infinite"

_EPS_TOL = 1e-13  # absolute bisection width of the minimal epsilon,
_EPS_REL = 1e-11  # or this fraction of delta where that is narrower
_BOUNDARY_TOL = 1e-14  # absolute bisection width of the d = 2 boundary curve
_THRESHOLD_TOL = 1e-7  # default width of the beta bisection
_SECANT_SLACK = 4  # probes a threshold search may take beyond the bisection's
_BETA_MAX = 64.0  # the largest beta a threshold search tries


@dataclass(frozen=True)
class GoodSetQuery:
    """Candidate norm pair: gamma for the full norm, delta for the punctured one."""

    d: int
    gamma: float
    delta: float

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ConfigError(f"d must be an integer >= 2, got {self.d!r}")
        # delta == 0 is the degenerate no-off-diagonal-mass limit (norm
        # underflow at extreme beta); membership is then immediate
        if not (self.gamma > 0 and self.delta >= 0):
            raise ConfigError(
                f"gamma and delta must be positive, got gamma={self.gamma!r} delta={self.delta!r}"
            )


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the two good-set inequalities at the minimal epsilon.

    The pairs with gamma <= 1 sit outside the region the theory is stated
    for (the full norm always dominates the zero term, so gamma >= 1 with
    equality only in the Dirac limit); the inequalities are evaluated
    anyway and the reason records the caveat.  A pair with an infinite norm
    is outside with reason "norm_infinite" and no epsilon.
    """

    d: int
    gamma: float
    delta: float
    in_good_set: bool
    epsilon: float | None
    lipschitz: float | None
    reason: str

    def __bool__(self) -> bool:
        return self.in_good_set


def _midpoint(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def _bisect(above, lo: float, hi: float, width: float,
            split=_midpoint) -> tuple[float, float]:
    """Bracket [lo, hi] with above(lo) false and above(hi) true, split at
    split(lo, hi) until hi - lo <= width or no float lies between the two
    ends.  The default split is the midpoint; a split that returns an end
    ends the loop, which the midpoint does only at adjacent floats."""
    while hi - lo > width:
        mid = split(lo, hi)
        if mid in (lo, hi):
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def smallest_epsilon(query: GoodSetQuery) -> float | None:
    """Smallest positive solution of delta + gamma*eps**d = eps, or None.

    f(eps) = gamma*eps**d + delta - eps is convex with minimum at
    eps* = (1/(d*gamma))**(1/(d-1)); when f(eps*) > 0 there is no root.
    Otherwise the root lies in [delta, 2 delta] (f(eps*) <= 0 gives
    delta <= eps* (d-1)/d, and f <= 0 at delta d/(d-1)), so bisect on
    [0, eps*] to width min(_EPS_TOL, _EPS_REL * delta), which is relative
    to the root however small eps* is, and return the upper bracket end,
    so the ball inequality holds exactly at the returned value.  With
    delta = 0 every small eps > 0 solves it, and the bisection ends at
    the least positive float.  Raises ConfigError when eps* is not a
    positive normal float (d * gamma near the float64 maximum) or eps*^d
    is not finite (which no potential yields: gamma >= 1 there).
    """
    d, g, dl = query.d, query.gamma, query.delta
    if not (math.isfinite(g) and math.isfinite(dl)):
        return None
    eps_star = (1.0 / (d * g)) ** (1.0 / (d - 1))
    try:
        top = eps_star**d
    except OverflowError:
        top = math.inf
    if not (eps_star >= _TINY and math.isfinite(top)):
        raise ConfigError(f"gamma={g!r} is outside float64 range for d={d}: eps* = "
                          f"{eps_star!r} must be a positive normal float with a finite eps*^d")

    def f(e: float) -> float:
        return g * e**d + dl - e

    if f(eps_star) > 0:
        return None
    return _bisect(lambda e: f(e) <= 0, 0.0, eps_star, min(_EPS_TOL, _EPS_REL * dl))[1]


def lipschitz_constant(query: GoodSetQuery, eps: float) -> float:
    """L(eps) = 2d(gamma*eps^(d-1) + delta*eps^d), the contraction bound."""
    d = query.d
    return 2.0 * d * (query.gamma * eps ** (d - 1) + query.delta * eps**d)


def membership(query: GoodSetQuery) -> MembershipVerdict:
    """Verdict with the minimal epsilon and its Lipschitz constant.

    Minimal eps is the right probe: L is strictly increasing in eps, so the
    pair is in G_d iff L(minimal eps) < 1.
    """
    flag = query.gamma <= 1.0
    eps = smallest_epsilon(query)
    if eps is None:
        reason = REASON_GAMMA_FLAG if flag else REASON_NO_EPSILON
        return MembershipVerdict(query.d, query.gamma, query.delta, False, None, None, reason)
    L = lipschitz_constant(query, eps)
    member = L < 1.0
    if flag:
        reason = REASON_GAMMA_FLAG
    else:
        reason = REASON_OK if member else REASON_LIPSCHITZ
    return MembershipVerdict(query.d, query.gamma, query.delta, member, eps, L, reason)


def norm_membership(d: int, gamma: NormReport, delta: NormReport) -> MembershipVerdict:
    """`membership` of two NormReports; an infinite norm is outside with
    reason "norm_infinite" and no epsilon, without calling `membership`.
    Both branches refuse d < 2 as GoodSetQuery does."""
    query = GoodSetQuery(d, gamma.value, delta.value)
    if gamma.is_infinite or delta.is_infinite:
        return MembershipVerdict(d, query.gamma, query.delta, False, None, None,
                                 REASON_NORM_INFINITE)
    return membership(query)


# ---------------------------------------------------------------------------
# exact boundary of G_2
# ---------------------------------------------------------------------------


def _binary_quartic(gamma: float, delta: float) -> float:
    """16 g^2 x^4 + 24 g^3 x^2 + (16 g^5 - 4 g^2) x - 3 g^4, scaled by g^-4."""
    g = gamma
    return (
        16.0 * delta**4 / g**2
        + 24.0 * delta**2 / g
        + (16.0 * g - 4.0 / g**2) * delta
        - 3.0
    )


def binary_delta_boundary_radical(gamma: float) -> float:
    """Closed radical form of the d = 2 boundary curve delta(gamma).

    Loses relative accuracy like gamma^2 * eps_machine from the final
    subtraction; the bisection value is the certified one.
    """
    g = gamma
    w = (g**3 + 0.25) ** (2.0 / 3.0) - g
    inner = 2.0 * (g**3 - 0.25) / math.sqrt(w) - (g**3 + 0.25) ** (2.0 / 3.0) - 2.0 * g
    return 0.5 * math.sqrt(inner) - 0.5 * math.sqrt(w)


def binary_delta_boundary(gamma: float) -> float:
    """Unique delta > 0 on the boundary of G_2 at the given gamma > 1.

    Below the returned value the pair (gamma, delta) is in G_2, above it is
    not.  Bisection on (0, 1/(4*gamma)] against the scaled quartic to the
    width _BOUNDARY_TOL, then a consistency check against the radical form
    with a cancellation-aware tolerance.
    """
    if not gamma > 1.0:
        raise ConfigError(f"binary boundary curve needs gamma > 1, got {gamma}")
    lo, hi = 0.0, 1.0 / (4.0 * gamma)
    if _binary_quartic(gamma, hi) < 0:
        raise NumericalError(f"quartic bracket failed at gamma={gamma}")
    lo, hi = _bisect(lambda x: _binary_quartic(gamma, x) > 0, lo, hi, _BOUNDARY_TOL)
    delta = 0.5 * (lo + hi)
    rad = binary_delta_boundary_radical(gamma)
    if abs(delta - rad) > 1e-8 * delta + 1e-13 * gamma**2:
        raise NumericalError(
            f"boundary curve mismatch at gamma={gamma}: bisection {delta!r} vs radical {rad!r}"
        )
    return delta


# ---------------------------------------------------------------------------
# temperature thresholds
# ---------------------------------------------------------------------------


def _potential_family(family):
    if callable(family):
        return family
    if isinstance(family, str) and family in _FAMILIES:
        return _FAMILIES[family]
    raise ConfigError(f"unknown potential family {family!r}, expected 'sos', 'log', or a callable")


class _SecantSplit:
    """Splits of a threshold bracket on the grid lo + m*h, for ``_bisect``.

    ``above`` probes membership and records f(beta) = log L(beta), the log
    of the verdict's Lipschitz constant; f is unknown where the verdict
    has none (no epsilon, an infinite norm) or L = 0.  A split is the grid
    point nearest the secant root of f between the two ends, at least one
    cell from each, or the middle cell where f is unknown at an end.  An
    end kept by two probes in a row has its f halved (the Illinois rule),
    which doubles the next step's distance from the moving end, so a
    secant that creeps up on the root from one side soon steps past it.
    A split never leaves more cells on either side than the probes left in
    the budget, _SECANT_SLACK more than the bisection's, can halve down to
    one: a step that could stall is pulled towards the midpoint, so the
    search never takes more than _SECANT_SLACK probes beyond the bisection.
    """

    def __init__(self, member):
        self.member = member
        self.h, self.budget = math.inf, 0
        self.f: dict[float, float | None] = {}
        self.bracket = None  # (lo, hi) of the last split
        self.kept = None  # the end the last probe kept

    def grid(self, lo: float, hi: float, tol: float) -> float:
        """The cell width h at which bisecting [lo, hi] stops: the first
        halving of hi - lo that is <= tol or the float spacing at lo."""
        h, self.budget = hi - lo, _SECANT_SLACK
        while h > tol and h > math.ulp(lo):
            h *= 0.5
            self.budget += 1
        self.h = h
        return h

    def above(self, beta: float) -> bool:
        verdict = self.member(beta)
        L = verdict.lipschitz
        self.f[beta] = math.log(L) if L else None
        if self.bracket is not None:
            lo, hi = self.bracket
            kept = lo if verdict.in_good_set else hi
            if kept == self.kept and self.f[kept] is not None:
                self.f[kept] *= 0.5
            self.kept = kept
        return verdict.in_good_set

    def __call__(self, lo: float, hi: float) -> float:
        n = (hi - lo) / self.h
        f_lo, f_hi = self.f[lo], self.f[hi]
        if f_lo is None or f_hi is None:
            m = n // 2
        else:
            m = round(n * f_lo / (f_lo - f_hi))
        self.budget -= 1
        widest = 2.0**self.budget  # the most cells the rest of the budget can halve
        m = min(max(m, n - widest, 1), widest, n - 1)
        self.bracket = (lo, hi)
        return lo + m * self.h


def beta_threshold(family, d: int, pairing: str = "half",
                   tol: float = _THRESHOLD_TOL) -> float:
    """Infimum of beta for which the operator's norm pair enters G_d.

    ``family`` is "sos", "log", or a callable beta -> Potential.  Membership
    is monotone in beta because both norms strictly decrease in beta; the
    closed-form norm path keeps each probe cheap.  The search brackets
    beta* by doubling or halving from 1 between two powers of two, L and
    2L.  Bisecting that bracket probes only the grid points L + m*h of the
    cell width h = L/2^k at which it stops: the largest that is <= ``tol``,
    or the float spacing at L, where the midpoint of a cell is no float.
    So the bracket it ends with is the one grid cell whose lower end is
    outside G_d and whose upper end is inside, and any search over the
    same grid that keeps a non-member below and a member above ends in
    that cell.  This one splits the bracket by ``_SecantSplit``, a secant
    step on log L snapped to the grid, which needs about half the probes,
    and returns the cell's midpoint: the same float as the bisection.
    Each probe's norms are certified to the series default.  Raises
    NumericalError when no member is found up to beta = _BETA_MAX (64).
    """
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    _check_tol("tol", tol)
    make = _potential_family(family)
    search = _SecantSplit(
        lambda beta: norm_membership(d, *norm_pair(make(beta), d, pairing, cross_check=False)))
    is_member = search.above

    hi = 1.0
    while not is_member(hi):
        hi *= 2.0
        if hi > _BETA_MAX:
            raise NumericalError(f"no threshold in range: not in G_{d} up to beta={_BETA_MAX}")
    lo = hi / 2.0
    while is_member(lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-9:
            raise NumericalError("membership persists down to beta ~ 0; no finite threshold")
    lo, hi = _bisect(is_member, lo, hi, search.grid(lo, hi, tol), search)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# localization bounds
# ---------------------------------------------------------------------------


def localization_bounds(gamma: float, delta: float, d: int) -> tuple[float, float]:
    """Two-sided bound on the off-center marginal mass ratio mu(s != 0)/mu(s = 0).

    Evaluates (delta*(1 -+ delta*eps^d)/(1 +- gamma*eps^(d-1)))^(d+1) at the
    minimal eps, in log space because the bound underflows fast along the
    large-degree schedule (a result below exp(-745) reads 0).  Only
    meaningful in the good set; refuses otherwise.
    """
    verdict = membership(GoodSetQuery(d, gamma, delta))
    if not verdict.in_good_set:
        raise OutsideGoodSetError(
            f"localization bounds need (gamma, delta) in the good set (reason: {verdict.reason})",
            verdict=verdict,
        )
    eps = verdict.epsilon
    log_delta = math.log(delta) if delta > 0 else -math.inf
    a, b = delta * eps**d, gamma * eps ** (d - 1)
    lower = (d + 1) * (log_delta + math.log1p(-a) - math.log1p(b))
    upper = (d + 1) * (log_delta + math.log1p(a) - math.log1p(-b))
    return _exp(lower), _exp(upper)


# ---------------------------------------------------------------------------
# large-degree scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    d: int
    beta: float
    gamma: float
    delta: float
    in_good_set: bool
    ratio_upper_bound: float | None
    flag: str | None = None


@dataclass(frozen=True)
class ScanReport:
    """Rows of the beta_{A,d} schedule plus the onset degree d0.

    d0 is the smallest tested degree from which membership holds for every
    larger tested degree; None when the largest degree still fails.
    ratio_upper_bound is the upper end of `localization_bounds`,
    (delta*(1+delta*eps^d)/(1-gamma*eps^(d-1)))^(d+1); the theory says it
    decays like 1/d along the schedule.
    """

    A: float
    v: float
    rows: tuple[ScanRow, ...]
    d0: int | None


def large_degree_scan(family, A: float, d_range) -> ScanReport:
    """Membership along beta_{A,d} = A*log(d)/(d+1) for each d in d_range.

    Requires A > 1/v with v = inf_{j != 0} U(j) > 0; that schedule is the
    regime where the good-set conditions kick in for all large d.  Norms
    are certified to the series default.
    """
    make = _potential_family(family)
    v = float(_nonzero_head(make(1.0)).min())
    if v <= 0:
        raise ConfigError("potential needs inf_{j!=0} U(j) > 0 for the large-degree schedule")
    if A <= 1.0 / v:
        raise ConfigError(f"A must exceed 1/v = {1.0 / v:.6g}, got {A}")
    rows = []
    for d in d_range:
        d = int(d)
        if d < 2:
            raise ConfigError(f"degrees must be >= 2, got {d}")
        beta = A * math.log(d) / (d + 1)
        verdict = norm_membership(d, *norm_pair(make(beta), d, "half", cross_check=False))
        ratio = None
        if verdict.in_good_set:
            ratio = localization_bounds(verdict.gamma, verdict.delta, d)[1]
        flag = "gamma_infinite" if verdict.reason == REASON_NORM_INFINITE else None
        rows.append(ScanRow(d, beta, verdict.gamma, verdict.delta, verdict.in_good_set,
                            ratio, flag))
    d0 = None
    for row in reversed(rows):
        if not row.in_good_set:
            break
        d0 = row.d
    return ScanReport(A, v, tuple(rows), d0)

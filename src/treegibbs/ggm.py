"""Two-layer gradient-measure objects built from a q-periodic boundary law.

The hidden layer is the fuzzy chain: a Markov chain on the q height classes
with transitions P(ibar, jbar) = Q_q(ibar - jbar) lam(jbar) / N(ibar) and
stationary law alpha = lam^((d+1)/d) normalized.  The visible layer draws
the integer increment of an edge from the class-conditional law
rho(j | sbar) = Q(j) / Q_q(sbar) restricted to the residue class.  Edge and
star marginals come out exactly by enumerating the root class; along any
finite tree the classes are determined by the root class and the edge
increments, so the enumeration never grows beyond q terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_law import SUPPORT_PERIODIC, BoundaryLaw, single_site_marginal
from .errors import ConfigError, NumericalError
from .potentials import (
    FuzzyOperator,
    Potential,
    _banded_sum,
    _check_tail_tol,
    _float_stream,
    _smallest_radius,
    _tail_beyond,
    fuzzy_Q,
)

__all__ = [
    "FuzzyChain",
    "IncrementLaw",
    "fuzzy_chain",
    "increment_law",
    "increment_laws",
    "ggm_edge_marginal",
    "star_marginal",
]

_STATIONARITY_TOL = 1e-10

# the default increment radius leaves class mass at most this far out
_TAIL_BOUND = 1e-10

# dense kernels (the q x q class chain here, the m x m height chain in
# pathsim) refuse sizes beyond this many states per side
_MAX_DENSE = 4096


@dataclass(frozen=True, eq=False)
class FuzzyChain:
    """Induced chain on height classes with its stationary law.

    P is row-stochastic; alpha satisfies alpha @ P = alpha and detailed
    balance (both consequences of the boundary-law equation, checked at
    construction).
    """

    q: int
    P: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.P.setflags(write=False)
        self.alpha.setflags(write=False)


@dataclass(frozen=True, eq=False)
class IncrementLaw:
    """Conditional edge-increment distribution on one residue class.

    The support is a step-q progression of the residue class, one point
    per weight: ``weights[k]`` is the probability Q(j)/Q_q(residue) of
    j = first + q k, and every consumer reads the law by that stride.
    ``tail_mass_bound`` certifies the probability mass left outside.
    """

    q: int
    residue: int
    first: int
    weights: np.ndarray
    tail_mass_bound: float

    def __post_init__(self):
        if not len(self.weights):
            raise ConfigError(f"increment law of residue {self.residue} has no weights")
        if (self.first - self.residue) % self.q:
            raise ConfigError(f"first point {self.first} is not in residue class "
                              f"{self.residue} mod {self.q}")
        self.weights.setflags(write=False)

    @property
    def support(self) -> np.ndarray:
        return self.first + self.q * np.arange(len(self.weights))

    @property
    def radius(self) -> int:
        return int(max(-self.first, self.first + self.q * (len(self.weights) - 1)))

    def clip(self, radius: int) -> tuple[int, np.ndarray]:
        """(j0, w): the points j0, j0 + q, ... of the support with |j| <= radius
        and their weights (w is empty when there are none)."""
        lo = max(0, -((radius + self.first) // self.q))
        hi = max(lo, min(len(self.weights), (radius - self.first) // self.q + 1))
        return self.first + self.q * lo, self.weights[lo:hi]

    def mean(self) -> float:
        return math.fsum((self.support * self.weights).tolist())

    def second_moment(self) -> float:
        return math.fsum((self.support.astype(float) ** 2 * self.weights).tolist())


def _dense_chain(bl: BoundaryLaw, kernel,
                 refusal: str) -> tuple[np.ndarray, np.ndarray]:
    """(P, alpha) for P(a, b) = kernel(a - b) lam(b) / N(a) on the law's sites;
    beyond _MAX_DENSE sites, NumericalError(refusal) before anything is allocated,
    and NumericalError for a row whose mass N(a) underflows to 0."""
    if len(bl.x) > _MAX_DENSE:
        raise NumericalError(refusal)
    idx = bl.indices
    num = kernel(idx[:, None] - idx[None, :]) * bl.lam[None, :]
    N = num.sum(axis=1, keepdims=True)
    if not N.all():
        raise NumericalError(
            f"row {idx[np.argmin(N)]} of the chain has mass 0: its weights underflow")
    return num / N, single_site_marginal(bl)


def fuzzy_chain(bl: BoundaryLaw, qq: FuzzyOperator) -> FuzzyChain:
    """Build the class chain P(ibar, jbar) = Q_q(ibar-jbar) lam(jbar) / N(ibar).

    Accepts any q-periodic law, including the free state (constant lam gives
    the normalized class operator itself and a uniform alpha).  The
    stationarity of alpha is rechecked; a residual above 1e-10 means the
    input does not actually solve the boundary-law equation.
    """
    if bl.kind != SUPPORT_PERIODIC:
        raise ConfigError("fuzzy_chain needs a q-periodic boundary law")
    if qq.q != bl.q:
        raise ConfigError(f"operator has q={qq.q}, boundary law has q={bl.q}")
    q = bl.q
    values = np.asarray(qq.values, dtype=float)
    P, alpha = _dense_chain(bl, lambda diff: values[diff % q], (
        f"q={q} exceeds {_MAX_DENSE}: the dense class chain needs a "
        f"{q}x{q} matrix ({q * q * 8 / 2**30:.3g} GiB)"))
    if q > 1:
        resid = float(np.max(np.abs(alpha @ P - alpha)))
        if resid > _STATIONARITY_TOL:
            raise NumericalError(
                f"stationarity residual {resid:.3g} exceeds {_STATIONARITY_TOL:.0e}; "
                "the supplied law does not solve the boundary-law equation"
            )
    return FuzzyChain(q=q, P=P, alpha=alpha)


def increment_law(
    pot: Potential,
    q: int,
    residue: int,
    radius: int | None = None,
) -> IncrementLaw:
    """Normalized restriction of Q to one residue class, with certified tail.

    The default radius is grown until the omitted class mass is certified
    below _TAIL_BOUND.  Any radius must reach the point of the class nearest
    0: R >= max(1, min(residue, q - residue)).  Requires Q summable (the
    class masses are the normalizers); a class mass that underflows to 0 is
    refused with NumericalError.
    """
    return _increment_law(pot, fuzzy_Q(pot, q), residue, radius)


def _increment_law(
    pot: Potential, qq: FuzzyOperator, residue: int, radius: int | None
) -> IncrementLaw:
    q = qq.q
    residue %= q
    if not qq.at(residue) > 0.0:
        raise NumericalError(f"class mass Q_q({residue}) underflows to 0 at q={q}: "
                             f"residue {residue} has no increment law")
    mass = qq.at(residue) - qq.residual_tail
    # the point of the class nearest 0 has |j| = min(residue, q - residue)
    least = max(1, min(residue, q - residue))
    if radius is None:
        radius = _smallest_radius(
            lambda R: _tail_beyond(pot, R, 1.0) / mass <= _TAIL_BOUND,
            least,
            1 << 30,
            f"increment window beyond 2^30 needed for tail bound {_TAIL_BOUND:.3g}",
        )
    elif radius < least:
        raise ConfigError(f"radius {radius} cannot hold residue {residue}")

    first = (residue + radius) % q - radius
    return IncrementLaw(
        q=q,
        residue=residue,
        first=first,
        weights=pot.Q(np.arange(first, radius + 1, q)) / qq.at(residue),
        tail_mass_bound=max(_tail_beyond(pot, radius, 1.0) / mass, 0.0),
    )


def increment_laws(pot: Potential, q: int, radius: int | None = None) -> list[IncrementLaw]:
    """One IncrementLaw per residue class 0..q-1, sharing one fuzzy_Q."""
    qq = fuzzy_Q(pot, q)
    return [_increment_law(pot, qq, s, radius) for s in range(q)]


def _check_laws(fc: FuzzyChain, laws) -> list[IncrementLaw]:
    laws = list(laws)
    if len(laws) != fc.q:
        raise ConfigError(f"need {fc.q} increment laws, got {len(laws)}")
    for s, law in enumerate(laws):
        if law.q != fc.q or law.residue != s:
            raise ConfigError(f"law at position {s} has q={law.q}, residue={law.residue}")
    return laws


def _class_step_law(fc: FuzzyChain) -> np.ndarray:
    """Stationary law of the class step: entry s is sum_i alpha(i) P(i, i+s).

    Each entry is an exactly rounded sum of the q products.
    """
    i = np.arange(fc.q)
    return np.array([
        math.fsum((fc.alpha * fc.P[i, (i + s) % fc.q]).tolist()) for s in range(fc.q)
    ])


def ggm_edge_marginal(
    fc: FuzzyChain, laws, window: int, tail_tol: float = 1e-9
) -> np.ndarray:
    """Single-edge increment law nu(j) on the window [-K, K].

    nu(j) = sum_ibar alpha(ibar) P(ibar, ibar+jbar) rho(j | jbar) with
    jbar = j mod q.  The result is symmetric with zero tilt.  Each residue
    class s adds step(s) * rho(. | s) into one stride-q slice of the window;
    the classes fill disjoint slots.  The leak verdict is the one on
    1 - (exactly rounded mass): the lower end of the mass's `_banded_sum`
    band passes it when it can, and only otherwise does `_window_leak` take
    the exact sum, which its error message needs anyway.  Errors out when
    the window cannot hold enough mass for tail_tol.
    """
    _check_tail_tol(tail_tol)
    laws = _check_laws(fc, laws)
    need = max(law.radius for law in laws)
    nu = np.zeros(2 * window + 1)
    for step, law in zip(_class_step_law(fc), laws):
        j0, w = law.clip(window)
        nu[j0 + window::fc.q][:w.size] += step * w
    if 1.0 - _banded_sum(nu)[0] <= tail_tol:
        return nu
    # a window past every law radius holds all support points: the leak is
    # the mass the increment truncation gave away
    _window_leak(nu, window, tail_tol, lambda: (
        f"use window >= {need}" if window < need else
        f"the increment laws are truncated at radius {need}; "
        "raise the increment radius (--truncation)"))
    return nu


def _window_leak(law: np.ndarray, window: int, budget: float, hint) -> float:
    """The leak max(0, 1 - sum(law)) from one exactly rounded sum; a leak above
    budget raises NumericalError with a message ending in hint(), called only then."""
    leaked = max(0.0, 1.0 - math.fsum(_float_stream(law)))
    if leaked > budget:
        raise NumericalError(
            f"window {window} leaks mass {leaked:.3g} > {budget:.3g}; {hint()}"
        )
    return leaked


def star_marginal(fc: FuzzyChain, laws, increments) -> float:
    """Exact probability of a given increment assignment on a star.

    The volume is a root with len(increments) outgoing edges; conditioning
    on the root class makes the edges independent, so the enumeration is a
    single sum over classes.  Limited to 12 edges (desk-scale exactness).
    """
    laws = _check_laws(fc, laws)
    increments = [int(j) for j in increments]
    if len(increments) > 12:
        raise ConfigError("star volumes limited to 12 edges; sample instead")
    q = fc.q
    rho = []
    for j in increments:
        law = laws[j % q]
        k = (j - law.first) // q
        rho.append(float(law.weights[k]) if 0 <= k < law.weights.size else 0.0)
    total = 0.0
    for i in range(q):
        term = float(fc.alpha[i])
        for j, r in zip(increments, rho):
            term *= float(fc.P[i, (i + j) % q]) * r
        total += term
    return total

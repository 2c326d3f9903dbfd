"""Two-layer gradient-measure objects built from a q-periodic boundary law.

The hidden layer is the fuzzy chain: a Markov chain on the q height classes
with transitions P(ibar, jbar) = Q_q(ibar - jbar) lam(jbar) / N(ibar) and
stationary law alpha = lam^((d+1)/d) normalized.  The visible layer draws
the integer increment of an edge from the class-conditional law
rho(j | sbar) = Q(j) / Q_q(sbar) on the progression of the residue class;
an `IncrementLaw` is that formula with certified class tails, evaluated in
blocks into the caller's array.  Edge and star marginals come out exactly
by enumerating the root class; along any finite tree the classes are
determined by the root class and the edge increments, so the enumeration
never grows beyond q terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_law import SUPPORT_PERIODIC, BoundaryLaw, single_site_marginal
from .errors import ConfigError, NumericalError
from .potentials import (
    _TINY,
    FuzzyOperator,
    Potential,
    _Bracket,
    _gamma,
    _shifted,
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
_EVAL_BLOCK = 1 << 14  # points `IncrementLaw.write` evaluates at a time

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
    """Conditional edge-increment law rho(j | residue) = Q(j) / Q_q(residue).

    A formula, not a table: the support is the step-q progression of the
    residue class with |j| <= ``radius`` (the largest |j| it holds), and
    `write` (under `clip` and `weights`) evaluates pot.Q on the points asked
    for, divided by ``mass`` = Q_q(residue).  `tail` certifies the law's mass
    beyond a radius from the class's own terms, over ``mass_lo``, the class
    mass rounded down, and ``tail_mass_bound`` is `tail` at ``radius``.
    """

    pot: Potential
    q: int
    residue: int
    radius: int
    mass: float
    mass_lo: float

    @property
    def first(self) -> int:
        return self.span(-self.radius, self.radius)[0]

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.first, self.radius + 1, self.q)

    @property
    def weights(self) -> np.ndarray:
        return self.clip(self.radius)[1]

    def span(self, lo: int, hi: int) -> tuple[int, int]:
        """(j0, n): the support points in [lo, hi] are j0 + kq, k < n."""
        lo, hi = max(lo, -self.radius), min(hi, self.radius)
        j0 = lo + (self.residue - lo) % self.q
        return j0, max(0, (hi - j0) // self.q + 1)

    def write(self, j0: int, out: np.ndarray, scale=1.0) -> np.ndarray:
        """out[k] = scale * Q(j) / mass at the support points j = j0 + kq, by one
        Q, divide and multiply each, _EVAL_BLOCK points at a time; returns out,
        which may be any strided view."""
        for a in range(0, out.size, _EVAL_BLOCK):
            b = min(a + _EVAL_BLOCK, out.size)
            w = self.pot.Q(np.arange(j0 + a * self.q, j0 + b * self.q, self.q))
            np.divide(w, self.mass, out=w)
            np.multiply(w, scale, out=out[a:b])
        return out

    def clip(self, radius: int) -> tuple[int, np.ndarray]:
        """(j0, w): the support points j0, j0 + q, ... with |j| <= radius and
        their weights, by `write` into a fresh array."""
        j0, n = self.span(-radius, radius)
        return j0, self.write(j0, np.empty(n))

    def tail(self, R: int) -> float:
        """Upper bound on the law's mass beyond R: the class's terms Q(j) with
        |j| > min(R, radius) over the class mass."""
        return _tail_over_mass(self.pot, self.q, self.residue, self.mass_lo,
                               min(R, self.radius))

    @property
    def tail_mass_bound(self) -> float:
        return self.tail(self.radius)

    def second_moment(self) -> float:
        return math.fsum((self.support.astype(float) ** 2 * self.weights).tolist())


def _dense_chain(bl: BoundaryLaw, kernel) -> tuple[np.ndarray, np.ndarray]:
    """(P, alpha) for P(a, b) = kernel(a - b) lam(b) / N(a) on the law's sites;
    beyond _MAX_DENSE sites, NumericalError naming both before anything is
    allocated, and NumericalError for a row whose mass N(a) underflows to 0."""
    m = len(bl.x)
    if m > _MAX_DENSE:
        raise NumericalError(f"the law's {m} sites exceed the {_MAX_DENSE}-site cap of a dense "
                             f"chain: its {m}x{m} matrix would take {m * m * 8 / 2**30:.3g} GiB")
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
    P, alpha = _dense_chain(bl, lambda diff: values[diff % q])
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

    The default radius is the least whose class tail, as `IncrementLaw.tail`
    certifies it, is at most _TAIL_BOUND.  Any radius must reach the class
    point nearest 0: R >= max(1, min(residue, q - residue)).  Requires Q
    summable (the class masses are the normalizers); a class mass that
    underflows to 0 is refused with NumericalError.
    """
    return _increment_law(pot, fuzzy_Q(pot, q), residue, radius)


def _increment_law(
    pot: Potential, qq: FuzzyOperator, residue: int, radius: int | None
) -> IncrementLaw:
    q = qq.q
    residue %= q
    mass = _Bracket.around(qq.at(residue), qq.errors[residue])
    if not mass.lo > 0.0:
        raise NumericalError(f"class mass Q_q({residue}) underflows to 0 at q={q}: "
                             f"residue {residue} has no increment law")
    least = max(1, min(residue, q - residue))  # |j| of the class point nearest 0
    if radius is None:
        radius = _smallest_radius(
            lambda R: _tail_over_mass(pot, q, residue, mass.lo, R) <= _TAIL_BOUND,
            least,
            1 << 30,
            f"increment window beyond 2^30 needed for tail bound {_TAIL_BOUND:.3g}",
        )
    elif radius < least:
        raise ConfigError(f"radius {radius} cannot hold residue {residue}")

    first = (residue + radius) % q - radius
    return IncrementLaw(
        pot=pot,
        q=q,
        residue=residue,
        radius=max(-first, first + (radius - first) // q * q),
        mass=qq.at(residue),
        mass_lo=mass.lo,
    )


def _tail_over_mass(pot: Potential, q: int, residue: int, mass_lo: float, R: int) -> float:
    """Upper bound on sum Q(j) over |j| > R, j = residue mod q, over the
    class mass, at least mass_lo."""
    absolute = _tail_beyond(pot, R, 1.0, q, residue)
    if absolute >= _TINY:
        return math.nextafter(absolute / mass_lo, math.inf)
    # below the normal range the absolute tail has no relative precision
    # left; relative to the class's nearest term, Q(near) <= mass, it is
    # the tail of U - U(near), which stays in range down to _TINY, and
    # it is rounded up once as the quotient above is
    near = min(residue, q - residue)
    relative = _tail_beyond(_shifted(pot, pot.U(near)), R, 1.0, q, residue)
    return max(math.nextafter(relative, math.inf), _TINY)


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

    Each entry is an exactly rounded sum of the q products.  The q^2
    products (15 ms at q = 512) are summed on a chain's first call only:
    the read-only law is kept on the chain, as a cached property would be.
    """
    steps = fc.__dict__.get("_step_law")
    if steps is None:
        i = np.arange(fc.q)
        steps = np.array([
            math.fsum((fc.alpha * fc.P[i, (i + s) % fc.q]).tolist()) for s in range(fc.q)
        ])
        steps.setflags(write=False)
        fc.__dict__["_step_law"] = steps
    return steps


def _edge_leak(steps: np.ndarray, laws: list[IncrementLaw], K: int) -> float:
    """Certified mass of the edge marginal outside [-K, K]: sum_s step(s)
    tail_s(K), with step the `_class_step_law` and tail_s `IncrementLaw.tail`,
    rounded up.  It is non-increasing in K and constant past the largest
    increment radius."""
    # the products and the sum round once each, within 1 + gamma_3, and
    # a product below the normal range may lose one subnormal ulp
    terms = [step * law.tail(K) for step, law in zip(steps, laws)]
    return math.nextafter(math.fsum(terms) * (1 + _gamma(3)) + len(laws) * 2.0**-1074,
                          math.inf)


def _edge_window(fc: FuzzyChain, laws, window: int | None = None) -> tuple[int, float]:
    """(K, leak) for fc's q increment laws in class order: the given window,
    or the least K >= 1 whose certified leak `_edge_leak` is at most _LEAK_TOL
    (the largest increment radius where none is), and K's leak.  A given
    window leaking more is refused with NumericalError naming that K."""
    steps, need = _class_step_law(fc), max(law.radius for law in laws)
    leaked = math.inf if window is None else _edge_leak(steps, laws, window)
    if leaked <= _LEAK_TOL:
        return window, leaked
    fits = _edge_leak(steps, laws, need) <= _LEAK_TOL
    least = _smallest_radius(lambda R: _edge_leak(steps, laws, R) <= _LEAK_TOL,
                             1, 2 * need, "") if fits else need
    if window is None:
        return least, _edge_leak(steps, laws, least)
    hint = f"use window >= {least}" if fits else (
        f"the increment laws are truncated at radius {need}; "
        "raise the increment radius (--truncation)")
    raise NumericalError(f"window {window} leaks mass {leaked:.3g} > {_LEAK_TOL:.3g}; {hint}")


def _edge_rows(fc: FuzzyChain, laws: list[IncrementLaw], window: int) -> np.ndarray:
    """`ggm_edge_marginal`'s law on the window, its leak unchecked."""
    q, steps, nu = fc.q, _class_step_law(fc), np.zeros(2 * window + 1)
    for lo in range(-window, window + 1, q * _EVAL_BLOCK):
        for law, step in zip(laws, steps):
            j0, n = law.span(lo, min(lo + q * _EVAL_BLOCK, window + 1) - 1)
            law.write(j0, nu[j0 + window::q][:n], step)
    return nu


def ggm_edge_marginal(fc: FuzzyChain, laws, window: int) -> np.ndarray:
    """Single-edge increment law nu(j) on the window [-K, K].

    nu(j) = sum_ibar alpha(ibar) P(ibar, ibar+jbar) rho(j | jbar) with
    jbar = j mod q.  The result is symmetric with zero tilt.  `_edge_rows`
    writes it in stretches of q * _EVAL_BLOCK slots: `IncrementLaw.write`
    puts step(s) * rho(. | s) of each class s straight into its stride-q
    slice, so no other array spans a law, and each stretch is filled while
    in cache.  The leak is `_edge_leak`, not a sum over the window;
    `_edge_window` refuses a leak above `_LEAK_TOL` before the window is built.
    """
    laws = _check_laws(fc, laws)
    if window < 0:
        raise ConfigError(f"window must be >= 0, got {window}")
    _edge_window(fc, laws, window)
    return _edge_rows(fc, laws, window)


_LEAK_TOL = 1e-9  # mass a W_n or edge-marginal window may leak


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
        rho.append(law.pot.Q(j) / law.mass if abs(j) <= law.radius else 0.0)
    total = 0.0
    for i in range(q):
        term = float(fc.alpha[i])
        for j, r in zip(increments, rho):
            term *= float(fc.P[i, (i + j) % q]) * r
        total += term
    return total

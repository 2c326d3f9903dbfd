"""Transfer operators for integer-valued gradient models on regular trees.

A potential is a symmetric function U on the integers with U(0) = 0; the
associated transfer operator is Q(j) = exp(-beta * U(j)), so Q(0) = 1 and
Q(-j) = Q(j).  Everything downstream (good-set membership, boundary-law
fixed points, gradient chains) consumes Q through the interfaces here:

* certified lp norms on Z and Z without zero (``p_norm``),
* class sums over residues mod q, the "fuzzy" operator (``fuzzy_Q``),
* the monotone-envelope double-sum summability test (``check_double_sum``).

Built-in families:

* ``sos(beta)``:  U(j) = |j|            (exponentially decaying Q)
* ``log_potential(beta)``:  U(j) = log(1 + |j|)   (polynomially decaying Q)
* ``custom(beta, table, tail)``: finite table of U values plus a declared
  tail model ("exp" with a rate, or "power" with an exponent) that extends
  U monotonically beyond the table.

Certified enclosures are ``_Bracket`` pairs lo <= hi of floats or arrays,
every operation rounding both ends outward by one ulp; class sums carry one
error per class.  Series values carry certified error bounds from one tail
engine.  Every tail the package bounds is sum_{n>=0} Q(l0 + n*step)^p
beyond the table, and ``_tail_bracket`` brackets it: exp tails in closed
geometric form, power tails C (x0 + n*step)^(-s) through ``_power_tail``,
the one Euler-Maclaurin bracket (integral, half the first term, Bernoulli
corrections while they shrink, the first omitted correction as the
remainder, plus a rounding allowance) that also serves ``hurwitz_zeta``,
the log closed forms zeta(s, 2) and the double-sum envelope.  One loop
(``_certified_sum``) adds the bracket midpoint to an exact fsum of the
first N terms and doubles N until half the width plus the terms' rounding
allowance certifies the tolerance, for many series at once (the q + 1 arms
of the class sums, the double sum's inner sums) as for one; the reported
``tail_bound`` is that error (plus the rounding of the zero term on Z).
``_tail_beyond`` bounds what a radius R leaves out, sum_{|j|>R} Q(j)^p,
table terms included, or its part in one residue class, and one search
(``_smallest_radius``) picks the smallest radius whose tail fits a bound,
for window truncation and increment laws alike.

Verdicts on long sums (Banach steps, leaks, probability totals) go through
``_banded_sum``: chunked numpy sums with a rigorous rounding band, so the
exactly rounded ``math.fsum`` runs only when the band straddles a threshold.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    NotSummableError,
    NumericalError,
    TailUndeclaredError,
)

__all__ = [
    "Potential",
    "TailModel",
    "NormReport",
    "FuzzyOperator",
    "DoubleSumReport",
    "sos",
    "log_potential",
    "custom",
    "potential_from_json",
    "load_potential",
    "p_norm",
    "norm_pair",
    "fuzzy_Q",
    "hurwitz_zeta",
    "check_double_sum",
    "DOMAIN_Z",
    "DOMAIN_Z_STAR",
    "DOMAIN_ZQ",
    "DOMAIN_ZQ_STAR",
]

DOMAIN_Z = "Z"
DOMAIN_Z_STAR = "Z_without_zero"
DOMAIN_ZQ = "Z_q"
DOMAIN_ZQ_STAR = "Z_q_without_zero"

_START_RADIUS = 64
_MAX_RADIUS = 1 << 26
_CHUNK = 1 << 16
# terms in one array of many rows' chunks: each block's lists of floats are
# freed before the next block's are made, so the allocator reuses them (one
# block of all rows kept 2 MB resident after fuzzy_Q log q=256)
_ROW_BLOCK = 1 << 10
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022  # the smallest normal float
_SERIES_TOL = 1e-10  # default relative tolerance of the norm series
_DOUBLE_SUM_TOL = 1e-8  # relative accuracy of a finite double-sum verdict


def _float_stream(a: np.ndarray):
    """The entries of a 1-d array as Python floats, converted _CHUNK at a time.

    Walks a long array at the cost of one chunk's list instead of a list
    of every entry.
    """
    return itertools.chain.from_iterable(
        a[lo:lo + _CHUNK].tolist() for lo in range(0, len(a), _CHUNK)
    )


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def _next(x, to: float):
    """x moved one ulp toward ``to``: a float for a scalar, elementwise for an array."""
    return np.nextafter(x, to) if isinstance(x, np.ndarray) else math.nextafter(x, to)


def _outward(lo, hi) -> "_Bracket":
    return _Bracket(_next(lo, -math.inf), _next(hi, math.inf))


class _Bracket(NamedTuple):
    """An enclosure lo <= x <= hi of a real x, or of an array x entrywise.

    Every operation rounds each end of its float result outward by one ulp,
    which covers one rounding of an IEEE sum or quotient and of a faithful
    pow.  The ends are floats or numpy arrays.
    """

    lo: float
    hi: float

    @staticmethod
    def around(x, err) -> "_Bracket":
        """The bracket of a number within err >= 0 of x."""
        return _outward(x - err, x + err)

    def widen(self, err) -> "_Bracket":
        """The bracket of a number within err >= 0 of this one's."""
        return _outward(self.lo - err, self.hi + err)

    def __add__(self, other) -> "_Bracket":
        """Sum with a bracket or a float."""
        lo, hi = other if isinstance(other, _Bracket) else (other, other)
        return _outward(self.lo + lo, self.hi + hi)

    def __truediv__(self, other) -> "_Bracket":
        """Quotient by a positive bracket or float."""
        lo, hi = other if isinstance(other, _Bracket) else (other, other)
        return _outward(np.minimum(self.lo / lo, self.lo / hi),
                        np.maximum(self.hi / lo, self.hi / hi))

    def __rtruediv__(self, x) -> "_Bracket":
        """A float over a positive bracket."""
        return _Bracket(x, x) / self

    def __pow__(self, e: float) -> "_Bracket":
        """The e-th power, e > 0, of a nonnegative number: lo is clamped at 0."""
        return _outward(np.maximum(self.lo, 0.0) ** e, self.hi ** e)

    def radius(self, x):
        """max(hi - x, x - lo) rounded up: every point of the bracket is that close to x."""
        return _next(np.maximum(self.hi - x, x - self.lo), math.inf)


def _banded_sum(a: np.ndarray) -> _Bracket:
    """The bracket of the exact sum of the entries of a 1-d array.

    Each _CHUNK slice is summed by np.sum, which is within gamma_{m-1}
    sum |a_i| of the slice's exact sum for m entries in any summation order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), and one fsum adds the slice sums, off by at most u |fsum|.
    The band is gamma_m times the fsum of the slices' magnitude sums, which
    covers gamma_{m-1} / (1 - gamma_{m-1}) and the rounding of the band
    itself, plus u |fsum|, rounded outward.  The exactly rounded sum lies
    in [lo, hi] too, so a verdict on it needs `math.fsum` only when the band
    straddles the threshold.  Non-finite slice sums give (s, s), s their
    plain sum.
    """
    slices = [a[lo:lo + _CHUNK] for lo in range(0, len(a), _CHUNK)]
    sums = [float(np.sum(part)) for part in slices]
    if not all(map(math.isfinite, sums)):
        s = sum(sums)
        return _Bracket(s, s)
    total = math.fsum(sums)
    if a.size and a.min() < 0:
        sums = [float(np.sum(np.abs(part))) for part in slices]
    return _Bracket.around(total, _gamma(min(a.size, _CHUNK)) * math.fsum(sums)
                           + _UNIT_ROUNDOFF * abs(total))


@dataclass(frozen=True)
class TailModel:
    """Decay model for a custom potential beyond its table.

    kind "exp": U(j) = U(J) + rate * (j - J) for j > J, so Q decays like
    exp(-beta*rate*j).  kind "power": U(j) = U(J) + exponent * log((1+j)/(1+J)),
    so Q decays like (1+j)^(-beta*exponent).  Both hand off continuously at
    the last table entry J and are increasing, which keeps Q monotone there.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("exp", "power"):
            raise ConfigError(f"unknown tail kind {self.kind!r}, expected 'exp' or 'power'")
        if not (self.param > 0 and math.isfinite(self.param)):
            raise ConfigError(f"tail parameter must be a positive finite number, got {self.param!r}")


@dataclass(frozen=True)
class Potential:
    """Symmetric potential U with U(0) = 0 and transfer operator Q = exp(-beta U).

    ``table`` holds U(1), ..., U(J) for custom potentials and is None for the
    built-in families.  Custom tables that declare a nonzero U(0) are shifted
    so that U(0) = 0, which rescales Q by Q(0) and changes nothing downstream.
    """

    kind: str
    beta: float
    table: tuple[float, ...] | None = None
    tail: TailModel | None = None

    def __post_init__(self):
        if self.kind not in ("sos", "log", "custom"):
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigError(f"beta must be positive and finite, got {self.beta!r}")
        if self.kind == "custom":
            if not self.table:
                raise ConfigError("custom potential needs a non-empty table")
            if any(not math.isfinite(u) for u in self.table):
                raise ConfigError("custom table contains non-finite values")
        elif self.table is not None or self.tail is not None:
            raise ConfigError("table/tail are only meaningful for custom potentials")

    # -- evaluation ---------------------------------------------------------

    @property
    def table_end(self) -> int:
        """Largest |j| covered by the stored table (0 for built-ins)."""
        return len(self.table) if self.kind == "custom" else 0

    def U(self, j):
        """Potential values; accepts scalars or integer arrays."""
        out = self._fresh_U(j)
        return out if out.ndim else float(out)

    def Q(self, j):
        """Transfer operator exp(-beta U(j)); accepts scalars or arrays."""
        out = self._fresh_U(j)
        with np.errstate(over="ignore"):  # -beta U = -inf is Q = 0
            np.multiply(out, -self.beta, out=out)
        np.exp(out, out=out)
        return out if out.ndim else float(out)

    def _fresh_U(self, j) -> np.ndarray:
        """U(j) in one new float array (0-d for a scalar), computed in place:
        a table of millions of points then costs one array, not one per
        operation."""
        a = np.array(j, dtype=float)
        np.abs(a, out=a)
        if self.kind == "log":
            np.log1p(a, out=a)
        elif self.kind == "custom":
            self._custom_U(a)
        return a

    def _custom_U(self, a):
        """Overwrite the |j| values a with U(j)."""
        J = self.table_end
        tab = np.concatenate(([0.0], np.asarray(self.table, dtype=float)))
        inside = a <= J
        a[inside] = tab[a[inside].astype(int)]
        if not np.all(inside):
            if self.tail is None:
                raise TailUndeclaredError(
                    f"custom potential queried at |j| > {J} but no tail model is declared"
                )
            uj = tab[J]
            ax = a[~inside]
            if self.tail.kind == "exp":
                a[~inside] = uj + self.tail.param * (ax - J)
            else:
                a[~inside] = uj + self.tail.param * (np.log1p(ax) - math.log1p(J))

    # -- tail descriptors used by the certified summation engine ------------

    def _decay(self) -> tuple[str, float, float, int]:
        """(kind, rate_or_exponent, amplitude_logQ_at_handoff, handoff_J).

        Beyond J the operator satisfies exactly
        exp kind:   Q(j) = exp(lq) * exp(-rate * beta * (j - J))
        power kind: Q(j) = exp(lq) * ((1+j)/(1+J))^(-exponent * beta)
        where lq = -beta * U(J) (lq = 0, J = 0 for the built-ins).
        """
        if self.kind == "sos":
            return ("exp", 1.0, 0.0, 0)
        if self.kind == "log":
            return ("power", 1.0, 0.0, 0)
        if self.tail is None:
            raise TailUndeclaredError(
                "custom potential has no tail model; norms and class sums are refused"
            )
        return (self.tail.kind, self.tail.param, -self.beta * float(self.table[-1]), self.table_end)

    def divergence_witness(self, p: float) -> str | None:
        """Witness string if sum_j Q(j)^p diverges, else None."""
        kind, expo, _, _ = self._decay()
        if kind == "exp":
            return None
        s = p * self.beta * expo
        if s <= 1.0:
            if self.kind == "log":
                return f"p*beta = {p * self.beta:.6g} <= 1"
            return f"p*beta*exponent = {s:.6g} <= 1"
        return None


def sos(beta: float) -> Potential:
    """Solid-on-solid potential U(j) = |j|."""
    return Potential("sos", float(beta))


def log_potential(beta: float) -> Potential:
    """Logarithmic potential U(j) = log(1 + |j|)."""
    return Potential("log", float(beta))


# the parametric families by name: CLI models, JSON kinds, beta_threshold
_FAMILIES = {"sos": sos, "log": log_potential}


def custom(beta: float, table, tail: TailModel | dict | None = None) -> Potential:
    """Custom potential from a table of (j, U(j)) pairs.

    ``table`` is a sequence of pairs with consecutive j = 1..J (an optional
    leading [0, u0] row shifts the whole potential so U(0) = 0).  ``tail``
    may be a TailModel or the JSON dict form {"type": "exp", "rate": r} /
    {"type": "power", "exponent": e}.
    """
    try:
        rows = sorted((int(j), float(u)) for j, u in table)
    except (TypeError, ValueError):
        raise ConfigError("custom table must be a list of [j, U(j)] pairs") from None
    shift = 0.0
    if rows and rows[0][0] == 0:
        shift = rows[0][1]
        rows = rows[1:]
    if not rows:
        raise ConfigError("custom table needs at least one entry with j >= 1")
    js = [j for j, _ in rows]
    if js != list(range(1, len(js) + 1)):
        raise ConfigError(f"custom table indices must be consecutive 1..J, got {js}")
    if tail is not None and not isinstance(tail, TailModel):
        tail = _tail_from_dict(tail)
    return Potential("custom", float(beta), tuple(u - shift for _, u in rows), tail)


def _number(obj: dict, key: str) -> float:
    """obj[key] as a float, with a ConfigError when it is missing or not a number."""
    if key not in obj:
        raise ConfigError(f"missing key {key!r}")
    try:
        return float(obj[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {obj[key]!r}") from None


def _tail_from_dict(d: dict) -> TailModel:
    if not isinstance(d, dict):
        raise ConfigError(f"tail must be a JSON object, got {d!r}")
    kind = d.get("type")
    if kind == "exp":
        return TailModel("exp", _number(d, "rate"))
    if kind == "power":
        return TailModel("power", _number(d, "exponent"))
    raise ConfigError(f"unknown tail type {kind!r}")


def potential_from_json(text: str) -> Potential:
    """Parse a potential from its JSON description.

    Built-ins: {"kind": "sos"|"log", "beta": B}.  Custom:
    {"kind": "custom", "beta": B, "table": [[1, u1], ...],
     "tail": {"type": "exp", "rate": r} | {"type": "power", "exponent": e}}.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid potential JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"potential JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in _FAMILIES:
        return _FAMILIES[kind](_number(obj, "beta"))
    if kind == "custom":
        return custom(_number(obj, "beta"), obj.get("table"), obj.get("tail"))
    raise ConfigError(f"unknown potential kind {kind!r}")


def load_potential(path) -> Potential:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"potential file {path} is not UTF-8: {e}") from None
    return potential_from_json(text)


# ---------------------------------------------------------------------------
# the tail engine: one bracket, one certified summation loop, one radius search
# ---------------------------------------------------------------------------


def _exp(x: float) -> float:
    """exp(x), flushed to 0 below -745 and to inf where it overflows."""
    try:
        return math.exp(x) if x > -745 else 0.0
    except OverflowError:
        return math.inf


# B_2k / (2k)! for k = 1..10, each correctly rounded: the Euler-Maclaurin
# correction coefficients
_EM_COEFFS = tuple(num / (den * math.factorial(2 * k)) for k, (num, den) in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
     (-3617, 510), (43867, 798), (-174611, 330)), start=1))


def _power_tail(logC: float, x0: float, s: float, step: float) -> _Bracket:
    """A bracket 0 <= lo <= hi of sum_{n>=0} C (x0 + n*step)^(-s), C = exp(logC).

    With f(n) = C (x0 + n*step)^(-s), Euler-Maclaurin gives the sum as the
    integral of f over [0, inf), plus f(0)/2, plus the corrections
    T_k = B_2k/(2k)! (s)_{2k-1} (step/x0)^(2k-1) f(0), which alternate in
    sign.  f is completely monotone, so its even derivatives keep one sign
    and, by the classical remainder theorem, after any number of
    corrections the remainder has the sign of the first omitted one and is
    smaller (see Johansson, Numer. Algorithms 69, 2015, for the rigorous
    Euler-Maclaurin evaluation of Hurwitz zeta).  Corrections are added while
    they shrink, starting from f(0)/2: with none, the bracket is
    [integral, integral + f(0)].  The ends are widened by a rounding
    allowance for the exps, logs and products (elementary functions within
    one ulp), then rounded outward; the allowance is relative, so it holds
    down to the smallest normal float, and a tail whose exps flush to zero
    brackets as (0, 0).  A divergent tail (s <= 1) or float overflow
    brackets as (inf, inf).
    """
    if s <= 1.0:
        return _Bracket(math.inf, math.inf)
    lx = math.log(x0)
    first = _exp(logC - s * lx)
    integral = _exp(logC + (1.0 - s) * lx) / (step * (s - 1.0))
    a, b = integral, integral + first  # the bracket, then the last two partial sums
    if not math.isfinite(b):
        return _Bracket(math.inf, math.inf)
    if b == 0.0:
        return _Bracket(0.0, 0.0)
    est, prev = integral + 0.5 * first, 0.5 * first
    r = step / x0
    scale = first * s * r  # (s)_{2k-1} r^(2k-1) f(0) at k = 1
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * scale
        size = abs(term)
        if not size < prev:
            break
        a, b = est, est + term
        est, prev = b, size
        sk = s + 2 * k
        scale *= (sk - 1) * sk * r * r  # (s + 2k - 1)(s + 2k) r^2
    lo, hi = (a, b) if a <= b else (b, a)
    # f(0) and the integral are within e u of their values (relative), each
    # correction adds at most 9 roundings and stays below f(0)/2, and the
    # sums round k + 1 times
    e = abs(logC) + 4.0 * s * abs(lx) + 5.0
    slack = (e + 9 * k + 2) * _UNIT_ROUNDOFF * (integral + (k + 1) * first)
    # _Bracket(lo, hi).widen(slack), inlined: this runs once per row and N
    return _Bracket(max(0.0, math.nextafter(lo - slack, -math.inf)),
                    math.nextafter(hi + slack, math.inf))


def _tail_bracket(pot: Potential, l0: int, step: int, p: float) -> _Bracket:
    """Bracket [lo, hi] of sum_{n>=0} Q(l0 + n*step)^p, requires l0 beyond the table.

    Exp tails are an exact geometric sum (lo == hi).  Power tails
    C (1+l)^(-s) go through ``_power_tail``.  Divergent power tails bracket
    as (inf, inf), and so does float overflow.
    """
    kind, expo, lq, J = pot._decay()
    if l0 <= J:
        raise ValueError("tail bracket requires l0 beyond the table end")
    s = p * pot.beta * expo
    if kind == "exp":
        # Q(l)^p = e^{p*lq} e^{-s*(l-J)}, a geometric series of ratio e^{-s*step}
        t = _exp(p * lq - s * (l0 - J) - _log1mexp(s * step))
        return _Bracket(t, t)
    # Q(l)^p = C (1+l)^{-s} with log C = p*lq + s*log(1+J)
    return _power_tail(p * lq + s * math.log1p(J), 1.0 + l0, s, step)


def _tail_beyond(pot: Potential, R: int, p: float, step: int = 1, residue: int = 0) -> float:
    """Certified upper bound on sum Q(j)^p over |j| > R with j = residue mod
    step (every |j| > R at step 1): over the arms l = +-residue + n step > R,
    j = +-l, the fsum of the table terms plus the upper end of the bracket
    beyond the table.  At step 1 and R at or past the table end, both arms
    are _tail_bracket(pot, R + 1, 1, p).hi, and the bound is exactly twice it."""
    total = 0.0
    for r in (residue, -residue):
        l0 = R + 1 + (r - R - 1) % step  # the arm's first point past R
        end = l0 + max(0, (pot.table_end - l0) // step + 1) * step  # past the table
        inside = math.fsum((pot.Q(np.arange(l0, end, step)) ** p).tolist())
        total += inside + _tail_bracket(pot, end, step, p).hi
    return total


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0."""
    if x <= 0:
        raise ValueError("needs x > 0")
    if x < 0.693:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def _row_index(rows: list[tuple]):
    """The numbers of rows (i, ...) in ascending order as an index: a run is
    a slice, a view; others a gather."""
    first, last = rows[0][0], rows[-1][0]
    return slice(first, last + 1) if last - first < len(rows) else np.array([r[0] for r in rows])


def _certified_sum(base, power: float, tail, starts, rel_tol: float, what,
                   rounded) -> list[tuple[float, float, int]]:
    """[(value, error_bound, N)] for the series sum_{n>=0} base(i, n)**power,
    one row i per entry of ``starts``.

    ``base(rows, n)`` returns the bases of the given rows (a slice or an
    int array of row numbers) at the indices n (a float array), one row
    each.  Each row sums its first N terms exactly (each _CHUNK's fsum kept
    with its own rounding error) and adds the midpoint of its remainder
    bracket tail(i, N), a pair (lo, hi), rounding the value once.  Its
    error bound is half the bracket width plus the terms' rounding: each
    base is within half an ulp of its exact value (exact unless
    rounded[i]), the power multiplies that relative error by |power| and
    pow adds one ulp, and the value adds half an ulp; a factor
    1 + (|power| + 4) u covers second-order terms.  N doubles from
    starts[i] until the bound certifies rel_tol; a subnormal value, which
    no N can certify, is reported as 0 with its upper end as the bound,
    and an infinite bracket stops the row at once.  ``what(i)`` names row
    i in a refusal.

    The rows that share a start and a rounding flag run in lockstep, in
    arrays of about _ROW_BLOCK terms, while their chunks are shorter than
    that, and each row stops at its own N.  Longer chunks take one row per
    array, so from there the rows finish one by one, in order, and a row
    that no N certifies is refused before the others run on to it.  Every
    operation on a term is elementwise and every sum is per row, so each
    row returns exactly what a call with that row alone returns.
    """
    out: list = [None] * len(starts)
    second_order = 1.0 + (abs(power) + 4) * _UNIT_ROUNDOFF
    # rounds to run, the next one last: (rows, terms summed, N, rounded),
    # a row being (i, [fsum, residual of each chunk], [rounding of each chunk])
    if len(starts) == 1:  # the common one-row call needs no grouping
        work = [([(0, [], [])], 0, starts[0], rounded[0])]
    else:
        groups: dict = {}
        for i, key in enumerate(zip(starts, rounded)):
            groups.setdefault(key, []).append((i, [], []))
        work = [(live, 0, N, scaled) for (N, scaled), live in reversed(groups.items())]
    while work:
        live, upto, N, scaled = work.pop()
        if len(live) > 1 and N - upto >= _ROW_BLOCK:
            # chunks this long take one row per array anyway: finish the rows
            # one by one, in order, so that a row no N certifies is refused
            # before the others are summed to _MAX_RADIUS as well
            work += [([row], upto, N, scaled) for row in reversed(live)]
            continue
        while upto < N:
            end = min(upto + _CHUNK, N)
            n = np.arange(upto, end, dtype=float)
            per = max(1, _ROW_BLOCK // (end - upto))  # rows per array
            for block in [live] if len(live) <= per else [
                    live[k:k + per] for k in range(0, len(live), per)]:
                b = base(_row_index(block), n)
                t = b ** power
                # one ulp of t, plus |power| times half an ulp of a rounded base
                # (relative); t * 0 + spacing(t) is spacing(t) for finite t
                allowance = np.spacing(t)
                if scaled:
                    allowance += t * (0.5 * abs(power) * np.spacing(b) / np.maximum(b, _TINY))
                for (_, parts, slop), chunk, ulps in zip(block, t.tolist(), allowance.tolist()):
                    c = math.fsum(chunk)
                    chunk.append(-c)
                    parts += (c, math.fsum(chunk) if math.isfinite(c) else 0.0)
                    slop.append(math.fsum(ulps))
            upto = end
        going = []
        for row in live:
            i, parts, slop = row
            lo, hi = tail(i, N)
            if not math.isfinite(hi):
                raise NumericalError(
                    f"{what(i)}: the tail bracket after {N} terms is not finite "
                    "(float overflow)"
                )
            value = 0.5 * math.fsum([*parts, *parts, lo, hi])
            if not math.isfinite(value):
                out[i] = (value, math.inf, N)
                continue
            floor = math.fsum(slop)
            rounding = floor + 0.5 * math.ulp(value)
            err = (0.5 * (hi - lo) + rounding) * second_order
            if err <= rel_tol * value:
                out[i] = (value, err, N)
            elif value < _TINY:
                # no relative precision left: 0, with the upper end as the bound
                out[i] = (0.0, value + err, N)
            # slop only grows with N, and an M that certifies has
            # floor <= err_M <= rel_tol * value_M <= rel_tol * (value + err) / (1 - rel_tol)
            elif floor * (1.0 - rel_tol) > rel_tol * (value + err):
                raise NumericalError(
                    f"{what(i)}: the rounding floor of the terms ({floor:.3g}) exceeds "
                    f"rel_tol={rel_tol} of the sum ({value:.6g}) after {N} terms, "
                    "so no number of terms certifies it; loosen rel_tol"
                )
            elif N >= _MAX_RADIUS:
                raise NumericalError(
                    f"{what(i)} did not certify rel_tol={rel_tol} within {N} terms; "
                    "loosen rel_tol (slowly decaying tails need it)"
                )
            else:
                going.append(row)
        if going:
            work.append((going, upto, 2 * N, scaled))
    return out


def _progression_sums(pot: Potential, l0s, step: int, p: float,
                      rel_tol: float) -> list[tuple[float, float, int]]:
    """[(value, error_bound, N)] for sum_{n>=0} Q(l0 + n*step)^p, one row per
    l0 in l0s, each certified to rel_tol.

    The direct part always clears the table, so the bracket applies to the
    rest.  Each Q(l) is taken as its exact value correctly rounded.
    """
    l0s, J = list(l0s), pot.table_end
    first = np.array(l0s, dtype=float)[:, None]  # exact: |l| < 2^53
    return _certified_sum(
        lambda rows, n: pot.Q(first[rows] + step * n), p,
        lambda i, N: _tail_bracket(pot, l0s[i] + N * step, step, p),
        [max(_START_RADIUS, (J - l0) // step + 1) for l0 in l0s],
        rel_tol, lambda i: f"series for p={p}", [True] * len(l0s))


def _progression_sum(pot: Potential, l0: int, step: int, p: float,
                     rel_tol: float) -> tuple[float, float, int]:
    """The one row of ``_progression_sums`` for l0."""
    return _progression_sums(pot, [l0], step, p, rel_tol)[0]


def _smallest_radius(fits, start: int, cap: int, failure: str) -> int:
    """Smallest R >= start with fits(R), for fits monotone in R.

    Doubles R from start (from 1 at start 0) until it fits, refusing with
    NumericalError(failure) once R would pass cap, then bisects between the
    last miss and the hit.
    """
    lo = hi = start
    while not fits(hi):
        lo, hi = hi, max(1, 2 * hi)
        if hi > cap:
            raise NumericalError(failure)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# closed forms for the built-in families
# ---------------------------------------------------------------------------


def _closed_power_sum(pot: Potential, p: float,
                      include_zero: bool) -> tuple[float, float] | None:
    """(value, error_bound) of the p-th power sum over Z (or Z without zero), if known.

    sos: 2 / (e^{p beta} - 1) off zero, with the error model of `fuzzy_Q`'s
    sos classes: the rounded x = p beta moves it by at most x u relative
    (plus u, since x / (1 - e^-x) < x + 1), the other steps by < 16 u;
    where 2 e^-x falls below the normal range, exp's one ulp, doubled, and
    the rounding of the bound itself take up to four subnormal ulps.
    log: 2 zeta(p beta, 2) off zero, with the certified error of
    ``hurwitz_zeta`` (zeta(s, 2) = zeta(s) - 1 has no cancellation).  On Z
    the term 1 adds one rounding.  Returns None for custom potentials.
    Callers rule out divergent sums first.
    """
    x = p * pot.beta
    if pot.kind == "sos":
        off = 2.0 / math.expm1(x) if x < 709 else 2.0 * math.exp(-x)
        err = off * ((x + 16) * _UNIT_ROUNDOFF) + 2.0**-1072
    elif pot.kind == "log":
        z, err = hurwitz_zeta(x, 2.0)
        off, err = 2.0 * z, 2.0 * err
    else:
        return None
    if include_zero:
        return (1.0 + off, err + _UNIT_ROUNDOFF * (1.0 + off))
    return (off, err)


def _nonzero_head(pot: Potential) -> np.ndarray:
    """U(1), ..., U(max(J, 1)) for the table end J: U increases beyond the
    table, so the least U(j), j != 0, is the least of these (U(1) for the
    built-ins)."""
    return pot.U(np.arange(1, max(pot.table_end, 1) + 1))


def _shifted(pot: Potential, u0: float) -> Potential:
    """The custom potential U - u0 off zero, with the tail model of pot.

    Its Q is Q e^(beta u0) off zero, so sums of far terms that underflow
    for pot come out scaled into the normal range.
    """
    kind, param, _, _ = pot._decay()
    return Potential("custom", pot.beta, tuple((_nonzero_head(pot) - u0).tolist()),
                     TailModel(kind, param))


def _pth_root(pot: Potential, power: float, p: float, rel_tol: float) -> float:
    """power ** (1/p), also when the power sum underflows.

    Only the sum over Z without zero can fall below the normal range (the
    sum over Z holds the term 1).  There the norm is M times the p-th root
    of the sum scaled by M^p, where M = Q(j0) = max_{j != 0} Q(j) and j0
    minimizes U over ``_nonzero_head``.  The scaled sum is the power sum of
    the custom potential U - U(j0) with the same tail, whose largest term
    is 1.  Its series certifies to s = p rel_tol / (1 + p rel_tol), which
    keeps (1 +- s)^(1/p) within 1 +- rel_tol, so a large p does not ask
    the sum for more than its root needs; an M that is itself 0 in
    float64 gives 0.

    A p too large for float64 is refused before summing: `_certified_sum`
    allows the term 1 an error (p + 2) u (1 + (p + 4) u), p half-ulps of its
    base for the pow plus one ulp of its own.  Once that reaches s (p u near
    0.6), the term 1 alone spends the budget, and every other term
    (Q(j)/M)^p is negligible unless its base is within ulps of 1, so no
    number of terms certifies the sum.
    """
    if power >= sys.float_info.min:
        return power ** (1.0 / p)
    s = p * rel_tol / (1.0 + p * rel_tol)
    allowance = (p + 2.0) * _UNIT_ROUNDOFF * (1.0 + (p + 4.0) * _UNIT_ROUNDOFF)
    if allowance >= s:
        raise NumericalError(f"the p={p} power sum cannot be certified in float64: the "
                             f"pow rounding {allowance:.3g} of its term 1 reaches s={s!r}")
    head = _nonzero_head(pot)
    j0 = int(np.argmin(head))
    arm, _, _ = _progression_sum(_shifted(pot, head[j0]), 1, 1, p, s)
    return pot.Q(j0 + 1) * (2.0 * arm) ** (1.0 / p)


# ---------------------------------------------------------------------------
# norm reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """A certified lp norm of the transfer operator on Z or Z without zero
    (``p_norm``), or of a class operator on Z_q or Z_q without zero
    (``FuzzyOperator.p_norm``).

    ``value`` is the norm itself.  ``tail_bound`` bounds the absolute error
    of the underlying p-th power sum (zero-width for closed forms up to
    float rounding).  ``witness`` explains an infinite value.
    """

    p: float
    domain: str
    value: float
    truncation_radius: int | None
    tail_bound: float
    method: str
    witness: str | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def _check_tol(name: str, tol: float) -> float:
    """``tol`` if positive and finite, else ConfigError: nan would end a
    bisection at once, 0 never certify a series, inf pass any iterate."""
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"{name} must be a positive finite float, got {tol!r}")
    return tol


def p_norm(
    pot: Potential,
    p: float,
    domain: str = DOMAIN_Z,
    rel_tol: float = _SERIES_TOL,
    cross_check: bool = True,
) -> NormReport:
    """Certified lp norm of Q on Z or Z without zero.

    For the built-in families the closed form is evaluated and, when
    ``cross_check`` is set, the adaptive series is run at ``rel_tol`` and the
    two are required to agree within the certified error.  Divergent series
    produce an infinite report carrying a witness, not an exception.  The
    norms on Z_q are those of a class operator, ``fuzzy_Q(pot, q).p_norm``,
    normalized or not.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    _check_tol("rel_tol", rel_tol)
    if domain not in (DOMAIN_Z, DOMAIN_Z_STAR):
        raise ConfigError(f"unknown domain {domain!r}")
    include_zero = domain == DOMAIN_Z

    witness = pot.divergence_witness(p)
    if witness:
        return NormReport(p, domain, math.inf, None, math.inf, "divergent", witness)

    closed = _closed_power_sum(pot, p, include_zero)
    run_series = closed is None or cross_check
    if run_series:
        arm, err, radius = _progression_sum(pot, 1, 1, p, rel_tol)
        series_sum = (1.0 if include_zero else 0.0) + 2.0 * arm
        # 2 * arm is exact; adding the zero term rounds once more, by at
        # most u * series_sum
        series_err = 2.0 * err + (_UNIT_ROUNDOFF * series_sum if include_zero else 0.0)
    if closed is not None:
        closed, closed_err = closed
        if run_series and abs(series_sum - closed) > 2.0 * (series_err + 1e-14 * closed):
            raise NumericalError(
                f"series/closed-form mismatch for p={p} on {domain}: "
                f"{series_sum!r} vs {closed!r}"
            )
        return NormReport(
            p,
            domain,
            _pth_root(pot, closed, p, rel_tol),
            radius if run_series else None,
            closed_err,
            "closed_form",
        )
    return NormReport(p, domain, _pth_root(pot, series_sum, p, rel_tol), radius,
                      series_err, "series")


def norm_pair(pot: Potential, d: int, pairing: str = "half", rel_tol: float = _SERIES_TOL,
              cross_check: bool = True) -> tuple[NormReport, NormReport]:
    """The (gamma, delta) norm pair driving good-set membership.

    pairing "half": gamma at p = (d+1)/2 on Z and delta at p = d+1 on Z
    without zero (localized Gibbs measures).  pairing "one": both at p = 1
    (the summability route to q-periodic gradient measures for every q).
    """
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if pairing == "half":
        pg, pd = (d + 1) / 2.0, float(d + 1)
    elif pairing == "one":
        pg, pd = 1.0, 1.0
    else:
        raise ConfigError(f"unknown pairing {pairing!r}, expected 'half' or 'one'")
    g = p_norm(pot, pg, DOMAIN_Z, rel_tol, cross_check=cross_check)
    dl = p_norm(pot, pd, DOMAIN_Z_STAR, rel_tol, cross_check=cross_check)
    return g, dl


# ---------------------------------------------------------------------------
# Hurwitz zeta with a certified bracket
# ---------------------------------------------------------------------------


def hurwitz_zeta(s: float, a: float, rel_tol: float = 1e-12) -> tuple[float, float]:
    """(value, error_bound) for zeta(s, a) = sum_{n>=0} (n+a)^(-s), s > 1, a > 0.

    The one row of ``_hurwitz_rows`` for a: direct summation of N terms
    plus the Euler-Maclaurin bracket of the remainder (``_power_tail``),
    through the engine's certified summation loop; N = 64 terms suffice for
    every s > 1 at the default tolerance.
    """
    try:
        s, a = float(s), float(a)
    except (TypeError, ValueError):
        raise ConfigError(f"hurwitz_zeta needs real s and a, got {s!r}, {a!r}") from None
    if s <= 1.0:
        raise ConfigError(f"hurwitz_zeta needs s > 1, got {s}")
    if a <= 0.0:
        raise ConfigError(f"hurwitz_zeta needs a > 0, got {a}")
    _check_tol("rel_tol", rel_tol)
    return _hurwitz_rows(s, [a], rel_tol)[0][:2]


def _hurwitz_rows(s: float, a: list[float], rel_tol: float,
                  step: float = 1.0) -> list[tuple[float, float, int]]:
    """[(value, error_bound, N)] for sum_{n>=0} (a_i + n step)^(-s), zeta(s,
    a_i) at step 1, one row per float a_i > 0, in one pass of
    ``_certified_sum``; s > 1 and rel_tol are checked by the caller."""
    shift = np.array(a)[:, None]
    # step n + a is exact for integral a and step, else rounded once
    return _certified_sum(
        lambda rows, n: step * n + shift[rows], -s,
        lambda i, N: _power_tail(0.0, step * N + a[i], s, step),
        [_START_RADIUS] * len(a), rel_tol,
        lambda i: f"hurwitz_zeta(s={s}, a={a[i] / step})", [not x.is_integer() for x in a])


# ---------------------------------------------------------------------------
# fuzzy (mod-q class sum) operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FuzzyOperator:
    """Class sums Q_q(jbar) = sum_{l = jbar mod q} Q(l) on Z_q.

    ``values[j]`` is the class of representatives congruent to j; the layout
    is symmetric, values[j] == values[q-j].  ``errors[j]`` bounds the
    absolute error of class j alone, so a class far below the zero class
    keeps its own relative precision.  ``normalized`` marks the version
    rescaled so that the zero class equals 1.
    """

    q: int
    values: np.ndarray
    errors: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.values.setflags(write=False)
        self.errors.setflags(write=False)

    def at(self, jbar: int) -> float:
        return float(self.values[jbar % self.q])

    def normalized_op(self) -> "FuzzyOperator":
        if self.normalized:
            return self
        b = _Bracket.around(self.values, self.errors)
        values = self.values / self.values[0]
        return FuzzyOperator(self.q, values, (b / _Bracket(b.lo[0], b.hi[0])).radius(values), True)

    def p_norm(self, p: float, without_zero: bool = False) -> NormReport:
        if p < 1:
            raise ConfigError(f"p must be >= 1, got {p}")
        v, e = self.values[int(without_zero):], self.errors[int(without_zero):]
        domain = DOMAIN_ZQ_STAR if without_zero else DOMAIN_ZQ
        if v.size == 0:
            return NormReport(p, domain, 0.0, None, 0.0, "finite_sum")
        power = math.fsum((v**p).tolist())
        if power >= sys.float_info.min:
            value = power ** (1.0 / p)
        else:
            # the power sum underflows: scale by the largest class, as
            # _pth_root does on Z (an M that is itself 0 gives 0)
            M = float(v.max())
            value = M * math.fsum(((v / M) ** p).tolist()) ** (1.0 / p) if M else 0.0
        # error propagation: class j is off by at most e[j]
        bound = p * math.fsum(((v + e) ** (p - 1) * e).tolist())
        return NormReport(p, domain, value, None, bound, "finite_sum")


def fuzzy_Q(pot: Potential, q: int, rel_tol: float = 1e-12) -> FuzzyOperator:
    """Residue-class sums of Q mod q, each class certified to rel_tol.

    Requires Q in l1(Z); otherwise raises NotSummableError since q-periodic
    boundary laws are undefined.  A q above the term cap _MAX_RADIUS is
    refused with NumericalError before anything is allocated.  sos classes are exact geometric sums, log
    classes evaluate as q^(-beta) (zeta(beta,(1+j)/q) + zeta(beta,(q+1-j)/q))
    from the certified Hurwitz rows (past a normal q^(-beta), as rows of
    (1 + r + nq)^(-beta)), and custom classes sum the same two arms as
    progressions.  Either way the q + 1 arms are the rows of one
    ``_certified_sum`` pass, each bit for bit the one-row sum of
    ``_hurwitz_rows`` or ``_progression_sums`` for it.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ConfigError(f"q must be a positive integer, got {q!r}")
    if q > _MAX_RADIUS:
        raise NumericalError(f"q={q} exceeds the cap of {_MAX_RADIUS} classes")
    q = int(q)
    _check_tol("rel_tol", rel_tol)
    witness = pot.divergence_witness(1.0)
    if witness:
        raise NotSummableError(
            f"transfer operator not in l1(Z) ({witness}); periodic boundary laws undefined",
            witness=witness,
        )

    if pot.kind == "sos":
        b = pot.beta
        if math.isinf(b * q):
            # only past b = 2.7e300 (q <= 2^26), where every e^{-bj}, j >= 1,
            # is 0: the classes are exactly (1, 0, ..., 0)
            return FuzzyOperator(q, np.eye(1, q)[0], np.zeros(q))
        j = np.arange(q, dtype=float)
        m = np.stack([j, q - j])  # class j holds the terms e^{-bj} and e^{-b(q-j)}
        denom = -math.expm1(-b * q)
        terms = np.exp(-b * m)
        values = (terms[0] + terms[1]) / denom
        # the zero class includes l = 0 once: (1 + e^{-bq})/(1 - e^{-bq}); a rounded
        # exponent b*m errs e^{-bm} by b*m*u relative, the other steps by < 16 u.
        # A term that is 0 in float had an exponent below -745, so e^{-bm} is
        # below one subnormal unit (and denom is 1): it adds that unit, not b*m*u
        reach = np.where(terms > 0.0, m, 0.0).max(axis=0)
        errors = (values * _UNIT_ROUNDOFF * (b * reach + 16)
                  + np.count_nonzero(terms == 0.0, axis=0) * math.ulp(0.0))
        return FuzzyOperator(q, values, errors)

    # arm r sums Q(r + nq) over n >= 0 for r = 0..q; class j joins the arm
    # l = j + nq and the mirrored arm |l| = (q-j) + nq
    scale = q ** (-pot.beta) if pot.kind == "log" else 1.0
    if pot.kind != "log":
        arms = _progression_sums(pot, range(q + 1), q, 1.0, rel_tol / 4)
    elif scale >= _TINY:
        # (1 + r + nq)^(-beta) summed over n is q^(-beta) zeta(beta, (1+r)/q)
        arms = _hurwitz_rows(pot.beta, [(1 + r) / q for r in range(q + 1)], rel_tol / 4)
    else:  # zeta(beta, 1/q) holds q^beta, which overflows or nearly so
        scale, arms = 1.0, _hurwitz_rows(pot.beta, [1.0 + r for r in range(q + 1)],
                                         rel_tol / 4, q)
    values = np.array([scale * (arms[j][0] + arms[q - j][0]) for j in range(q)])
    # the arms' errors, beta u relative for a rounded a = (1+r)/q (since
    # a zeta(s+1, a) <= zeta(s, a)) and 8 u for scale, the sum and the product
    errors = np.array([scale * (arms[j][1] + arms[q - j][1]) for j in range(q)])
    return FuzzyOperator(q, values, errors + (pot.beta + 8) * _UNIT_ROUNDOFF * values)


# ---------------------------------------------------------------------------
# double-sum summability condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleSumReport:
    """Verdict on sum_{i>=1} (sum_{j>=1} Qtilde(i j))^((d+1)/2).

    Qtilde(i) = sup_{|j| >= i} Q(j) is the monotone envelope.  verdict is
    "finite" (value carries the certified sum), "infinite" (witness explains
    which inner sum diverges), or "unknown": the certificate did not converge
    by outer_radius 2^15 (value is the last midpoint), or ``_certified_sum``
    refused an inner sum (witness is its message, the rest None).
    """

    d: int
    verdict: str
    value: float | None
    witness: str | None
    outer_radius: int | None = None


def check_double_sum(pot: Potential, d: int) -> DoubleSumReport:
    """Decide the double-sum condition controlling q-periodic measures for large q.

    The inner sums sum_{n>=0} Qtilde(i (n+1)), i <= I, are rows of
    ``_certified_sum`` to _SERIES_TOL; row i starts at max(_START_RADIUS,
    J // i + 1) terms, J the table end, so its remainder is a Q tail
    (``_tail_bracket``).  ``outer_tail_bracket`` bounds the sum over i > I.
    I starts at the least power of two >= 256 and >= J, where that bound
    holds, and doubles, summing only the new rows, until the bracket
    certifies _DOUBLE_SUM_TOL or I reaches 2^15.
    """
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    p = (d + 1) / 2.0
    witness = pot.divergence_witness(1.0)
    if witness:
        return DoubleSumReport(d, "infinite", math.inf,
                               f"inner sum diverges at i=1 ({witness})")
    try:
        env = _MonotoneEnvelope(pot)
        rows: list = []  # (value, error_bound, N) of the inner sums at i = 1, 2, ...
        I = max(256, 1 << max(env.J - 1, 0).bit_length())
        while True:
            first = len(rows) + 1
            i = np.arange(first, I + 1, dtype=float)[:, None]
            rows += _certified_sum(
                lambda sel, n: env(i[sel] * (n + 1)), 1.0,
                lambda k, N: _tail_bracket(pot, (first + k) * (N + 1), first + k, 1.0),
                [max(_START_RADIUS, env.J // m + 1) for m in range(first, I + 1)],
                _SERIES_TOL, lambda k: f"double-sum inner sum i={first + k}", [True] * len(i))
            value, err, _ = np.array(rows).T
            inner, tail = _Bracket.around(value, err) ** p, env.outer_tail_bracket(p, I)
            lo, hi = _outward(math.fsum([tail.lo, *inner.lo.tolist()]),
                              math.fsum([tail.hi, *inner.hi.tolist()]))
            mid = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * _DOUBLE_SUM_TOL * mid:
                return DoubleSumReport(d, "finite", mid, None, I)
            if I >= 1 << 15:
                return DoubleSumReport(d, "unknown", mid,
                                       "certificate did not converge within caps", I)
            I *= 2
    except NumericalError as e:
        return DoubleSumReport(d, "unknown", None, str(e), None)


class _MonotoneEnvelope:
    """Qtilde(m) = sup_{k >= m} Q(k), on float arrays of integers m >= 1: the
    suffix max over the table and Q(J + 1), and past the table end J, where
    the tail decreases, Q itself; and the outer tail's bracket, for I >= J."""

    def __init__(self, pot: Potential):
        self.pot = pot
        self.kind, self.expo, self.lq, self.J = pot._decay()
        self.suffix = np.maximum.accumulate(pot.Q(np.arange(self.J + 1, 0, -1)))[::-1]

    def __call__(self, m: np.ndarray) -> np.ndarray:
        out = self.pot.Q(m)
        inside = m <= self.J
        out[inside] = self.suffix[m[inside].astype(np.int64) - 1]
        return out

    def outer_tail_bracket(self, p: float, I: int) -> _Bracket:
        """Bracket of sum_{i>I} inner(i)^p from the analytic envelope."""
        if self.kind == "exp":
            r = self.pot.beta * self.expo
            # inner(i) <= e^{lq} e^{-r(i - J)} / (1 - e^{-r}), decaying in i
            logA = self.lq + r * self.J - _log1mexp(r)
            log_t = p * (logA - r * (I + 1)) - _log1mexp(p * r)
            return _Bracket(0.0, _exp(log_t))
        s = self.pot.beta * self.expo
        # C (1+ij)^{-s} <= C (ij)^{-s}: inner(i) <= C zeta(s) i^{-s}
        # and inner(i) >= C zeta(s) (1+i)^{-s} since 1 + ij <= (1+i) j;
        # the upper end of zeta(s) bounds from above, the lower from below
        logC = self.lq + s * math.log1p(self.J)
        zs, zerr = hurwitz_zeta(s, 1.0, 1e-10)
        ps = p * s
        upper = _power_tail(p * (logC + math.log(zs + zerr)), I + 1.0, ps, 1.0).hi
        lower = _power_tail(p * (logC + math.log(zs - zerr)), I + 2.0, ps, 1.0).lo
        return _Bracket(lower, upper)


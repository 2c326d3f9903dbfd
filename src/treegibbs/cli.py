"""Command-line front end for the library, and its only formatter.

The library returns arrays and reports; every CSV and JSON layout lives
here.  Every subcommand resolves a model, runs the matching library call,
and emits CSV (metadata comment block, value columns at 17 significant digits
plus a rounded 4-digit display column) or JSON (a "meta" object plus the
payload, keys sorted).  One table, `_FLAGS`, specifies every flag; each
subcommand takes only the flags its handler reads, and the metadata records
every value parsed (bar --out and the flags the run's mode leaves unread:
`goodset --gamma/--delta` reads no model flag, `simulate` tables read no
seed or replicate, and sampled paths no --n or --truncation) plus the
package and numpy versions, so equal flags reproduce byte-identical files.
`--truncation` is always the radius of the truncated law a command builds;
W_n tables take the window the library derives from that law.

Exit codes: 0 success, 2 configuration errors (including non-summable
operators), 3 numerical failures, 4 refusals outside the good set.  Module
errors print one machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .boundary_law import (
    MODE_AUTO,
    SUPPORT_TRUNCATED,
    _SOLVE_TOL,
    SolveConfig,
    periodic_solve,
    single_site_marginal,
    solve_fixed_point,
)
from .errors import (
    ConfigError,
    OutsideGoodSetError,
    TreeGibbsError,
)
from .ggm import fuzzy_chain, ggm_edge_marginal, increment_laws
from .goodset import _THRESHOLD_TOL, GoodSetQuery, beta_threshold, membership, norm_membership
from .pathsim import sample_path, wn_ggm_exact, wn_localized_exact
from .potentials import (
    DOMAIN_Z,
    _FAMILIES,
    _SERIES_TOL,
    _check_tol,
    fuzzy_Q,
    load_potential,
    norm_pair,
    p_norm,
)

__all__ = ["main"]

# phase-diagram refuses (beta, d) grids with more cells than this
_MAX_GRID_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _resolve_model(args):
    """Potential from --model/--beta; custom files carry their own beta."""
    spec = args.model
    if spec.startswith("custom:"):
        if args.beta is not None:
            raise ConfigError("custom model files fix beta; drop --beta")
        path = spec[len("custom:"):]
        try:
            return load_potential(path)
        except OSError as exc:
            raise ConfigError(f"cannot read model file {path}: {exc}") from None
    if spec not in _FAMILIES:
        raise ConfigError(
            f"unknown model {spec!r}, expected sos, log, or custom:<path>"
        )
    if args.beta is None:
        raise ConfigError(f"model {spec!r} needs --beta")
    return _FAMILIES[spec](args.beta)


def _parse_int_list(text: str) -> list[int]:
    try:
        items = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not items:
        raise ConfigError("empty integer list")
    return items


def _parse_beta_range(text: str, n_degrees: int) -> list[float]:
    """a, a+step, ... <= b, checked to fit the grid cap before it is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"expected numeric a:b:step, got {text!r}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise ConfigError(f"a, b and step must be finite in {text!r}")
    if step <= 0 or b < a:
        raise ConfigError(f"need a <= b and step > 0 in {text!r}")
    count = math.floor(min((b - a) / step + 1e-9, _MAX_GRID_CELLS)) + 1
    if count * n_degrees > _MAX_GRID_CELLS:
        raise ConfigError(
            f"{text!r} gives {(b - a) / step + 1:.6g} betas x {n_degrees} "
            f"degrees, above the cap of {_MAX_GRID_CELLS} grid cells")
    return [a + i * step for i in range(count)]


def _f17(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


def _f4(x) -> str:
    return "" if x is None else f"{float(x):.4g}"


# ---------------------------------------------------------------------------
# numeric columns
# ---------------------------------------------------------------------------

# A column kernel returns a uint8 matrix, one row per value, holding the
# bytes of the value's text left to right with _PAD in the unused cells;
# _csv_rows joins the matrices of a block and drops every _PAD at once.
_PAD = 0
# rows per block: at 2^16 a block's temporaries (about 30 MB for four
# columns) raised the peak RSS of a 1.5 M-row solve table from 310 to 336 MB
_BLOCK_ROWS = 1 << 14
# k range of the 10^k table: |v| in [1e-280, 1e280] needs k = P-1-e for
# e in [-281, 280] and P in {4, 17}; 10^299 still splits without overflow
_POW10_MIN, _POW10_MAX = -290, 299
_DEKKER = 134217729.0  # 2^27 + 1
_EXP_BIAS = 300  # suffix table index of exponent 0
_U = np.uint64
# SWAR constants: one byte lane per character of a little-endian word
_ZEROS = _U(0x3030303030303030)  # eight "0"
_HIGH_BITS = _U(0x8080808080808080)
_LOW_BITS = _U(0x7F7F7F7F7F7F7F7F)
_ALL = _U(0xFFFFFFFFFFFFFFFF)


def _split(a):
    """Dekker's split: a = hi + lo with each half on 26 bits."""
    c = _DEKKER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables() -> dict:
    """Lookup tables, built on the first float column.

    pow10: (hi1, hi2, lo) by k - _POW10_MIN, where hi = hi1 + hi2 is 10^k
    correctly rounded, split for Dekker's product, and lo is 10^k - hi
    correctly rounded, so hi + lo carries 10^k to about 2^-106.  Both come
    from exact int arithmetic: int-to-float and int / int round correctly
    in CPython.  suffix[e + _EXP_BIAS]: the exponent text "e-05" of the
    scientific layout; the fixed layout goes to format()."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            n = 10**k
            h = float(n)
            rest = float(n - int(h))
        else:
            m = 10**-k
            h = 1 / m
            num, den = h.as_integer_ratio()
            rest = (den - num * m) / (den * m)
        hi.append(h)
        lo.append(rest)
    return {
        "pow10": (*_split(np.array(hi)), np.array(lo)),
        "suffix": np.array([int.from_bytes(f"e{e:+03d}".encode(), "little")
                            for e in range(-_EXP_BIAS, _EXP_BIAS)], dtype=_U),
    }


def _bytes_set(t: np.ndarray) -> np.ndarray:
    """0xFF in each byte lane of t that is not zero, 0 elsewhere; each
    lane must hold at most 0x7F."""
    return (((t + _LOW_BITS) & _HIGH_BITS) >> _U(7)) * _U(0xFF)


def _digit_words(x: np.ndarray, words: int) -> np.ndarray:
    """(n, words) uint64: the 8 * words ASCII digits of each uint64
    x < 10^(8 * words), zero-padded, most significant in the lowest byte.

    Eight digits come from one word in lanes: 2 of 4 digits, 4 of 2, then
    8 of 1, dividing by 100 and 10 by multiply-and-shift (exact below 10^4
    and 10^2)."""
    out = np.empty((len(x), words), dtype=_U)
    for w in range(words - 1, -1, -1):
        q = x // _U(10**8)
        v = x - q * _U(10**8)
        x = q
        hi = v // _U(10000)
        v -= hi * _U(10000)
        v <<= _U(32)
        v |= hi
        q = v * _U(10486)
        q >>= _U(20)
        q &= _U(0x0000007F0000007F)
        v -= q * _U(100)
        v <<= _U(16)
        v |= q
        np.multiply(v, _U(103), out=q)
        q >>= _U(10)
        q &= _U(0x000F000F000F000F)
        v -= q * _U(10)
        v <<= _U(8)
        v |= q
        v |= _ZEROS
        out[:, w] = v
    return out


def _g_chars(values: np.ndarray, prec: int) -> np.ndarray:
    """Rows of the bytes of format(v, f".{prec}g") for each float v.

    The digits are N = round-half-even(|v| 10^k), k = prec-1-floor(log10|v|):
    |v| times the double-double 10^k is formed exactly by Dekker's
    TwoProduct, so y = |v| 10^k is known to about 1e-14 absolute.  Zeros
    and the scientific layout print natively.  A value goes to format()
    itself when it takes the fixed layout (-4 <= e < prec: a probability
    column holds at most 10^4 such entries), is not finite, lies outside
    [1e-280, 1e280], sits within 1e-9 of a rounding tie, or when floor(y)
    is outside [10^(prec-1), 10^prec) or N carries to 10^prec: a log10
    exponent off by one shows only there, as for the double nearest 1e-19,
    which lies below 10^-19."""
    tables = _tables()
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi1, hi2, lo = (t.take(prec - 1 - _POW10_MIN - e) for t in tables["pow10"])
    a1, a2 = _split(a)
    p = a * (hi1 + hi2)
    t = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    whole = np.floor(p)
    r = (p - whole) + t
    carry = np.floor(r)
    frac = r - carry
    floor_y = whole.astype(np.int64) + carry.astype(np.int64)
    n = floor_y + (frac > 0.5)
    scale = 10 ** (prec - 1)
    fast &= (floor_y >= scale) & (n < 10 * scale) & (np.abs(frac - 0.5) >= 1e-9)
    fast &= (e < -4) | (e >= prec)  # the scientific layout
    fast |= zero
    n[zero] = 0

    # words of 8 characters: sign, first digit, point | the prec-1 digits
    # after the first, right-aligned, trailing zeros dropped | exponent text
    first = n // scale
    rest = (n - first * scale).astype(_U)
    nrest = -(-(prec - 1) // 8)
    skip = 8 * nrest - (prec - 1)  # leading bytes of the rest words that are not digits
    field = np.empty((len(v), nrest + 2), dtype="<u8")
    head = np.signbit(v) * _U(ord("-"))
    head |= (first.astype(_U) + _U(ord("0"))) << _U(8)
    head |= (rest != 0) * _U(ord(".") << 16)
    field[:, 0] = head
    digits = _digit_words(rest, nrest)
    # a digit stays when a non-zero digit sits at it or after it
    nonzero = digits ^ _ZEROS
    keep = nonzero | (nonzero >> _U(8))
    keep |= keep >> _U(16)
    keep |= keep >> _U(32)
    keep = _bytes_set(keep)
    later = np.zeros(len(v), dtype=bool)
    for w in range(nrest - 1, -1, -1):
        keep[:, w] = np.where(later, _ALL, keep[:, w])
        later |= nonzero[:, w] != 0
    keep[:, 0] &= ~_U((1 << 8 * skip) - 1)
    field[:, 1:-1] = digits & keep
    field[:, -1] = tables["suffix"].take(e + _EXP_BIAS) * ~zero
    out = field.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        width = out.shape[1]
        text = "".join(format(x, f".{prec}g").ljust(width, chr(_PAD))
                       for x in v[slow].tolist())
        out[slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, width)
    return out


def _d_chars(values: np.ndarray) -> np.ndarray:
    """Rows of the bytes of str(i) for each integer i of an integer column."""
    v = np.asarray(values)
    if v.dtype.kind not in "iu":
        raise TypeError(f"integer column expected, got dtype {v.dtype}")
    negative = v < 0
    mag = v.astype(_U)
    np.negative(mag, out=mag, where=negative)  # two's complement: |int64 min| fits
    nwords = -(-len(str(int(mag.max()))) // 8) if len(v) else 1
    digits = _digit_words(mag, nwords)
    # a digit stays when a non-zero digit sits at it or before it; the
    # units digit always stays
    nonzero = digits ^ _ZEROS
    keep = nonzero | (nonzero << _U(8))
    keep |= keep << _U(16)
    keep |= keep << _U(32)
    keep = _bytes_set(keep)
    keep[:, -1] |= _U(0xFF << 56)
    earlier = np.zeros(len(v), dtype=bool)
    for w in range(nwords):
        keep[:, w] = np.where(earlier, _ALL, keep[:, w])
        earlier |= nonzero[:, w] != 0
    out = np.empty((len(v), 1 + 8 * nwords), dtype=np.uint8)
    np.multiply(negative, np.uint8(ord("-")), out=out[:, 0])
    out[:, 1:].view("<u8")[:] = digits & keep
    return out


_KERNELS = {
    "d": _d_chars,
    ".17g": functools.partial(_g_chars, prec=17),
    ".4g": functools.partial(_g_chars, prec=4),
}


def _csv_rows(*columns):
    """The lines of a table, printed by the kernels `_BLOCK_ROWS` rows at a
    time and yielded as one string of newline-joined lines per block.

    A column is (array, spec) with spec one of `_KERNELS`, printed as
    format(value, spec) would print it, or a str, printed on every row."""
    sizes = {len(c[0]) for c in columns if not isinstance(c, str)}
    if len(sizes) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(sizes)}")
    (size,) = sizes
    for start in range(0, size, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, size - start)
        fields = []
        for c in columns:
            if isinstance(c, str):
                text = np.frombuffer(c.encode("ascii"), np.uint8)
                fields.append(np.broadcast_to(text, (rows, len(text))))
            else:
                fields.append(_KERNELS[c[1]](c[0][start:start + rows]))
            fields.append(np.full((rows, 1), ord(","), np.uint8))
        fields[-1] = np.full((rows, 1), ord("\n"), np.uint8)
        block = bytearray(rows * sum(f.shape[1] for f in fields))
        np.concatenate(fields, axis=1, out=np.frombuffer(block, np.uint8).reshape(rows, -1))
        # translate deletes the padding in one pass, four times faster
        # than a boolean mask over the same matrix
        yield str(memoryview(block.translate(None, bytes([_PAD])))[:-1], "ascii")


class _Numbers(list):
    """The elements of a 1-d int or all-finite float array, which
    `_emit_json` prints itself: json prints each as its repr."""


def _jsonify(obj):
    """Recursively make obj JSON-safe; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # the element-wise path below would return these elements unchanged
        if obj.dtype.kind in "iu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return _Numbers(obj.tolist()) if obj.ndim == 1 and obj.size else obj.tolist()
        if obj.dtype.kind == "b":
            return obj.tolist()
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)[:4].strip("'")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _meta(args, unread=(), **extra) -> dict:
    """Versions plus every flag value the subcommand parsed, bar --out and
    the flags in ``unread``, which the run's mode does not read."""
    meta = {"version": __version__, "numpy": np.__version__}
    meta.update((k, v) for k, v in vars(args).items()
                if v is not None and k != "out" and k not in unread)
    meta.update(extra)
    return meta


def _meta_value(v):
    """A computed metadata value: booleans lower-case, floats at 17 digits."""
    if isinstance(v, bool):
        return str(v).lower()
    return _f17(v) if isinstance(v, float) else v


def _emit_csv(meta: dict, header: str, rows) -> str:
    """Every CSV the CLI prints: sorted `# key=value` metadata lines, the
    header, then the items of the iterable ``rows``, each one line or a
    block of newline-joined lines from `_csv_rows`.  A large table thus
    never exists as one list of row strings, and its text is copied once,
    into the result.

    Byte contract: a numeric field is exactly what Python prints for it,
    str(i) for an integer and format(x, ".17g") or format(x, ".4g") for a
    float, whether a row is formatted by hand, by the `_csv_rows` kernels,
    or by the format() call those kernels fall back to for the values
    they leave to it (the fixed layout, non-finite, |x| outside [1e-280,
    1e280], near a rounding tie, or a missed decimal exponent: see
    `_g_chars`)."""
    parts = [f"# {key}={meta[key]}" for key in sorted(meta)]
    parts.append(header)
    parts.extend(rows)
    parts.append("")
    return "\n".join(parts)


def _emit_json(meta: dict, payload: dict) -> str:
    """json.dumps(..., indent=2, sort_keys=True) of the payload, byte for
    byte.  With indent, json runs its pure-Python encoder, so each
    `_Numbers` list goes in as a placeholder string and its elements are
    spliced in as text: the reprs joined with the line break and indent of
    the placeholder's line plus two spaces, json's layout of a list."""
    numbers = []

    def hide(obj):
        if isinstance(obj, _Numbers):
            numbers.append(obj)
            return f"\0{len(numbers) - 1}"
        if isinstance(obj, dict):
            return {k: hide(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [hide(v) for v in obj]
        return obj

    text = json.dumps(hide(_jsonify({"meta": meta, **payload})), indent=2, sort_keys=True)
    pieces = text.split('"\\u0000')
    if len(pieces) != len(numbers) + 1:  # a string of the payload held a NUL
        return json.dumps(_jsonify({"meta": meta, **payload}),
                          indent=2, sort_keys=True) + "\n"
    out = [pieces[0]]
    for before, piece in zip(pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        indent = " " * (len(line) - len(line.lstrip(" ")))
        index, rest = piece.split('"', 1)
        out += ["[\n", indent, "  ", f",\n{indent}  ".join(map(repr, numbers[int(index)])),
                "\n", indent, "]", rest]
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _norm_payload(report) -> dict:
    return {
        "p": report.p,
        "domain": report.domain,
        "value": None if report.is_infinite else report.value,
        "infinite": report.is_infinite,
        "tail_bound": report.tail_bound,
        "method": report.method,
        "witness": report.witness,
    }


def cmd_norms(args) -> str:
    pot = _resolve_model(args)
    rel_tol = args.tol if args.tol is not None else _SERIES_TOL
    g, dl = norm_pair(pot, args.d, args.pairing, rel_tol=rel_tol)
    n1 = p_norm(pot, 1.0, DOMAIN_Z, rel_tol)
    notes = []
    if not g.is_infinite:
        notes.append("gamma finite: localized fixed-point regime available "
                     "(the q = infinity reading of the class construction)")
    else:
        notes.append("gamma infinite: no contraction certificate at this pairing")
    if n1.is_infinite:
        notes.append("norm_1 infinite: class sums diverge, no q-periodic "
                     "gradient measure exists for any q")
    else:
        notes.append("norm_1 finite: q-periodic construction available for every q")
    meta = _meta(args)
    if args.format == "json":
        return _emit_json(meta, {
            "gamma": _norm_payload(g),
            "delta": _norm_payload(dl),
            "norm_1": _norm_payload(n1),
            "notes": notes,
        })
    rows = []
    for name, rep in (("gamma", g), ("delta", dl), ("norm_1", n1)):
        rows.append(",".join([
            name, _f17(rep.p), rep.domain, _f17(rep.value), _f4(rep.value),
            _f17(rep.tail_bound), rep.method, rep.witness or "",
        ]))
    return _emit_csv(meta, "quantity,p,domain,value,display,tail_bound,method,witness", rows)


def cmd_goodset(args) -> str:
    if (args.gamma is None) != (args.delta is None):
        raise ConfigError("--gamma and --delta come together")
    if args.gamma is not None:
        verdict = membership(GoodSetQuery(args.d, args.gamma, args.delta))
    else:
        pot = _resolve_model(args)
        rel_tol = args.tol if args.tol is not None else _SERIES_TOL
        pair = norm_pair(pot, args.d, args.pairing, rel_tol=rel_tol)
        verdict = norm_membership(args.d, *pair)
    if args.gamma is not None:
        meta = _meta(args, ("model", "beta", "pairing", "tol"), source="explicit")
    else:
        meta = _meta(args, source="model")
    if args.format == "json":
        payload = dataclasses.asdict(verdict)
        payload["L"] = payload.pop("lipschitz")
        return _emit_json(meta, payload)
    row = ",".join([
        str(verdict.d), _f17(verdict.gamma), _f17(verdict.delta),
        str(verdict.in_good_set).lower(), _f17(verdict.epsilon),
        _f4(verdict.epsilon), _f17(verdict.lipschitz), _f4(verdict.lipschitz),
        verdict.reason,
    ])
    return _emit_csv(
        meta,
        "d,gamma,delta,in_good_set,epsilon,epsilon_display,L,L_display,reason",
        [row],
    )


def cmd_threshold(args) -> str:
    if args.model not in _FAMILIES:
        raise ConfigError("threshold needs a parametric family: sos or log")
    tol = args.tol if args.tol is not None else _THRESHOLD_TOL
    beta_star = beta_threshold(args.model, args.d, args.pairing, tol=tol)
    meta = _meta(args, tol_used=_f17(tol))
    if args.format == "json":
        return _emit_json(meta, {
            "model": args.model, "d": args.d, "pairing": args.pairing,
            "beta_star": beta_star, "display": _f4(beta_star),
        })
    row = ",".join([args.model, str(args.d), args.pairing,
                    _f17(beta_star), _f4(beta_star)])
    return _emit_csv(meta, "model,d,pairing,beta_star,display", [row])


def _report_fields(report) -> dict:
    return {k: v for k, v in dataclasses.asdict(report).items() if v is not None}


def _law_output(args, law, report) -> str:
    rep = _report_fields(report)
    if args.format == "json":
        return _emit_json(_meta(args), {
            "law": {
                "support": law.kind,
                "d": law.d,
                "radius": law.radius,
                "q": law.q,
                "indices": law.indices,
                "x": law.x,
                "lambda": law.lam,
                "marginal": single_site_marginal(law),
                "free_state": law.free_state,
            },
            "report": rep,
        })
    # flag values and report fields win over the keys read off the law
    size = "radius" if law.kind == SUPPORT_TRUNCATED else "q"
    derived = {"support": law.kind, "d": law.d, size: getattr(law, size)}
    meta = {**{k: _meta_value(v) for k, v in derived.items()}, **_meta(args),
            **{k: _meta_value(v) for k, v in rep.items()}}
    return _emit_csv(meta, "index,x,lambda,marginal", _csv_rows(
        (law.indices, "d"), (law.x, ".17g"), (law.lam, ".17g"),
        (single_site_marginal(law), ".17g")))


def cmd_solve(args) -> str:
    pot = _resolve_model(args)
    config = SolveConfig(radius=args.truncation,
                         tol=args.tol if args.tol is not None else _SOLVE_TOL)
    law, report = solve_fixed_point(pot, args.d, config)
    return _law_output(args, law, report)


def cmd_periodic(args) -> str:
    if args.q is None:
        raise ConfigError("periodic needs --q")
    pot = _resolve_model(args)
    config = SolveConfig(tol=args.tol if args.tol is not None else _SOLVE_TOL,
                         mode=MODE_AUTO)
    law, report = periodic_solve(pot, args.d, args.q, config)
    return _law_output(args, law, report)


def cmd_ggm(args) -> str:
    if args.q is None:
        raise ConfigError("ggm needs --q")
    pot = _resolve_model(args)
    config = SolveConfig(tol=args.tol if args.tol is not None else _SOLVE_TOL,
                         mode=MODE_AUTO)
    law, report = periodic_solve(pot, args.d, args.q, config)
    fc = fuzzy_chain(law, fuzzy_Q(pot, args.q))
    laws = increment_laws(pot, args.q, radius=args.truncation)
    window = max(inc.radius for inc in laws) + args.q
    marginal = ggm_edge_marginal(fc, laws, window)
    if args.format == "json":
        return _emit_json(_meta(args, window=window), {
            "alpha": fc.alpha,
            "P": fc.P,
            "certified": law.certified,
            "edge_marginal": {"k": np.arange(-window, window + 1),
                              "prob": marginal},
            "increment_laws": [
                {"residue": inc.residue, "support": inc.support,
                 "weights": inc.weights, "tail_mass_bound": inc.tail_mass_bound}
                for inc in laws
            ],
            "report": _report_fields(report),
        })
    meta = _meta(args, window=window, certified=_meta_value(law.certified),
                 alpha=";".join(_f17(a) for a in fc.alpha))
    return _emit_csv(meta, "k,prob,display", _csv_rows(
        (np.arange(-window, window + 1), "d"), (marginal, ".17g"), (marginal, ".4g")))


def cmd_simulate(args) -> str:
    pot = _resolve_model(args)
    # a sampled step would fold a truncated tail into its last point
    radius = args.truncation if args.sample_steps is None else None
    if args.q is not None:
        law, _ = periodic_solve(pot, args.d, args.q)
        fc = fuzzy_chain(law, fuzzy_Q(pot, args.q))
        source = (fc, increment_laws(pot, args.q, radius=radius))
        exact = functools.partial(wn_ggm_exact, *source)
    else:
        source, _ = solve_fixed_point(pot, args.d, SolveConfig(radius=radius))
        exact = functools.partial(wn_localized_exact, source)

    if args.sample_steps is not None:
        inc, states = sample_path(source, args.sample_steps,
                                  seed=args.seed, replicate=args.replicate)
        meta = _meta(args, ("n", "truncation"))
        if args.format == "json":
            return _emit_json(meta, {
                "increments": inc, "states": states, "total": int(inc.sum()),
            })
        # the class column is the walker state after each step: a height
        # for the localized chain, a class on Z_q for the fuzzy one
        return _emit_csv(meta, "step,increment,fuzzy_class", _csv_rows(
            (np.arange(1, len(inc) + 1), "d"), (inc, "d"), (states[1:], "d")))

    ns = _parse_int_list(args.n)
    dists = [exact(n) for n in ns]
    meta = _meta(args, ("seed", "replicate"))
    if args.format == "json":
        return _emit_json(meta, {"tables": [
            {"n": d.n, "window": d.window, "law": d.law,
             "leaked_mass": d.leaked_mass, "sup": d.sup(),
             **({"limit": d.limit} if d.limit is not None else {})}
            for d in dists
        ]})
    # the constant columns are formatted once per table
    return _emit_csv(meta, "n,k,prob,leaked_mass", itertools.chain.from_iterable(
        _csv_rows(str(d.n), (d.indices, "d"), (d.law, ".17g"), f"{d.leaked_mass:.17g}")
        for d in dists))


def cmd_phase_diagram(args) -> str:
    if args.model not in _FAMILIES:
        raise ConfigError("phase-diagram needs a parametric family: sos or log")
    make = _FAMILIES[args.model]
    ds = _parse_int_list(args.d_list)
    betas = _parse_beta_range(args.beta_range, len(ds))
    rel_tol = args.tol if args.tol is not None else _SERIES_TOL
    points = []
    for d in sorted(ds):
        for beta in betas:
            entry = {"model": args.model, "beta": beta, "d": d,
                     "gamma": None, "delta": None, "in_good_set": None,
                     "epsilon": None, "L": None, "reason": "", "error": ""}
            try:
                g, dl = norm_pair(make(beta), d, args.pairing, rel_tol=rel_tol,
                                  cross_check=False)
                entry["gamma"], entry["delta"] = g.value, dl.value
                v = norm_membership(d, g, dl)
                entry.update(in_good_set=v.in_good_set, epsilon=v.epsilon,
                             L=v.lipschitz, reason=v.reason)
            except TreeGibbsError as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            points.append(entry)
    meta = _meta(args, rows=len(points))
    if args.format == "json":
        return _emit_json(meta, {"points": points})
    rows = []
    for e in points:
        flag = "" if e["in_good_set"] is None else str(e["in_good_set"]).lower()
        rows.append(",".join([
            e["model"], _f17(e["beta"]), str(e["d"]), _f17(e["gamma"]),
            _f17(e["delta"]), flag, _f17(e["epsilon"]), _f17(e["L"]),
            e["reason"], e["error"].replace(",", ";"),
        ]))
    return _emit_csv(
        meta, "model,beta,d,gamma,delta,in_good_set,epsilon,L,reason,error", rows)


def cmd_table(args) -> str:
    if args.model not in _FAMILIES:
        raise ConfigError("table needs a parametric family: sos or log")
    ds = _parse_int_list(args.d)
    tol = args.tol if args.tol is not None else _THRESHOLD_TOL
    rows = []
    for d in sorted(ds):
        beta_star = beta_threshold(args.model, d, args.pairing, tol=tol)
        rows.append((d, beta_star))
    meta = _meta(args, tol_used=_f17(tol))
    if args.format == "json":
        return _emit_json(meta, {"rows": [
            {"model": args.model, "d": d, "beta_star": b, "display": _f4(b)}
            for d, b in rows
        ]})
    return _emit_csv(meta, "model,d,beta_star,display", [
        ",".join([args.model, str(d), _f17(b), _f4(b)]) for d, b in rows
    ])


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 as one JSON stderr line; no abbreviated flags
    (--beta would select --beta-range).  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _tolerance(text: str) -> float:
    """Type of --tol: the library's rule, a positive finite float."""
    try:
        return _check_tol("tolerance", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every flag of the CLI, keyed by its dest.  A subcommand takes the flags its
# handler reads (`_subcommand`), and `_meta` records what was parsed, so this
# table and the subcommand list below are the only record of the inputs.
_FLAGS = {
    "model": {"default": "sos", "help": "sos, log, or custom:<json path>"},
    "beta": {"type": float},
    "d": {"type": int, "default": 2},
    "pairing": {"choices": ("half", "one"), "default": "half"},
    "tol": {"type": _tolerance},
    "truncation": {"type": int, "help": "radius of the truncated boundary law "
                   "(solve, simulate) or increment laws (ggm, simulate --q); "
                   "default: the certified radius; sampled paths ignore it"},
    "q": {"type": int},
    "gamma": {"type": float},
    "delta": {"type": float},
    "n": {"default": "1,8,64",
          "help": "comma list of path lengths for exact tables"},
    "sample_steps": {"type": int, "help": "emit one sampled path instead"},
    "seed": {"type": int, "default": 0},
    "replicate": {"type": int, "default": 0},
    "beta_range": {"required": True, "help": "a:b:step"},
    "d_list": {"required": True, "help": "comma list of degrees"},
    "out": {"default": "-"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
}


def _default(tol: float) -> str:
    """' (default 1e-7)': the library default an unset --tol stands for."""
    return f" (default {tol:.0e})".replace("e-0", "e-")


_TOL_SERIES = {"help": "relative tolerance of the norm series" + _default(_SERIES_TOL)}
_TOL_BISECTION = {"help": "width of the beta bisection" + _default(_THRESHOLD_TOL)}
_TOL_SOLVE = {"help": "stopping tolerance of the solve" + _default(_SOLVE_TOL)}


def _subcommand(sub, name, summary, flags, **specs):
    """Add subcommand `name` taking --out, --format and the table's `flags`
    (space-separated dests); a keyword adds one more flag and overrides its
    table spec for this subcommand."""
    parser = sub.add_parser(name, help=summary)
    names = set(flags.split()) | set(specs) | {"out", "format"}
    for dest, spec in _FLAGS.items():
        if dest in names:
            parser.add_argument("--" + dest.replace("_", "-"), dest=dest,
                                **{**spec, **specs.get(dest, {})})


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treegibbs",
        description="Localized and q-periodic boundary laws for integer "
                    "gradient models on regular trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "norms", "certified norm pair and l1 norm",
                "model beta d pairing", tol=_TOL_SERIES)
    _subcommand(sub, "goodset", "good-set membership for a norm pair",
                "model beta d pairing gamma delta", tol=_TOL_SERIES)
    _subcommand(sub, "threshold", "smallest beta inside the good set",
                "model d pairing", tol=_TOL_BISECTION)
    _subcommand(sub, "solve", "certified truncated boundary law",
                "model beta d truncation", tol=_TOL_SOLVE)
    _subcommand(sub, "periodic", "q-periodic boundary law",
                "model beta d q", tol=_TOL_SOLVE)
    _subcommand(sub, "ggm", "fuzzy chain and edge increment marginal",
                "model beta d q truncation", tol=_TOL_SOLVE)
    _subcommand(sub, "simulate", "exact W_n tables or sampled paths",
                "model beta d truncation n sample_steps seed replicate",
                q={"help": "class count; omit for the localized chain"})
    _subcommand(sub, "phase-diagram", "membership over a (beta, d) grid",
                "model pairing beta_range d_list", tol=_TOL_SERIES)
    _subcommand(sub, "table", "threshold column over degrees",
                "model pairing", tol=_TOL_BISECTION,
                d={"type": str, "default": "2,3,6,7,100,1000",
                   "help": "comma list of degrees"})
    return parser


_HANDLERS = {
    "norms": cmd_norms,
    "goodset": cmd_goodset,
    "threshold": cmd_threshold,
    "solve": cmd_solve,
    "periodic": cmd_periodic,
    "ggm": cmd_ggm,
    "simulate": cmd_simulate,
    "phase-diagram": cmd_phase_diagram,
    "table": cmd_table,
}


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _write_out(args.out, _HANDLERS[args.command](args))
    except TreeGibbsError as exc:
        if isinstance(exc, OutsideGoodSetError):
            code = 4
        elif isinstance(exc, ConfigError):
            code = 2
        else:
            code = 3
        sys.stderr.write(json.dumps({"error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }}, sort_keys=True) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

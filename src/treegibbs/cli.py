"""Command-line front end for the library, and its only formatter.

The library returns arrays and reports; every CSV and JSON layout lives
here.  Every subcommand resolves a model, runs the matching library call,
and emits CSV (metadata comment block, value columns at 17 significant digits
plus a rounded 4-digit display column, written block by block once every
value is computed) or JSON (a "meta" object plus the payload, keys sorted,
as one string).  Every number is printed by Python's own formatting, on
one path with no fallback: a CSV field is str(i), format(x, ".17g") or
format(x, ".4g"), large tables going through one `%` template per block
of rows, and a JSON number is json's repr(x).  One table, `_FLAGS`,
specifies every flag; each subcommand takes only the flags its handler
reads, and the metadata records every value parsed (bar --out and the
flags the run's mode leaves unread: `goodset --gamma/--delta` reads no
model flag, `simulate` tables read no seed or replicate, and sampled paths
no --n or --truncation) plus the package and numpy versions, so equal
flags reproduce byte-identical files.
`--truncation` is always the radius of the truncated law a command builds;
W_n tables take the window the library derives from that law, and `ggm`
the least window whose certified leak is at most 1e-9, printed as `leak`.

Exit codes: 0 success, 1 a reader that closed stdout early (a broken pipe,
no traceback), 2 configuration errors (including non-summable operators),
3 numerical failures, 4 refusals outside the good set.  Module errors print
one machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

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
from .ggm import _edge_window, fuzzy_chain, ggm_edge_marginal, increment_laws
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

# rows per block: a block's values and text take about 3 MB at 2^14 rows.
# The 407 291-row ggm table of log beta = 2.6, q = 5 peaked at 38, 42 and
# 54 MB with 2^12, 2^14 and 2^16 rows per block, in 0.32 to 0.34 s each
# (2-core x86 host)
_BLOCK_ROWS = 1 << 14


def _csv_rows(*columns):
    """The lines of a table, printed `_BLOCK_ROWS` rows at a time and
    yielded as one string of newline-joined lines per block.

    A column is (array, spec) with spec "d", ".17g" or ".4g", printed by
    the `%` operator as format(value, spec) prints it, or a str, printed
    on every row.  One template covers a block: each block is one `%` over
    its columns' tolist() values, interleaved row by row."""
    sizes = {len(c[0]) for c in columns if not isinstance(c, str)}
    if len(sizes) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(sizes)}")
    (size,) = sizes
    arrays = [c[0] for c in columns if not isinstance(c, str)]
    row = ",".join(c.replace("%", "%%") if isinstance(c, str) else "%" + c[1]
                   for c in columns)
    for start in range(0, size, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, size - start)
        values = [None] * (rows * len(arrays))
        for i, a in enumerate(arrays):
            values[i::len(arrays)] = a[start:start + rows].tolist()
        yield "\n".join([row] * rows) % tuple(values)


def _jsonify(obj):
    """Recursively make obj JSON-safe; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # the element-wise path below would return these elements unchanged
        if obj.dtype.kind in "iub" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
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


def _emit_csv(meta: dict, header: str, rows) -> Iterator[str]:
    """Every CSV the CLI prints, as pieces written one by one: the sorted
    `# key=value` metadata lines with the header, then each item of the
    iterable ``rows`` (one line, or a block of lines from `_csv_rows`) and
    its line break.  So no string ever holds a large table, and the values
    a handler computed before it returned are the only work left.

    Byte contract: a numeric field is exactly what Python prints for it,
    str(i) for an integer and format(x, ".17g") or format(x, ".4g") for a
    float, whether a row is formatted by hand or by the `%` templates of
    `_csv_rows`, which print through the same conversions."""
    yield "".join(f"# {key}={meta[key]}\n" for key in sorted(meta)) + header + "\n"
    for row in rows:
        yield row
        yield "\n"


def _emit_json(meta: dict, payload: dict) -> list[str]:
    """[json.dumps(..., indent=2, sort_keys=True)] of the "meta" object
    and the payload, as one string: json prints every number as its repr."""
    return [json.dumps(_jsonify({"meta": meta, **payload}), indent=2, sort_keys=True) + "\n"]


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


def cmd_norms(args) -> Iterable[str]:
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


def cmd_goodset(args) -> Iterable[str]:
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


def cmd_threshold(args) -> Iterable[str]:
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


def _law_output(args, law, report) -> Iterable[str]:
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


def cmd_solve(args) -> Iterable[str]:
    pot = _resolve_model(args)
    config = SolveConfig(radius=args.truncation,
                         tol=args.tol if args.tol is not None else _SOLVE_TOL)
    law, report = solve_fixed_point(pot, args.d, config)
    return _law_output(args, law, report)


def cmd_periodic(args) -> Iterable[str]:
    if args.q is None:
        raise ConfigError("periodic needs --q")
    pot = _resolve_model(args)
    config = SolveConfig(tol=args.tol if args.tol is not None else _SOLVE_TOL,
                         mode=MODE_AUTO)
    law, report = periodic_solve(pot, args.d, args.q, config)
    return _law_output(args, law, report)


def cmd_ggm(args) -> Iterable[str]:
    if args.q is None:
        raise ConfigError("ggm needs --q")
    pot = _resolve_model(args)
    config = SolveConfig(tol=args.tol if args.tol is not None else _SOLVE_TOL,
                         mode=MODE_AUTO)
    law, report = periodic_solve(pot, args.d, args.q, config)
    fc = fuzzy_chain(law, fuzzy_Q(pot, args.q))
    laws = increment_laws(pot, args.q, radius=args.truncation)
    window, leak = _edge_window(fc, laws)
    marginal = ggm_edge_marginal(fc, laws, window)
    if args.format == "json":
        return _emit_json(_meta(args, window=window, leak=leak), {
            "alpha": fc.alpha,
            "P": fc.P,
            "certified": law.certified,
            "edge_marginal": {"k": np.arange(-window, window + 1),
                              "prob": marginal},
            "increment_laws": [_increment_law_fields(inc, window) for inc in laws],
            "report": _report_fields(report),
        })
    meta = _meta(args, window=window, leak=_meta_value(leak),
                 certified=_meta_value(law.certified),
                 alpha=";".join(_f17(a) for a in fc.alpha))
    return _emit_csv(meta, "k,prob,display", _csv_rows(
        (np.arange(-window, window + 1), "d"), (marginal, ".17g"), (marginal, ".4g")))


def _increment_law_fields(inc, window: int) -> dict:
    """One increment law as JSON prints it: its points with |j| <= window,
    their weights and the law's certified mass beyond the window."""
    j0, w = inc.clip(window)
    return {"residue": inc.residue, "support": np.arange(j0, j0 + w.size * inc.q, inc.q),
            "weights": w, "tail_mass_bound": inc.tail(window)}


def cmd_simulate(args) -> Iterable[str]:
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


def cmd_phase_diagram(args) -> Iterable[str]:
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


def cmd_table(args) -> Iterable[str]:
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


def _write_out(path: str, pieces: Iterable[str]) -> None:
    if path == "-":
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _write_out(args.out, _HANDLERS[args.command](args))
    except BrokenPipeError:  # the reader left: flush the rest to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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

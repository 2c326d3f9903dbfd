"""Span recorder for the traced benchmark run.

While a ``Tracer`` is active, every public function that carries a
per-layer metric is replaced, in each ``treegibbs.*`` namespace that holds
it, by a wrapper that records a span (name, start, end, parent).  Calls
between modules are therefore traced too, and a stage's self time is its
span's duration minus the time of its traced children.  The originals are
put back on exit, so untraced passes run the unmodified package.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# module -> public functions wrapped while tracing
TRACED = {
    "potentials": ("norm_pair", "fuzzy_Q", "hurwitz_zeta"),
    "goodset": ("beta_threshold", "membership"),
    "boundary_law": ("solve_fixed_point", "periodic_solve"),
    "ggm": ("increment_laws", "ggm_edge_marginal"),
    "pathsim": ("wn_ggm_exact", "wn_localized_exact", "sample_wn",
                "sample_path", "recover_period"),
    "cli": ("main",),
}

# a wn_ggm_exact call whose DP window is at most this wide counts as narrow
NARROW_WINDOW = 1024


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "facts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.facts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _facts(name, args, result) -> dict:
    """Size and certificate fields of one call, read from its arguments and result."""
    if name == "potentials.norm_pair":
        radii = [r.truncation_radius or 0 for r in result]
        return {"series_radius": max(radii)}
    if name == "boundary_law.solve_fixed_point":
        law, report = result
        return {"radius": law.radius, "iterations": report.iterations}
    if name == "boundary_law.periodic_solve":
        return {"iterations": result[1].iterations}
    if name == "ggm.increment_laws":
        return {"support_points": sum(len(law.support) for law in result)}
    if name == "pathsim.wn_ggm_exact":
        return {"window": result.window}
    if name == "pathsim.sample_wn":
        source, n, walkers = args[:3]
        kind = "class" if isinstance(source, (tuple, list)) else "height"
        return {"kind": kind, "walker_steps": n * walkers}
    if name == "cli.main":
        return {"command": args[0][0]}
    return {}


class Tracer:
    """Context manager that records spans around the traced functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.seconds
                self.spans.append(span)
            span.facts = _facts(name, args, result)
            return result

        return traced

    def __enter__(self):
        for module in TRACED:
            importlib.import_module(f"treegibbs.{module}")
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "treegibbs" or key.startswith("treegibbs.")]
        for module, names in TRACED.items():
            home = sys.modules[f"treegibbs.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False

    def layer_metrics(self) -> dict:
        """Per-layer metric values of the spans recorded so far."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        out = defaultdict(float)
        for span in self.spans:
            self_s[span.name] += span.self_s
            calls[span.name] += 1
            f = span.facts
            if span.name == "pathsim.wn_ggm_exact":
                key = "narrow" if f["window"] <= NARROW_WINDOW else "wide"
                out[f"pathsim.wn_ggm_exact_{key}_s"] += span.self_s
            elif span.name == "pathsim.sample_wn":
                out[f"pathsim.sample_wn_{f['kind']}_s"] += span.self_s
                out[f"walker_steps_{f['kind']}"] += f["walker_steps"]
            elif span.name == "cli.main":
                if span.parent is None:
                    out["cli.main_s"] += span.seconds
                if f["command"] == "ggm":
                    out["cli.ggm_emit_s"] += span.self_s
            elif span.name == "potentials.norm_pair":
                out["potentials.series_radius_max"] = max(
                    out["potentials.series_radius_max"], f["series_radius"])
            elif span.name == "boundary_law.solve_fixed_point":
                out["boundary_law.solve_radius"] = max(
                    out["boundary_law.solve_radius"], f["radius"])
            if "iterations" in f:
                out["boundary_law.solve_iterations"] += f["iterations"]
            if "support_points" in f:
                out["ggm.support_points"] += f["support_points"]
        for kind in ("height", "class"):
            steps = out.pop(f"walker_steps_{kind}", 0)
            spent = out[f"pathsim.sample_wn_{kind}_s"]
            out[f"pathsim.ns_per_walker_step_{kind}"] = spent / steps * 1e9 if steps else 0.0
        out.update({
            "potentials.norm_pair_s": self_s["potentials.norm_pair"],
            "potentials.fuzzy_Q_s": self_s["potentials.fuzzy_Q"],
            "potentials.hurwitz_zeta_s": self_s["potentials.hurwitz_zeta"],
            "potentials.hurwitz_zeta_calls": calls["potentials.hurwitz_zeta"],
            "goodset.beta_threshold_s": self_s["goodset.beta_threshold"],
            "goodset.membership_calls": calls["goodset.membership"],
            "boundary_law.solve_fixed_point_s": self_s["boundary_law.solve_fixed_point"],
            "boundary_law.periodic_solve_s": self_s["boundary_law.periodic_solve"],
            "ggm.increment_laws_s": self_s["ggm.increment_laws"],
            "ggm.edge_marginal_s": self_s["ggm.ggm_edge_marginal"],
            "pathsim.wn_localized_exact_s": self_s["pathsim.wn_localized_exact"],
            "pathsim.sample_path_s": self_s["pathsim.sample_path"],
            "pathsim.recover_period_s": self_s["pathsim.recover_period"],
        })
        return dict(out)

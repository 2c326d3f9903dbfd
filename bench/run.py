"""Benchmark of the treegibbs package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing installed beyond the
package's own dependencies, and imports the package from ``src/``.  One
client runs the workload's operations one after another (a closed loop, no
worker pool).  Lines starting with ``#`` report the machine, per-step
medians, sample counts, per-operation latency (cmd_p50_s, cmd_p90_s), the
failed ratio and, on path_laws, walker steps per second; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which the public functions of each layer
are wrapped by ``tracing.Tracer``, and reports the per-layer metrics plus
the tracing overhead.  ``--small`` shrinks every input; the smoke test
uses it.

The number of timed passes is ``round(seconds / SECONDS_PER_PASS)``, at
least one: it is fixed by ``--seconds`` and does not depend on how fast the
code under test is, so two commits are measured on equal samples.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# share of --seconds given to one pass: a run makes round(seconds / this)
# passes, a number that does not depend on the speed of the code measured
SECONDS_PER_PASS = {"cli_readme": 6.0, "certify": 5.0, "path_laws": 15.0}
# least number of fresh processes timed for setup_s and the start-up layers
PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.stdout_bytes": "count",
    "cli.ggm_emit_s": "s",
    "cli.ggm_rows": "count",
    "potentials.norm_pair_s": "s",
    "potentials.series_radius_max": "count",
    "potentials.fuzzy_Q_s": "s",
    "potentials.hurwitz_zeta_s": "s",
    "potentials.hurwitz_zeta_calls": "count",
    "goodset.beta_threshold_s": "s",
    "goodset.membership_calls": "count",
    "boundary_law.solve_fixed_point_s": "s",
    "boundary_law.periodic_solve_s": "s",
    "boundary_law.solve_radius": "count",
    "boundary_law.solve_iterations": "count",
    "ggm.increment_laws_s": "s",
    "ggm.edge_marginal_s": "s",
    "ggm.support_points": "count",
    "pathsim.wn_ggm_exact_wide_s": "s",
    "pathsim.wn_ggm_exact_narrow_s": "s",
    "pathsim.wn_localized_exact_s": "s",
    "pathsim.sample_wn_height_s": "s",
    "pathsim.sample_wn_class_s": "s",
    "pathsim.ns_per_walker_step_height": "ns",
    "pathsim.ns_per_walker_step_class": "ns",
    "pathsim.sample_path_s": "s",
    "pathsim.recover_period_s": "s",
    "trace.overhead_s": "s",
}


def say(text: str) -> None:
    print(f"# {text}", flush=True)


def machine_line() -> str:
    import mpmath
    import scipy

    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return (f"python {sys.version.split()[0]} numpy {np.__version__} "
            f"scipy {scipy.__version__} mpmath {mpmath.__version__} "
            f"nproc {os.cpu_count()} openblas_threads {threads}")


class Runner:
    """Runs passes of one workload, checks outputs, counts failures."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.fingerprints: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def _order(self, units, pass_no):
        """Seeded interleaving: every pass runs the units in a new order."""
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([self.seed, pass_no])))
        return [units[i] for i in rng.permutation(len(units))]

    def run_pass(self, pass_no: int):
        """One pass; returns (seconds in timed steps, [(step, seconds)], ctx)."""
        from workloads import CheckFailed

        def key(slot):  # Philox (seed, replicate) of one sampling call
            return self.seed, pass_no * 16 + slot

        units = self._order(self.w.units(key), pass_no)
        ctx: dict = {}
        times: list[tuple[str, float]] = []
        errors: dict[str, str] = {}
        steps = 0
        for unit in units:
            steps += len(unit)
            for step in unit:
                t0 = time.perf_counter()
                try:
                    result = step.run(ctx)
                except Exception:  # one failed operation must not end the run
                    errors[step.name] = traceback.format_exc(limit=-3)
                    skipped = unit[unit.index(step) + 1:]
                    errors.update({s.name: "not run: earlier step failed" for s in skipped})
                    break
                times.append((step.name, time.perf_counter() - t0))
                try:
                    fingerprint = step.check(result, ctx)
                except CheckFailed as exc:
                    errors[step.name] = str(exc)
                    continue
                except Exception:  # a malformed output fails its check
                    errors[step.name] = traceback.format_exc(limit=-3)
                    continue
                finally:
                    del result
                if fingerprint is not None and \
                        self.fingerprints.setdefault(step.name, fingerprint) != fingerprint:
                    errors[step.name] = "output differs from an earlier pass"
        try:
            errors.update(self.w.pass_checks(ctx))
        except Exception:  # a malformed output fails the cross-step check
            errors["checks across steps"] = traceback.format_exc(limit=-3)
        for name, err in errors.items():
            print(f"FAILED {name}: {err}", file=sys.stderr)
        self.attempted += steps
        self.failed += len(errors)
        return sum(t for _, t in times), times, ctx


def timed_child(argv) -> float:
    """Wall time of one fresh interpreter running argv, from spawn to exit."""
    from workloads import cli_env, run_child

    t0 = time.perf_counter()
    code, _, err, _ = run_child(argv, cli_env())
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"child {argv} exited {code}: {err.decode()[-500:]}")
    return elapsed


def setup_probe(args) -> float:
    """Wall time of one fresh process doing the workload's set-up."""
    if args.workload == "cli_readme":
        return timed_child(["-c", "import treegibbs.cli"])
    argv = [os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return timed_child(argv + (["--small"] if args.small else []))


def step_medians(passes) -> None:
    by_step: dict[str, list[float]] = {}
    for _, times, _ in passes:
        for name, t in times:
            by_step.setdefault(name, []).append(t)
    for name, ts in by_step.items():
        say(f"step {name!r}: median {statistics.median(ts):.4f} s (n={len(ts)})")


def measure(w, runner, n_passes, args) -> dict:
    # the speed of this shared machine drifts over tens of seconds, so one
    # set-up probe runs before every pass rather than all of them up front
    extra = 0 if args.small else max(0, PROBES - n_passes)
    setups = [setup_probe(args) for _ in range(extra)]
    w.setup()
    if w.warm_up_pass:
        runner.run_pass(0)
    passes = []
    for p in range(1, n_passes + 1):
        setups.append(setup_probe(args))
        passes.append(runner.run_pass(p))
    step_medians(passes)
    say("pass times: " + " ".join(f"{p[0]:.4f}" for p in passes))
    # per-operation latency is printed, not reported: on the in-process
    # workloads its median is a millisecond pure-Python step, whose time
    # swings with the load of the shared host far beyond any bound
    cmds = [t for _, times, _ in passes for _, t in times]
    p90 = statistics.quantiles(cmds, n=10)[-1]
    say(f"cmd_p50_s {statistics.median(cmds):.6g} s, cmd_p90_s {p90:.6g} s "
        f"over {len(cmds)} operations ({sum(t > p90 for t in cmds)} beyond p90)")
    if w.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = w.peak_child_rss_mb
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p[0] for p in passes),
        "peak_rss_mb": peak,
    }
    say(f"samples: setup_s {len(setups)}, pass_s {len(passes)}")
    walker = [t for _, times, _ in passes for name, t in times
              if name.startswith("sample_wn")]
    if walker:
        steps = len(walker) * w.sizes["walkers"] * w.sizes["walk_n"]
        say(f"walker_steps_per_s {steps / sum(walker):.6g} 1/s")
    return metrics


def trace(w, runner, n_passes, args) -> dict:
    import tracing

    interp, imports = [], []
    for _ in range(1 if args.small else PROBES):
        interp.append(timed_child(["-c", "pass"]))
        imports.append(timed_child(["-c", "import treegibbs.cli"]))
    w.subprocess = False  # spans can only be recorded in this process
    w.setup()
    if w.warm_up_pass:
        runner.run_pass(0)
    untraced, traced, layers = [], [], []
    for i in range(max(1, n_passes // 2)):
        untraced.append(runner.run_pass(2 * i + 1))
        with tracing.Tracer() as tracer:
            seconds, times, ctx = runner.run_pass(2 * i + 2)
        traced.append((seconds, times, ctx))
        found = tracer.layer_metrics()
        found["cli.stdout_bytes"] = ctx.get("stdout_bytes", 0)
        found["cli.ggm_rows"] = ctx.get("ggm_rows", 0)
        layers.append(found)
    step_medians(traced)
    metrics = {name: statistics.median(found.get(name, 0) for found in layers)
               for name in PER_LAYER}
    metrics["cli.interp_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(imports) - metrics["cli.interp_s"]
    metrics["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                   - statistics.median(p[0] for p in untraced))
    say(f"samples: {len(traced)} traced and {len(untraced)} untraced passes, "
        f"{len(interp)} start-up probes each")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_readme", "certify", "path_laws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every input (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up and exit (timed by the parent)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "treegibbs", "__init__.py")):
        print(f"error: no treegibbs package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    w = workloads.WORKLOADS[args.workload](args.small)
    if args.setup_only:
        w.setup()
        return 0

    n_passes = max(1, round(args.seconds / SECONDS_PER_PASS[args.workload]))
    say(f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"passes {n_passes}{' small' if args.small else ''}")
    say(machine_line())
    workdir = tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT)
    w.workdir = workdir
    try:
        runner = Runner(w, args.seed)
        if args.trace:
            metrics, units = trace(w, runner, n_passes, args), PER_LAYER
        else:
            metrics, units = measure(w, runner, n_passes, args), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    say(f"failed_ratio {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} operations)")
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        value = int(value) if unit == "count" else float(value)
        say(f"{name} {value} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

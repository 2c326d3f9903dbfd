"""The benchmark's workloads: fixed operation lists, their inputs and checks.

A workload is a list of units; a unit is a short list of steps that share
intermediate results (for example a sampled path and the period test run on
it).  The runner times each step's ``run`` and calls its ``check`` outside
the timed span.  A check raises ``CheckFailed`` or returns a fingerprint of
a deterministic result, which the runner requires to be the same in every
pass of one run; ``None`` means the result is random and not compared.

Each workload is built so that one family of optimisations does nearly all
of its work there and almost none in the others:

* ``cli_readme``: the README commands as fresh processes.  Interpreter
  start-up and imports dominate, and the kernels run at their smallest
  sizes, so lazy imports show here and so does a rewrite that slows small
  inputs.
* ``certify``: norms, thresholds and the two solvers in-process.  The tail
  engine and the fixed-point solvers do the work; ``ggm`` and ``pathsim``
  never run.
* ``path_laws``: increment laws, the edge marginal, exact and sampled W_n
  laws, period recovery and one large ``ggm`` CSV.  Marginals, the exact DP
  and the samplers do the work; certification takes milliseconds.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Step:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], object]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "norms --model sos --beta 2.5 --d 2",
    "goodset --d 2 --gamma 1.5 --delta 0.05",
    "threshold --model sos --d 2",
    "table --model sos --d 2,3,6,7,100,1000",
    "solve --model sos --beta 2.5 --d 2 --format json",
    "periodic --model sos --beta 2 --d 2 --q 2",
    "ggm --model sos --beta 2 --d 2 --q 2",
    "simulate --model sos --beta 2 --d 2 --q 2 --n 1,8,64",
    "simulate --model sos --beta 2 --d 2 --q 2 --sample-steps 1000 --seed 7",
    "phase-diagram --model sos --beta-range 1.5:2.5:0.25 --d-list 2,3",
)


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def cli_env() -> dict:
    """Environment of child interpreters: the package from src/, bytecode cached.

    An installed CLI starts from cached bytecode, so children may write it
    even where the caller's environment turns that off.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run a child interpreter to completion; (code, stdout, stderr, rss_mb)."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


def _cli_in_process(argv) -> CliResult:
    from treegibbs import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


def _data_rows(text: bytes) -> list[str]:
    lines = [ln for ln in text.decode().splitlines() if ln and not ln.startswith("#")]
    return lines[1:]


class Workload:
    """Defaults shared by the workloads."""

    # run one untimed pass first, to fill bytecode caches and lazy set-up
    warm_up_pass = True
    # directory for files the workload writes, inside the checkout
    workdir = None

    def setup(self):
        pass

    def pass_checks(self, ctx) -> dict:
        """Checks across the steps of one pass: step name -> error."""
        return {}


class CliReadme(Workload):
    """The ten README commands, run one after another."""

    name = "cli_readme"
    in_process = False

    def __init__(self, small: bool):
        self.env = cli_env()
        self.peak_child_rss_mb = 0.0
        self.subprocess = True

    def _runner(self, argv):
        def run(ctx):
            if not self.subprocess:
                return _cli_in_process(argv)
            code, out, err, rss = run_child(["-m", "treegibbs.cli", *argv], self.env)
            self.peak_child_rss_mb = max(self.peak_child_rss_mb, rss)
            return CliResult(code, out, err)
        return run

    def _check(self, command):
        def check(res, ctx):
            _require(res.code == 0, f"exit code {res.code}: {res.stderr[-300:]!r}")
            _require(not res.stderr, f"unexpected stderr {res.stderr[-300:]!r}")
            _require(bool(res.stdout), "empty stdout")
            ctx.setdefault("outputs", {})[command] = res.stdout
            ctx["stdout_bytes"] = ctx.get("stdout_bytes", 0) + len(res.stdout)
            if command.startswith("ggm"):
                ctx["ggm_rows"] = ctx.get("ggm_rows", 0) + len(_data_rows(res.stdout))
            return hashlib.sha256(res.stdout).hexdigest()
        return check

    def units(self, key):
        return [[Step(cmd, self._runner(cmd.split()), self._check(cmd))]
                for cmd in README_COMMANDS]

    def pass_checks(self, ctx) -> dict:
        """threshold's beta* must equal the d=2 row of table."""
        outputs = ctx.get("outputs", {})
        thr, table = README_COMMANDS[2], README_COMMANDS[3]
        if thr not in outputs or table not in outputs:
            return {}
        beta_thr = _data_rows(outputs[thr])[0].split(",")[3]
        rows = [r.split(",") for r in _data_rows(outputs[table])]
        beta_tab = next((r[2] for r in rows if r[1] == "2"), None)
        if beta_thr != beta_tab:
            return {thr: f"threshold beta* {beta_thr} != table d=2 row {beta_tab}"}
        return {}


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# beta* of the threshold table in the paper; a result must match to the
# last printed digit (the tolerance of acceptance criterion 01)
THRESHOLD_TABLE = {
    "sos": {2: 1.997, 3: 1.321, 6: 0.7240, 7: 0.637195217087,
            100: 0.06946, 1000: 9.238e-3},
    "log": {2: 2.908, 3: 1.930, 6: 1.057, 7: 0.9297, 100: 0.1005,
            1000: 0.01334},
}

CERTIFY_SIZES = {
    False: dict(
        norm_pairs=(("sos", 2.5), ("log", 2.6), ("log", 1.0), ("log", 0.9)),
        fuzzy=("log", 2.6, 256),
        degrees=(2, 3, 6, 7, 100, 1000),
        solves=(("sos", 2.5), ("log", 3.0)),
        periodic=(("sos", 3.0, 256), ("log", 2.6, 5)),
    ),
    True: dict(
        norm_pairs=(("sos", 2.5), ("log", 2.6)),
        fuzzy=("log", 2.6, 16),
        degrees=(2, 3),
        solves=(("sos", 2.5), ("log", 4.0)),
        periodic=(("sos", 3.0, 16), ("log", 2.6, 5)),
    ),
}


def _potential(family, beta):
    from treegibbs import potentials

    return potentials.sos(beta) if family == "sos" else potentials.log_potential(beta)


class Certify(Workload):
    """Norm pairs, class sums, thresholds and both solvers, in-process."""

    name = "certify"
    in_process = True

    def __init__(self, small: bool):
        self.sizes = CERTIFY_SIZES[small]

    def setup(self):
        import treegibbs  # noqa: F401  (the set-up is the import)

    def units(self, key):
        from treegibbs import boundary_law, goodset, potentials

        s = self.sizes
        steps = []
        for family, beta in s["norm_pairs"]:
            steps.append(Step(f"norm_pair {family} {beta}",
                              _on_potential(potentials, "norm_pair", family, beta, 2),
                              _check_norm_pair))
        family, beta, q = s["fuzzy"]
        steps.append(Step(f"fuzzy_Q {family} {beta} q={q}",
                          _on_potential(potentials, "fuzzy_Q", family, beta, q),
                          _check_fuzzy))
        for family in ("sos", "log"):
            for d in s["degrees"]:
                steps.append(Step(
                    f"beta_threshold {family} d={d}",
                    lambda ctx, family=family, d=d: goodset.beta_threshold(family, d, tol=1e-7),
                    partial(_check_threshold, family, d)))
        for family, beta in s["solves"]:
            steps.append(Step(f"solve_fixed_point {family} {beta}",
                              _on_potential(boundary_law, "solve_fixed_point", family, beta, 2),
                              _check_solve))
        auto = boundary_law.SolveConfig(mode=boundary_law.MODE_AUTO)
        for family, beta, q in s["periodic"]:
            steps.append(Step(f"periodic_solve {family} {beta} q={q}",
                              _on_potential(boundary_law, "periodic_solve", family, beta, 2,
                                            q, auto),
                              _check_periodic))
        return [[step] for step in steps]


def _on_potential(module, name, family, beta, *args):
    """Step calling module.name(potential, *args) on a potential built at run time.

    The function is looked up at call time, so the traced run calls the
    wrapped one.
    """
    def run(ctx):
        return getattr(module, name)(_potential(family, beta), *args)
    return run


def _check_norm_pair(res, ctx):
    _require(all(math.isfinite(r.value) and r.value > 0 for r in res), "non-finite norm pair")
    return tuple((r.value, r.truncation_radius) for r in res)


def _check_fuzzy(res, ctx):
    v = res.values
    _require(bool(np.all(v > 0)) and np.array_equal(v[1:], v[1:][::-1]),
             "class sums not positive and symmetric")
    return _digest(v)


def _check_threshold(family, d, res, ctx):
    ref = THRESHOLD_TABLE[family][d]
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 3)
    _require(abs(res - ref) <= unit, f"beta* {res} vs table {ref}")
    return res


def _check_solve(res, ctx):
    law, report = res
    _require(report.certified and law.certified, "solve not certified")
    return _digest(law.x)


def _check_periodic(res, ctx):
    lam = res[0].lam
    _require(float(np.ptp(lam)) > 1e-9 * float(lam.max()), "periodic law is constant")
    return _digest(lam)


# ---------------------------------------------------------------------------
# path_laws
# ---------------------------------------------------------------------------

PATH_SIZES = {
    False: dict(edge=("log", 2.6, 5), narrow=(("sos", 2.0, 2), 1024),
                wide=(("log", 4.0, 2), 32), localized=(("sos", 2.5), 1024),
                walkers=1_000_000, walk_n=32, path_steps=200_000, ggm_beta="3.0"),
    True: dict(edge=("log", 4.0, 3), narrow=(("sos", 2.0, 2), 64),
               wide=(("log", 4.0, 2), 2), localized=(("sos", 2.5), 64),
               walkers=20_000, walk_n=8, path_steps=50_000, ggm_beta="5.0"),
}


def _check_sampled(w, exact) -> None:
    """Per-k agreement within 5 standard errors (acceptance criterion 08)."""
    N = len(w)
    K = exact.window
    _require(bool(np.all(np.abs(w) <= K)), "sample outside the exact window")
    freq = np.bincount((w + K).astype(np.int64), minlength=2 * K + 1) / N
    p = np.asarray(exact.law)
    keep = p >= 1e-5
    bound = 5.0 * np.sqrt(p * (1.0 - p) / N)
    bad = np.nonzero(keep & (np.abs(freq - p) > bound))[0]
    _require(bad.size == 0, f"sampled W_n off by > 5 SE at k = {(bad - K)[:5].tolist()}")


def _check_symmetric(nu, block=1 << 20) -> None:
    """nu(k) == nu(-k) to rounding, scanned in blocks to keep memory flat."""
    n = len(nu)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        a = nu[lo:hi]
        b = nu[n - hi:n - lo][::-1]
        _require(bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b))),
                 "edge marginal is not symmetric")


class PathLaws(Workload):
    """Increment laws, edge marginal, exact and sampled W_n, period recovery."""

    name = "path_laws"
    in_process = True
    # a pass takes over ten seconds, and set-up already runs most code paths
    warm_up_pass = False

    def __init__(self, small: bool):
        self.sizes = PATH_SIZES[small]

    def _chain(self, family, beta, q):
        from treegibbs import boundary_law, ggm, potentials

        pot = _potential(family, beta)
        config = boundary_law.SolveConfig(mode=boundary_law.MODE_AUTO)
        law, _ = boundary_law.periodic_solve(pot, 2, q, config)
        return pot, ggm.fuzzy_chain(law, potentials.fuzzy_Q(pot, q))

    def setup(self):
        """Solve every law the pass reads, and the exact references of the checks."""
        from treegibbs import boundary_law, ggm, pathsim

        s = self.sizes
        self.edge = self._chain(*s["edge"])
        (spec, _), (wspec, _) = s["narrow"], s["wide"]
        self.narrow_pot, fc = self._chain(*spec)
        self.narrow = (fc, ggm.increment_laws(self.narrow_pot, spec[2]))
        pot, fc = self._chain(*wspec)
        self.wide = (fc, ggm.increment_laws(pot, wspec[2]))
        family, beta = s["localized"][0]
        self.localized, _ = boundary_law.solve_fixed_point(_potential(family, beta), 2)
        n = s["walk_n"]
        self.ref_height = pathsim.wn_localized_exact(self.localized, n)
        self.ref_class = pathsim.wn_ggm_exact(*self.narrow, n)

    def units(self, key):
        from treegibbs import ggm, pathsim

        s = self.sizes
        units = []
        (family, beta, q), (pot, fc) = s["edge"], self.edge

        def run_laws(ctx):
            return ggm.increment_laws(pot, q)

        def keep_laws(res, ctx):
            ctx["laws"] = res
            return _digest(*[law.weights for law in res])

        def run_marginal(ctx):
            laws = ctx["laws"]
            ctx["window"] = max(law.radius for law in laws) + q
            return ggm.ggm_edge_marginal(fc, laws, ctx["window"])

        def check_marginal(nu, ctx):
            del ctx["laws"]
            _require(len(nu) == 2 * ctx["window"] + 1, "marginal has the wrong length")
            deficit = 1.0 - float(np.sum(nu))
            _require(abs(deficit) <= 1e-9, f"edge-marginal deficit {deficit:.3g}")
            _check_symmetric(nu)
            return _digest(nu)
        units.append([Step(f"increment_laws {family} {beta} q={q}", run_laws, keep_laws),
                      Step(f"ggm_edge_marginal {family} {beta} q={q}", run_marginal,
                           check_marginal)])

        for label, (chain, n) in (("narrow", (self.narrow, s["narrow"][1])),
                                  ("wide", (self.wide, s["wide"][1]))):
            def run(ctx, chain=chain, n=n):
                return pathsim.wn_ggm_exact(*chain, n)

            def check(res, ctx):
                return _digest(res.law)
            units.append([Step(f"wn_ggm_exact {label} n={n}", run, check)])

        n_loc = s["localized"][1]

        def run_loc(ctx):
            return pathsim.wn_localized_exact(self.localized, n_loc)

        def check_loc(res, ctx):
            return _digest(res.law)
        units.append([Step(f"wn_localized_exact n={n_loc}", run_loc, check_loc)])

        walk_n, walkers = s["walk_n"], s["walkers"]
        for slot, (label, source, ref) in enumerate((
                ("height", self.localized, self.ref_height),
                ("class", self.narrow, self.ref_class))):
            def run(ctx, source=source, slot=slot):
                seed, replicate = key(slot)
                return pathsim.sample_wn(source, walk_n, walkers, seed=seed,
                                         replicate=replicate)

            def check(w, ctx, ref=ref):
                _check_sampled(w, ref)
            units.append([Step(f"sample_wn {label}", run, check)])

        steps = s["path_steps"]

        def run_path(ctx):
            seed, replicate = key(2)
            return pathsim.sample_path(self.narrow, steps, seed=seed, replicate=replicate)

        def keep_path(res, ctx):
            ctx["increments"] = res[0]

        def run_recover(ctx):
            return pathsim.recover_period(ctx.pop("increments"), [1, 2, 3, 4], 2,
                                          self.narrow_pot)

        def check_recover(reports, ctx):
            periods = [r.minimal_period for r in reports]
            _require(all(p == 2 for p in periods), f"minimal periods {periods}")
        units.append([Step(f"sample_path {steps}", run_path, keep_path),
                      Step("recover_period", run_recover, check_recover)])

        argv = ["ggm", "--model", "log", "--beta", s["ggm_beta"], "--q", "5",
                "--out", os.path.join(self.workdir, "ggm.csv")]

        def run_cli(ctx):
            return _cli_in_process(argv)

        def check_cli(res, ctx):
            _require(res.code == 0, f"exit code {res.code}: {res.stderr[-300:]!r}")
            path = argv[-1]
            h = hashlib.sha256()
            rows = window = 0
            with open(path, "rb") as fh:
                for line in fh:
                    h.update(line)
                    if line.startswith(b"# window="):
                        window = int(line[len(b"# window="):])
                    elif not line.startswith(b"#"):
                        rows += 1
            size = os.path.getsize(path)
            os.remove(path)
            rows -= 1  # header
            _require(rows == 2 * window + 1, f"{rows} CSV rows for window {window}")
            ctx["stdout_bytes"] = ctx.get("stdout_bytes", 0) + size
            ctx["ggm_rows"] = ctx.get("ggm_rows", 0) + rows
            return h.hexdigest()
        units.append([Step(f"cli ggm log {s['ggm_beta']} q=5", run_cli, check_cli)])
        return units


WORKLOADS = {w.name: w for w in (CliReadme, Certify, PathLaws)}

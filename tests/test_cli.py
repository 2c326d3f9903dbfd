"""Tests for the command line interface.

Each subcommand is driven through ``main(argv)`` so the tests exercise the
real argument parsing, dispatch, formatting, and exit-code paths.  Output is
captured with capsys; file output goes through tmp_path.
"""

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import treegibbs
from treegibbs import cli, ggm, potentials
from treegibbs.boundary_law import (
    MODE_AUTO,
    BoundaryLaw,
    SolveConfig,
    SolveReport,
    periodic_solve,
    single_site_marginal,
    solve_fixed_point,
)
from treegibbs.cli import _build_parser, main
from treegibbs.errors import ConfigError
from treegibbs.ggm import fuzzy_chain, increment_laws
from treegibbs.pathsim import sample_path, wn_ggm_exact, wn_localized_exact
from treegibbs.potentials import fuzzy_Q, sos

BETA_STAR_SOS_D2 = 1.996589869260788
BETA_STAR_SOS_D3 = 1.3211449086666107
Q2_LAM_B20 = 0.18361737639648509
GOODSET_EPS = 0.05444665782200293
GOODSET_L = 0.3272728346416149


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split a CSV emission into (meta dict, header, data rows)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        elif header is None:
            header = line
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


class TestNorms:
    def test_sos_json_structure(self, capsys):
        code, out, err = run(capsys, "norms", "--model", "sos", "--beta",
                             "2.5", "--d", "2", "--format", "json")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert set(obj) == {"gamma", "delta", "norm_1", "notes", "meta"}
        assert obj["gamma"]["p"] == 1.5
        assert obj["delta"]["domain"] == "Z_without_zero"
        assert not obj["gamma"]["infinite"]
        assert obj["gamma"]["value"] == pytest.approx(1.031859771415085,
                                                      rel=1e-12)
        assert obj["meta"]["command"] == "norms"
        assert obj["meta"]["beta"] == 2.5

    def test_infinite_norm_reported_not_raised(self, capsys):
        code, out, _ = run(capsys, "norms", "--model", "log", "--beta",
                           "0.5", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma"]["infinite"] is True
        assert obj["gamma"]["value"] is None
        assert "0.75" in obj["gamma"]["witness"]
        assert any("no q-periodic" in note for note in obj["notes"])

    @pytest.mark.parametrize("beta,d", [("2", "30"), ("3", "25")])
    def test_log_large_exponent_closed_form(self, capsys, beta, d):
        # p*beta = 62 and 78: the closed form zeta(p beta) - 1 once lost
        # digits to cancellation and the series cross-check exited 3
        code, out, err = run(capsys, "norms", "--model", "log", "--beta", beta,
                             "--d", d)
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["gamma", "delta", "norm_1"]

    @pytest.mark.parametrize("model,row,leading", [
        ("log", "delta,1001,Z_without_zero,0.25017317363198882,0.2502,"
                "6.3240402667679558e-322,closed_form,", 0.25),
        # 2 e^-2002 flushes to 0; its bound is four subnormal ulps
        ("sos", "delta,1001,Z_without_zero,0.13542902924674999,0.1354,"
                "1.9762625833649862e-323,closed_form,", math.exp(-2.0)),
        # the scaled sum's rounding floor (1.1e-9) is above 1e-10 of it, but
        # its p-th root is known to 1e-10
        ("sos", "delta,10000001,Z_without_zero,0.13533529261733909,0.1353,"
                "1.9762625833649862e-323,closed_form,", math.exp(-2.0)),
    ])
    def test_underflowing_power_sum_keeps_its_root(self, capsys, model, row, leading):
        # the p = d + 1 power sum (about 2^-2p, e^-2p) is 0 in float64;
        # the norm is Q(1) (2 (1 + tiny))^(1/p)
        p = int(row.split(",")[1])
        code, out, err = run(capsys, "norms", "--model", model, "--beta", "2",
                             "--d", str(p - 1))
        assert code == 0 and err == ""
        assert out.splitlines()[-2] == row
        value = float(row.split(",")[3])
        assert value == pytest.approx(leading * 2.0 ** (1 / p), rel=1e-15)

    @pytest.mark.parametrize("beta,table,value", [
        # a custom copy of sos at beta 2: the sos row's value, from the series
        (2.0, [[1, 1.0]], "0.13542902924674999"),
        # the largest term Q(2) = 2^-2 sits inside the table
        (2.0, [[1, 5.0], [2, math.log(2.0)], [3, 3.0]], "0.25017317363198882"),
        # Q(1) = e^-800 is 0 in float64, and so is the norm
        (1.0, [[1, 800.0]], "0"),
    ])
    def test_underflowing_custom_power_sum_keeps_its_root(self, capsys, tmp_path,
                                                          beta, table, value):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "custom", "beta": beta, "table": table,
                                    "tail": {"type": "exp", "rate": 1.0}}))
        code, out, err = run(capsys, "norms", "--model", f"custom:{path}", "--d", "1000")
        assert code == 0 and err == ""
        row = out.splitlines()[-2].split(",")
        assert row[:2] == ["delta", "1001"] and row[3] == value and row[6] == "series"

    def test_csv_has_display_column(self, capsys):
        code, out, _ = run(capsys, "norms", "--model", "sos", "--beta",
                           "2.5", "--d", "2")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header.split(",")[:4] == ["quantity", "p", "domain", "value"]
        assert meta["command"] == "norms"
        names = [r[0] for r in rows]
        assert names == ["gamma", "delta", "norm_1"]


class TestGoodset:
    def test_explicit_pair_matches_reference(self, capsys):
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "1.5",
                           "--delta", "0.05", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["in_good_set"] is True
        assert obj["epsilon"] == pytest.approx(GOODSET_EPS, rel=1e-10)
        assert obj["L"] == pytest.approx(GOODSET_L, rel=1e-10)
        assert obj["reason"] == "ok"

    def test_model_derived_pair(self, capsys):
        code, out, _ = run(capsys, "goodset", "--model", "sos", "--beta",
                           "2.5", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["in_good_set"] is True
        assert obj["gamma"] == pytest.approx(1.031859771415085, rel=1e-12)

    def test_infinite_norm_is_a_verdict_row(self, capsys):
        # log beta=0.5 at d=2: p*beta = 0.75 <= 1, so gamma diverges
        code, out, err = run(capsys, "goodset", "--model", "log", "--beta",
                             "0.5", "--d", "2")
        assert code == 0 and err == ""
        meta, _, rows = parse_csv(out)
        assert meta["source"] == "model"
        assert rows == [["2", "inf", "1.4774021106059929", "false", "", "", "",
                         "", "norm_infinite"]]

    def test_explicit_infinite_gamma_has_no_epsilon(self, capsys):
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "inf",
                           "--delta", "0.1")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows == [["2", "inf", "0.10000000000000001", "false", "", "", "",
                         "", "no_epsilon_exists"]]

    def test_epsilon_wider_than_the_bisection_width(self, capsys):
        # near epsilon ~ 1e6 an ulp (1.2e-10) exceeds the width 1e-13 and
        # the bisection once ran forever
        code, out, err = run(capsys, "goodset", "--d", "2", "--gamma", "1e-10",
                             "--delta", "1e6")
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert rows[0][3] == "false"
        assert rows[0][8] == "gamma_out_of_domain_flag"
        assert math.isfinite(float(rows[0][4]))

    @pytest.mark.parametrize("gamma,delta", [("1e-300", "1e-300"), ("1e-320", "0")])
    def test_pair_outside_float_range_rejected(self, capsys, gamma, delta):
        # eps*^d overflows: once an OverflowError traceback, and for
        # 1/(d*gamma) = inf a bisection that never ended
        code, out, err = run(capsys, "goodset", "--d", "2", "--gamma", gamma,
                             "--delta", delta)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("d,gamma,delta", [
        # eps* = 5e-15 and 5e-44 lie below the absolute bisection width
        # 1e-13; the bisection used to return eps* itself, where L = 2
        ("2", "1e14", "1e-30"), ("8", "1e300", "0")])
    def test_epsilon_below_the_absolute_width(self, capsys, d, gamma, delta):
        code, out, err = run(capsys, "goodset", "--d", d, "--gamma", gamma,
                             "--delta", delta)
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert rows[0][3] == "true" and rows[0][8] == "ok"
        eps, L = float(rows[0][4]), float(rows[0][6])
        g, dl, n = float(gamma), float(delta), int(d)
        assert 0.0 < eps and dl + g * eps**n <= eps  # the ball inequality
        # the least root, to the relative width 1e-11 (with delta = 0, the
        # least positive float)
        assert eps <= dl * (1.0 + 1e-11) if dl > 0.0 else eps == 5e-324
        assert L == pytest.approx(2 * n * (g * eps ** (n - 1) + dl * eps**n), rel=1e-15)
        assert L < 1e-15

    @pytest.mark.parametrize("args", [["--gamma", "1e308", "--delta", "0"],
                                      ["--d", "8", "--gamma", "1e308", "--delta", "0"]])
    def test_overflowing_d_gamma_rejected(self, capsys, args):
        # d * gamma = inf made eps* = 0, and the verdict was true with epsilon 0
        code, out, err = run(capsys, "goodset", *args)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert "outside float64 range" in error["message"]

    def test_gamma_without_delta_rejected(self, capsys):
        code, _, err = run(capsys, "goodset", "--d", "2", "--gamma", "1.5")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "1.5",
                           "--delta", "0.05")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header.startswith("d,gamma,delta,in_good_set")
        assert len(rows) == 1
        assert rows[0][3] == "true"
        assert float(rows[0][4]) == pytest.approx(GOODSET_EPS, rel=1e-10)


class TestThreshold:
    def test_sos_d2_value(self, capsys):
        code, out, _ = run(capsys, "threshold", "--model", "sos", "--d", "2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["beta_star"] == pytest.approx(BETA_STAR_SOS_D2, abs=1e-6)
        assert obj["display"] == "1.997"

    @pytest.mark.parametrize("model,d,row", [
        ("sos", "10000000", "sos,10000000,half,1.8179416656494141e-06,1.818e-06"),
        ("log", "1000000000", "log,1000000000,half,4.4703483581542969e-08,4.47e-08"),
    ])
    def test_huge_degree(self, capsys, model, d, row):
        # the delta series at p = d + 1 once stopped on its rounding floor
        code, out, err = run(capsys, "threshold", "--model", model, "--d", d)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == row

    @pytest.mark.parametrize("d", ["10000000000000000", "100000000000000000"])
    def test_degree_beyond_float64_refuses_before_summing(self, capsys, monkeypatch, d):
        # p u >= 1: these once doubled the delta series to 2^26 terms first
        sums = []
        monkeypatch.setattr(potentials, "_progression_sum",
                            lambda *args: sums.append(args))
        code, out, err = run(capsys, "threshold", "--model", "log", "--d", d)
        assert code == 3 and out == "" and sums == []
        (line,) = err.splitlines()
        assert "cannot be certified in float64" in json.loads(line)["error"]["message"]

    @pytest.mark.parametrize("command", ["threshold", "table"])
    def test_tol_below_the_float_spacing(self, capsys, command):
        # the bisection once ran forever at widths no float bracket reaches
        def beta_star(tol):
            code, out, _ = run(capsys, command, "--model", "sos", "--d", "2",
                               "--tol", tol, "--format", "json")
            assert code == 0
            obj = json.loads(out)
            return obj["rows"][0]["beta_star"] if command == "table" else obj["beta_star"]

        want = beta_star("1e-15")
        assert abs(beta_star("1e-17") - want) <= 4 * math.ulp(want)

    def test_custom_model_rejected(self, capsys):
        code, _, err = run(capsys, "threshold", "--model", "custom:x.json",
                           "--d", "2")
        assert code == 2
        assert "sos or log" in json.loads(err)["error"]["message"]


class TestSolve:
    def test_csv_law(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "sos", "--beta",
                           "2.5", "--d", "2")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "index,x,lambda,marginal"
        assert meta["support"] == "Z_truncated"
        assert meta["certified"] == "true"
        assert float(meta["final_residual"]) < 1e-12
        center = {int(r[0]): float(r[2]) for r in rows}
        assert center[0] == max(center.values())
        assert math.fsum(float(r[3]) for r in rows) == pytest.approx(1.0)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "sos", "--beta",
                           "2.5", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["law"]["support"] == "Z_truncated"
        assert obj["report"]["certified"] is True
        assert obj["report"]["final_residual"] < 1e-12
        assert obj["report"]["lipschitz"] < 1.0

    def test_outside_good_set_exits_4(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "sos", "--beta",
                           "1.0", "--d", "2")
        assert code == 4
        payload = json.loads(err)["error"]
        assert payload["type"] == "OutsideGoodSetError"
        assert payload["exit_code"] == 4

    def test_infinite_norm_exits_4(self, capsys):
        code, out, err = run(capsys, "solve", "--model", "log", "--beta",
                             "0.5", "--d", "2")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == {
            "type": "OutsideGoodSetError",
            "message": "outside good set - no contraction certificate "
                       "(a norm is infinite: p*beta = 0.75 <= 1)",
            "exit_code": 4,
        }


class TestPeriodic:
    def test_q2_lambda(self, capsys):
        code, out, _ = run(capsys, "periodic", "--model", "sos", "--beta",
                           "2", "--d", "2", "--q", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["law"]["support"] == "Z_q"
        assert obj["law"]["lambda"][1] == pytest.approx(Q2_LAM_B20, rel=1e-9)
        assert obj["law"]["free_state"] is False

    def test_small_offzero_norm_stays_in_its_ball(self, capsys):
        # x(1) ~ sech 8 + sech^3 8 = 6.7093e-4 lies within 1e-13 of eps; an
        # off-zero sum taken with the zero slot's 1 kept its 4th power
        # x(1)^4 ~ 2e-13 to 1.2e-4 relative and refused the ball (exit 3)
        code, out, _ = run(capsys, "periodic", "--model", "sos", "--beta", "8",
                           "--d", "3", "--q", "2")
        assert code == 0
        assert parse_csv(out)[0]["certified"] == "true"

    def test_missing_q_rejected(self, capsys):
        code, _, err = run(capsys, "periodic", "--model", "sos", "--beta",
                           "2", "--d", "2")
        assert code == 2
        assert "--q" in json.loads(err)["error"]["message"]


# what the printed ggm rows' own rounding may add to their deficit past the
# printed leak, which bounds the mass nu leaves outside the window
_ROW_ROUNDING = 1e-15


class TestGgm:
    def test_table_is_written_block_by_block(self, monkeypatch, tmp_path):
        # no string holds the whole table: the metadata lines and header,
        # then each block of rows and its line break are written one by one
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        argv = ["ggm", "--model", "log", "--beta", "3.0", "--d", "2", "--q", "3"]
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        text = sys.stdout.getvalue()
        _, _, rows = parse_csv(text)
        blocks = -(-len(rows) // cli._BLOCK_ROWS)
        assert blocks >= 3 and len(writes) == 1 + 2 * blocks
        assert max(writes) < len(text) / 2
        path = tmp_path / "ggm.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("argv", [
        ("--model", "log", "--beta", "3.0", "--q", "5"),
        ("--model", "sos", "--beta", "2", "--d", "2", "--q", "2"),
    ], ids=["log3", "readme"])
    def test_printed_leak_bounds_the_rows_on_the_least_window(self, capsys, monkeypatch, argv):
        chains = []
        least = cli._edge_window
        monkeypatch.setattr(cli, "_edge_window",
                            lambda fc, laws: chains.append((fc, laws)) or least(fc, laws))
        code, out, _ = run(capsys, "ggm", *argv)
        assert code == 0
        meta, _, rows = parse_csv(out)
        window, leak = int(meta["window"]), float(meta["leak"])
        assert len(rows) == 2 * window + 1 and leak <= 1e-9
        # the leak is the mass nu leaves outside the window; the rows' own
        # rounding (class masses, Q, the step law and the products) moves
        # their exact sum by about 1e-16 more (1.7e-17 past it at sos 2)
        deficit = math.fsum([1.0] + [-float(row[1]) for row in rows])
        assert deficit <= leak + _ROW_ROUNDING
        ((fc, laws),) = chains
        steps = ggm._class_step_law(fc)
        assert ggm._edge_leak(steps, laws, window) == leak
        assert ggm._edge_leak(steps, laws, window - 1) > 1e-9
        code, out, _ = run(capsys, "ggm", *argv, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["meta"]["leak"] == leak and obj["meta"]["window"] == window
        assert obj["edge_marginal"]["k"] == list(range(-window, window + 1))
        for entry, law in zip(obj["increment_laws"], laws, strict=True):
            inside = np.abs(law.support) <= window
            assert entry["support"] == law.support[inside].tolist()
            assert entry["weights"] == law.weights[inside].tolist()
            assert entry["tail_mass_bound"] == law.tail(window)

    def test_class_step_law_is_summed_once(self, capsys, monkeypatch):
        # the window search and the marginal share one pass of q exactly
        # rounded sums: the step law is summed once per chain
        passes, fsum, step_law = [], math.fsum, ggm._class_step_law.__code__

        def counting(terms):
            frame = sys._getframe(1)
            # before Python 3.12 the list comprehension has its own frame
            if step_law in (frame.f_code, frame.f_back.f_code):
                passes.append(len(terms))
            return fsum(terms)
        monkeypatch.setattr(math, "fsum", counting)
        code, _, _ = run(capsys, "ggm", "--model", "sos", "--beta", "2", "--d", "2", "--q", "3")
        assert code == 0
        assert passes == [3, 3, 3]

    def test_chain_and_marginal(self, capsys):
        code, out, _ = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                           "--d", "2", "--q", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        alpha = obj["alpha"]
        assert alpha[0] == pytest.approx(0.92705801471841087, rel=1e-9)
        assert alpha[1] == pytest.approx(0.072941985281589156, rel=1e-8)
        rows = obj["P"]
        for row in rows:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
        marg = obj["edge_marginal"]
        ks = marg["k"]
        assert ks[0] == -ks[-1] < 0
        at0 = marg["prob"][ks.index(0)]
        assert at0 == pytest.approx(0.88085050613045436, rel=1e-9)

    def test_not_summable_exits_2(self, capsys):
        code, _, err = run(capsys, "ggm", "--model", "log", "--beta", "0.9",
                           "--d", "2", "--q", "2")
        assert code == 2
        payload = json.loads(err)["error"]
        assert payload["type"] == "NotSummableError"
        assert "l1" in payload["message"]


class TestSimulate:
    def test_exact_tables_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta",
                           "2", "--d", "2", "--q", "2", "--n", "1,8")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "n,k,prob,leaked_mass"
        ns = {int(r[0]) for r in rows}
        assert ns == {1, 8}
        mass = math.fsum(float(r[2]) for r in rows if r[0] == "1")
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_exact_tables_json_localized(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta",
                           "2.5", "--d", "2", "--n", "1,4", "--format",
                           "json")
        assert code == 0
        obj = json.loads(out)
        tables = obj["tables"]
        assert [t["n"] for t in tables] == [1, 4]
        assert tables[0]["limit"] is not None
        assert tables[0]["sup"] > tables[1]["sup"] > 0

    def test_sampled_path_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta",
                           "2", "--d", "2", "--q", "2", "--sample-steps",
                           "40", "--seed", "7")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "step,increment,fuzzy_class"
        assert len(rows) == 40
        assert meta["seed"] == "7"
        assert all(r[2] in ("0", "1") for r in rows)

    def test_byte_identical_given_seed(self, capsys):
        argv = ("simulate", "--model", "sos", "--beta", "2", "--d", "2",
                "--q", "2", "--sample-steps", "60", "--seed", "11")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_replicate_changes_stream(self, capsys):
        base = ("simulate", "--model", "sos", "--beta", "2", "--d", "2",
                "--q", "2", "--sample-steps", "60", "--seed", "11")
        _, first, _ = run(capsys, *base)
        _, second, _ = run(capsys, *base, "--replicate", "1")
        assert first != second

    def test_fft_path_prints_no_negative_prob(self, capsys):
        # the log 4 window is wide enough for FFT convolutions, whose
        # rounding left entries near -1e-16 before the law was clipped
        code, out, _ = run(capsys, "simulate", "--model", "log", "--beta", "4",
                           "--d", "2", "--q", "2", "--n", "32")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == "n,k,prob,leaked_mass"
        assert len(rows) > 2048
        assert not any(r[2].startswith("-") for r in rows)

    def test_truncation_too_small_exits_2(self, capsys):
        # --truncation is the boundary-law radius, refused as `solve` refuses it
        argv = ("--model", "sos", "--beta", "2.5", "--d", "2", "--truncation", "3")
        code, _, err = run(capsys, "simulate", *argv, "--n", "8")
        assert code == 2
        assert err == run(capsys, "solve", *argv)[2]
        assert json.loads(err)["error"]["message"] == (
            "radius 3 leaves a truncated tail of 5.72e-05 > tol 1e-12")

    @pytest.mark.parametrize("radius", [1, 3, 30])
    def test_class_tables_truncate_the_increment_laws(self, capsys, radius):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta", "2",
                           "--d", "2", "--q", "2", "--n", "8",
                           "--truncation", str(radius), "--format", "json")
        assert code == 0
        fc, _ = _ggm_chain(2.0, 2)
        dist = wn_ggm_exact(fc, increment_laws(sos(2.0), 2, radius=radius), 8)
        (table,) = json.loads(out)["tables"]
        assert table["window"] == dist.window
        assert table["law"] == dist.law.tolist()
        assert table["leaked_mass"] == dist.leaked_mass

    def test_localized_tables_truncate_the_boundary_law(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta", "2.5",
                           "--d", "2", "--n", "8", "--truncation", "30",
                           "--format", "json")
        assert code == 0
        law, _ = solve_fixed_point(sos(2.5), 2, SolveConfig(radius=30))
        dist = wn_localized_exact(law, 8)
        (table,) = json.loads(out)["tables"]
        assert table["window"] == dist.window == 60
        assert table["law"] == dist.law.tolist()
        assert table["limit"] == dist.limit.tolist()
        assert table["leaked_mass"] == dist.leaked_mass

    def test_heavy_tail_table_with_truncated_increments(self, capsys):
        # the default window of the untruncated log 2.6 laws is 4 686 508;
        # the radius-200 laws give a window of 328, and their truncation is
        # reported as leaked mass, not refused
        code, out, err = run(capsys, "simulate", "--model", "log", "--beta", "2.6",
                             "--d", "2", "--q", "3", "--n", "16",
                             "--truncation", "200", "--format", "json")
        assert code == 0 and err == ""
        (table,) = json.loads(out)["tables"]
        assert table["window"] == 328
        assert table["leaked_mass"] == pytest.approx(1.97e-3, rel=1e-2)


def _ggm_chain(beta, q):
    """(fc, laws) of the q-periodic chain `simulate --q` builds at d = 2."""
    pot = sos(beta)
    law, _ = periodic_solve(pot, 2, q)
    return fuzzy_chain(law, fuzzy_Q(pot, q)), increment_laws(pot, q)


class TestCsvEmitters:
    """Every CSV table parses back exactly (%.17g round-trips float64) to
    the library objects it was printed from."""

    @staticmethod
    def _assert_law_rows(out, law, report):
        meta, header, rows = parse_csv(out)
        assert header == "index,x,lambda,marginal"
        assert [int(r[0]) for r in rows] == law.indices.tolist()
        assert [float(r[1]) for r in rows] == law.x.tolist()
        assert [float(r[2]) for r in rows] == law.lam.tolist()
        assert [float(r[3]) for r in rows] == single_site_marginal(law).tolist()
        assert meta["support"] == law.kind and meta["d"] == str(law.d)
        assert float(meta["final_residual"]) == report.final_residual
        assert meta["certified"] == str(report.certified).lower()
        return meta

    def test_solve_rows_are_the_law(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "sos", "--beta", "2.5")
        assert code == 0
        law, report = solve_fixed_point(sos(2.5), 2)
        meta = self._assert_law_rows(out, law, report)
        assert meta["radius"] == str(law.radius) and "q" not in meta

    def test_solve_reports_its_truncation_bound(self, capsys):
        # a certified window prints both bounds; a law on Z_q has none
        code, out, _ = run(capsys, "solve", "--model", "sos", "--beta", "2.5")
        assert code == 0
        _, report = solve_fixed_point(sos(2.5), 2)
        meta = parse_csv(out)[0]
        assert float(meta["truncation_bound"]) == report.truncation_bound <= 1e-12
        assert float(meta["total_error_bound"]) == report.total_error_bound
        code, out, _ = run(capsys, "periodic", "--model", "sos", "--beta", "2.5",
                           "--q", "3", "--format", "json")
        report = json.loads(out)["report"]
        assert "truncation_bound" not in report and "total_error_bound" not in report

    def test_periodic_rows_are_the_law(self, capsys):
        code, out, _ = run(capsys, "periodic", "--model", "sos", "--beta", "2.5",
                           "--q", "3")
        assert code == 0
        law, report = periodic_solve(sos(2.5), 2, 3, SolveConfig(mode=MODE_AUTO))
        meta = self._assert_law_rows(out, law, report)
        assert meta["q"] == "3" and "radius" not in meta

    def test_flags_and_report_win_over_the_law(self, capsys, monkeypatch):
        real = cli.periodic_solve

        def skewed(pot, d, q, config):
            # a law whose d and certificate disagree with the flag and report
            law, report = real(pot, d, q, config)
            return (dataclasses.replace(law, d=d + 1, certified=False),
                    dataclasses.replace(report, certified=True))

        monkeypatch.setattr(cli, "periodic_solve", skewed)
        code, out, _ = run(capsys, "periodic", "--model", "sos", "--beta", "2",
                           "--q", "2")
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["d"] == "2" and meta["certified"] == "true"

    @pytest.mark.parametrize("q", [None, "2"])
    def test_simulate_tables_are_the_laws(self, capsys, q):
        argv = ["simulate", "--model", "sos", "--beta", "2.5", "--n", "1,3"]
        if q is None:
            law, _ = solve_fixed_point(sos(2.5), 2)
            dists = [wn_localized_exact(law, n) for n in (1, 3)]
        else:
            argv += ["--q", q]
            dists = [wn_ggm_exact(*_ggm_chain(2.5, 2), n) for n in (1, 3)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == "n,k,prob,leaked_mass"
        assert len(rows) == sum(2 * d.window + 1 for d in dists)
        got = iter(rows)
        for d in dists:
            for k, p in zip(d.indices.tolist(), d.law.tolist()):
                row = next(got)
                assert [int(row[0]), int(row[1])] == [d.n, k]
                assert float(row[2]) == p and float(row[3]) == d.leaked_mass

    @pytest.mark.parametrize("q", [None, "3"])
    def test_sampled_rows_are_the_path(self, capsys, q):
        argv = ["simulate", "--model", "sos", "--beta", "2.5",
                "--sample-steps", "50", "--seed", "5", "--replicate", "2"]
        if q is None:
            source, _ = solve_fixed_point(sos(2.5), 2)
        else:
            argv += ["--q", q]
            source = _ggm_chain(2.5, 3)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        inc, states = sample_path(source, 50, seed=5, replicate=2)
        _, header, rows = parse_csv(out)
        assert header == "step,increment,fuzzy_class"
        assert rows == [[str(k), str(j), str(s)] for k, j, s
                        in zip(range(1, 51), inc.tolist(), states[1:].tolist())]


def _column_lines(values, spec):
    """The lines `_csv_rows` prints for one column."""
    return "\n".join(cli._csv_rows((values, spec))).split("\n")


def _neighbours(x, steps):
    """x and the `steps` doubles on each side of it."""
    out = [x]
    for toward in (0.0, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


class TestNumericKernels:
    """Each `_csv_rows` column, printed by one `%` template per block, holds
    exactly the bytes of Python's format()."""

    @staticmethod
    def _assert_format(values):
        values = np.concatenate([np.asarray(values, dtype=np.float64),
                                 -np.asarray(values, dtype=np.float64)])
        for spec in (".17g", ".4g"):
            assert _column_lines(values, spec) == [
                format(x, spec) for x in values.tolist()], spec

    def test_random_bit_patterns(self):
        # every exponent, subnormals and non-finite patterns included; more
        # rows than one block
        rng = np.random.default_rng(22)
        bits = rng.integers(0, 2**64, size=3 * cli._BLOCK_ROWS + 5, dtype=np.uint64)
        self._assert_format(bits.view(np.float64))

    def test_special_values(self):
        self._assert_format([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                             2.2250738585072014e-308, 2.225073858507201e-308,
                             1.7976931348623157e308, 1e-280, 1e280])

    def test_powers_of_ten_and_their_neighbours(self):
        # the double nearest 1e-19 lies below 10^-19, so floor(log10)
        # misses its exponent by one
        assert Fraction(1e-19) < Fraction(1, 10**19)
        assert math.floor(math.log10(1e-19)) == -19
        self._assert_format([y for k in range(-300, 301)
                             for y in _neighbours(float(f"1e{k}"), 1)])

    def test_fixed_and_scientific_boundaries(self):
        # either side of the switch between fixed and scientific layouts,
        # and of the 4- and 17-digit carries into the next decade
        self._assert_format([y for x in (1e-5, 1e-4, 1e16, 1e17, 9.9995e-5,
                                         99995.0, 9999.5, 0.99995,
                                         99999999999999995.0)
                             for y in _neighbours(x, 40)])

    def test_binary_ties(self):
        # exact ties round half to even: 1.0625 prints 1.062, 2.5 prints 2.5
        assert _column_lines(np.array([1.0625, 1.1875, 12345.0]), ".4g") == [
            "1.062", "1.188", "1.234e+04"]
        self._assert_format([(i + 0.5) / 2.0**s for i in range(600) for s in range(12)])

    def test_integer_columns(self):
        rng = np.random.default_rng(7)
        ints = np.concatenate([
            rng.integers(-10**15, 10**15, size=20000), np.arange(-1000, 1001),
            [10**15, -10**15, 10**18, -(10**18), 2**63 - 1, -(2**63)]])
        assert _column_lines(ints, "d") == [str(i) for i in ints.tolist()]
        for dtype in (np.int8, np.uint8, np.int32, np.uint64):
            small = np.arange(0, 100).astype(dtype)
            assert _column_lines(small, "d") == [str(i) for i in small.tolist()]

    def test_rows_join_columns_and_constants(self):
        lines = "\n".join(cli._csv_rows(
            "7", (np.array([-1, 0, 1]), "d"), (np.array([0.5, 1e-7, 3.0]), ".17g"),
            "x")).split("\n")
        assert lines == ["7,-1,0.5,x", "7,0,9.9999999999999995e-08,x", "7,1,3,x"]
        with pytest.raises(ValueError, match="unequal"):
            list(cli._csv_rows((np.arange(2), "d"), (np.arange(3.0), ".17g")))


def _record(monkeypatch, name):
    """Results of every call to cli.<name> during the test."""
    calls = []
    real = getattr(cli, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(cli, name, recorded)
    return calls


def _data_lines(out):
    """The lines after the header of a CSV emission."""
    lines = out.split("\n")
    start = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    assert lines[-1] == ""
    return lines[start + 1:-1]


def _old_jsonify(obj):
    """The element-wise JSON conversion the fast path must agree with."""
    if isinstance(obj, dict):
        return {str(k): _old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_old_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)[:4].strip("'")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


class TestEmitterBytes:
    """Every large table prints the bytes of the per-row f-strings it
    replaced, kept here as the oracle, and every JSON output the bytes of
    the element-wise `_jsonify`."""

    @staticmethod
    def _law_rows(law):
        return [f"{i},{x:.17g},{lam:.17g},{m:.17g}" for i, x, lam, m
                in zip(law.indices, law.x, law.lam, single_site_marginal(law))]

    def test_ggm_log_chain_with_zero_rows(self, capsys, monkeypatch):
        # the least window holds no zero rows; q past the largest increment
        # radius, the slots beyond each class's own radius are zero
        monkeypatch.setattr(cli, "_edge_window", lambda fc, laws: (
            max(law.radius for law in laws) + fc.q, 0.0))
        marginals = _record(monkeypatch, "ggm_edge_marginal")
        code, out, _ = run(capsys, "ggm", "--model", "log", "--beta", "5", "--q", "3")
        assert code == 0
        (marginal,) = marginals
        window = len(marginal) // 2
        rows = _data_lines(out)
        assert rows == [f"{k},{p:.17g},{p:.4g}" for k, p
                        in zip(range(-window, window + 1), marginal.tolist())]
        assert sum(row.endswith(",0,0") for row in rows) > 100

    def test_solve_log_window(self, capsys, monkeypatch):
        # 115 991 rows (R = 57 995): the largest law table a default command prints
        laws = _record(monkeypatch, "solve_fixed_point")
        code, out, _ = run(capsys, "solve", "--model", "log", "--beta", "3.0", "--d", "2")
        assert code == 0
        ((law, _),) = laws
        assert len(law.x) == 115991
        assert _data_lines(out) == self._law_rows(law)

    def test_periodic(self, capsys, monkeypatch):
        laws = _record(monkeypatch, "periodic_solve")
        code, out, _ = run(capsys, "periodic", "--model", "log", "--beta", "2.6",
                           "--d", "2", "--q", "5")
        assert code == 0
        ((law, _),) = laws
        assert _data_lines(out) == self._law_rows(law)

    @pytest.mark.parametrize("argv, exact", [
        (["--model", "sos", "--beta", "2.5", "--n", "1,3,9"], "wn_localized_exact"),
        (["--model", "log", "--beta", "2.6", "--q", "3", "--n", "1,16",
          "--truncation", "200"], "wn_ggm_exact"),
    ])
    def test_simulate_tables(self, capsys, monkeypatch, argv, exact):
        dists = _record(monkeypatch, exact)
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        assert _data_lines(out) == [
            f"{d.n},{k},{p:.17g},{d.leaked_mass:.17g}"
            for d in dists for k, p in zip(d.indices.tolist(), d.law.tolist())]

    @pytest.mark.parametrize("q", [[], ["--q", "3"]])
    def test_sampled_path(self, capsys, monkeypatch, q):
        paths = _record(monkeypatch, "sample_path")
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta", "2",
                           "--sample-steps", "5000", "--seed", "3", *q)
        assert code == 0
        ((inc, states),) = paths
        assert _data_lines(out) == [
            f"{k},{j},{s}" for k, (j, s) in enumerate(zip(inc, states[1:]), start=1)]

    @pytest.mark.parametrize("argv", [
        ["ggm", "--model", "log", "--beta", "5", "--q", "3"],
        ["solve", "--model", "sos", "--beta", "2.5"],
        ["simulate", "--model", "sos", "--beta", "2", "--q", "2", "--n", "1,8"],
        ["simulate", "--model", "sos", "--beta", "2", "--sample-steps", "300"],
    ])
    def test_json_matches_elementwise_conversion(self, capsys, monkeypatch, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        monkeypatch.setattr(cli, "_jsonify", _old_jsonify)
        assert run(capsys, *argv, "--format", "json")[1] == out

    def test_emit_json_is_json_dumps(self):
        # numeric arrays at every depth, next to bools, non-finite floats,
        # empty and 2-d arrays and None: all printed by one json.dumps
        meta = {"version": "x", "pair": [np.int64(2), np.float64(0.5)]}
        payload = {
            "law": {"x": np.array([1.0, 0.25, 5e-324, -0.0, 1e22, 1e-7, 1e16]),
                    "k": np.arange(-3, 4), "flags": np.array([True, False]),
                    "empty": np.array([], dtype=float), "none": np.array([], dtype=int),
                    "bad": np.array([1.0, math.nan, math.inf, -math.inf]),
                    "u": np.array([2**63 + 5], dtype=np.uint64),
                    "f32": np.array([0.1], dtype=np.float32),
                    "grid": np.array([[0.5, 2.0], [3.0, 4.0]]), "one": np.array([3])},
            "rows": [{"a": np.array([7]), "b": [np.array([0.5, 1.5]), 3, None]}, [],
                     np.array([2.5, -1.0])],
            "n": 3, "ok": True, "nan": math.nan, "text": 'say "\\u0000"',
        }
        expected = json.dumps(_old_jsonify({"meta": meta, **payload}),
                              indent=2, sort_keys=True) + "\n"
        assert cli._emit_json(meta, payload) == [expected]
        # a NUL in a string of the payload is escaped as json escapes it
        payload["text"] = "\x00" + "0"
        expected = json.dumps(_old_jsonify({"meta": meta, **payload}),
                              indent=2, sort_keys=True) + "\n"
        assert cli._emit_json(meta, payload) == [expected]

    def test_jsonify_arrays(self):
        for array in (np.array([1.5, math.inf, -math.inf, math.nan]),
                      np.array([[0.25, 1e-300], [3.0, 5e-324]]),
                      np.arange(-3, 3), np.array([True, False]),
                      np.array([0.1], dtype=np.float32), np.array([], dtype=float),
                      np.array([2**63 - 1], dtype=np.uint64)):
            assert json.dumps(cli._jsonify(array)) == json.dumps(_old_jsonify(array))


class TestPhaseDiagram:
    def test_row_count_equals_grid(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--model", "sos",
                           "--beta-range", "1.5:2.5:0.5", "--d-list", "2,3")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header.endswith("reason,error")
        assert len(rows) == 6
        assert meta["rows"] == "6"
        ds = [int(r[2]) for r in rows]
        assert ds == sorted(ds)

    def test_errors_become_flagged_rows(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--model", "sos",
                           "--beta-range", "0:2:1", "--d-list", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 3
        bad = [r for r in rows if r[-1]]
        assert len(bad) == 1
        assert bad[0][1] == "0" and "ConfigError" in bad[0][-1]

    def test_infinite_norm_row(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--model", "log",
                           "--beta-range", "0.4:1.2:0.4", "--d-list", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0] == ["log", "0.40000000000000002", "2", "inf",
                           "2.0941002116740708", "false", "", "", "norm_infinite", ""]
        assert [r[8] for r in rows[1:]] == ["no_epsilon_exists"] * 2

    @pytest.mark.parametrize("text", ["0:inf:1", "nan:1:0.1", "0:1:inf"])
    def test_non_finite_range_refused(self, capsys, text):
        code, out, err = run(capsys, "phase-diagram", "--beta-range", text,
                             "--d-list", "2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "ConfigError"
        assert payload["message"] == f"a, b and step must be finite in {text!r}"

    def test_huge_grid_refused_before_allocating(self, capsys, monkeypatch):
        import treegibbs.cli as cli

        def guarded_range(*args):
            assert max(args) <= cli._MAX_GRID_CELLS, "grid built past the cap"
            return range(*args)

        monkeypatch.setattr(cli, "range", guarded_range, raising=False)
        code, out, err = run(capsys, "phase-diagram", "--beta-range", "0:1:1e-12",
                             "--d-list", "2")
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert "1e+12 betas x 1 degrees" in message
        assert str(cli._MAX_GRID_CELLS) in message

    def test_grid_cap_counts_degrees(self, capsys):
        import treegibbs.cli as cli

        half = cli._MAX_GRID_CELLS // 2
        assert cli._parse_beta_range("1:2:1", half) == [1.0, 2.0]
        with pytest.raises(ConfigError, match=f"2 betas x {half + 1} degrees"):
            cli._parse_beta_range("1:2:1", half + 1)

    def test_json_points(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--model", "sos",
                           "--beta-range", "2.5:2.5:1", "--d-list", "2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["points"]) == 1
        assert obj["points"][0]["in_good_set"] is True


class TestTable:
    def test_small_degrees(self, capsys):
        code, out, _ = run(capsys, "table", "--model", "sos", "--d", "2,3")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == "model,d,beta_star,display"
        assert float(rows[0][2]) == pytest.approx(BETA_STAR_SOS_D2, abs=1e-6)
        assert float(rows[1][2]) == pytest.approx(BETA_STAR_SOS_D3, abs=1e-6)
        assert rows[0][3] == "1.997"
        assert rows[1][3] == "1.321"


_REPORT_KEYS = {f.name for f in dataclasses.fields(SolveReport)}
# the solve behind each law command, and its argv
_LAW_COMMANDS = {
    "solve_fixed_point": ["solve", "--model", "sos", "--beta", "2.5"],
    "periodic_solve": ["periodic", "--model", "sos", "--beta", "2.5", "--q", "2"],
}


class TestOneCertificateRecord:
    """A solve's certificate lives in its SolveReport alone: the law keeps
    only the certified flag, and no printed key repeats a report value."""

    def test_law_and_report_share_only_the_flag(self):
        law_keys = {f.name for f in dataclasses.fields(BoundaryLaw)}
        assert law_keys & _REPORT_KEYS == {"certified"}
        # the rest is law data: no residual or ball radius of its own
        assert law_keys == {"kind", "d", "x", "radius", "q", "certified",
                            "free_state", "pot"}

    @pytest.mark.parametrize("solver", sorted(_LAW_COMMANDS))
    def test_csv_keys_off_the_law_are_not_report_keys(self, capsys, monkeypatch,
                                                      solver):
        # with every report field blanked, the metadata left is the flags'
        # and the law's
        real = getattr(cli, solver)

        def blanked(*args):
            law, report = real(*args)
            return law, dataclasses.replace(report, **dict.fromkeys(_REPORT_KEYS))

        monkeypatch.setattr(cli, solver, blanked)
        argv = _LAW_COMMANDS[solver]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        flags = cli._meta(_build_parser().parse_args(argv))
        off_law = set(parse_csv(out)[0]) - set(flags)
        assert off_law and not off_law & _REPORT_KEYS
        assert off_law <= {"support", "radius", "q"}

    @pytest.mark.parametrize("solver", sorted(_LAW_COMMANDS))
    def test_json_law_and_report_are_disjoint(self, capsys, solver):
        code, out, _ = run(capsys, *_LAW_COMMANDS[solver], "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["certified"] is True
        assert set(obj["law"]) & set(obj["report"]) == set()


# stdout sha256 of commands whose bytes the secant threshold search and the
# one-pass class sums keep, taken from the midpoint bisection and per-arm sums;
# the periodic one is those bytes less the law's sup-norm `# residual=` line.
# The ggm ones print the edge marginal, and in JSON the increment laws, on
# the least window whose certified leak is at most 1e-9.  Each hash skips the
# one line that names the installed numpy, `# numpy=` in CSV and `"numpy": `
# in JSON.  Every command the README shows is pinned too.
PINNED_STDOUT = {
    "table --model sos --d 2,3,6,7,100,1000":
        "40ae3fa9515c6f0a832de03fa84eeb8bc6c3e0e2c982b2621a3a746787229529",
    "table --model log --d 2,3,6,7,100,1000":
        "7a919676c92d913c1b0e00afdf8cd229b718ebb436aad3731d9ac2b630ca5071",
    "threshold --model sos --d 2 --tol 1e-17":
        "6cfc576d12b9edad1951ab0446be90f79abf0904a0f02eb0864d61be4d2f1873",
    "periodic --model log --beta 2.6 --d 2 --q 5":
        "fb24eeab8a86cafc83dfc13edc627e7300055c8ef43598b4acf4d00983438638",
    "ggm --model log --beta 3.0 --q 5":
        "45730b94791aa477df55908981f296cbc4a4c6acde666d288df59a55f9674373",
    "ggm --model log --beta 4.0 --q 3 --format json":
        "8064778695832091860bbf7c5fda5fad23461048afe33896adcaf345ac41e221",
    "simulate --model log --beta 2.6 --d 2 --q 3 --n 16 --truncation 200":
        "5f56ccc33725a6f60a50865f7d56b7a12b559af8de08e3dd193284670b77761c",
    "simulate --model log --beta 4.0 --d 2 --q 3 --sample-steps 1000 --seed 7":
        "340a24feeb2800a13a0a1ba1389f80836681b22b6760c278157e29dda2328b8e",
    "norms --model sos --beta 2.5 --d 2":
        "e3ef9b546312c34baa2d2f7e06aa872caad5919bc8a278f1f327e393e7d4e599",
    "goodset --d 2 --gamma 1.5 --delta 0.05":
        "41226506ab531a4cfab796ec388de5c016c9f9070c262f0ff14ed77e63ee887f",
    "threshold --model sos --d 2":
        "04fe608cc4220734ff117794f2cc1ffe5bdb27c89f4ce0e075b0ea7fa5390be1",
    "solve --model sos --beta 2.5 --d 2 --format json":
        "aa92dca58ca337e602fa0245804a6780f7b3399bba5677653b841c8501b9dbd4",
    "periodic --model sos --beta 2 --d 2 --q 2":
        "5d9d2d32a735d799277edf0114f0c65c2dfdbbb0f480e1026567b3f2911a8283",
    "ggm --model sos --beta 2 --d 2 --q 2":
        "e39171846adecee74f5d4d9c124cd7dd7037bfb4f98ece42f0429dd2bf65b0a8",
    "simulate --model sos --beta 2 --d 2 --q 2 --n 1,8,64":
        "71ef5e915bfec9472432d2ad16d22dfe609f7d16ba6d1ba40c921b91e0402abb",
    "simulate --model sos --beta 2 --d 2 --q 2 --sample-steps 1000 --seed 7":
        "82f30b75ac1c223b2518d188b469d01e88107cc71cd6e5d55fbcb6baa161f5fd",
    "phase-diagram --model sos --beta-range 1.5:2.5:0.25 --d-list 2,3":
        "9c7e7d2d4fe9ec6c4539097205489374549a13c79dd1ea311f67fb7b8cbe5ed5",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    lines = out.splitlines(keepends=True)
    kept = [line for line in lines
            if not line.startswith(("# numpy=", '    "numpy": '))]
    assert len(kept) == len(lines) - 1
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == PINNED_STDOUT[command]


def test_readme_commands_are_pinned():
    src = os.path.dirname(os.path.dirname(treegibbs.__file__))
    with open(os.path.join(os.path.dirname(src), "README.md")) as fh:
        commands = [line.strip()[len("treegibbs "):] for line in fh
                    if line.startswith("treegibbs ")]
    assert len(commands) == 10 and set(commands) <= set(PINNED_STDOUT)


class TestCustomModel:
    def test_load_from_file(self, capsys, tmp_path):
        spec = {"kind": "custom", "beta": 2.5,
                "table": [[1, 1.0], [2, 2.0]],
                "tail": {"type": "exp", "rate": 1.0}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "norms", f"--model", f"custom:{path}",
                           "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["meta"]["model"] == f"custom:{path}"
        assert obj["gamma"]["value"] > 0

    def test_beta_flag_conflicts(self, capsys, tmp_path):
        spec = {"kind": "custom", "beta": 2.5, "table": [[1, 1.0]],
                "tail": {"type": "exp", "rate": 1.0}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "norms", "--model", f"custom:{path}",
                           "--beta", "3", "--d", "2")
        assert code == 2
        assert "fix beta" in json.loads(err)["error"]["message"]

    def test_solve_radius_inside_table_counts_table_terms(self, capsys, tmp_path):
        # radius 1 drops Q(2..5) = e^-3 each: (2 * 4 e^-9 + ...)^(1/3) = 0.0996
        spec = {"kind": "custom", "beta": 3.0,
                "table": [[j, 1.0] for j in range(1, 6)],
                "tail": {"type": "exp", "rate": 1.0}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "solve", "--model", f"custom:{path}", "--d", "2",
                             "--truncation", "1", "--tol", "0.01")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"] == (
            "radius 1 leaves a truncated tail of 0.0996 > tol 0.01")
        code, out, _ = run(capsys, "solve", "--model", f"custom:{path}", "--d", "2",
                           "--truncation", "7", "--tol", "0.01")
        assert code == 0 and "certified=true" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norms", "--model", "custom:/nope.json",
                           "--d", "2")
        assert code == 2

    def test_non_utf8_file(self, capsys, tmp_path):
        # the UTF-16 byte-order mark ff fe is not UTF-8
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe" + '{"kind": "sos", "beta": 2.5}'.encode("utf-16-le"))
        code, out, err = run(capsys, "norms", "--model", f"custom:{path}", "--d", "2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ConfigError" and "is not UTF-8" in error["message"]

    def test_malformed_tail(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "custom", "beta": 2.0, "table": [[1, 1.0]], '
                        '"tail": {"type": "power"}}')
        code, out, err = run(capsys, "norms", "--model", f"custom:{path}",
                             "--d", "2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ConfigError"


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "1.5",
                           "--delta", "0.05", "--out", str(target))
        assert code == 0
        assert out == ""
        meta, _, rows = parse_csv(target.read_text())
        assert rows[0][3] == "true"

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the reader takes one line and closes the pipe, long before the
        # 12 MB table is written
        src = os.path.dirname(os.path.dirname(treegibbs.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "treegibbs.cli", "ggm", "--model", "log",
             "--beta", "3.0", "--q", "5"], env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# alpha=")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_meta_always_has_versions(self, capsys):
        code, out, _ = run(capsys, "threshold", "--model", "sos", "--d", "2")
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["version"] and meta["numpy"]
        assert "scipy" not in meta


# the commands that read beta, at beta = 1e308; log periodic, ggm and
# simulate --q are left out: they refuse through hurwitz_zeta, slowly
_EXTREME_BETA_ARGV = [
    *[(cmd, "--model", model) for model in ("sos", "log")
      for cmd in ("norms", "goodset", "solve")],
    ("periodic", "--model", "sos", "--q", "2"),
    ("periodic", "--model", "sos", "--q", "5", "--format", "json"),
    ("ggm", "--model", "sos", "--q", "3"),
    ("simulate", "--model", "sos", "--n", "1,8"),
    ("simulate", "--model", "log", "--sample-steps", "10"),
    ("simulate", "--model", "sos", "--q", "2", "--n", "4"),
    ("simulate", "--model", "sos", "--q", "2", "--sample-steps", "10"),
]


@pytest.mark.parametrize("argv", _EXTREME_BETA_ARGV, ids=" ".join)
def test_extreme_beta_ends_in_a_result_or_a_typed_error(capsys, argv):
    # -beta U overflows to -inf and a class sum's exponent b q to inf: each
    # run prints its result or one JSON error line, and no RuntimeWarning
    # (an error under this suite's warning filter)
    code, out, err = run(capsys, *argv, "--beta", "1e308")
    if code == 0:
        assert out and err == ""
    else:
        assert code in (3, 4) and out == ""
        assert json.loads(err)["error"]["exit_code"] == code


@pytest.mark.parametrize("beta", ["1e16", "1e100", "1e308"])
def test_sos_one_class_at_huge_beta(capsys, beta):
    # Q_1(0) = 1: the class mass is kept, not refused as an underflow, and
    # the edge marginal is the point mass at 0
    code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", beta, "--q", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[-3:] == ["-1,0,0", "0,1,1", "1,0,0"]
    code, out, err = run(capsys, "simulate", "--model", "sos", "--beta", beta,
                         "--q", "1", "--n", "1")
    assert code == 0 and err == ""


# one valid invocation of each subcommand that takes --tol
_TOL_ARGV = [
    ("norms", "--model", "sos", "--beta", "2.5"),
    ("goodset", "--model", "sos", "--beta", "2.5"),
    ("threshold", "--model", "log", "--d", "3"),
    ("solve", "--model", "sos", "--beta", "2.5"),
    ("periodic", "--model", "sos", "--beta", "2", "--q", "2"),
    ("ggm", "--model", "sos", "--beta", "2", "--q", "2"),
    ("phase-diagram", "--beta-range", "2:2.5:0.25", "--d-list", "2"),
    ("table", "--d", "2"),
]


class TestErrorContract:
    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "norms", "--model", "bogus", "--beta",
                           "1", "--d", "2")
        assert code == 2
        payload = json.loads(err)["error"]
        assert payload["type"] == "ConfigError"
        assert payload["exit_code"] == 2

    def test_tiny_beta_is_a_typed_error(self, capsys):
        code, out, err = run(capsys, "solve", "--model", "sos", "--beta",
                             "1e-320", "--d", "2")
        assert code in (3, 4) and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["exit_code"] == code

    @pytest.mark.parametrize("argv", [
        "periodic --model sos --beta 2 --d 2 --q 1099511627776",
        "ggm --model log --beta 3 --q 1099511627776",
    ], ids=["periodic", "ggm"])
    def test_huge_q_is_refused_before_allocating(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "q=1099511627776 exceeds the cap of 67108864 classes")

    @pytest.mark.parametrize("argv, message", [
        # tol 1e-30 needs a log 3.0 window far beyond 2^25
        (("--tol", "1e-30"), "truncation radius beyond 33554432"),
        # refused before Q is built on [-2R, 2R] (over 1 GB at 2^25 + 1)
        (("--truncation", "33554433"), "radius 33554433 is beyond the largest"),
    ], ids=["default", "explicit"])
    def test_window_past_the_radius_cap_is_a_typed_error(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", "--model", "log", "--beta", "3.0",
                             "--d", "2", *argv)
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "NumericalError"
        assert payload["message"].startswith(message)

    def test_huge_q_is_a_typed_error(self, capsys):
        # the dense q x q class chain is refused before it is allocated
        code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "100000")
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "NumericalError"
        assert "100000x100000" in payload["message"]

    def test_huge_sample_steps_is_a_typed_error(self, capsys):
        # the path's uniform buffer (745 GiB) is refused before it is allocated
        code, out, err = run(capsys, "simulate", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "2", "--sample-steps",
                             "100000000000")
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "NumericalError"
        assert "100000000001 uniforms" in payload["message"]

    def test_truncation_leak_points_at_increment_radius(self, capsys):
        # window 4 already holds every radius-4 increment; widening it cannot help
        code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "3", "--truncation", "4")
        assert code == 3 and out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("window 4 leaks mass")
        assert "--truncation" in message and "use window" not in message

    def test_explicit_truncation_within_the_budget_is_accepted(self, capsys):
        # window 8, the least that fits, holds every radius-8 increment and
        # leaks 5.2e-11 (q = 7; window 7 leaks 1.1e-08): each class tail is
        # bounded on the class's own terms, where the tail over all |j| > 8
        # would read 3.8e-08 and refuse it
        code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "7", "--truncation", "8")
        assert code == 0 and err == ""
        assert "# window=8" in out.splitlines()

    def test_ggm_radius_holds_the_nearest_class_point(self, capsys):
        # -2 = 3 (mod 5) lies inside radius 2: the laws are built, and only
        # the leak of the radius-2 truncation is refused
        code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "5", "--truncation", "2")
        assert code == 3 and out == ""
        message = json.loads(err)["error"]["message"]
        assert message.endswith("the increment laws are truncated at radius 2; "
                                "raise the increment radius (--truncation)")
        # class 2 mod 4 has no point within radius 1
        code, out, err = run(capsys, "ggm", "--model", "sos", "--beta", "2",
                             "--d", "2", "--q", "4", "--truncation", "1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "radius 1 cannot hold residue 2"

    @pytest.mark.parametrize("argv", [
        ("ggm", "--model", "sos", "--beta", "800", "--d", "2", "--q", "3"),
        ("simulate", "--model", "sos", "--beta", "800", "--d", "2", "--q", "3",
         "--n", "1"),
    ], ids=["ggm", "simulate"])
    def test_underflowing_class_mass_is_a_typed_error(self, capsys, argv):
        # Q_q(1) = Q_q(2) = 0.0 at beta 800, q 3: no nan rows, no traceback
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "NumericalError"

    @pytest.mark.parametrize("argv", [
        ("solve", "--d", "x"),
        ("bogus",),
        (),
        ("norms", "--model", "sos", "--beta", "2.5", "--form", "json"),
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ConfigError"

    def test_norms_degree_below_one_names_d(self, capsys):
        # d = 0 once reached p_norm and was refused as "p must be >= 1, got 0.5"
        code, out, err = run(capsys, "norms", "--model", "sos", "--beta", "2", "--d", "0")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "d must be >= 1, got 0"
        assert run(capsys, "norms", "--model", "sos", "--beta", "2", "--d", "1")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("norms", "--model", "log", "--beta", "2", "--d", "2", "--tol", "1e-17"),
        ("norms", "--model", "sos", "--beta", "2", "--d", "2", "--tol", "1e-17"),
    ], ids=["norms", "norms-sos"])
    def test_rounding_floor_refuses_at_the_first_n(self, capsys, argv):
        # the rounding of the gamma series at p = 1.5 alone is above 1e-17
        # of its value; such a run once doubled to 2^26 terms before failing
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "NumericalError"
        assert "rounding floor" in payload["message"]
        assert "after 64 terms" in payload["message"]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", _TOL_ARGV, ids=lambda argv: argv[0])
    def test_bad_tolerance_is_a_usage_error(self, capsys, argv, tol):
        # nan once ended the threshold bisection at once (exit 0, beta* 1.5),
        # 0 summed 2^26 series terms, inf certified the first iterate, and
        # phase-diagram printed one error row per cell
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "ConfigError"
        assert "tolerance must be a positive finite float" in payload["message"]

    def test_every_tol_flag_is_checked(self):
        assert {argv[0] for argv in _TOL_ARGV} == {
            name for name, flags in FLAGS.items() if "--tol" in flags}

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--truncation" in capsys.readouterr().out

    def test_unwritable_out_names_the_path(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, "norms", "--model", "sos", "--beta", "2.5",
                             "--out", target)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])["error"]
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(f"cannot write output file {target}:")

    def test_stderr_is_parseable_json(self, capsys):
        code, out, err = run(capsys, "solve", "--model", "sos", "--beta",
                             "1.0", "--d", "2")
        assert out == ""
        payload = json.loads(err)
        assert set(payload["error"]) == {"type", "message", "exit_code"}


_IO = {"--out", "--format"}

# every flag of every subcommand, each one read by its handler
FLAGS = {
    "norms": _IO | {"--model", "--beta", "--d", "--pairing", "--tol"},
    "goodset": _IO | {"--model", "--beta", "--d", "--pairing", "--tol",
                      "--gamma", "--delta"},
    "threshold": _IO | {"--model", "--d", "--pairing", "--tol"},
    "solve": _IO | {"--model", "--beta", "--d", "--tol", "--truncation"},
    "periodic": _IO | {"--model", "--beta", "--d", "--tol", "--q"},
    "ggm": _IO | {"--model", "--beta", "--d", "--tol", "--truncation", "--q"},
    "simulate": _IO | {"--model", "--beta", "--d", "--truncation", "--q", "--n",
                       "--sample-steps", "--seed", "--replicate"},
    "phase-diagram": _IO | {"--model", "--pairing", "--tol", "--beta-range",
                            "--d-list"},
    "table": _IO | {"--model", "--d", "--pairing", "--tol"},
}

_NORMS = ("norms", "--model", "sos", "--beta", "2.5")
_GOODSET = ("goodset", "--gamma", "1.5", "--delta", "0.05")
_THRESHOLD = ("threshold", "--model", "sos")
_SOLVE = ("solve", "--model", "sos", "--beta", "2.5")
_PERIODIC = ("periodic", "--model", "sos", "--beta", "2", "--q", "2")
_GGM = ("ggm", "--model", "sos", "--beta", "2", "--q", "2")
_SIMULATE = ("simulate", "--model", "sos", "--beta", "2", "--n", "1")
_PHASE = ("phase-diagram", "--beta-range", "2:2:1", "--d-list", "2")
_TABLE = ("table", "--d", "2")

# flags no handler reads, with a valid invocation to append them to
REMOVED = [
    ("--truncation", "3", _NORMS),
    ("--truncation", "3", _GOODSET),
    ("--truncation", "3", _THRESHOLD),
    ("--truncation", "3", _PERIODIC),
    ("--truncation", "3", _PHASE),
    ("--truncation", "3", _TABLE),
    ("--beta", "2.0", _THRESHOLD),
    ("--beta", "2.0", _PHASE),
    ("--beta", "2.0", _TABLE),
    ("--tol", "1e-9", _SIMULATE),
    *(("--seed", "99", argv) for argv in (_NORMS, _GOODSET, _THRESHOLD, _SOLVE,
                                          _PERIODIC, _GGM, _PHASE, _TABLE)),
    *(("--pairing", "one", argv) for argv in (_SOLVE, _PERIODIC, _GGM, _SIMULATE)),
    ("--d", "7", _PHASE),
]


def _versions():
    import numpy as np

    return {"version": treegibbs.__version__, "numpy": np.__version__}


class TestModeMetadata:
    """The metadata records the flags the run's mode reads, and no others."""

    def test_readme_goodset_explicit_pair(self, capsys):
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "1.5",
                           "--delta", "0.05")
        assert code == 0
        assert parse_csv(out)[0] == {
            "command": "goodset", "d": "2", "delta": "0.05", "format": "csv",
            "gamma": "1.5", "source": "explicit", **_versions()}

    def test_explicit_pair_drops_every_model_flag(self, capsys):
        code, out, _ = run(capsys, "goodset", "--d", "2", "--gamma", "1.5",
                           "--delta", "0.05", "--model", "log", "--beta", "3",
                           "--pairing", "one", "--tol", "1e-9", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"] == {
            "command": "goodset", "d": 2, "delta": 0.05, "format": "json",
            "gamma": 1.5, "source": "explicit", **_versions()}

    def test_model_pair_keeps_model_flags(self, capsys):
        code, out, _ = run(capsys, "goodset", "--model", "sos", "--beta", "2.5")
        assert code == 0
        meta = parse_csv(out)[0]
        assert (meta["model"], meta["beta"], meta["pairing"]) == ("sos", "2.5", "half")

    def test_readme_simulate_tables(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta", "2",
                           "--d", "2", "--q", "2", "--n", "1,8,64")
        assert code == 0
        assert parse_csv(out)[0] == {
            "beta": "2.0", "command": "simulate", "d": "2", "format": "csv",
            "model": "sos", "n": "1,8,64", "q": "2", **_versions()}

    def test_readme_simulate_sampled_path(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "sos", "--beta", "2",
                           "--d", "2", "--q", "2", "--sample-steps", "1000",
                           "--seed", "7")
        assert code == 0
        assert parse_csv(out)[0] == {
            "beta": "2.0", "command": "simulate", "d": "2", "format": "csv",
            "model": "sos", "q": "2", "replicate": "0", "sample_steps": "1000",
            "seed": "7", **_versions()}

    def test_sampled_path_drops_truncation_and_tables_keep_it(self, capsys):
        base = ("simulate", "--model", "sos", "--beta", "2", "--q", "2",
                "--truncation", "30", "--format", "json")
        _, out, _ = run(capsys, *base, "--sample-steps", "10")
        assert {"n", "truncation"}.isdisjoint(json.loads(out)["meta"])
        _, out, _ = run(capsys, *base, "--n", "1")
        meta = json.loads(out)["meta"]
        assert meta["truncation"] == 30
        assert {"seed", "replicate"}.isdisjoint(meta)


class TestSurface:
    def test_flag_table_and_removed_flags(self, capsys):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
        assert got == FLAGS
        assert sum(map(len, got.values())) == 68
        assert len(REMOVED) == 23
        for flag, value, argv in REMOVED:
            assert flag not in FLAGS[argv[0]]
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 2 and out == "", (argv, flag)
            lines = err.splitlines()
            assert len(lines) == 1
            payload = json.loads(lines[0])["error"]
            assert payload["type"] == "ConfigError"
            assert f"unrecognized arguments: {flag} {value}" in payload["message"]


class TestImports:
    def test_cli_import_skips_heavy_modules(self):
        src = os.path.dirname(os.path.dirname(treegibbs.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # concurrent.futures (and the logging it imports) serves sample_wn
        # alone, which no command calls
        code = ("import sys, treegibbs.cli; print(sorted(m for m in "
                "('scipy', 'scipy.fft', 'mpmath', 'concurrent.futures', 'logging') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    @staticmethod
    def _run_blocking(module, commands):
        """[exit code, stdout] of each command, run by main() in a child
        process that cannot import ``module``."""
        src = os.path.dirname(os.path.dirname(treegibbs.__file__))
        code = ("import contextlib, io, json, sys\n"
                f"sys.modules[{module!r}] = None\n"
                "from treegibbs.cli import main\n"
                "results = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    buf = io.StringIO()\n"
                "    with contextlib.redirect_stdout(buf):\n"
                "        results.append([main(argv), buf.getvalue()])\n"
                "print(json.dumps(results))\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out)

    def test_readme_commands_run_without_scipy(self, capsys):
        # scipy is a test oracle only: a child that cannot import it prints
        # the README commands' outputs byte for byte
        src = os.path.dirname(os.path.dirname(treegibbs.__file__))
        with open(os.path.join(os.path.dirname(src), "README.md")) as fh:
            commands = [line.split()[1:] for line in fh
                        if line.startswith("treegibbs ")]
        assert len(commands) == 10
        blocked = self._run_blocking("scipy", commands)
        for argv, (exit_code, stdout) in zip(commands, blocked, strict=True):
            assert exit_code == 0, argv
            assert stdout == run(capsys, *argv)[1], argv

    def test_log_commands_run_without_mpmath(self, capsys):
        # mpmath is a test oracle only: log norms, thresholds and periodic
        # solves print the same bytes in a child that cannot import it
        commands = [
            "norms --model log --beta 2.6 --d 2".split(),
            "threshold --model log --d 2".split(),
            "periodic --model log --beta 2.6 --d 2 --q 5".split(),
        ]
        blocked = self._run_blocking("mpmath", commands)
        for argv, (exit_code, stdout) in zip(commands, blocked, strict=True):
            assert exit_code == 0, argv
            assert stdout == run(capsys, *argv)[1], argv

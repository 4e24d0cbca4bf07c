import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import continuum_kernels
from conftest import duplicated_column_system
from continuum_kernels import cli
from continuum_kernels.cli import main
from continuum_kernels.gains import (GainTable, gains, read_gain_csv,
                                     write_gain_csv)
from continuum_kernels.params import load_problem
from continuum_kernels.power_series import SolverConfig, assemble, solve_ls
from continuum_kernels.simulate import SimConfig, Simulator


def run(argv):
    return main(argv)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def read_report(path):
    """A run's report, parsed as strict JSON; it carries the shared keys, and
    no run writes a separate manifest."""
    path = Path(path)
    report = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert {"manifest", "problem", "stages_s", "quality"} <= set(report)
    assert set(report["manifest"]) == {"command", "arguments", "tool_version",
                                       "deterministic", "wall_clock_s"}
    assert not list(path.parent.rglob("*manifest*"))
    return report


# the report block of a series solve (the solve report itself, each bench
# row, simulate's `solve`) and of an n+1 reference march (the ls-kernels
# report itself, bench's `reference`)
SOLVE_BLOCK = {"order", "order_y", "exact_q", "sigma_sign", "num_unknowns",
               "num_equations", "nnz", "ordering", "span_cut", "wide_rows",
               "panel_cols", "r_diag_ratio", "residual", "certificate",
               "residual_by_source", "stages_s", "timing_s"}
MARCH_BLOCK = {"iterations", "final_delta", "sweep_history", "checked_levels",
               "stages_s", "timing_s"}
MARCH_STAGES = {"stencils", "pass", "check"}
SIM_OWN = {"n", "steps", "dt", "step_ms", "minor_faults"}


def keys(*names, **blocks):
    """A command's own report keys: each name must be present; a block key
    maps to None (it must be null) or to the keys its block holds (each
    block's, for a list of them)."""
    return dict.fromkeys(names, True) | blocks


@pytest.mark.parametrize("argv, code, stages, quality, own", [
    (["solve", "--config", "example2", "--order", "5", "--grid", "11",
      "--out-prefix", "{d}/r"], 0, {"assemble", "solve_ls", "gains"},
     {"residual", "certificate"}, keys(*SOLVE_BLOCK)),
    (["closed-form", "--config", "example1", "--grid", "11", "--out-prefix", "{d}/r"],
     0, {"closed_form", "gains"}, {"applicable", "residual"},
     keys("applicable", "kernel")),
    (["closed-form", "--config", "example2", "--out-prefix", "{d}/r"],
     2, {"closed_form"}, {"applicable"}, keys("applicable", "reason", "details")),
    (["ls-kernels", "--config", "example2", "--m", "16", "--out-prefix", "{d}/r"],
     0, MARCH_STAGES, {"iterations", "final_delta"},
     keys(*MARCH_BLOCK, "n", "m")),
    (["simulate", "--config", "example2", "--mx", "32", "--t-final", "0.2",
      "--solve-order", "4", "--out-prefix", "{d}/r"], 0,
     {"setup", "gains", "init", "run"},
     {"verdict", "initial_norm", "final_norm", "norm_ratio"},
     keys(*SIM_OWN, solve=SOLVE_BLOCK)),
    (["bench", "--example", "example1", "--orders", "4,6", "--skip-baseline",
      "--out", "{d}/r.csv"], 0, {"reference", "import"},
     {"residual", "max_error", "d_prev"},
     keys("example", reference=None, rows=SOLVE_BLOCK | {"N", "max_error"})),
    (["fit-q", "--config", "example2", "--degree", "2", "--out", "{d}/r_report.json"],
     0, {"fit"}, {"rms_error"}, keys("degree", "coefficients_ascending", "rms_error")),
    (["simulate", "--config", "zero", "--n", "2", "--mx", "16", "--t-final", "0.1",
      "--open-loop", "--out-prefix", "{d}/r"], 0, {"setup", "gains", "init", "run"},
     {"verdict", "initial_norm", "final_norm", "norm_ratio"}, keys(*SIM_OWN, solve=None)),
    (["bench", "--example", "example2", "--orders", "4,5", "--baseline-m", "16",
      "--out", "{d}/r.csv"], 0, {"reference", "import"}, {"residual", "d_np1", "d_prev"},
     keys("example", reference=MARCH_BLOCK, rows=SOLVE_BLOCK | {"N", "d_np1"})),
    (["ls-kernels", "--config", "example2", "--refine", "8,16,32", "--out-prefix",
      "{d}/r"], 0, MARCH_STAGES, {"diff", "ratio"},
     keys("n", "m_list", "diffs", "ratios", meshes=MARCH_BLOCK)),
])
def test_one_report_per_run(tmp_path, argv, code, stages, quality, own):
    assert run([a.format(d=tmp_path) for a in argv]) == code
    assert list(tmp_path.glob("*report*")) == [tmp_path / "r_report.json"]
    report = read_report(tmp_path / "r_report.json")
    man = report["manifest"]
    assert man["command"] == argv[0] and man["arguments"]["command"] == argv[0]
    assert set(report["stages_s"]) == stages and set(report["quality"]) == quality
    assert set(own) <= set(report)
    for key, block in own.items():
        if block is None:
            assert report[key] is None, key
        elif block is not True:
            value = report[key]
            for b in value if isinstance(value, list) else [value]:
                assert block <= set(b), key
    # the wall clock covers the whole command, every stage included
    assert man["wall_clock_s"] >= sum(report["stages_s"].values()) > 0.0


class TestSolve:
    def test_zero_config(self, tmp_path):
        prefix = str(tmp_path / "z")
        assert run(["solve", "--config", "zero", "--order", "4",
                    "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / "z_report.json").read_text())
        assert report["residual"] == 0.0
        table = read_gain_csv(tmp_path / "z_gains.csv")
        assert np.all(table.k == 0.0) and np.all(table.kbar == 0.0)

    def test_compare_exact(self, tmp_path):
        prefix = str(tmp_path / "e1")
        assert run(["solve", "--config", "example1", "--order", "8",
                    "--order-y", "2", "--compare-exact", "example1_exact",
                    "--grid", "41", "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / "e1_report.json").read_text())
        assert "max_error_vs_exact" in report
        assert report["num_unknowns"] == 154  # 109 + 45
        assert report["ordering"] == "x" and report["span_cut"] == 1
        # example1's diagonal-BC rows span every x-degree level
        assert 0 < report["wide_rows"] < report["num_equations"]
        assert report["panel_cols"] > 0
        assert 0.0 < report["r_diag_ratio"] <= 1.0
        assert 0 < report["nnz"] < report["num_unknowns"] * report["num_equations"]
        assert 0.0 <= report["certificate"] < 1e-10
        coeffs = json.loads((tmp_path / "e1_coeffs.json").read_text())
        assert "k" in coeffs and "kbar" in coeffs

    def test_rank_deficient_system_exits_1(self, tmp_path, capsys, monkeypatch):
        # a duplicated column: the solve names the failed rank test instead of
        # returning a minimum-norm guess, and no gains are written
        monkeypatch.setattr(cli, "assemble", lambda p, cfg: duplicated_column_system(
            assemble(p, cfg), 0))
        assert run(["solve", "--config", "example2", "--order", "8",
                    "--out-prefix", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rank-deficient system: the block of R at level 0")
        assert not list(tmp_path.iterdir())

    def test_deterministic_reruns(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for prefix in (a, b):
            assert run(["solve", "--config", "example2", "--order", "5",
                        "--out-prefix", prefix]) == 0
        ga = (tmp_path / "a_gains.csv").read_text().splitlines()
        gb = (tmp_path / "b_gains.csv").read_text().splitlines()
        # identical numeric content; only the report path line differs
        assert ga[1:] == gb[1:]

    def test_non_finite_config_exits_1(self, tmp_path, capsys):
        cfg = load_problem("example1").source
        cfg["theta"]["terms"][0]["scale"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", str(path), "--order", "6",
                    "--out-prefix", str(tmp_path / "x")]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x_report.json").exists()

    def test_unknown_reference_exits_1_before_the_solve(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("assembled before the reference was resolved")
        monkeypatch.setattr("continuum_kernels.cli.assemble", no_work)
        assert run(["solve", "--config", "example2", "--order", "6",
                    "--compare-exact", "example2_exact",
                    "--out-prefix", str(tmp_path / "x")]) == 1
        assert "no exact reference available" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_config_exits_1(self, tmp_path):
        assert run(["solve", "--config", "missing-config", "--order", "4",
                    "--out-prefix", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("field, value, where", [
        ("q", {"data": 5}, "q.data"),
        ("lambda", {"terms": 5}, "lambda.terms"),
        ("lambda", {"terms": [{"scale": 1.0, "factors": 5}]},
         "lambda.terms[0].factors"),
    ])
    def test_scalar_for_array_exits_1(self, tmp_path, capsys, field, value,
                                      where):
        # used to die with "TypeError: 'int' object is not iterable"
        cfg = dict(load_problem("example2").source, **{field: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", str(path), "--order", "4",
                    "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{where}: expected an array" in err
        assert not (tmp_path / "x_report.json").exists()

    def test_report_stages_and_residual_by_source(self, tmp_path):
        prefix = str(tmp_path / "r")
        assert run(["solve", "--config", "example2", "--order", "6",
                    "--grid", "11", "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / "r_report.json").read_text())
        assert set(report["stages_s"]) == {"assemble", "solve_ls", "gains"}
        assert all(t >= 0.0 for t in report["stages_s"].values())
        assert report["timing_s"] >= 0.0
        by_source = report["residual_by_source"]
        assert set(by_source) == {"pde_k", "pde_kbar", "bc_diag", "bc_left"}
        assert all(v > 0.0 for v in by_source.values())
        rss = math.sqrt(sum(v * v for v in by_source.values()))
        assert rss == pytest.approx(report["residual"], rel=1e-12)


@pytest.mark.parametrize("points", ["0", "1", "-3"])
@pytest.mark.parametrize("command", [
    ["solve", "--config", "example2", "--order", "6"],
    ["closed-form", "--config", "example1"],
])
def test_gain_grid_below_two_exits_1(tmp_path, capsys, command, points):
    prefix = tmp_path / "out" / "g"
    assert run(command + ["--grid", points, "--out-prefix", str(prefix)]) == 1
    assert f"--grid must be at least 2, got {points}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.*"))


class TestClosedForm:
    def test_example1_succeeds(self, tmp_path):
        prefix = str(tmp_path / "cf")
        assert run(["closed-form", "--config", "example1",
                    "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / "cf_report.json").read_text())
        assert report["applicable"]
        assert abs(report["kernel"]["c_x"]) < 1e-10
        assert abs(report["kernel"]["c_y"]) < 1e-10

    def test_example2_not_applicable_exit_2(self, tmp_path):
        prefix = str(tmp_path / "cf2")
        assert run(["closed-form", "--config", "example2",
                    "--out-prefix", prefix]) == 2
        report = json.loads((tmp_path / "cf2_report.json").read_text())
        assert not report["applicable"]
        assert report["reason"] == ("theta_x(0.0) is (numerically) zero; "
                                    "the construction divides by it")

    def test_non_positive_lambda_exit_2(self, tmp_path):
        cfg = {"lambda": {"terms": [{"scale": 1.0, "factors": [
                   {"var": "y", "kind": "poly", "coeffs": [0.5, -1.0]}]}]},
               "mu": 1.0, "sigma": 0.0, "theta": 1.0, "w": 0.0, "q": 0.0}
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(cfg))
        assert run(["closed-form", "--config", str(path),
                    "--out-prefix", str(tmp_path / "r")]) == 2
        report = json.loads((tmp_path / "r_report.json").read_text())
        assert "lambda must be positive" in report["reason"]

    def test_proportional_toy_succeeds(self, tmp_path):
        cfg = {
            "name": "toy", "lambda": 1.0, "mu": 1.0,
            "sigma": {"terms": [{"scale": 1.0, "factors": [
                {"var": "x", "kind": "const", "value": 0.4},
                {"var": "eta", "kind": "const", "value": 1.0},
                {"var": "y", "kind": "const", "value": 3.0}]}]},
            "theta": {"terms": [{"scale": 1.0, "factors": [
                {"var": "x", "kind": "exp", "rate": 0.5},
                {"var": "y", "kind": "const", "value": 1.0}]}]},
            "w": 0.0, "q": 0.0,
        }
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "toy_out")
        assert run(["closed-form", "--config", str(path),
                    "--out-prefix", prefix]) == 0
        report = json.loads((tmp_path / "toy_out_report.json").read_text())
        assert report["kernel"]["c_y"] == pytest.approx(3.0)


class TestFitQ:
    def test_inline_data(self, capsys):
        assert run(["fit-q", "--data", "[0.0, -0.09, -0.16, -0.21, -0.25]",
                    "--degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "rms_error" in out

    def test_config_data(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit-q", "--config", "example2", "--degree", "3",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["degree"] == 3
        assert len(data["coefficients_ascending"]) == 4

    def test_analytic_q_rejected(self):
        assert run(["fit-q", "--config", "example1", "--degree", "2"]) == 1

    @pytest.mark.parametrize("data, degree", [
        ("[1, NaN, 3, 4]", "2"), ("[1, Infinity, 3, 4]", "2"), ("[1, 2, 3, 4]", "-1"),
        ("[[1, 2], [3, 4], [5, 6]]", "1"), ("5", "0"), ('{"a": 1}', "1"),
        ("[true, 1, 2]", "1"), ('[1, "2", 3]', "1")])
    def test_bad_fit_exits_1(self, tmp_path, capsys, data, degree):
        # these used to exit 0 with NaN coefficients or an empty fit, die
        # with a TypeError traceback on data that is not a flat array, or
        # fit [true, 1, 2] as [1, 1, 2]
        out = tmp_path / "f.json"
        assert run(["fit-q", "--data", data, "--degree", degree,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "JSON array" in err or not data.startswith("{")
        assert not out.exists()

    @pytest.mark.parametrize("source", [[], ["--config", "example2", "--data", "[1, 2]"]])
    def test_needs_exactly_one_data_source(self, capsys, source):
        with pytest.raises(SystemExit) as exc:
            run(["fit-q", "--degree", "2"] + source)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


class TestBench:
    def test_empty_orders(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--example", "example1", "--orders", "",
                    "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1  # header only

    def test_scipy_import_is_its_own_stage(self, tmp_path):
        # the series solver's scipy import is timed once before the rows,
        # not inside the first row's assemble and solve_ls; a sweep without
        # orders imports nothing
        for orders, stages in (("4", {"reference", "import"}), ("", {"reference"})):
            assert run(["bench", "--example", "example1", "--orders", orders,
                        "--skip-baseline", "--out", str(tmp_path / "b.csv")]) == 0
            assert set(read_report(tmp_path / "b_report.json")["stages_s"]) == stages

    def test_small_sweep_with_exact_reference(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--example", "example1", "--orders", "4,6",
                    "--skip-baseline", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N,")
        assert "max_error" in lines[0]
        assert len(lines) == 3

    def test_reruns_write_identical_csv(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run(["bench", "--example", "example1", "--orders", "4,6",
                        "--skip-baseline", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "time_s" not in outs[0].read_text().splitlines()[0]

    def test_report_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bench", "--example", "example1", "--orders", "4,6",
                    "--skip-baseline", "--out", str(out)]) == 0
        rows = read_report(tmp_path / "b_report.json")["rows"]
        assert [r["N"] for r in rows] == [4, 6]
        for r in rows:
            assert set(r["stages_s"]) == {"assemble", "solve_ls", "gains"}
            assert r["timing_s"] == r["stages_s"]["assemble"] + r["stages_s"]["solve_ls"]
            assert r["order"] == r["order_y"] == r["N"]  # example1: the full N_y
            assert set(r["residual_by_source"]) == {"pde_k", "pde_kbar", "bc_diag",
                                                    "bc_left"}
        # the first row has no predecessor: the report leaves d_prev out
        assert "d_prev" not in rows[0] and rows[1]["d_prev"] > 0.0
        assert out.read_text().splitlines()[1].endswith(",nan")

    @pytest.mark.parametrize("example", ["example1-ry", "example1-exactq",
                                         "example2-ry"])
    def test_presets_set_each_row(self, tmp_path, example):
        # the benchmark replays these presets; each row reports its settings
        _, order_y, exact_q, sigma_sign = cli.BENCH_PRESETS[example]
        out = tmp_path / "b.csv"
        assert run(["bench", "--example", example, "--orders", "4,6",
                    "--skip-baseline", "--out", str(out)]) == 0
        rows = read_report(tmp_path / "b_report.json")["rows"]
        assert [r["N"] for r in rows] == [4, 6]
        for r in rows:
            assert (r["order_y"], r["exact_q"], r["sigma_sign"]) == (
                order_y, exact_q, sigma_sign)
            assert ("max_error" in r) == example.startswith("example1")

    def test_exact_reference_wherever_the_closed_form_applies(self, tmp_path,
                                                              monkeypatch):
        # not only example1: the zero problem's closed form, the zero
        # kernel, is its exact reference
        monkeypatch.setitem(cli.BENCH_PRESETS, "zero", ("zero", None, False, 1))
        out = tmp_path / "z.csv"
        assert run(["bench", "--example", "zero", "--orders", "4,6",
                    "--skip-baseline", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].split(",")[4] == "max_error"
        rows = read_report(tmp_path / "z_report.json")["rows"]
        assert [r["max_error"] for r in rows] == [0.0, 0.0]

    def test_example2_with_baseline(self, tmp_path):
        out = tmp_path / "b2.csv"
        assert run(["bench", "--example", "example2", "--orders", "5",
                    "--baseline-m", "32", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "d_np1" in header
        # the baseline is the ls-kernels march at the same m, reported alike
        assert run(["ls-kernels", "--config", "example2", "--m", "32",
                    "--out-prefix", str(tmp_path / "lk")]) == 0
        reference = read_report(tmp_path / "b2_report.json")["reference"]
        march = read_report(tmp_path / "lk_report.json")
        assert set(reference) == MARCH_BLOCK
        for key in ("iterations", "final_delta", "sweep_history", "checked_levels"):
            assert reference[key] == march[key], key


class TestSimulate:
    def test_transport_only_stable(self, tmp_path):
        prefix = str(tmp_path / "s")
        assert run(["simulate", "--config", "zero", "--n", "3",
                    "--mx", "64", "--t-final", "2.5", "--open-loop",
                    "--out-prefix", prefix]) == 0
        lines = (tmp_path / "s_sim.csv").read_text().splitlines()
        assert any(line.startswith("# stable: 1") for line in lines)

    def test_solve_order_pipeline(self, tmp_path):
        prefix = str(tmp_path / "s2")
        assert run(["simulate", "--config", "example2", "--mx", "64",
                    "--t-final", "0.5", "--solve-order", "8",
                    "--out-prefix", prefix]) == 0

    def test_problem_without_n_needs_the_option(self, tmp_path, capsys):
        assert run(["simulate", "--config", "example1", "--mx", "32", "--open-loop",
                    "--out-prefix", str(tmp_path / "s")]) == 1
        assert "error: the problem does not fix n; pass --n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gain_file_pipeline(self, tmp_path):
        gains_prefix = str(tmp_path / "g")
        assert run(["ls-kernels", "--config", "example2", "--m", "32",
                    "--out-prefix", gains_prefix]) == 0
        prefix = str(tmp_path / "s3")
        assert run(["simulate", "--config", "example2", "--mx", "48",
                    "--t-final", "0.4", "--gains",
                    str(tmp_path / "g_gains.csv"),
                    "--out-prefix", prefix]) == 0

    def test_gains_sampled_at_other_points_rejected(self, tmp_path, capsys):
        # the same problem with its components at (i-1)/n: 0, 0.1, ..., 0.9
        cfg = dict(load_problem("example2").source)
        cfg["q"] = dict(cfg["q"], points="(i-1)/n")
        path = tmp_path / "left.json"
        path.write_text(json.dumps(cfg))
        assert run(["ls-kernels", "--config", str(path), "--m", "16",
                    "--out-prefix", str(tmp_path / "g")]) == 0
        assert run(["simulate", "--config", "example2", "--mx", "32",
                    "--t-final", "0.1", "--gains", str(tmp_path / "g_gains.csv"),
                    "--out-prefix", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert "y = [0.  0.1" in err and "y = [0.1 0.2" in err
        assert not (tmp_path / "s_sim.csv").exists()

    def test_left_offset_components_get_their_own_gains(self, tmp_path):
        # components at (i-1)/n = 0, 0.05, ...: the series gains are sampled
        # there, the U(t) an in-process run at those points writes
        cfg = dict(load_problem("example2").source)
        cfg["q"] = dict(cfg["q"], points="(i-1)/n")
        path = tmp_path / "left.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(path), "--solve-order", "8",
                    "--n", "20", "--mx", "32", "--t-final", "0.3",
                    "--out-prefix", str(tmp_path / "s")]) == 0
        ls = load_problem(str(path)).large_scale(20)
        np.testing.assert_array_equal(ls.points, np.arange(20) / 20)
        sol = solve_ls(assemble(ls.template, SolverConfig(N=8)))
        table = gains(sol, grid_xi=np.linspace(0, 1, 32), grid_y=ls.points)
        rep = Simulator(SimConfig(n=20, m_x=32, t_final=0.3), ls, table).run()
        U = np.loadtxt(tmp_path / "s_sim.csv", delimiter=",", skiprows=3,
                       usecols=1)
        np.testing.assert_array_equal(U, rep.U)

    def test_gains_sampled_for_another_n_rejected(self, tmp_path, capsys):
        # an n = 10 table used to be interpolated onto the n = 20 components,
        # holding its y = 0.1 row down to y = 0.05, and exit 0
        assert run(["ls-kernels", "--config", "example2", "--m", "16",
                    "--out-prefix", str(tmp_path / "g")]) == 0
        args = ["simulate", "--config", "example2", "--n", "20", "--mx", "32",
                "--t-final", "0.1", "--out-prefix", str(tmp_path / "s")]
        assert run(args + ["--gains", str(tmp_path / "g_gains.csv")]) == 1
        err = capsys.readouterr().err
        assert "10 points y = [0.1 0.2" in err
        assert "20 components sit at y = [0.05 0.1" in err
        assert not (tmp_path / "s_sim.csv").exists()
        # an ensemble table is still resampled at the components
        assert run(["solve", "--config", "example2", "--order", "4",
                    "--out-prefix", str(tmp_path / "e")]) == 0
        assert not read_gain_csv(tmp_path / "e_gains.csv").sampled
        assert run(args + ["--gains", str(tmp_path / "e_gains.csv")]) == 0

    def test_simulation_csv_as_gains_exits_1(self, tmp_path, capsys):
        # used to die with an IndexError traceback in read_gain_csv
        prefix = str(tmp_path / "s")
        args = ["simulate", "--config", "zero", "--n", "2", "--mx", "16",
                "--t-final", "0.1"]
        assert run(args + ["--open-loop", "--out-prefix", prefix]) == 0
        assert run(args + ["--gains", prefix + "_sim.csv",
                           "--out-prefix", str(tmp_path / "t")]) == 1
        assert "'norm'" in capsys.readouterr().err

    @pytest.mark.parametrize("flip", ["rows", "columns"])
    def test_backward_gain_grid_exits_1(self, tmp_path, capsys, flip):
        # reversed xi rows or y columns used to run to exit 0 with a
        # plausible verdict, as np.interp needs increasing points
        path = tmp_path / "g.csv"
        write_gain_csv(GainTable(grid_xi=np.linspace(0, 1, 5), grid_y=[0.5, 1.0],
                                 k=np.arange(10.0).reshape(2, 5), kbar=np.ones(5),
                                 sampled=True), path)
        comment, header, *rows = path.read_text().splitlines()
        lines = [header] + rows[::-1] if flip == "rows" else [
            ",".join(c[:2] + c[2:][::-1]) for c in
            (line.split(",") for line in [header] + rows)]
        path.write_text("\n".join([comment] + lines) + "\n")
        assert run(["simulate", "--config", "zero", "--n", "2", "--mx", "16",
                    "--t-final", "0.1", "--gains", str(path),
                    "--out-prefix", str(tmp_path / "s")]) == 1
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "s_sim.csv").exists()

    def test_default_horizon_reports_stable(self, tmp_path, capsys):
        # the default t_final is 2 t_F = 2 (1/mu + 1/lambda) = 4 for example2
        prefix = str(tmp_path / "d")
        assert run(["simulate", "--config", "example2", "--solve-order", "20",
                    "--out-prefix", prefix]) == 0
        assert "simulate: stable" in capsys.readouterr().out
        report = read_report(tmp_path / "d_report.json")
        assert report["manifest"]["arguments"]["t_final"] == 4.0
        # the config fixes n: the argument is null, the report says which ran
        assert report["manifest"]["arguments"]["n"] is None and report["n"] == 10
        assert report["quality"]["verdict"] == "stable"
        assert report["quality"]["norm_ratio"] < 1e-3
        assert report["steps"] * report["dt"] == pytest.approx(4.0)

    def test_missing_output_directory_is_created(self, tmp_path):
        prefix = tmp_path / "a" / "b" / "s"
        assert run(["simulate", "--config", "zero", "--n", "2", "--mx", "32",
                    "--t-final", "0.5", "--open-loop",
                    "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / "a" / "b" / "s_sim.csv").exists()
        read_report(tmp_path / "a" / "b" / "s_report.json")

    def test_diverged_run_writes_a_strict_report(self, tmp_path):
        # an initial state past the divergence guard: the final norm is inf
        assert run(["simulate", "--config", "zero", "--n", "2", "--mx", "32",
                    "--t-final", "0.5", "--open-loop", "--amplitude", "1e13",
                    "--out-prefix", str(tmp_path / "s")]) == 0
        quality = read_report(tmp_path / "s_report.json")["quality"]
        assert quality["verdict"] == "diverged"
        assert "final_norm" not in quality and "norm_ratio" not in quality

    def test_rerun_writes_identical_csv(self, tmp_path):
        argv = ["simulate", "--config", "example2", "--mx", "32", "--t-final", "0.2",
                "--solve-order", "4", "--out-prefix", str(tmp_path / "s")]
        assert run(argv) == 0
        csv = (tmp_path / "s_sim.csv").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "s_sim.csv").read_bytes() == csv

    def test_report_step_time_and_faults(self, tmp_path):
        argv = ["simulate", "--config", "example2", "--mx", "32", "--t-final", "0.2",
                "--solve-order", "4", "--out-prefix", str(tmp_path / "s")]
        assert run(argv) == 0
        report = read_report(tmp_path / "s_report.json")
        assert report["steps"] == len((tmp_path / "s_sim.csv").read_text()
                                      .splitlines()) - 4
        # building the simulator is its own stage, outside the step time
        assert report["stages_s"]["init"] > 0.0
        assert report["step_ms"] == pytest.approx(
            1e3 * report["stages_s"]["run"] / report["steps"], rel=1e-12)
        assert isinstance(report["minor_faults"], int)
        assert report["minor_faults"] >= 0

    def test_unwritable_output_directory_exits_1(self, tmp_path, capsys):
        (tmp_path / "f").write_text("a file, not a directory")
        assert run(["simulate", "--config", "zero", "--n", "2", "--mx", "32",
                    "--t-final", "0.5", "--open-loop",
                    "--out-prefix", str(tmp_path / "f" / "sub" / "s")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--amplitude", "--t-final"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, flag, value):
        assert run(["simulate", "--config", "example2", "--open-loop",
                    flag, value, "--out-prefix", str(tmp_path / "s")]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "s_sim.csv").exists()

    def test_needs_a_control_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--config", "example2",
                 "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert ("ckpde simulate: error: one of the arguments --gains "
                "--solve-order --open-loop is required") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("other, conflict", [
        (["--open-loop"], "--solve-order: not allowed with argument --open-loop"),
        (["--gains", "g.csv"], "--solve-order: not allowed with argument --gains")],
        ids=["open-loop", "gains"])
    def test_control_sources_exclude_each_other(self, tmp_path, capsys, other,
                                                conflict):
        # both used to exit 0: the open loop, or the gain file, won silently
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--config", "example2", *other, "--solve-order", "20",
                 "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert f"ckpde simulate: error: argument {conflict}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--solve-order-y", "3"], ["--sigma-sign", "-1"]],
                             ids=["solve-order-y", "sigma-sign"])
    @pytest.mark.parametrize("control", ["open-loop", "gains"])
    def test_solve_options_need_solve_order(self, tmp_path, capsys, flag, control):
        # both used to be ignored: the run went on without them, exit 0
        path = tmp_path / "g.csv"
        write_gain_csv(GainTable(grid_xi=np.linspace(0, 1, 5), grid_y=[0.0, 1.0],
                                 k=np.zeros((2, 5)), kbar=np.zeros(5)), path)
        source = ["--open-loop"] if control == "open-loop" else ["--gains", str(path)]
        assert run(["simulate", "--config", "zero", "--n", "2", "--mx", "16",
                    "--t-final", "0.1", *source, *flag,
                    "--out-prefix", str(tmp_path / "s")]) == 1
        assert f"error: {flag[0]} applies only to --solve-order" in \
            capsys.readouterr().err
        assert not (tmp_path / "s_sim.csv").exists()

    @pytest.mark.parametrize("grid_xi, grid_y, named", [
        (np.linspace(0.0, 0.5, 5), [0.0, 1.0],
         "xi grid on [0, 0.5], which does not cover [0, 1]"),
        (np.linspace(0.0, 1.0, 5), [0.4, 0.6],
         "y grid on [0.4, 0.6], which does not cover the components' span [0.1, 1]")],
        ids=["xi", "y"])
    def test_gain_table_short_of_the_run_exits_1(self, tmp_path, capsys, grid_xi,
                                                 grid_y, named):
        # np.interp holds a table's end values: both used to exit 0 and
        # simulate with gains the table never held
        path = tmp_path / "g.csv"
        write_gain_csv(GainTable(grid_xi=grid_xi, grid_y=grid_y,
                                 k=np.ones((len(grid_y), len(grid_xi))),
                                 kbar=np.ones(len(grid_xi)), sampled=False), path)
        assert run(["simulate", "--config", "example2", "--mx", "16",
                    "--t-final", "0.1", "--gains", str(path),
                    "--out-prefix", str(tmp_path / "s")]) == 1
        assert f"gain table {path} has a {named}" in capsys.readouterr().err
        assert not (tmp_path / "s_sim.csv").exists()

    def test_solve_block_matches_solve(self, tmp_path):
        # the same series solve behind both commands reports the same block
        assert run(["simulate", "--config", "example2", "--solve-order", "8",
                    "--mx", "32", "--t-final", "0.1",
                    "--out-prefix", str(tmp_path / "s")]) == 0
        assert run(["solve", "--config", "example2", "--order", "8",
                    "--out-prefix", str(tmp_path / "e")]) == 0
        block = read_report(tmp_path / "s_report.json")["solve"]
        solve = read_report(tmp_path / "e_report.json")
        assert set(block) == SOLVE_BLOCK
        for key in SOLVE_BLOCK - {"stages_s", "timing_s"}:
            assert block[key] == solve[key], key


class TestLsKernels:
    def test_solve_and_report(self, tmp_path):
        prefix = str(tmp_path / "lk")
        assert run(["ls-kernels", "--config", "example2", "--m", "24",
                    "--out-prefix", prefix]) == 0
        rep = json.loads((tmp_path / "lk_report.json").read_text())
        # the march solves in one pass and the spot check certifies it: the
        # check counts as the second sweep and changes nothing
        assert rep["iterations"] == 2
        assert rep["sweep_history"][-1] == 0.0
        assert len(rep["sweep_history"]) == rep["iterations"]
        assert rep["sweep_history"][-1] == rep["final_delta"]
        assert rep["checked_levels"] == [16, 24]
        assert set(rep["stages_s"]) == MARCH_STAGES
        assert all(t >= 0.0 for t in rep["stages_s"].values())
        table = read_gain_csv(tmp_path / "lk_gains.csv")
        assert table.sampled and table.k.shape == (10, 25)
        # timings stay out of the gain CSV: a rerun writes the same bytes
        csv = (tmp_path / "lk_gains.csv").read_bytes()
        assert run(["ls-kernels", "--config", "example2", "--m", "24",
                    "--out-prefix", prefix]) == 0
        assert (tmp_path / "lk_gains.csv").read_bytes() == csv

    def test_problem_without_n_needs_the_option(self, tmp_path, capsys):
        assert run(["ls-kernels", "--config", "example1", "--m", "16",
                    "--out-prefix", str(tmp_path / "lk")]) == 1
        assert "error: the problem does not fix n; pass --n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_refine_mode(self, tmp_path, capsys):
        assert run(["ls-kernels", "--config", "example2", "--refine", "8,16,32",
                    "--out-prefix", str(tmp_path / "rf")]) == 0
        out = capsys.readouterr().out
        assert "refinement ratio" in out
        # the report holds the ladder and one march block per mesh
        rep = read_report(tmp_path / "rf_report.json")
        assert rep["m_list"] == [8, 16, 32] and len(rep["diffs"]) == 2
        assert rep["ratios"] == [rep["diffs"][0] / rep["diffs"][1]]
        assert rep["quality"] == {"diff": rep["diffs"][-1], "ratio": rep["ratios"][-1]}
        assert [len(b["sweep_history"]) for b in rep["meshes"]] == [2, 2, 2]
        assert [b["checked_levels"] for b in rep["meshes"]] == [[8], [16], [16, 32]]
        # every stage of the meshes is summed, none dropped
        assert set(rep["stages_s"]) == MARCH_STAGES
        for stage in MARCH_STAGES:
            assert rep["stages_s"][stage] == pytest.approx(
                sum(b["stages_s"][stage] for b in rep["meshes"]))


def test_usage_error_exits_1(capsys):
    assert main.__module__ == "continuum_kernels.cli"
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--config", "example1"])  # a missing required argument
    assert exc.value.code == 1
    # the usage line, then what is wrong
    err = capsys.readouterr().err
    assert err.startswith("usage: ckpde solve")
    assert err.endswith("ckpde solve: error: the following arguments are "
                        "required: --order/-N\n")


@pytest.mark.parametrize("argv, error", [
    (["bench", "--example", "example1", "--orders", "4,x"], "--orders: 'x'"),
    (["bench", "--example", "example1", "--orders", "4", "--fit-degrees", "2, y"],
     "--fit-degrees: 'y'"),
    (["ls-kernels", "--config", "example2", "--refine", "8,z"], "--refine: 'z'")],
    ids=["orders", "fit-degrees", "refine"])
def test_comma_lists_name_the_flag_and_entry(tmp_path, capsys, argv, error):
    # each used to fail with int()'s "invalid literal for int() with base 10"
    assert run(argv + ["--out-prefix" if argv[0] == "ls-kernels" else "--out",
                       str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {error} is not an integer\n"
    assert not list(tmp_path.iterdir())


def test_cold_start_imports():
    # any scipy module is about 0.3 s of start-up, and only the series
    # solver needs scipy: it imports it inside the functions that use it
    code = ("import sys, continuum_kernels.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = str(Path(continuum_kernels.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_solve_skips_sparse_linalg(tmp_path):
    # the certificate's ||A||_F is numpy's norm of A's stored values, so a
    # solve loads scipy.sparse and LAPACK but not scipy.sparse.linalg, about
    # 10 ms of import
    code = ("import sys; from continuum_kernels import cli; "
            "assert cli.main(['solve', '--config', 'example2', '--order', '8']) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg')))")
    src = str(Path(continuum_kernels.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"

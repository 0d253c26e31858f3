import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wsobolev
from wsobolev import cli
from wsobolev.cli import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    EXIT_VERIFICATION,
    OUTPUT_DIR_ENV,
    SUBCOMMANDS,
    _canonical_json,
    _round_floats,
    _state_from_string,
    emit_report,
    main,
    run,
)
from wsobolev.config import parse_config
from wsobolev.grid import build_grid
from wsobolev.weights import BallEntry, DoublingReport


GAUSS_1D = {"beta": 1.0, "q": 2.0, "dim": 1}


def small_config(**overrides):
    doc = {
        "weight": {"beta": 1.0, "q": 2.0, "dim": 1},
        "grid": {"half_width": 6.0, "nodes_per_axis": 151},
    }
    doc.update(overrides)
    return parse_config(doc)


class TestHelpers:
    def test_round_floats(self):
        out = _round_floats({"a": 0.1 + 0.2, "b": [1.0 / 3.0], "c": "s", "d": 2})
        assert out["a"] == 0.3
        assert out["b"][0] == float(f"{1/3:.12g}")
        assert out["c"] == "s" and out["d"] == 2

    def test_canonical_json_sorted_and_stable(self):
        a = _canonical_json({"b": 1.0, "a": {"z": 0.1 + 0.2, "y": 2}})
        b = _canonical_json({"a": {"y": 2, "z": 0.3}, "b": 1.0})
        assert a == b
        assert a.endswith("\n")
        assert a.index('"a"') < a.index('"b"')

    def test_emit_report_json_and_csv(self, tmp_path):
        paths = emit_report({"plain": {"x": 1.0}, "rows": "a,b\n1,2\n"}, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["plain.json", "rows.csv"]
        assert json.loads((tmp_path / "plain.json").read_text()) == {"x": 1.0}
        assert (tmp_path / "rows.csv").read_text() == "a,b\n1,2\n"

    def test_state_from_expression(self):
        g = build_grid(1, 2.0, 21)
        f = _state_from_string("x*x", g, "stationary.source")
        np.testing.assert_allclose(f.values, g.axis() ** 2)



class TestTwoDimensional:
    CONFIG = {
        "weight": {"beta": 1.0, "q": 2.0, "dim": 2,
                   "V": [{"kind": "cosine", "c": 0.1, "k": [1.0, 2.0]}]},
        "grid": {"half_width": 3.0, "nodes_per_axis": 41},
        "p": 2.0,
        "balls": [{"center": [0.0, 0.0], "radius": 1.0},
                  {"center": [0.6, -0.3], "radius": 0.6}],
        "approximate": {"u0": "max(1 - x*x - 0.5*y*y, 0)", "support_radius": 1.5,
                        "schedule": [0.6, 0.3, 0.15]},
    }

    def run_main(self, tmp_path, *args):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        code = main([*args, "--config", str(cfg), "--out", str(out)])
        return code, out

    def test_weight_report(self, tmp_path):
        code, out = self.run_main(tmp_path, "weight-report")
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "admissibility.json", "doubling.json", "muckenhoupt.json",
            "reciprocal_integrability.json"]
        doubling = json.loads((out / "doubling.json").read_text())
        assert [e["center"] for e in doubling["entries"]] == [[0.0, 0.0], [0.6, -0.3]]
        assert doubling["constant"] >= 1.0
        assert json.loads((out / "muckenhoupt.json").read_text())["constant"] >= 1.0
        assert json.loads((out / "reciprocal_integrability.json").read_text())["ok"] is True

    def test_approximate(self, tmp_path):
        code, out = self.run_main(tmp_path, "approximate")
        rep = json.loads((out / "approximation.json").read_text())
        assert code == (EXIT_OK if rep["passed"] else EXIT_VERIFICATION)
        assert rep["passed"] == (rep["final_relative_error"] <= rep["tol"])
        errors = [step["sobolev_error"] for step in rep["steps"]]
        assert errors == sorted(errors, reverse=True)
        assert (out / "approximation_steps.csv").exists()


class TestSubcommands:
    def test_subcommand_tuple(self):
        assert SUBCOMMANDS == (
            "weight-report",
            "constants",
            "verify-inequalities",
            "approximate",
            "solve-evolution",
            "solve-stationary",
        )

    def test_weight_report(self, tmp_path):
        code = run("weight-report", small_config(), tmp_path)
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "admissibility.json",
            "doubling.json",
            "muckenhoupt.json",
            "reciprocal_integrability.json",
        ]
        adm = json.loads((tmp_path / "admissibility.json").read_text())
        assert adm["admissible"] is True
        muck = json.loads((tmp_path / "muckenhoupt.json").read_text())
        assert muck["constant"] >= 1.0

    def test_weight_report_p1_skips_muckenhoupt(self, tmp_path):
        code = run("weight-report", small_config(p=1.0), tmp_path)
        assert code == EXIT_OK
        assert not (tmp_path / "muckenhoupt.json").exists()

    def test_constants(self, tmp_path):
        code = run("constants", small_config(), tmp_path)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "constant_chain.json").read_text())
        assert doc["C"] == 0.5
        assert doc["D"] == 2.5
        assert doc["C_prime"] == 0.5
        assert doc["D_prime"] == 3.0

    def test_verify_passes(self, tmp_path):
        code = run("verify-inequalities", small_config(), tmp_path)
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["all_hold"] is True
        assert summary["corpus_size"] > 0
        assert summary["constants_source"] == "formula"
        rows = (tmp_path / "verify_xq.csv").read_text().splitlines()
        assert rows[0] == "corpus_id,lhs,rhs,margin,quadrature_error_estimate,holds"
        assert all(r.endswith(",true") for r in rows[1:])

    # c * int |grad f|^p overflows with a RuntimeWarning before the report refuses it
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_verify_non_finite_row_exits_1(self, tmp_path, capsys):
        code = run("verify-inequalities", small_config(verify={"c": 1e308}), tmp_path)
        assert code == EXIT_OPERATIONAL
        assert re.fullmatch(r"error: verify_poincare\[\d+\]\.rhs: inf is not a finite number, "
                            r"so the report cannot be written\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_verify_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("verify-inequalities", small_config(), a) == EXIT_OK
        assert run("verify-inequalities", small_config(), b) == EXIT_OK
        for name in ("verify_summary.json", "verify_xq.csv",
                     "verify_potential.csv", "verify_poincare.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_verify_override_failure_exits_2(self, tmp_path):
        cfg = small_config(verify={"C": 1e-9, "D": 1e-9})
        code = run("verify-inequalities", cfg, tmp_path)
        assert code == EXIT_VERIFICATION
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["all_hold"] is False
        assert summary["constants_source"] == "config override"

    def test_approximate_smooth_passes(self, tmp_path):
        # 301 nodes: the smallest mollification scale must stay >= the spacing
        cfg = small_config(
            grid={"nodes_per_axis": 301},
            approximate={
                "u0": "exp(-x*x) * max(1 - (x/3)**2, 0)**2",
                "support_radius": 3.0,
            },
        )
        code = run("approximate", cfg, tmp_path)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "approximation.json").read_text())
        assert doc["passed"] is True
        steps = (tmp_path / "approximation_steps.csv").read_text().splitlines()
        assert steps[0] == "eps,lp_error,grad_lp_error,sobolev_error"
        assert len(steps) == 4

    def test_approximate_csv_writes_each_table_once(self, tmp_path):
        cfg = small_config(grid={"nodes_per_axis": 301})
        run("approximate", cfg, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "approximation.json", "approximation_steps.csv"]

    def test_approximate_kink_fails_tolerance(self, tmp_path):
        # the default tent-shaped u0 keeps a gradient-norm plateau near 1e-2;
        # the report is still written, the exit code says "checked and false"
        code = run("approximate", small_config(grid={"nodes_per_axis": 301}), tmp_path)
        assert code == EXIT_VERIFICATION
        doc = json.loads((tmp_path / "approximation.json").read_text())
        assert doc["passed"] is False
        errs = [s["sobolev_error"] for s in doc["steps"]]
        assert errs[0] > errs[1] > errs[2]

    def test_solve_evolution(self, tmp_path):
        cfg = small_config(evolution={"T": 0.02, "tau": 0.01})
        code = run("solve-evolution", cfg, tmp_path)
        assert code == EXIT_OK
        names = {p.name for p in tmp_path.iterdir()}
        assert {"trajectory.csv", "final_state.csv", "evolution.json"} <= names
        doc = json.loads((tmp_path / "evolution.json").read_text())
        assert doc["steps"] == 2
        assert doc["final_energy"] <= doc["initial_energy"]
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,energy,mean,inner_iters"
        assert len(rows) == 4

    def test_solve_evolution_gate_failure(self, tmp_path):
        cfg = small_config(
            p=3.0, evolution={"T": 0.02, "tau": 0.01, "dualization": "lebesgue"}
        )
        code = run("solve-evolution", cfg, tmp_path)
        assert code == EXIT_OPERATIONAL
        gate = json.loads((tmp_path / "integrability_gate.json").read_text())
        assert gate["passes"] is False

    def test_solve_evolution_lebesgue_runs(self, tmp_path):
        cfg = parse_config(
            {
                "weight": {"beta": -0.5, "q": 2.0, "dim": 1},
                "grid": {"half_width": 2.0, "nodes_per_axis": 101},
                "p": 3.0,
                "evolution": {
                    "u0": "max(1 - x*x, 0)",
                    "T": 0.01,
                    "tau": 0.005,
                    "dualization": "lebesgue",
                },
            }
        )
        code = run("solve-evolution", cfg, tmp_path)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "evolution.json").read_text())
        assert doc["dualization"] == "lebesgue"

    def test_solve_stationary(self, tmp_path):
        cfg = small_config(stationary={"source": "2*x"})
        code = run("solve-stationary", cfg, tmp_path)
        assert code == EXIT_OK
        names = {p.name for p in tmp_path.iterdir()}
        assert {"solution.csv", "stationary.json"} <= names
        doc = json.loads((tmp_path / "stationary.json").read_text())
        assert doc["residual"] <= 1e-6
        assert doc["iterations"] > 0

    def test_solve_stationary_incompatible_source(self, tmp_path, capsys):
        cfg = small_config(stationary={"source": "x + 1"})
        code = run("solve-stationary", cfg, tmp_path)
        assert code == EXIT_OPERATIONAL
        assert "incompatible" in capsys.readouterr().err

    def test_unknown_subcommand(self, tmp_path, capsys):
        code = run("frobnicate", small_config(), tmp_path)
        assert code == EXIT_OPERATIONAL
        assert "unknown subcommand" in capsys.readouterr().err

    def test_bad_expression_is_operational(self, tmp_path, capsys):
        cfg = small_config(evolution={"u0": "x + nope", "T": 0.01, "tau": 0.01})
        code = run("solve-evolution", cfg, tmp_path)
        assert code == EXIT_OPERATIONAL
        assert "unknown name" in capsys.readouterr().err


class TestMain:
    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "run.json"
        doc = doc or {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 1},
            "grid": {"nodes_per_axis": 151},
        }
        path.write_text(json.dumps(doc))
        return path

    def test_constants_end_to_end(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["constants", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "constant_chain.json").exists()

    def test_file_source_is_a_bad_expression(self, tmp_path, capsys):
        # a state is always an expression; a path is one that does not parse
        cfg = self.write_config(tmp_path, {"weight": {"beta": 1.0, "q": 2.0, "dim": 1},
                                           "stationary": {"source": "file:x.bin"}})
        code = main(["solve-stationary", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_OPERATIONAL
        err = capsys.readouterr().err
        assert err.startswith("error: stationary.source: cannot parse 'file:x.bin'") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("args, named", [
        (["constants", "--config", "c.json", "--bogus"], "--bogus"),
        (["weight-report", "--config", "c.json", "--format", "csv"], "--format"),
        ([], "subcommand"),
    ])
    def test_usage_error_is_operational(self, args, named, capsys):
        assert main(args) == EXIT_OPERATIONAL
        assert named in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "solve-stationary" in capsys.readouterr().out

    def test_readme_shows_the_help_page(self, capsys, monkeypatch):
        # one page for the program and every subcommand, as the README prints it
        monkeypatch.setenv("COLUMNS", "80")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for argv in (["--help"], ["constants", "--help"]):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out in readme

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["constants", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OPERATIONAL

    def test_config_error_reported(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"weight": {"beta": 1.0, "q": 1.0, "dim": 1}}
        )
        code = main(["constants", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_OPERATIONAL
        assert "weight.q" in capsys.readouterr().err

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        monkeypatch.chdir(tmp_path)
        code = main(["constants", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (target / "constant_chain.json").exists()

    def test_console_script_smoke(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        # the child imports the same package this process imported, installed or not
        src = str(Path(wsobolev.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wsobolev", "constants",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "constant_chain.json").exists()


def run_main(tmp_path, subcommand, doc, name="run"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    return main([subcommand, "--config", str(cfg), "--out", str(out)]), out


class TestStateFailures:
    """A state that cannot be evaluated or written fails with one error line
    and leaves the output directory empty."""

    @pytest.mark.parametrize("source, message", [
        ("sin()", "stationary.source: sin() takes 1 argument, got 0"),
        ("sin(x, x)", "stationary.source: sin() takes 1 argument, got 2"),
        ("9**9**9", "stationary.source: '9**9**9' is inf at x = (-6.0,), not a finite number"),
        ("1e400*x", "stationary.source: '1e400*x' is -inf at x = (-6.0,), not a finite number"),
        ("sqrt(-1-x*x)",
         "stationary.source: 'sqrt(-1-x*x)' is nan at x = (-6.0,), not a finite number"),
    ])
    def test_bad_source_is_one_error_line(self, source, message, tmp_path, capsys):
        doc = {"weight": GAUSS_1D, "stationary": {"source": source}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "solve-stationary", doc)
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, section, key", [
        ("solve-stationary", "stationary", "source"),
        ("solve-evolution", "evolution", "u0"),
        ("approximate", "approximate", "u0"),
    ])
    def test_non_finite_state_names_its_path(self, subcommand, section, key, tmp_path, capsys):
        doc = {"weight": GAUSS_1D, "grid": {"half_width": 2.0, "nodes_per_axis": 41},
               section: {key: "1 / (x - 1)"}}
        code, out = run_main(tmp_path, subcommand, doc)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == (
            f"error: {section}.{key}: '1 / (x - 1)' is inf at x = (1.0,), not a finite number\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, section, key", [
        ("solve-stationary", "stationary", "source"),
        ("solve-evolution", "evolution", "u0"),
        ("approximate", "approximate", "u0"),
    ])
    def test_bad_expression_names_its_path(self, subcommand, section, key, tmp_path, capsys):
        doc = {"weight": GAUSS_1D, "grid": {"half_width": 2.0, "nodes_per_axis": 41},
               section: {key: "x + nope"}}
        code, out = run_main(tmp_path, subcommand, doc)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == f"error: {section}.{key}: unknown name 'nope'\n"
        assert not any(out.iterdir())

    def test_non_finite_report_writes_no_state(self, tmp_path, monkeypatch):
        solve = cli.solve_stationary
        monkeypatch.setattr(cli, "solve_stationary", lambda *args: dataclasses.replace(
            solve(*args), residual=math.nan))
        assert run("solve-stationary", small_config(), tmp_path) == EXIT_OPERATIONAL
        assert not any(tmp_path.iterdir())

    def test_non_finite_state_is_not_written(self, tmp_path, monkeypatch, capsys):
        solve = cli.solve_stationary

        def nan_at_origin(*args):
            result = solve(*args)
            result.state.values[75] = math.nan
            return result

        monkeypatch.setattr(cli, "solve_stationary", nan_at_origin)
        assert run("solve-stationary", small_config(), tmp_path) == EXIT_OPERATIONAL
        assert capsys.readouterr().err == ("error: solution: nan at x = (0.0,) is not a finite "
                                           "number, so the report cannot be written\n")
        assert not any(tmp_path.iterdir())


class TestReportsAgree:
    """weight-report and constants read delta, gamma and osc_V off one fit."""

    CASES = {
        "power-w-1d-coarse-lattice": {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 1,
                       "W": [{"kind": "power_abs", "c": 0.3, "s": 2.0}]},
            "grid": {"nodes_per_axis": 151},
            "constants": {"L": 8.0},
        },
        "cosine-v-2d": {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 2,
                       "V": [{"kind": "cosine", "c": 0.3, "k": [0.3, 0.3]}]},
            "grid": {"half_width": 4.0, "nodes_per_axis": 41},
            "constants": {"L": 16.0},
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_fits(self, case, tmp_path):
        doc = self.CASES[case]
        code, out = run_main(tmp_path, "weight-report", doc, "report")
        assert code == EXIT_OK
        adm = json.loads((out / "admissibility.json").read_text())
        code, out = run_main(tmp_path, "constants", doc, "chain")
        assert code == EXIT_OK
        chain = json.loads((out / "constant_chain.json").read_text())["inputs"]
        for key in ("delta", "gamma", "osc_V"):
            assert chain[key] == adm[key], key


class TestCertifiedOverflow:
    HUGE_C = {"weight": {"beta": 1e3, "q": 2.0, "dim": 1}, "grid": {"nodes_per_axis": 151}}
    # beta |x|^2 leaves float range beyond |x| = 4.24, and a_L = beta 4^2 = 1.6e308
    HUGE_BETA = {"weight": {"beta": 1e307, "q": 2.0, "dim": 1},
                 "grid": {"nodes_per_axis": 151}}

    @pytest.mark.parametrize("subcommand, code, stderr", [
        ("weight-report", EXIT_OPERATIONAL, "error: weight vanishes at several nodes"),
        ("solve-stationary", EXIT_OK, ""),
    ])
    def test_overflowing_exponent_is_an_underflow(self, subcommand, code, stderr, tmp_path,
                                                  capsys):
        # the weight clamps to the smallest float there, with no overflow warning
        assert run_main(tmp_path, subcommand, self.HUGE_BETA)[0] == code
        err = capsys.readouterr().err
        assert err.startswith(stderr) and err.count("\n") == (1 if stderr else 0)

    def test_opposite_overflows_name_the_node(self, tmp_path, capsys):
        # beta |x|^2 and W = -1e307 |x|^2 both overflow beyond |x| = 4.24: inf - inf
        doc = {**self.HUGE_BETA, "weight": {**self.HUGE_BETA["weight"], "W": [
            {"kind": "power_abs", "c": -1e307, "s": 2.0}]}}
        code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == "error: log w is undefined (inf - inf) at x = (-6.0,)\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, c, message", [
        ("weight-report", 1e307, "weight vanishes at several nodes, e.g. node 126"),
        ("weight-report", -1e307, "log w is undefined (inf - inf) at x = (-6.0,)"),
        ("constants", 1e307, "L = 4 must exceed D' = inf"),
        ("constants", -1e307, "L = 4 must exceed D' = inf"),
    ])
    def test_potential_beyond_float_range_is_one_error_line(self, subcommand, c, message,
                                                            tmp_path, capsys):
        # the admissibility fits take W beyond float range as infinite, as the
        # exponent does, so no numpy warning precedes the error line
        doc = {"weight": {"beta": 1e307, "q": 2.0, "dim": 1,
                          "W": [{"kind": "power_abs", "c": c, "s": 2.0}]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_main(tmp_path, subcommand, doc)[0]
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_undefined_gradient_is_one_error_line(self, tmp_path, capsys):
        # k x overflows to inf on most of the box, where sin(inf) is NaN
        doc = {"weight": {**GAUSS_1D, "W": [{"kind": "cosine", "c": 10.0, "k": [1e308]},
                                            {"kind": "cosine", "c": -10.0, "k": [1.1e308]}]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "constants", doc)
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == "error: grad W is undefined (NaN) at x = (-6.0,)\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
    def test_log_c_overflow(self, subcommand, tmp_path, capsys):
        code, out = run_main(tmp_path, subcommand, self.HUGE_BETA)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == "error: log c leaves float range (a_L = 1.6e+308)\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_report_rejects_non_finite(self, value, tmp_path):
        results = {"admissibility": {"delta": 1.0},
                   "doubling": DoublingReport((BallEntry((0.0,), 1.0, value),), 2.0)}
        with pytest.raises(ValueError, match=r"^doubling\.entries\[0\]\.value: "):
            emit_report(results, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_constants_report_log_c(self, tmp_path):
        code, out = run_main(tmp_path, "constants", self.HUGE_C)
        assert code == EXIT_OK
        doc = json.loads((out / "constant_chain.json").read_text())
        assert doc["c"] is None
        assert doc["a_L"] == 16000.0  # 1e3 * 4^2
        # c = 2^q (e^(2 a_L) C4 L^(p(p-1)) + C'/L) / (1 - D'/L); C'/L is negligible
        expected = 2 * math.log(2.0) + 32000.0 + math.log(16.0) - math.log1p(-doc["D_prime"] / 4)
        assert doc["log_c"] == pytest.approx(expected, rel=1e-9)

    def test_log_c_only_when_c_overflows(self, tmp_path):
        code, out = run_main(tmp_path, "constants", {**self.HUGE_C, "weight": GAUSS_1D})
        assert code == EXIT_OK
        doc = json.loads((out / "constant_chain.json").read_text())
        assert "log_c" not in doc and doc["c"] > 0.0

    def test_verify_names_log_c(self, tmp_path, capsys):
        code, out = run_main(tmp_path, "verify-inequalities", self.HUGE_C)
        assert code == EXIT_OPERATIONAL
        assert "log_c" in capsys.readouterr().err
        assert not (out / "verify_summary.json").exists()

    def test_verify_with_override_c(self, tmp_path):
        code, out = run_main(tmp_path, "verify-inequalities",
                             {**self.HUGE_C, "verify": {"c": 1.0}})
        assert code == EXIT_OK
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["constants"]["c"] == 1.0
        assert summary["constants_source"] == "config override"

    @pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
    def test_osc_v_overflow(self, subcommand, tmp_path, capsys):
        doc = {"weight": {**GAUSS_1D, "V": [{"kind": "cosine", "c": 400.0, "k": [1.0]}]},
               "grid": {"nodes_per_axis": 151}}
        code, _ = run_main(tmp_path, subcommand, doc)
        assert code == EXIT_OPERATIONAL
        assert "osc_V" in capsys.readouterr().err


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    return json.loads(block)


@pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
def test_readme_config_runs(subcommand, tmp_path):
    code, _ = run_main(tmp_path, subcommand, _readme_config())
    assert code == EXIT_OK

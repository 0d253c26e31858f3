import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsobolev
from wsobolev import cli
from wsobolev.cli import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    EXIT_VERIFICATION,
    SUBCOMMANDS,
    _canonical_json,
    _round_floats,
    _state_csv,
    _state_from_string,
    emit_report,
    main,
    run,
)
from wsobolev.config import parse_config
from wsobolev.grid import Grid, GridFunction, build_grid
from wsobolev.weights import BallEntry, DoublingReport

from test_weights import OUTSIDE_HYPOTHESES


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_state_csv_rows_format_each_node(self, data):
        # the one-template CSV holds, per node in C order, the line that
        # f"{x:.12g},{y:.12g},{v:.12g}" gives, signed zeros, subnormals and
        # values near the ends of float range included
        dim = data.draw(st.sampled_from([1, 2]))
        n = 2 * data.draw(st.integers(1, 12 if dim == 1 else 5)) + 1
        grid = Grid(dim, data.draw(st.sampled_from([1e-300, 1e-5, 1.0 / 3.0, 6.0, 1e300])), n)
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
                             1e-300, -1e-300, 1.7976931348623157e308]),
            st.floats(allow_nan=False, allow_infinity=False))
        vals = np.array(data.draw(st.lists(value, min_size=n**dim, max_size=n**dim)))
        lines = _state_csv(GridFunction(grid, vals.reshape(grid.shape)), "state").split("\n")
        assert lines[0] == ",".join("xy"[:dim]) + ",value" and lines[-1] == ""
        nodes = itertools.product(grid.axis().tolist(), repeat=dim)
        expected = [",".join(f"{c:.12g}" for c in (*x, v)) for x, v in zip(nodes, vals.tolist())]
        assert lines[1:-1] == expected



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
            "admissibility.json", "doubling.json", "muckenhoupt.json"]
        doubling = json.loads((out / "doubling.json").read_text())
        assert [e["center"] for e in doubling["entries"]] == [[0.0, 0.0], [0.6, -0.3]]
        assert doubling["constant"] >= 1.0
        assert json.loads((out / "muckenhoupt.json").read_text())["constant"] >= 1.0

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

    def test_solve_evolution_gate_refuses_a_coarse_grid(self, tmp_path, capsys):
        # the integrable reciprocal of w = e^(x^2): five nodes nest no four boxes
        doc = {"weight": {"beta": -1.0, "q": 2.0, "dim": 1}, "p": 3.0,
               "grid": {"half_width": 2.0, "nodes_per_axis": 5},
               "evolution": {"u0": "x", "T": 0.01, "tau": 0.01, "dualization": "lebesgue"}}
        code, out = run_main(tmp_path, "solve-evolution", doc)
        assert code == EXIT_OPERATIONAL and not out.exists()
        assert capsys.readouterr().err == ("error: the integrability gate needs nodes_per_axis "
                                           ">= 9 to nest four distinct boxes, got 5\n")

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
        # only --out names the output directory; WSOBOLEV_OUT no longer does
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("WSOBOLEV_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["constants", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (tmp_path / "wsobolev-out" / "constant_chain.json").exists()
        assert not (tmp_path / "envout").exists()

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

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        # the parser is built at import; each call sees the streams of its own time
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([]) == EXIT_OPERATIONAL
        assert "subcommand" in err.getvalue()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["--help"]) == EXIT_OK
        assert "solve-stationary" in out.getvalue()
        cfg = self.write_config(tmp_path)
        reports = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["constants", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            reports.append((out_dir / "constant_chain.json").read_bytes())
        assert reports[0] == reports[1]
        assert built == []

    def test_package_import_leaves_the_cli_out(self):
        src = str(Path(wsobolev.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, wsobolev; print('wsobolev.cli' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def run_main(tmp_path, subcommand, doc, name="run"):
    """Run main on a config: a document, or the config file's text."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / name
    return main([subcommand, "--config", str(cfg), "--out", str(out)]), out


@pytest.mark.parametrize("doc, message", [
    ({"grid": {"nodes_per_axis": 101.0}}, "grid.nodes_per_axis: expected an integer, got 101.0"),
    ({"grid": {"nodes_per_axis": 1}}, "grid.nodes_per_axis: must be >= 3, got 1"),
    ({"evolution": {"u0": 3}}, "evolution.u0: expected a string, got 3"),
    ({"weight": {**GAUSS_1D, "W": 3}}, "weight.W: expected a list of terms"),
    # a number out of its range
    ({"grid": {"half_width": 0}}, "grid.half_width: must be > 0, got 0"),
    ({"p": 0.5}, "config.p: must be >= 1, got 0.5"),
    ({"evolution": {"tau": 0}}, "evolution.tau: must be > 0, got 0"),
    ({"constants": {"eps0": 0}}, "constants.eps0: must be > 0, got 0"),
    ({"balls": [{"center": [0], "radius": 0}]}, "balls[0].radius: must be > 0, got 0"),
    ({"verify": {"c": -1}}, "verify.c: must be > 0, got -1"),
])
def test_config_field_of_the_wrong_kind_is_one_error_line(doc, message, tmp_path, capsys):
    code, out = run_main(tmp_path, "weight-report", {"weight": GAUSS_1D, **doc})
    assert code == EXIT_OPERATIONAL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["weight-report", "solve-stationary"])
@pytest.mark.parametrize("half_width, spacing", [(5e-324, "0.0"), (1e-310, "5e-311")])
def test_grid_spacing_below_the_normal_floats_is_one_error_line(subcommand, half_width, spacing,
                                                               tmp_path, capsys):
    # 5e-324 over 4 cells underflows to 0 (a ZeroDivisionError in ball_slices
    # once); 1e-310 gives a subnormal spacing (an OverflowError in weight-report)
    doc = {"weight": GAUSS_1D, "grid": {"half_width": half_width, "nodes_per_axis": 5}}
    code, out = run_main(tmp_path, subcommand, doc)
    assert code == EXIT_OPERATIONAL
    assert capsys.readouterr().err == (f"error: grid.half_width: the node spacing {spacing} is "
                                       f"not a positive normal float\n")
    assert not out.exists()


def test_step_count_beyond_float_range_is_one_error_line(tmp_path, capsys):
    # T/tau = 1e600 steps: an OverflowError in evolve's step count once
    doc = {"weight": GAUSS_1D, "grid": {"nodes_per_axis": 11},
           "evolution": {"u0": "x", "T": 1e300, "tau": 1e-300}}
    code, out = run_main(tmp_path, "solve-evolution", doc)
    assert code == EXIT_OPERATIONAL
    assert capsys.readouterr().err == ("error: evolution.tau: T/tau = 1e+300/1e-300 steps is "
                                       "beyond float range\n")
    assert not out.exists()


def test_verify_with_no_corpus_member_in_the_box_is_one_error_line(tmp_path, capsys):
    code, out = run_main(tmp_path, "verify-inequalities",
                         {"weight": GAUSS_1D, "grid": {"half_width": 1.0}})
    assert code == EXIT_OPERATIONAL
    assert capsys.readouterr().err == "error: no corpus member fits inside the grid box\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand, doc, message", [
    pytest.param("weight-report", '{"balls": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "config: JSON nests too deeply", id="json-nests-too-deeply"),
    # the two refusals of smooth_approximation that a parsed config reaches
    pytest.param("approximate", {"weight": GAUSS_1D, "approximate": {"support_radius": 5.9}},
                 "support plus largest eps reaches the box boundary", id="support-plus-eps"),
    pytest.param("approximate", {"weight": GAUSS_1D, "approximate": {"schedule": [0.02]}},
                 "eps 0.02 below grid spacing 0.04: kernel not resolvable", id="eps-below-h"),
])
def test_refused_run_is_one_error_line(subcommand, doc, message, tmp_path, capsys):
    code, out = run_main(tmp_path, subcommand, doc)
    assert code == EXIT_OPERATIONAL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestStateFailures:
    """A state that cannot be evaluated or written fails with one error line
    and leaves no output directory behind."""

    @pytest.mark.parametrize("source, message", [
        ("sin()", "stationary.source: sin() takes 1 argument, got 0"),
        ("sin(x, x)", "stationary.source: sin() takes 1 argument, got 2"),
        ("9**9**9", "stationary.source: '9**9**9' is inf at x = (-6.0,), not a finite number"),
        ("1e400*x", "stationary.source: '1e400*x' is -inf at x = (-6.0,), not a finite number"),
        ("sqrt(-1-x*x)",
         "stationary.source: 'sqrt(-1-x*x)' is nan at x = (-6.0,), not a finite number"),
        # nesting beyond the evaluator's recursion, the parser's, and the parser's stack
        pytest.param("+".join(["0*x"] * 990), "stationary.source: expression nests too deeply",
                     id="990-terms"),
        pytest.param("-" * 3_000 + "x", "stationary.source: expression nests too deeply",
                     id="3000-unary-minuses"),
        pytest.param("-" * 200_000 + "x", "stationary.source: expression nests too deeply",
                     id="200000-unary-minuses"),
    ])
    def test_bad_source_is_one_error_line(self, source, message, tmp_path, capsys):
        doc = {"weight": GAUSS_1D, "stationary": {"source": source}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "solve-stationary", doc)
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
        assert not out.exists()

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
        assert not out.exists()

    def test_state_outside_its_support_names_its_path(self, tmp_path, capsys):
        # the default u0 depends on x only, so in 2d it is nonzero outside radius 1
        doc = {"weight": {"beta": 1.0, "q": 2.0, "dim": 2},
               "grid": {"half_width": 3.0, "nodes_per_axis": 41}}
        code, out = run_main(tmp_path, "approximate", doc)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == (
            "error: approximate.u0: values do not vanish outside radius 1.0\n")
        assert not out.exists()

    def test_non_finite_report_writes_no_state(self, tmp_path, monkeypatch):
        solve = cli.solve_stationary
        monkeypatch.setattr(cli, "solve_stationary",
                            lambda *args: solve(*args)._replace(residual=math.nan))
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
    """weight-report and constants report the same certified delta, gamma and
    osc_V."""

    CASES = {
        "power-w-1d-coarse-lattice": {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 1,
                       "W": [{"kind": "power_abs", "c": 0.3, "s": 2.0}]},
            "grid": {"nodes_per_axis": 151},
        },
        "cosine-v-2d": {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 2,
                       "V": [{"kind": "cosine", "c": 0.3, "k": [0.3, 0.3]}]},
            "grid": {"half_width": 4.0, "nodes_per_axis": 41},
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


NOT_ADMISSIBLE = "the weight is not admissible: "
GROWTH_2E307 = (f"{NOT_ADMISSIBLE}the growth bound |grad W| <= delta*|x|^(q-1) + gamma needs "
                "delta < beta*q = 2e+307, got delta = 2e+307")


class TestCertifiedOverflow:
    HUGE_C = {"weight": {"beta": 1e3, "q": 2.0, "dim": 1}, "grid": {"nodes_per_axis": 151}}
    # beta |x|^2 leaves float range beyond |x| = 4.24
    HUGE_BETA = {"weight": {"beta": 1e307, "q": 2.0, "dim": 1},
                 "grid": {"nodes_per_axis": 151}}
    # a_L = beta L^2 leaves float range at every L > D' = 2
    HUGER_BETA = {"weight": {"beta": 5e307, "q": 2.0, "dim": 1},
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

    def test_overflowing_cosine_phase_is_named(self, tmp_path, capsys):
        # k x = -6e308 is -inf at x = -6, and cos(-inf) is NaN: no infinity is subtracted
        doc = {"weight": {**GAUSS_1D, "W": [{"kind": "cosine", "c": 10.0, "k": [1e308]},
                                            {"kind": "cosine", "c": -10.0, "k": [1.1e308]}]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == ("error: log w is undefined at x = (-6.0,): a cosine "
                                           "phase k·x is beyond float range\n")
        assert not out.exists()

    def test_opposite_overflows_name_the_node(self, tmp_path, capsys):
        # beta |x|^2 and W = -1e307 |x|^2 both overflow beyond |x| = 4.24: inf - inf
        doc = {**self.HUGE_BETA, "weight": {**self.HUGE_BETA["weight"], "W": [
            {"kind": "power_abs", "c": -1e307, "s": 2.0}]}}
        code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == "error: log w is undefined (inf - inf) at x = (-6.0,)\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, c, message", [
        ("weight-report", 1e307, "weight vanishes at several nodes, e.g. node 126"),
        ("weight-report", -1e307, "log w is undefined (inf - inf) at x = (-6.0,)"),
        ("constants", 1e307, GROWTH_2E307),
        ("constants", -1e307, GROWTH_2E307),
    ])
    def test_potential_beyond_float_range_is_one_error_line(self, subcommand, c, message,
                                                            tmp_path, capsys):
        # the growth bound comes from the terms, not from W on the grid, so no
        # numpy warning precedes the error line: delta = |c| q = beta q
        doc = {"weight": {"beta": 1e307, "q": 2.0, "dim": 1,
                          "W": [{"kind": "power_abs", "c": c, "s": 2.0}]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_main(tmp_path, subcommand, doc)[0]
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_undefined_gradient_is_one_error_line(self, tmp_path, capsys):
        # k x overflows to inf on most of the box, where sin(inf) is NaN, and
        # gamma = |c| |k| = 1e309 leaves float range
        doc = {"weight": {**GAUSS_1D, "W": [{"kind": "cosine", "c": 10.0, "k": [1e308]},
                                            {"kind": "cosine", "c": -10.0, "k": [1.1e308]}]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "constants", doc)
        assert code == EXIT_OPERATIONAL and caught == []
        assert capsys.readouterr().err == f"error: {NOT_ADMISSIBLE}W has no growth bound " \
                                          "|grad W| <= delta*|x|^(q-1) + gamma\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
    def test_log_c_overflow(self, subcommand, tmp_path, capsys):
        code, out = run_main(tmp_path, subcommand, self.HUGER_BETA)
        assert code == EXIT_OPERATIONAL
        assert capsys.readouterr().err == "error: log c leaves float range (a_L = inf)\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_report_rejects_non_finite(self, value, tmp_path):
        results = {"admissibility": {"delta": 1.0},
                   "doubling": DoublingReport((BallEntry((0.0,), 1.0, value),), 2.0)}
        with pytest.raises(ValueError, match=r"^doubling\.entries\[0\]\.value: "):
            emit_report(results, tmp_path)
        assert not any(tmp_path.iterdir())

    @staticmethod
    def log_space_chain(doc: dict, tmp_path) -> dict:
        """The chain of a Gaussian weight whose c leaves float range, checked
        against the formula at the chain's own L."""
        code, out = run_main(tmp_path, "constants", doc)
        assert code == EXIT_OK
        chain = json.loads((out / "constant_chain.json").read_text())
        assert chain["c"] is None
        L, beta = chain["L"], chain["inputs"]["beta"]
        assert L > chain["D_prime"]
        assert chain["a_L"] == pytest.approx(beta * L**2, rel=1e-11)
        # c = 2^q (e^(2 a_L) C4 L^(p(p-1)) + C'/L) / (1 - D'/L); C'/L is negligible
        expected = (2 * math.log(2.0) + 2.0 * beta * L**2 + math.log(L**2)
                    - math.log1p(-chain["D_prime"] / L))
        assert chain["log_c"] == pytest.approx(expected, rel=1e-9)
        return chain

    def test_constants_report_log_c(self, tmp_path):
        self.log_space_chain(self.HUGE_C, tmp_path)

    def test_log_c_near_float_range(self, tmp_path):
        # a_L = beta L^2 is finite just above D' = 2, where log c is 8e307
        chain = self.log_space_chain(self.HUGE_BETA, tmp_path)
        assert chain["L"] == pytest.approx(2.0, rel=1e-6)
        assert chain["log_c"] == pytest.approx(8.0e307, rel=1e-6)

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

    @pytest.mark.parametrize("weight, L", [
        ({**GAUSS_1D, "V": [{"kind": "cosine", "c": 120.0, "k": [1.0]}]}, "9.40231e+208"),
        ({"beta": 0.5, "q": 2.0, "dim": 2, "W": [{"kind": "power_abs", "c": 0.0133, "s": 2.0}],
          "V": [{"kind": "cosine", "c": 111.0, "k": [0.5, 0.5]}]}, "3.79159e+193"),
    ])
    def test_ball_radius_overflow(self, weight, L, tmp_path, capsys):
        # D' carries exp(2 osc_V), so every L > D' has L^(p-1) beyond float range
        code, out = run_main(tmp_path, "constants", {"weight": weight, "p": 3.0})
        assert code == EXIT_OPERATIONAL and not out.exists()
        assert capsys.readouterr().err == (f"error: the ball radius L^(p-1) leaves float range "
                                           f"(L = {L}, p = 3)\n")


class TestOutsideHypotheses:
    """A weight outside the theorem's hypotheses gets no certified constant,
    whatever the grid box: one error line, exit 1."""

    @pytest.mark.parametrize("half_width", [6.0, 30.0])
    @pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
    @pytest.mark.parametrize("case", sorted(OUTSIDE_HYPOTHESES))
    def test_no_constant(self, case, subcommand, half_width, tmp_path, capsys):
        weight, failure = OUTSIDE_HYPOTHESES[case]
        doc = {"weight": weight, "grid": {"half_width": half_width, "nodes_per_axis": 151}}
        code, out = run_main(tmp_path, subcommand, doc)
        assert code == EXIT_OPERATIONAL and not out.exists()
        assert capsys.readouterr().err == f"error: {NOT_ADMISSIBLE}{failure}\n"

    @pytest.mark.parametrize("case", sorted(OUTSIDE_HYPOTHESES))
    def test_weight_report_says_not_admissible(self, case, tmp_path):
        doc = {"weight": OUTSIDE_HYPOTHESES[case][0], "grid": {"nodes_per_axis": 151}}
        code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OK
        assert json.loads((out / "admissibility.json").read_text())["admissible"] is False


class TestStructuralRegularity:
    """The reciprocal power of a catalog weight is locally bounded, so
    weight-report writes no numeric verdict on it (on the default grid,
    h = 0.04)."""

    @pytest.mark.parametrize("subcommand, weight, grid, log_w", [
        ("weight-report", {**GAUSS_1D, "W": [{"kind": "constant", "c": -800.0}]}, {}, "764"),
        ("solve-evolution", {"beta": 0.1, "q": 1.2, "dim": 1,
                             "W": [{"kind": "power_abs", "c": -114.0, "s": 2.0}]}, {}, "4103.14"),
        ("approximate", {"beta": 1.0, "q": 3.0, "dim": 1,
                         "W": [{"kind": "quadratic_form", "c": -65.7}]},
         {"half_width": 10.0}, "5570"),
        ("solve-stationary", {**GAUSS_1D, "V": [{"kind": "power_abs", "c": -128.0, "s": 1.5}]},
         {}, "1845.21"),
    ])
    def test_upward_overflow_is_one_error_line(self, subcommand, weight, grid, log_w, tmp_path,
                                               capsys):
        # log w exceeds log(float max) at the box's left edge, the first node
        doc = {"weight": weight, "grid": grid}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, subcommand, doc)
        assert code == EXIT_OPERATIONAL and caught == [] and not out.exists()
        x = -grid.get("half_width", 6.0)
        assert capsys.readouterr().err == (
            f"error: the weight overflows at node (0,), x = ({x},): log w = {log_w} exceeds "
            "p * log(float max) = 709.783 at p = 1\n")

    CASES = {
        # k = pi/h: every other node sits in a trough of V
        "cosine-at-the-node-frequency": {"weight": {**GAUSS_1D, "V": [
            {"kind": "cosine", "c": -2.0, "k": [78.53981633974483]}]}},
        # w^(-1/(p-1)) = e^(25 x^2) is beyond float range at the box's edge
        "gaussian-p-1.2": {"weight": {"beta": 5.0, "q": 2.0, "dim": 1}, "p": 1.2},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_admissible_weight_is_reported(self, case, tmp_path, capsys):
        code, out = run_main(tmp_path, "weight-report", self.CASES[case])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "admissibility.json", "doubling.json", "muckenhoupt.json"]
        assert json.loads((out / "admissibility.json").read_text())["admissible"] is True

    def test_muckenhoupt_overflow_is_one_error_line(self, tmp_path, capsys):
        # the reciprocal power's ball integral is beyond float range
        doc = {**self.CASES["gaussian-p-1.2"], "balls": [{"center": [0.0], "radius": 5.9}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OPERATIONAL and caught == [] and not out.exists()
        assert capsys.readouterr().err == ("error: muckenhoupt.entries[0].value: inf is not a "
                                           "finite number, so the report cannot be written\n")

    def test_muckenhoupt_underflow_is_one_error_line(self, tmp_path, capsys):
        # w^(-1/(p-1)) = w^(-5) underflows to 0 on every node, so the product
        # would read 0, where Jensen's inequality forces it to be at least 1
        doc = {"weight": {"beta": 1.5, "q": 2.5, "dim": 1,
                          "W": [{"kind": "constant", "c": -250.0}]},
               "p": 1.2, "grid": {"half_width": 3.7, "nodes_per_axis": 29}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_main(tmp_path, "weight-report", doc)
        assert code == EXIT_OPERATIONAL and caught == [] and not out.exists()
        assert capsys.readouterr().err == (
            "error: muckenhoupt.entries[0]: the integral of w^(-5) over the ball (center (0.0,), "
            "radius 1) underflows to 0, so its product cannot be formed\n")


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    return json.loads(block)


@pytest.mark.parametrize("subcommand", ["constants", "verify-inequalities"])
def test_readme_config_runs(subcommand, tmp_path):
    code, _ = run_main(tmp_path, subcommand, _readme_config())
    assert code == EXIT_OK


class TestChosenL:
    """Weights the old fixed L = 4 refused (D' >= 4) get a constant."""

    CASES = {"gaussian-beta-0.5": {"weight": {"beta": 0.5, "q": 2.0, "dim": 1}},
             "readme-weight": {"weight": _readme_config()["weight"]}}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constants(self, case, tmp_path):
        code, out = run_main(tmp_path, "constants", self.CASES[case])
        assert code == EXIT_OK
        chain = json.loads((out / "constant_chain.json").read_text())
        assert chain["L"] > chain["D_prime"] >= 4.0
        assert chain["c"] > 0.0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verify(self, case, tmp_path):
        code, out = run_main(tmp_path, "verify-inequalities", self.CASES[case])
        assert code == EXIT_OK
        assert json.loads((out / "verify_summary.json").read_text())["all_hold"] is True


class TestSolverFloatRange:
    """A solve whose iterate leaves float range fails in one line, with no
    numpy warning before it; a stationary solve on a coarse grid converges."""

    CASES = {
        # the energy overflows within two Newton steps
        "stationary-energy-overflow": ("solve-stationary", {
            "weight": {"beta": 0.121, "q": 2.01, "dim": 1, "V": [
                {"kind": "constant", "c": 17.6}, {"kind": "quadratic_form", "c": -65.5}]},
            "p": 4.0, "grid": {"half_width": 3.09, "nodes_per_axis": 51}}),
        # d^T A d overflows in the first CG iteration
        "stationary-2d-curvature-overflow": ("solve-stationary", {
            "weight": {"beta": -3.23, "q": 2.23, "dim": 2, "W": [
                {"kind": "quadratic_form", "c": -0.313},
                {"kind": "power_abs", "c": -0.134, "s": 2.65}],
                "V": [{"kind": "cosine", "c": 0.151, "k": [2.2, 0.951]}]},
            "p": 3.0, "grid": {"half_width": 7.21, "nodes_per_axis": 21},
            "stationary": {"source": "2*(x+y)"}}),
        # the first step starts at an infinite gradient norm
        "lebesgue-flow-starts-at-inf": ("solve-evolution", {
            "weight": {"beta": -0.138, "q": 2.5, "dim": 1,
                       "W": [{"kind": "power_abs", "c": -1.91, "s": 3.24}],
                       "V": [{"kind": "cosine", "c": -13.0, "k": [-1.23]}]},
            "p": 4.0, "grid": {"half_width": 5.9, "nodes_per_axis": 101},
            "evolution": {"T": 0.02, "tau": 0.01, "dualization": "lebesgue", "u0": "x"}}),
        # p = 2: the first CG norm is infinite
        "p2-flow-starts-at-inf": ("solve-evolution", {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 1}, "p": 2.0,
            "grid": {"nodes_per_axis": 301}, "evolution": {"T": 0.01, "u0": "1e200*x"}}),
        "stationary-steep-weight": ("solve-stationary", {
            "weight": {"beta": 0.839, "q": 2.98, "dim": 1, "W": [
                {"kind": "quadratic_form", "c": 101.0}, {"kind": "constant", "c": -50.8}]},
            "p": 4.0, "grid": {"half_width": 9.49, "nodes_per_axis": 151}}),
        # p = 2: CG's products overflow
        "stationary-p2-overflow": ("solve-stationary", {
            "weight": {"beta": -0.24, "q": 2.22, "dim": 1, "W": [
                {"kind": "quadratic_form", "c": 5.59}, {"kind": "cosine", "c": 78.6, "k": [4.8]}],
                "V": [{"kind": "constant", "c": -1.69}]},
            "p": 2.0, "grid": {"half_width": 7.8, "nodes_per_axis": 101}}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line(self, case, tmp_path, capsys):
        subcommand, doc = self.CASES[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_main(tmp_path, subcommand, doc)
        err = capsys.readouterr().err
        assert code == EXIT_OPERATIONAL and caught == []
        assert err.startswith("error: inner solver did not converge: ") and err.count("\n") == 1
        if case == "stationary-p2-overflow":
            # the second CG call leaves no lower norm, and the solve fails there
            assert int(re.search(r" in (\d+) iterations", err)[1]) < 100

    def test_coarse_stationary_converges(self, tmp_path):
        doc = {"weight": GAUSS_1D, "p": 3.0, "grid": {"nodes_per_axis": 151}}
        code, out = run_main(tmp_path, "solve-stationary", doc)
        assert code == EXIT_OK
        assert json.loads((out / "stationary.json").read_text())["residual"] <= 1e-6


# ---------------------------------------------------------------------------
# every parseable config exits 0, 1 or 2, with at most one error line
# ---------------------------------------------------------------------------

COEFFICIENT = st.floats(-150.0, 150.0)


@st.composite
def fuzz_runs(draw):
    """A subcommand and a config of catalog terms of every kind, on a small
    grid of odd or even n."""
    dim = draw(st.sampled_from([1, 2]))

    def terms():
        out = []
        for kind in draw(st.lists(st.sampled_from(
                ["constant", "power_abs", "quadratic_form", "cosine"]), max_size=3)):
            term = {"kind": kind, "c": draw(COEFFICIENT)}
            if kind == "power_abs":
                term["s"] = draw(st.floats(1.0, 4.0))
            if kind == "cosine":
                term["k"] = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
            out.append(term)
        return out

    weight = {"beta": draw(st.floats(-4.0, 4.0).filter(bool)), "q": draw(st.floats(1.1, 3.0)),
              "dim": dim, "W": terms(), "V": terms()}
    doc = {"weight": weight, "p": draw(st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0, 4.0])),
           "grid": {"half_width": draw(st.floats(1.0, 10.0)),
                    "nodes_per_axis": draw(st.integers(3, 61 if dim == 1 else 21))},
           "evolution": {"T": 0.02, "tau": 0.01}}
    if dim == 2:
        doc["approximate"] = {"u0": "max(1 - x*x - y*y, 0)"}
        doc["stationary"] = {"source": "2*(x+y)"}
    return draw(st.sampled_from(SUBCOMMANDS)), doc


@settings(max_examples=300, deadline=None)
@given(fuzz_runs())
def test_fuzz_exits_in_one_line(run):
    subcommand, doc = run
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_main(Path(tmp), subcommand, doc)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_OPERATIONAL, EXIT_VERIFICATION)
    assert [str(w.message) for w in caught] == [] and "Traceback" not in err
    if code == EXIT_OPERATIONAL:
        assert err.startswith("error:") and err.count("\n") == 1

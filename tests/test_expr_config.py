import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wsobolev._expr import ExpressionError, evaluate_expression
from wsobolev._record import Record
from wsobolev.cli import main
from wsobolev.config import ConfigError, load_config, parse_config

BASE = {"weight": {"beta": 1.0, "q": 2.0, "dim": 1}}


class TestExpressionEvaluator:
    def test_polynomial(self):
        x = np.linspace(-2, 2, 9)
        assert_allclose(evaluate_expression("x**2 - 3*x + 1", x), x**2 - 3 * x + 1)

    def test_functions_and_constants(self):
        x = np.array([0.5, 1.5])
        assert_allclose(
            evaluate_expression("exp(-x*x) * cos(pi * x)", x),
            np.exp(-x * x) * np.cos(np.pi * x),
        )

    def test_max_min_two_args(self):
        x = np.linspace(-2, 2, 21)
        assert_allclose(
            evaluate_expression("max(1 - abs(x), 0)", x),
            np.maximum(1 - np.abs(x), 0),
        )
        assert_allclose(evaluate_expression("min(x, 0.5)", x), np.minimum(x, 0.5))

    def test_two_variables(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 5.0])
        assert_allclose(evaluate_expression("x*y + y", x, y), x * y + y)

    def test_scalar_broadcast(self):
        x = np.linspace(-1, 1, 5)
        assert_allclose(evaluate_expression("2.5", x), np.full(5, 2.5))

    def test_unary_and_mod(self):
        x = np.array([3.0, -4.0])
        assert_allclose(evaluate_expression("-x % 5", x), (-x) % 5)

    def test_unknown_name(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            evaluate_expression("x + z", np.zeros(3))

    def test_y_unavailable_in_1d(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            evaluate_expression("x + y", np.zeros(3))

    def test_no_attribute_access(self):
        with pytest.raises(ExpressionError):
            evaluate_expression("x.__class__", np.zeros(3))

    def test_no_arbitrary_calls(self):
        with pytest.raises(ExpressionError):
            evaluate_expression("__import__('os')", np.zeros(3))
        with pytest.raises(ExpressionError):
            evaluate_expression("eval('1')", np.zeros(3))

    def test_no_keyword_arguments(self):
        with pytest.raises(ExpressionError, match="keyword"):
            evaluate_expression("max(x, x=1)", np.zeros(3))

    def test_parse_error(self):
        with pytest.raises(ExpressionError, match="cannot parse"):
            evaluate_expression("x +", np.zeros(3))

    def test_string_literal_rejected(self):
        with pytest.raises(ExpressionError):
            evaluate_expression("'abc'", np.zeros(3))

    @pytest.mark.parametrize("text, message", [
        ("sin()", "sin() takes 1 argument, got 0"),
        ("max(x)", "max() takes 2 arguments, got 1"),
        ("exp(x, x, x)", "exp() takes 1 argument, got 3"),
        ("sin(x, x) + x", "sin() takes 1 argument, got 2"),
        ("abs(x, y) + y", "abs() takes 1 argument, got 2"),
    ])
    def test_wrong_argument_count(self, text, message):
        # a second argument would be numpy's out= and overwrite a coordinate
        x, y = np.linspace(-1.0, 1.0, 5), np.linspace(2.0, 3.0, 5)
        before = x.copy(), y.copy()
        with pytest.raises(ExpressionError, match=re.escape(message)):
            evaluate_expression(text, x, y)
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])

    def test_literals_are_floats(self):
        # integer literals would make 2**1100 an exact int beyond float range
        # and 9**9**9 a computation that does not finish
        x = np.zeros(3)
        with np.errstate(over="ignore", divide="ignore"):
            for text in ("2**1100", "9**9**9", "1/0"):
                assert evaluate_expression(text, x).tolist() == [math.inf] * 3
        assert evaluate_expression("7 % 2 + 1/4", x).tolist() == [1.25] * 3


class TestConfigDefaults:
    def test_minimal_config(self):
        cfg = parse_config(dict(BASE))
        assert cfg.weight.beta == 1.0
        assert cfg.grid.half_width == 6.0
        assert cfg.grid.nodes_per_axis == 301
        assert cfg.p == 2.0
        assert cfg.constants.eps0 == 0.5  # 1/p
        assert len(cfg.balls) == 2
        assert cfg.balls[0].center == (0.0,)
        assert cfg.approximate.schedule == (0.2, 0.1, 0.05)
        assert cfg.evolution.T == 0.5
        assert cfg.evolution.dualization == "weighted"
        assert cfg.stationary.source == "2*x"
        assert cfg.verify_override is None

    def test_full_round_trip(self):
        doc = {
            "weight": {
                "beta": 2.0,
                "q": 3.0,
                "dim": 1,
                "W": [{"kind": "power_abs", "c": 0.5, "s": 2.0}],
                "V": [{"kind": "cosine", "c": 1.0, "k": [2.0]}],
            },
            "grid": {"half_width": 4.0, "nodes_per_axis": 201},
            "p": 3.0,
            "constants": {"eps0": 0.25},
            "balls": [{"center": [0.0], "radius": 1.5}],
            "approximate": {"u0": "max(1 - abs(x), 0)", "support_radius": 1.0,
                            "schedule": [0.1, 0.05]},
            "evolution": {"u0": "sin(x)", "T": 0.2, "tau": 0.01,
                          "dualization": "lebesgue"},
            "stationary": {"source": "x"},
            "verify": {"C": 1.0, "D": 2.0},
        }
        cfg = parse_config(doc)
        assert cfg.weight.q == 3.0
        assert len(cfg.weight.W.terms) == 1
        assert cfg.grid.nodes_per_axis == 201
        assert cfg.p == 3.0
        assert cfg.constants.eps0 == 0.25
        assert cfg.balls[0].radius == 1.5
        assert cfg.approximate.schedule == (0.1, 0.05)
        assert cfg.evolution.dualization == "lebesgue"
        assert cfg.stationary.source == "x"
        assert cfg.verify_override == {"C": 1.0, "D": 2.0}

    def test_2d_weight(self):
        cfg = parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 2}})
        assert cfg.grid.dim == 2
        assert cfg.balls[0].center == (0.0, 0.0)


class TestConfigErrors:
    def test_missing_weight(self):
        with pytest.raises(ConfigError, match="weight: required"):
            parse_config({})

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({**BASE, "wieght": {}})

    def test_fit_section_is_unknown(self):
        # the admissibility hypotheses are certified in closed form; nothing
        # configures them
        with pytest.raises(ConfigError) as err:
            parse_config({**BASE, "fit": {}})
        assert str(err.value).startswith("config.fit: unknown field")

    @pytest.mark.parametrize("section, key", [
        ("evolution", "solver"), ("stationary", "solver"),
        ("stationary", "compatibility_tol"), ("approximate", "tol"),
        ("constants", "eps"), ("constants", "eps1"), ("constants", "C4")])
    def test_fixed_solver_values_are_unknown(self, section, key):
        # solver tolerances, budgets, the approximation target, the moment
        # bounds' eps and eps1 (valid at any value > 0, fixed at 1) and the
        # Poincaré bound's C4 (fixed at 1) are constants
        with pytest.raises(ConfigError) as err:
            parse_config({**BASE, section: {key: {} if key == "solver" else 1e-6}})
        assert str(err.value).startswith(f"{section}.{key}: unknown field")

    def test_L_is_chosen_not_set(self, tmp_path, capsys):
        # the chain chooses the L of the Poincaré bound itself
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**BASE, "constants": {"L": 8}}))
        assert main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: constants.L: unknown field\n"

    def test_beta_zero(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config({"weight": {"beta": 0.0, "q": 2.0, "dim": 1}})

    def test_q_at_most_one(self):
        with pytest.raises(ConfigError, match="weight.q"):
            parse_config({"weight": {"beta": 1.0, "q": 1.0, "dim": 1}})

    def test_bad_dim(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 3}})

    def test_unknown_term_kind(self):
        with pytest.raises(ConfigError, match="weight.W"):
            parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 1,
                                     "W": [{"kind": "spline"}]}})

    def test_even_grid(self):
        with pytest.raises(ConfigError, match="odd"):
            parse_config({**BASE, "grid": {"nodes_per_axis": 300}})

    def test_schedule_not_decreasing(self):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config({**BASE, "approximate": {"schedule": [0.1, 0.2]}})

    def test_schedule_not_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config({**BASE, "approximate": {"schedule": [0.1, 0.0]}})

    def test_ball_center_dimension(self):
        with pytest.raises(ConfigError, match="coordinates"):
            parse_config({**BASE, "balls": [{"center": [1.0, 2.0], "radius": 1.0}]})
        with pytest.raises(ConfigError, match=r"balls\[0\]\.center: .*coordinates"):
            parse_config({**BASE, "balls": [{"center": 1.0, "radius": 1.0}]})
        doc2d = {"weight": {"beta": 1.0, "q": 2.0, "dim": 2},
                 "balls": [{"center": 1.0, "radius": 1.0}]}
        with pytest.raises(ConfigError, match="coordinates"):
            parse_config(doc2d)

    def test_ball_missing_center(self):
        with pytest.raises(ConfigError, match="center"):
            parse_config({**BASE, "balls": [{"radius": 1.0}]})

    def test_empty_balls(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config({**BASE, "balls": []})

    def test_bad_dualization(self):
        with pytest.raises(ConfigError, match="dualization"):
            parse_config({**BASE, "evolution": {"dualization": "primal"}})

    def test_solver_unknown_key(self):
        with pytest.raises(ConfigError, match="evolution.solver"):
            parse_config({**BASE, "evolution": {"solver": {"tolerance": 1e-8}}})

    def test_empty_verify_block(self):
        with pytest.raises(ConfigError, match="verify"):
            parse_config({**BASE, "verify": {}})

    def test_verify_unknown_constant(self):
        with pytest.raises(ConfigError, match="verify"):
            parse_config({**BASE, "verify": {"C5": 1.0}})

    def test_type_errors_have_paths(self):
        with pytest.raises(ConfigError, match="grid.half_width"):
            parse_config({**BASE, "grid": {"half_width": "wide"}})
        with pytest.raises(ConfigError, match="config.p"):
            parse_config({**BASE, "p": "two"})
        # an omitted eps0 is 1/p; null is not a second spelling of it
        with pytest.raises(ConfigError, match=r"^constants.eps0: expected a finite number, "
                                              r"got None$"):
            parse_config({**BASE, "constants": {"eps0": None}})


MALFORMED_TERMS = [
    ("W", [{"kind": "power_abs", "c": 0.3}], "weight.W[0].s"),
    ("W", [3], "weight.W[0]"),
    ("V", [{"kind": "cosine", "c": 1.0}], "weight.V[0].k"),
    ("V", [{"kind": "cosine", "c": 1.0, "k": 2}], "weight.V[0].k"),
    ("V", [{"kind": "cosine", "c": 1.0, "k": [1.0, 2.0]}], "weight.V[0].k"),
    ("W", [{"kind": "constant", "c": 1.0}, {"kind": "constant", "c": "big"}], "weight.W[1].c"),
    ("W", [{"kind": "quadratic_form", "c": True}], "weight.W[0].c"),
    ("W", [{"kind": "power_abs", "c": 1.0, "s": 0.5}], "weight.W[0]"),
    ("W", [{"c": 1.0}], "weight.W[0].kind"),
]


@pytest.mark.parametrize("key, terms, path", MALFORMED_TERMS)
def test_malformed_term_names_its_path(key, terms, path, tmp_path, capsys):
    doc = {"weight": {"beta": 1.0, "q": 2.0, "dim": 1, key: terms}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(f"{path}:")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["constants", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:")


# A config with one of every kind of number; each NON_FINITE entry puts NaN,
# +-Infinity or an integer beyond float range at its location, and names the
# JSON path the error must start with.
FULL = {
    "weight": {"beta": 1.0, "q": 2.0, "dim": 1,
               "W": [{"kind": "power_abs", "c": 0.3, "s": 2.0}],
               "V": [{"kind": "cosine", "c": 0.2, "k": [1.0]}]},
    "grid": {"half_width": 6.0},
    "p": 2.0,
    "constants": {"eps0": 0.5},
    "balls": [{"center": [0.0], "radius": 1.0}],
    "approximate": {"support_radius": 1.0, "schedule": [0.2, 0.1]},
    "evolution": {"T": 0.5, "tau": 1e-3},
    "verify": {"c": 1.0},
}
NON_FINITE = [
    (("weight", "beta"), "weight.beta"),
    (("weight", "q"), "weight.q"),
    (("weight", "W", 0, "c"), "weight.W[0].c"),
    (("weight", "W", 0, "s"), "weight.W[0].s"),
    (("weight", "V", 0, "k", 0), "weight.V[0].k"),
    (("grid", "half_width"), "grid.half_width"),
    (("p",), "config.p"),
    # eps, eps1, C4 and L are fields the config does not have: refused as
    # unknown whatever the value (the chain fixes eps, eps1 and C4 at 1 and
    # chooses L)
    (("constants", "eps"), "constants.eps"),
    (("constants", "eps1"), "constants.eps1"),
    (("constants", "C4"), "constants.C4"),
    (("constants", "eps0"), "constants.eps0"),
    (("constants", "L"), "constants.L"),
    (("balls", 0, "center", 0), "balls[0].center"),
    (("balls", 0, "radius"), "balls[0].radius"),
    (("approximate", "support_radius"), "approximate.support_radius"),
    (("approximate", "schedule", 0), "approximate.schedule"),
    (("evolution", "T"), "evolution.T"),
    (("evolution", "tau"), "evolution.tau"),
    (("verify", "c"), "verify.c"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("location, path", NON_FINITE)
def test_non_finite_number_names_its_path(location, path, value):
    assert parse_config(FULL).p == 2.0
    doc = copy.deepcopy(FULL)
    target = doc
    for key in location[:-1]:
        target = target[key]
    target[location[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(f"{path}:")


def test_nan_in_config_file_is_operational(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"weight": {"beta": 1.0, "q": NaN, "dim": 1}}')
    out = tmp_path / "out"
    assert main(["weight-report", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: weight.q:")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["constants", "weight-report"])
@pytest.mark.parametrize("beta", [1e308, -1e308])
def test_overflowing_beta_q_is_a_config_error(tmp_path, capsys, subcommand, beta):
    # beta * q = 2e308 used to end `constants` in a ZeroDivisionError
    # (C = 1/(beta q) = 0) and `weight-report` in an overflow warning
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"weight": {"beta": beta, "q": 2.0, "dim": 1}}))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weight.beta: beta * q must be finite")
    assert err.count("\n") == 1


def _numbers(obj):
    """Every number held anywhere in a parsed config."""
    if isinstance(obj, Record):
        for f in obj._fields:
            yield from _numbers(getattr(obj, f))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=12,
)


def _mostly(values, other=_JSON):
    """One of the given values, or one draw from other in len(values) + 1
    cases; a field that is usually valid lets the parse get past the earlier
    sections."""
    return st.sampled_from([*values, None]).flatmap(
        lambda v: other if v is None else st.just(v))


_NUMBER = _mostly([0.5, 1.0, 2.0, 3.0, 101])


def _section(*keys):
    """An object with some of a section's fields."""
    return st.fixed_dictionaries({}, optional={k: _NUMBER for k in keys})


_TERM = st.fixed_dictionaries(
    {"kind": _mostly(["constant", "power_abs", "quadratic_form", "cosine"])},
    optional={"c": _NUMBER, "s": _NUMBER, "k": _mostly([[1.0], [1.0, 2.0]])},
)
_TERMS = st.lists(_TERM, max_size=2)
_SHAPED = st.fixed_dictionaries(
    {"weight": st.fixed_dictionaries(
        {"beta": _mostly([1.0, 2.0]), "q": _mostly([1.5, 2.0, 3.0]), "dim": _mostly([1, 2])},
        optional={"W": _mostly([[]], _TERMS), "V": _mostly([[]], _TERMS)})},
    optional={
        "grid": _section("half_width", "nodes_per_axis"),
        "p": _NUMBER,
        "constants": _section("eps0", "C4"),
        "balls": st.lists(st.fixed_dictionaries(
            {"center": _mostly([0.0, [0.0], [0.0, 0.0]], st.lists(_NUMBER, max_size=2)),
             "radius": _NUMBER}), max_size=2),
        "approximate": st.fixed_dictionaries(
            {}, optional={"support_radius": _NUMBER,
                          "schedule": st.lists(_NUMBER, max_size=3)}),
        "evolution": _section("T", "tau"),
        "verify": _section("C", "D", "C_prime", "D_prime", "c"),
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=_SHAPED | _JSON)
def test_parse_config_fuzz(doc):
    """Any JSON document parses to a config of finite numbers or fails as a
    ConfigError; no other exception escapes."""
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    numbers = list(_numbers(cfg))
    # the walk reaches into nested records, so it has numbers to check
    assert {cfg.weight.beta, cfg.weight.q, cfg.grid.nodes_per_axis} <= set(numbers)
    assert all(isinstance(v, int) or math.isfinite(v) for v in numbers)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"weight": {"beta": 1.0, "q": 2.0, "dim": 1}}))
        cfg = load_config(path)
        assert cfg.weight.q == 2.0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"weight": {"beta": 1.0, "q": 2.0, "dim": 1}, "x": "\u00e9"}'
                         .encode("latin-1"))
        with pytest.raises(ConfigError, match="config: not UTF-8"):
            load_config(path)
        assert main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "error: config: not UTF-8" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

"""tools/report_diff.py compares two trees' reports config by config; a
config that both trees refuse compares only the refusal line, so every
config of its run lists must be one the package accepts, or the comparison
is hollow; its refusal configs, kept apart, are there for that line.
Nothing here runs the trees."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from wsobolev.config import ConfigError, parse_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins the BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_every_run_config_is_accepted(report_diff):
    # the pinned term-missing case is a config error on purpose: its
    # benchmark check expects the one error line that names weight.W[0]
    refused = {}
    for name, (_, config) in report_diff.runs().items():
        try:
            parse_config(config)
        except ConfigError as err:
            refused[name] = str(err)
    assert refused and all(name.startswith("pinned-term-missing-s-") for name in refused)
    assert all(message.startswith("weight.W[0]") for message in refused.values())


def test_refusal_configs_are_refused(report_diff):
    # each has one fault, which the parser or Grid or WeightSpec refuses, but
    # a source beyond float range, which solve-stationary refuses
    refusals = report_diff._refusal_configs()
    assert not refusals.keys() & report_diff.runs().keys()
    accepted = []
    for name, (_, config) in refusals.items():
        try:
            parse_config(config)
        except ConfigError:
            continue
        accepted.append(name)
    assert accepted == ["refusal-13-source-constants", "refusal-13-source-solve-stationary"]


def test_run_names_are_distinct(report_diff, monkeypatch):
    runs = report_diff.runs()
    sweep = report_diff._sweep_configs()
    assert len(runs) > len(sweep)
    # a name that an earlier, different config holds is refused, not replaced
    name, (subcommand, config) = next(iter(runs.items()))
    monkeypatch.setattr(report_diff, "_sweep_configs", lambda: {
        **sweep, name: (subcommand, {**config, "p": 3.5})})
    with pytest.raises(ValueError, match=f"^two runs are named '{name}'$"):
        report_diff.runs()

"""The record contract every report, weight term and grid keeps: built by
position or keyword, immutable, equal by class and fields, hashable, and
printed as Name(field=value, ...)."""

import numpy as np
import pytest

from wsobolev.grid import Grid, GridFunction
from wsobolev.weights import BallEntry, ConstantTerm, PotentialExpr, QuadraticTerm, WeightSpec


def test_equal_only_to_the_same_class():
    assert ConstantTerm(1.0) != QuadraticTerm(1.0)
    assert Grid(1, 6.0, 301) != (1, 6.0, 301)
    assert ConstantTerm(1.0) != (1.0,)
    assert Grid(1, 6.0, 301) == Grid(dim=1, half_width=6.0, nodes_per_axis=301)
    assert Grid(1, 6.0, 301) != Grid(1, 6.0, 303)


def test_equal_records_hash_equal():
    a, b = WeightSpec(1.0, 2.0, 1), WeightSpec(1.0, 2.0, 1, PotentialExpr())
    assert a == b and hash(a) == hash(b)
    assert {a: "first", Grid(1, 6.0, 301): "grid"}[b] == "first"


def test_fields_cannot_be_assigned_or_deleted():
    grid = Grid(1, 6.0, 301)
    f = GridFunction(grid, np.zeros(grid.shape))
    for record, name in ((grid, "dim"), (f, "values"), (f, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert grid.dim == 1


def test_repr_names_each_field():
    assert repr(Grid(1, 6.0, 301)) == "Grid(dim=1, half_width=6.0, nodes_per_axis=301)"
    assert repr(BallEntry((0.0,), 1.0, None)) == \
        "BallEntry(center=(0.0,), radius=1.0, value=None, note='')"


def test_defaults():
    assert WeightSpec(1.0, 2.0, 1).W == PotentialExpr()
    assert WeightSpec(1.0, 2.0, 1, V=PotentialExpr((ConstantTerm(1.0),))).W == PotentialExpr()
    assert GridFunction(Grid(1, 1.0, 3), [0.0, 1.0, 0.0]).compact_support_radius is None


def test_post_init_converts_and_validates():
    f = GridFunction(Grid(1, 1.0, 3), [0, 1, 0])
    assert f.values.dtype == float
    with pytest.raises(ValueError, match="odd"):
        Grid(1, 6.0, 300)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 6.0), {}, "missing"),
    ((1, 6.0, 301, 4), {}, "positional"),
    ((1, 6.0, 301), {"dim": 1}, "multiple values"),
    ((1, 6.0), {"nodes": 301}, "unexpected keyword"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Grid(*args, **kwargs)

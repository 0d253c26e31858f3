import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsobolev.corpus import corpus_members
from wsobolev.grid import Grid, build_grid


def test_version_and_size():
    assert len(corpus_members()) == 18


def test_deterministic_order():
    names = [m.name for m in corpus_members()]
    assert names == [m.name for m in corpus_members()]
    assert names[0] == "bump_cm2_w0.4"
    assert names[-3:] == [
        "bump_cp0_w1.0_linear",
        "bump_cp0_w1.0_square",
        "bump_cp0_w1.0_cos3",
    ]
    assert len(set(names)) == 18


def test_grid_of_centers_and_widths():
    members = corpus_members()[:15]
    centers = sorted({m.center for m in members})
    widths = sorted({m.width for m in members})
    assert centers == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert widths == [0.4, 0.7, 1.0]


def test_support_radii():
    for m in corpus_members():
        assert m.support_radius == pytest.approx(abs(m.center) + 3.0 * m.width)


def test_vanishes_outside_support():
    g = build_grid(1, 6.0, 601)
    x = g.axis()
    for m in corpus_members():
        if m.support_radius > g.half_width:
            continue
        vals = m.on_grid(g).values
        assert np.all(vals[np.abs(x) > m.support_radius + 1e-12] == 0.0)
        assert np.max(np.abs(vals)) > 0.0  # nontrivial inside


def test_smoothness_proxy():
    # squared cutoff profile has a continuous derivative; second differences
    # stay bounded as the grid refines
    g1 = build_grid(1, 6.0, 301)
    g2 = build_grid(1, 6.0, 601)
    m = corpus_members()[7]  # bump_cp0_w0.7
    for g in (g1, g2):
        v = m.on_grid(g).values
        d2 = np.diff(v, 2) / g.spacing**2
        assert np.max(np.abs(d2)) < 50.0


def test_modulated_members_factor():
    g = build_grid(1, 6.0, 301)
    members = corpus_members()
    base = next(m for m in members if m.name == "bump_cp0_w1.0")
    x = g.axis()
    b = base.on_grid(g).values
    assert_allclose(
        next(m for m in members if m.name.endswith("_linear")).on_grid(g).values,
        x * b,
    )
    assert_allclose(
        next(m for m in members if m.name.endswith("_square")).on_grid(g).values,
        x * x * b,
    )
    assert_allclose(
        next(m for m in members if m.name.endswith("_cos3")).on_grid(g).values,
        np.cos(3 * x) * b,
    )


def test_one_dimensional_only():
    g = Grid(2, 6.0, 21)
    with pytest.raises(ValueError):
        corpus_members()[0].on_grid(g)


def test_support_outside_box_rejected():
    g = build_grid(1, 2.0, 21)
    with pytest.raises(ValueError, match="outside the grid box"):
        corpus_members()[0].on_grid(g)  # support radius 3.2 > 2

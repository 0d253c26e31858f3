"""Deterministic corpus of smooth compactly supported test functions.

Members are Gaussian profiles multiplied by a smooth cutoff that vanishes
identically outside |x - c| < 3*width, so every member is infinitely
differentiable with genuinely compact support.  The family covers several
centers and widths plus a few modulated variants; the ordering is fixed so
test suites can freeze expected values per index.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._record import Record
from .grid import Grid, GridFunction, sample_field

__all__ = ["CorpusMember", "corpus_members"]

_CENTERS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_WIDTHS = (0.4, 0.7, 1.0)


def _profile(center: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    cut = 3.0 * width

    def f(x: np.ndarray) -> np.ndarray:
        u = (x - center) / cut
        inside = np.abs(u) < 1.0
        out = np.zeros_like(np.asarray(x, dtype=float))
        ui = u[inside]
        out[inside] = np.exp(-(((x[inside] - center) / width) ** 2)) * np.exp(
            1.0 - 1.0 / (1.0 - ui * ui)
        )
        return out

    return f


class CorpusMember(Record):
    name: str
    center: float
    width: float
    support_radius: float
    func: Callable[[np.ndarray], np.ndarray]

    def on_grid(self, grid: Grid) -> GridFunction:
        if grid.dim != 1:
            raise ValueError("the corpus is one-dimensional")
        if self.support_radius > grid.half_width:
            raise ValueError(
                f"member {self.name} has support radius {self.support_radius:g} "
                f"outside the grid box {grid.half_width:g}"
            )
        return sample_field(grid, self.func, compact_support_radius=self.support_radius)


def _modulated(base: CorpusMember, tag: str, factor) -> CorpusMember:
    g = base.func

    def f(x: np.ndarray) -> np.ndarray:
        return factor(x) * g(x)

    return CorpusMember(f"{base.name}_{tag}", base.center, base.width, base.support_radius, f)


def corpus_members() -> list[CorpusMember]:
    """The frozen corpus, in deterministic order."""
    members: list[CorpusMember] = []
    for c in _CENTERS:
        for w in _WIDTHS:
            members.append(
                CorpusMember(
                    name=f"bump_c{c:+.0f}_w{w:.1f}".replace("+", "p").replace("-", "m"),
                    center=c,
                    width=w,
                    support_radius=abs(c) + 3.0 * w,
                    func=_profile(c, w),
                )
            )
    base = next(m for m in members if m.center == 0.0 and m.width == 1.0)
    members.append(_modulated(base, "linear", lambda x: x))
    members.append(_modulated(base, "square", lambda x: x * x))
    members.append(_modulated(base, "cos3", lambda x: np.cos(3.0 * x)))
    return members

"""Spans around the calls into each package module, and the per-layer metrics.

The traced run swaps timing wrappers in for the names that modules import
across module boundaries: every function `cli` imports from the other
modules, and every function `pde`, `inequalities` and `sobolev` import from
`grid` and `weights`. Three more names need wrapping to split the layers the
way the metrics do: `cli.emit_report` (report writing), the integrability
gate `pde.check_lebesgue_compatibility`, and `CorpusMember.on_grid`. Nothing
under `src/` changes; the originals are put back when the traced run ends.

A span is (name, start, end, parent, run id, error). A layer's time is the
sum of its spans' self time: the span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# metric -> span names whose self time it sums
SELF_TIME = {
    "cli.self_s": ("cli.main", "cli.emit_report"),
    "cli.emit_s": ("cli.emit_report",),
    "config.load_s": ("config.load_config",),
    "expr.eval_s": ("_expr.evaluate_expression",),
    "corpus.on_grid_s": ("corpus.corpus_members", "corpus.on_grid"),
    "grid.quadrature_s": ("grid.quadrature", "grid.quadrature_with_error",
                          "grid.segment_weights"),
    "grid.gradient_s": ("grid.discrete_gradient", "grid.gradient_magnitude"),
    "grid.mollify_s": ("grid.mollify",),
    "grid.maximal_function_s": ("grid.maximal_function",),
    "grid.save_csv_s": ("grid.save_grid_function_csv",),
    "weights.eval_s": ("weights.eval_weight", "weights.weight_on_grid",
                       "weights.root_on_grid", "weights.drift_on_grid"),
    "weights.admissibility_s": ("weights.check_admissibility",
                                "weights.fit_growth_constants"),
    "weights.balls_s": ("weights.estimate_doubling", "weights.estimate_muckenhoupt",
                        "weights._ball_slices", "weights._segment_integral_1d"),
    "weights.reciprocal_s": ("weights.check_reciprocal_integrability",),
    "inequalities.chain_s": ("inequalities.build_constant_chain",),
    "inequalities.verify_s": ("inequalities.verify_xq", "inequalities.verify_potential",
                              "inequalities.verify_poincare",
                              "inequalities.batch_report_csv"),
    "sobolev.approximation_s": ("sobolev.smooth_approximation",),
    "sobolev.hedberg_s": ("sobolev.hedberg_constant",),
    "sobolev.maximal_bound_s": ("sobolev.maximal_bound_check",),
    "pde.stationary_s": ("pde.solve_stationary",),
    "pde.evolution_s": ("pde.solve_evolution", "pde.solve_evolution_lebesgue"),
    "pde.gate_s": ("pde.check_lebesgue_compatibility",),
}

# metric -> span names whose calls it counts
CALLS = {
    "weights.eval.calls": SELF_TIME["weights.eval_s"],
    "inequalities.verify.calls": ("inequalities.verify_xq", "inequalities.verify_potential",
                                  "inequalities.verify_poincare"),
    "grid.quadrature.calls": ("grid.quadrature", "grid.quadrature_with_error"),
}

# layers whose breakdown above does not cover every span: total self time too
LAYER_TOTALS = ("grid", "weights", "inequalities", "sobolev", "pde")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    error: str | None

    def to_json(self, span_id: int) -> dict:
        return {"id": span_id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id, "error": self.error}


class Tracer:
    """Collects spans in memory; `run_id` tags the spans of the current case."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                error = f"{type(err).__name__}: {err}"
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = Span(name, start, end, parent, self.run_id, error)

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time, call count)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, span in enumerate(self.spans):
            out[span.name][0] += span.end - span.start - child[i]
            out[span.name][1] += 1
        return {name: (t, n) for name, (t, n) in out.items()}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def installed(tracer: Tracer):
    """Swap wrappers in for the boundary names; restore them on exit."""
    from wsobolev import cli, corpus, inequalities, pde, sobolev

    targets = []
    for mod in (cli, pde, inequalities, sobolev):
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ != mod.__name__
                    and obj.__module__.startswith("wsobolev.")):
                targets.append((mod, attr))
    targets += [(cli, "emit_report"), (pde, "check_lebesgue_compatibility"),
                (corpus.CorpusMember, "on_grid")]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    try:
        for owner, attr, fn in originals:
            setattr(owner, attr, tracer.wrap(_span_name(fn), fn))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, passes: int, solver: dict, oracle_errors: dict,
                  bytes_out: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the run list, as name -> (value, unit).

    `solver` holds the traced passes' totals read from the solver outputs:
    stationary_iters, evolution_steps, evolution_iters, node_iters (grid
    nodes times iterations, summed over solver runs), failed_runs (runs that
    ran out of iterations) and wasted_iters (the iterations those spent).
    """
    times = tracer.self_times()

    def total(names) -> float:
        return sum(times.get(n, (0.0, 0))[0] for n in names) / passes

    def calls(names) -> float:
        return sum(times.get(n, (0, 0))[1] for n in names) / passes

    def ratio(a: float, b: float, scale: float) -> float:
        return a / b * scale if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, spans in SELF_TIME.items():
        out[name] = (total(spans), "s")
    for name, spans in CALLS.items():
        out[name] = (calls(spans), "count")
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = (total(n for n in times if n.startswith(layer + ".")), "s")
    out["cli.bytes_out"] = (bytes_out / passes, "B")

    stationary_iters = solver["stationary_iters"] / passes
    evolution_iters = solver["evolution_iters"] / passes
    wasted = solver["wasted_iters"]
    solve_s = out["pde.stationary_s"][0] + out["pde.evolution_s"][0]
    out.update({
        "pde.stationary.iters": (stationary_iters, "count"),
        "pde.stationary.us_per_iter": (ratio(out["pde.stationary_s"][0], stationary_iters,
                                             1e6), "us"),
        "pde.evolution.steps": (solver["evolution_steps"] / passes, "count"),
        "pde.evolution.iters": (evolution_iters, "count"),
        "pde.evolution.us_per_iter": (ratio(out["pde.evolution_s"][0], evolution_iters,
                                            1e6), "us"),
        "pde.ns_per_node_iter": (ratio(solve_s, solver["node_iters"] / passes, 1e9), "ns"),
        "pde.failed_runs": (solver["failed_runs"] / passes, "count"),
        "pde.wasted_iter_frac": (ratio(wasted, wasted + solver["stationary_iters"]
                                       + solver["evolution_iters"], 1.0), "frac"),
    })
    for name in ("pde.ou_stationary.err", "pde.ou_evolution.err", "weights.doubling.err",
                 "weights.muckenhoupt.err", "grid.maxfn.err", "sobolev.hedberg.err"):
        out[name] = (oracle_errors.get(name, 0.0), "1")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out

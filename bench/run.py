"""Benchmark for the wsobolev toolkit: seeded workloads, checked outputs, metrics.

    python3 bench/run.py --workload flow-1d --seed 1 --seconds 30 --trace 0

Runs the workload's run list through `wsobolev.cli.main` in this process (plus
the library calls of the diagnostics workload) in a closed loop with one
client, pass after pass, until --seconds have gone by (at least one pass).
A case's time is its mean over the passes, at the reference speed: it is
scaled by REF_SECONDS over the mean time, in this run, of a fixed reference
loop timed between cases. Set-up is scaled the same way by a bare interpreter
start. Every output is checked. With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 half of the time runs
untraced and half traced, and the JSON holds the per-layer metrics.
`--workload all` runs every workload traced, each in its own process, and
prints the tables.
See bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one process, one client, one BLAS/OpenMP thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("diagnostics", "flow-1d", "flow-2d")
SETUP_REPEATS = 7
START_SECONDS = 0.070  # a bare interpreter start, `python3 -c pass`, at the reference speed
REF_SECONDS = 0.020  # the reference loop's time at the reference speed
REF_EVERY_S = 0.5  # time the reference loop before a case at most this often
LIB_NAMES = {
    "grid": ("build_grid", "maximal_function", "sample_field"),
    "weights": ("Ball", "WeightSpec", "estimate_doubling", "estimate_muckenhoupt",
                "root_on_grid", "weight_on_grid"),
    "sobolev": ("hedberg_constant", "maximal_bound_check"),
}
_NOT_CONVERGED = re.compile(r"inner solver did not converge: .*?(?:in (\d+) iterations|"
                            r"at iteration (\d+))")

sys.path.insert(0, str(BENCH))
import cases as case_lists  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# machine speed: a fixed loop of the benchmark's own, timed throughout a run
# ---------------------------------------------------------------------------

_REF_1D = np.linspace(-1.0, 1.0, 301)
_REF_2D = np.linspace(-1.0, 1.0, 101 * 101).reshape(101, 101)


def _reference_loop() -> float:
    """Small-array numpy calls, 101x101 array work and plain Python, the mix
    the program runs; the program's speed-ups do not change its time."""
    total = 0.0
    for _ in range(600):
        d = np.diff(_REF_1D)
        total += float(np.sum(d * d))
    for _ in range(30):
        g0, g1 = np.gradient(_REF_2D)
        total += float(np.sum(np.sqrt(g0 * g0 + g1 * g1 + 1e-3)))
    return total + sum(i * i % 7 for i in range(60_000))


class Speed:
    """Times of the reference loop, taken between cases all through a run.

    Other tenants of a shared machine slow it by tens of percent, for seconds
    to minutes at a time. `scale` turns a time measured in the run into one at
    the reference speed, on which the loop takes REF_SECONDS.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= REF_EVERY_S:
            start = time.perf_counter()
            _reference_loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    @property
    def ref_s(self) -> float:
        """The loop's mean time over the run: like a case's mean over the
        passes, it averages over the machine's slow and fast stretches."""
        return statistics.fmean(self.samples)

    def scale(self, seconds: float) -> float:
        return seconds * REF_SECONDS / self.ref_s


# ---------------------------------------------------------------------------
# set-up: interpreter start-up + import, and writing the workload's configs
# ---------------------------------------------------------------------------


def _write_configs(cases, work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for case in cases:
        if case.subcommand:
            (work / "configs" / f"{case.name}.json").write_text(json.dumps(case.config))


def _set_up(workload: str, seed: int, work: Path):
    """Set-up time (a fresh interpreter importing wsobolev, then generating
    and writing the configs) as measured and at the reference speed, each the
    median over SETUP_REPEATS, and the run list.

    Process start-up speed drifts on a shared machine apart from the speed
    the reference loop sees, so each set-up is scaled by START_SECONDS over a
    bare interpreter start timed just before it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wsobolev"], env=env, check=True)
        cases = case_lists.build(workload, seed)
        _write_configs(cases, work)
        measured.append(time.perf_counter() - start)
        scaled.append(measured[-1] * START_SECONDS / bare)
    return statistics.median(measured), statistics.median(scaled), cases


# ---------------------------------------------------------------------------
# running and checking cases
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # cases that are not pinned and missed their check
    pinned_failed: int = 0
    seconds: dict[str, list[float]] = field(default_factory=dict)  # case -> one time per pass
    oracle_errors: dict[str, float] = field(default_factory=dict)
    solver: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("stationary_iters", "evolution_steps", "evolution_iters", "node_iters",
         "failed_runs", "wasted_iters"), 0))
    bytes_out: int = 0
    iterations: dict[str, int] = field(default_factory=dict)  # solver case -> last count
    case_ok: dict[str, bool] = field(default_factory=dict)

    def case_seconds(self) -> list[float]:
        """Each case's mean time over the passes."""
        return [statistics.fmean(times) for times in self.seconds.values()]


class Runner:
    def __init__(self, work: Path, main, lib) -> None:
        self.work = work
        self.main = main
        self.lib = lib

    def run(self, case) -> case_lists.Outcome:
        if case.subcommand is None:
            start = time.perf_counter()
            try:
                value = case.call(self.lib)
            except Exception as err:  # recorded as the case's failure
                return case_lists.Outcome(time.perf_counter() - start, error=err)
            return case_lists.Outcome(time.perf_counter() - start, value=value)
        out = self.work / "out" / case.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [case.subcommand, "--config", str(self.work / "configs" / f"{case.name}.json"),
                "--out", str(out)]
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.main(argv)
        except Exception as err:  # an exception escaping the CLI is a failed case
            return case_lists.Outcome(time.perf_counter() - start, error=err,
                                      stderr=stderr.getvalue(), out=out)
        return case_lists.Outcome(time.perf_counter() - start, code=code,
                                  stderr=stderr.getvalue(), out=out)


def _solver_counts(o) -> tuple[int, int, int]:
    """(steps, iterations, wasted iterations) of one solver run."""
    if o.out is None:
        return 0, 0, 0
    if (o.out / "stationary.json").exists():
        return 0, json.loads((o.out / "stationary.json").read_text())["iterations"], 0
    if (o.out / "evolution.json").exists():
        doc = json.loads((o.out / "evolution.json").read_text())
        return doc["steps"], doc["total_inner_iterations"], 0
    m = _NOT_CONVERGED.search(o.stderr)
    return 0, 0, int(m.group(1) or m.group(2)) if m else 0


def _record(tally: Tally, case, o) -> None:
    verdict = case.check(o)
    tally.attempted += 1
    tally.seconds.setdefault(case.name, []).append(o.seconds)
    for name, err in verdict.errors.items():
        tally.oracle_errors[name] = max(err, tally.oracle_errors.get(name, 0.0))
    if not verdict.ok:
        if case.pinned:
            tally.pinned_failed += 1
        else:
            tally.failed += 1
            print(f"FAILED {case.name}: {verdict.detail}", file=sys.stderr)
    steps, iters, wasted = _solver_counts(o)
    tally.iterations[case.name] = iters + wasted
    tally.case_ok[case.name] = tally.case_ok.get(case.name, True) and verdict.ok
    s = tally.solver
    key = "evolution" if steps else "stationary"
    s[f"{key}_iters"] += iters
    s["evolution_steps"] += steps
    s["node_iters"] += case.nodes * (iters + wasted)
    s["failed_runs"] += 1 if wasted else 0
    s["wasted_iters"] += wasted
    if o.out is not None and o.out.is_dir():
        tally.bytes_out += sum(p.stat().st_size for p in o.out.iterdir())


def _passes(cases, runner: Runner, seconds: float, tally: Tally, speed: Speed,
            tracer=None) -> int:
    """Closed loop over the run list until `seconds` have gone by, at least
    one pass; returns the number of passes."""
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        speed.sample(force=True)
        for case in cases:
            speed.sample()
            if tracer is not None:
                tracer.run_id += 1
            _record(tally, case, runner.run(case))
        passes += 1
    return passes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _end_to_end(setup_s: float, tally: Tally, speed: Speed) -> dict:
    ok = tally.attempted - tally.failed - tally.pinned_failed
    per_case = [speed.scale(t) for t in tally.case_seconds()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_case), "s"),
        "run_s.p50": (statistics.median(per_case), "s"),
        "ok_frac": (ok / tally.attempted, "frac"),
        "oracle_rel_err.max": (max(tally.oracle_errors.values()), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _print_table(title: str, metrics: dict, directions: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {directions.get(name, '')}")


def _directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: f"{m['better']} is better" for m in spec["end_to_end"] + spec["per_layer"]}


def _load_package():
    if not (SRC / "wsobolev" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'wsobolev'}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import wsobolev.cli

    return wsobolev


def _lib(package, wrap=None) -> SimpleNamespace:
    """The package functions the library cases call, wrapped when tracing."""
    ns = {}
    for mod, names in LIB_NAMES.items():
        for name in names:
            obj = getattr(getattr(package, mod), name)
            traced = wrap is not None and not isinstance(obj, type)
            ns[name] = wrap(f"{mod}.{name}", obj) if traced else obj
    return SimpleNamespace(**ns)


def _run_all(seed: int, seconds: float) -> int:
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
        code = subprocess.run(argv).returncode or code
    return code


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    package = _load_package()
    cli = package.cli
    work = WORK / args.workload
    speed = Speed()
    speed.sample(force=True)
    measured_setup_s, setup_s, cases = _set_up(args.workload, args.seed, work)
    tally = Tally()
    directions = _directions()

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = _passes(cases, Runner(work, cli.main, _lib(package)), budget, tally, speed)
    e2e = _end_to_end(setup_s, tally, speed)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"cases {len(tally.seconds)}  calls {tally.attempted}  pinned known failures "
          f"{tally.pinned_failed}  failed_frac "
          f"{(tally.failed + tally.pinned_failed) / tally.attempted:.6g}")
    print(f"reference loop {speed.ref_s * 1e3:.4g} ms (mean of {len(speed.samples)}), "
          f"{REF_SECONDS * 1e3:g} ms at the reference speed; measured setup_s "
          f"{measured_setup_s:.6g}, wall_s {sum(tally.case_seconds()):.6g}")
    _print_table("end-to-end (untraced; times at the reference speed)", e2e, directions)
    metrics = e2e

    if args.trace:
        tracer = tracing.Tracer()
        traced = Tally()
        runner = Runner(work, tracer.wrap("cli.main", cli.main), _lib(package, tracer.wrap))
        with tracing.installed(tracer):
            traced_passes = _passes(cases, runner, budget, traced, speed, tracer)
        overhead = sum(traced.case_seconds()) - sum(tally.case_seconds())
        metrics = tracing.layer_metrics(tracer, traced_passes, traced.solver,
                                        traced.oracle_errors, traced.bytes_out, overhead)
        metrics["machine.ref_ms"] = (speed.ref_s * 1e3, "ms")
        _print_table(f"per layer (traced, {traced_passes} passes)", metrics, directions)
        print("cases (mean s over the passes, iterations, check):")
        pinned = {case.name for case in cases if case.pinned}
        for name in sorted(traced.seconds):
            verdict = "ok" if traced.case_ok[name] else "FAIL"
            print(f"  {name:36s} {statistics.fmean(traced.seconds[name]):10.4f} "
                  f"{traced.iterations[name]:8d} {verdict}{' (pinned)' if name in pinned else ''}")
        with open(work / "spans.jsonl", "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.to_json(i)) + "\n")
        tally.attempted += traced.attempted
        tally.failed += traced.failed

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

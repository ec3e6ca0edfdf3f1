"""End-to-end DA-SC benchmark: whole ``Platform.run`` solves on paper workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table5 --seed 1 --seconds 20 --trace 0

One closed-loop client (this process) runs solves back to back, single
process, as ``dasc solve --batch-interval 5`` does: rebuild the instance
from its serialized payload, build its dependency closure, then run
``Platform(instance, make_allocator(name), batch_interval=5.0).run()`` with
every execution-mode knob at its default.  A run solves its workload's
fixed panel of instances with the paper's two allocators, Greedy (Alg. 1)
and Game (Alg. 3), after an untimed warm-up solve of a small instance.
Every report is checked (:mod:`checks`) and its digest compared with
``pinned.json``; a solve that raises or fails a check is a failed
operation.

``--trace 0`` reports the end-to-end metrics from untraced solves: one
lap over every (instance, allocator) pair of the panel, in an order drawn
from ``--seed``, then more solves while they fit in ``--seconds``.  Its
times are wall times scaled to the reference host of :mod:`hostspeed`, so
that the load other tenants put on a shared host does not read as a
change of the program; the wall times as measured are in the line before
the result.  ``--trace 1`` reports the per-layer ledger of :mod:`ledger`
from laps that solve the panel untraced, then traced, with times as
measured; the ratio of the two laps' scaled times is the tracing
overhead.  The last stdout line is the result JSON; the line before it
carries provenance, sample counts and report digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform as host
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no repro sources under {ROOT / 'src'}; run from a repository checkout")
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from checks import report_digest, report_problems  # noqa: E402
from hostspeed import slowdown  # noqa: E402
from ledger import LAYER_METRICS, layer_metrics, traced, warm_starts  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from repro import Platform, make_allocator  # noqa: E402
from repro.columnar import default_columnar  # noqa: E402
from repro.columnar.game_kernels import default_game_kernels  # noqa: E402
from repro.columnar.store import default_store  # noqa: E402
from repro.obs.trace import NULL_TRACER, Tracer  # noqa: E402
from repro.simulation import SimulationReport  # noqa: E402
from repro.spatial.roadnet import default_acceleration  # noqa: E402

ALLOCATORS = ("Greedy", "Game")
BATCH_INTERVAL = 5.0

#: Report digests of every panel instance, per workload and allocator.
PINNED_FILE = BENCH_DIR / "pinned.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "greedy.solve_s": "s",
    "game.solve_s": "s",
    "greedy.score": "count",
    "game.score": "count",
    "peak_rss_mb": "MB",
}
UNITS = {
    **END_TO_END_UNITS,
    **{name: unit for name, (unit, _, _) in LAYER_METRICS.items()},
}


@dataclass
class Solve:
    """One checked solve: set-up and solve seconds, and what it produced."""

    setup_s: float
    solve_s: float
    steps: Dict[str, float]
    platform: Platform
    report: SimulationReport


class Run:
    """Solves, output checks and digests for one benchmark run."""

    def __init__(self, workload: Workload, scale: float = 1.0) -> None:
        self.workload = workload
        self.seeds = list(workload.panel)
        # A child process generates the instances, so the generator's memory
        # never counts towards this process's peak_rss_mb; this process
        # holds only their JSON text and decodes one at a time.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), workload.name, str(scale)],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            check=True,
        )
        self.warmup, *self.payloads = child.stdout.splitlines()
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, List[Optional[str]]] = {
            name: [None] * len(self.seeds) for name in ALLOCATORS
        }
        self.scores: Dict[str, List[int]] = {name: [0] * len(self.seeds) for name in ALLOCATORS}
        self.resolved: Dict[str, bool] = {}

    def _execute(
        self, name: str, payload: bytes, tracer: Optional[Tracer]
    ) -> Optional[Tuple[Solve, List[str]]]:
        """Set up ``payload`` and solve it with allocator ``name``.

        The solve time covers ``make_allocator``, ``Platform`` and ``run``;
        a traced solve hands ``tracer`` to the platform and opens the
        ``simulation`` span around ``run``.  Returns the solve and the
        problems the output checks found, or None if it raised.
        """
        self.attempted += 1
        gc.collect()
        try:
            decoded = json.loads(payload)
            started = time.perf_counter()
            instance, steps = self.workload.setup(decoded)
            ready = time.perf_counter()
            del decoded
            platform = Platform(
                instance, make_allocator(name), batch_interval=BATCH_INTERVAL, tracer=tracer
            )
            with (tracer or NULL_TRACER).span("simulation"):
                report = platform.run()
            finished = time.perf_counter()
        except Exception:  # noqa: BLE001 -- a raising solve is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        solve = Solve(ready - started, finished - ready, steps, platform, report)
        return solve, report_problems(instance, report)

    def warm_up(self) -> None:
        """Solve the warm-up instance with each allocator, untimed, so that
        first-call costs (imports, kernel set-up) stay out of the timings."""
        for name in ALLOCATORS:
            outcome = self._execute(name, self.warmup, None)
            if outcome is not None and outcome[1]:
                problems = "; ".join(outcome[1][:5])
                print(f"{name} on the warm-up instance: {problems}", file=sys.stderr)
                self.failed += 1

    def solve(self, name: str, index: int, tracer: Optional[Tracer] = None) -> Optional[Solve]:
        """Solve panel instance ``index`` with allocator ``name`` and check
        it; returns None for a failed operation."""
        outcome = self._execute(name, self.payloads[index], tracer)
        if outcome is None:
            return None
        solve, problems = outcome
        report = solve.report
        digest = report_digest(report)
        seen = self.digests[name]
        if seen[index] is None:
            seen[index] = digest
        elif seen[index] != digest:
            problems.append(f"digest {digest} differs from the first repetition's {seen[index]}")
        if problems:
            print(f"{name} on instance {index}: " + "; ".join(problems[:5]), file=sys.stderr)
            self.failed += 1
            return None
        self.scores[name][index] = report.total_score
        engine = solve.platform.last_engine
        self.resolved.update(
            columnar_active=engine.columnar_active, store_active=engine.store_active
        )
        if self.workload.roadnet:
            network = solve.platform.instance.metric.network
            self.resolved["roadnet_accelerated"] = network.accelerated
        return solve

    def check_pinned(self) -> None:
        """Every panel instance's digests must match ``pinned.json``."""
        pinned = json.loads(PINNED_FILE.read_text())[self.workload.name]
        for name in ALLOCATORS:
            for index, digest in enumerate(self.digests[name]):
                if digest is not None and digest != pinned[name][index]:
                    print(
                        f"{name} on instance {index}: digest {digest} != pinned "
                        f"{pinned[name][index]}",
                        file=sys.stderr,
                    )
                    self.failed += 1

    def result(self, values: Dict[str, float]) -> Dict[str, Any]:
        """The result object: outcome counts and ``values`` with their units."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
            },
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _typical(per_instance: List[List[float]]) -> float:
    """Geometric mean over the panel's instances of each one's median.

    Medians, because now and then one repetition is much slower than its
    siblings; a geometric mean, so that each instance weighs the same
    however long it takes (a meetup_roadnet panel instance takes 15x the
    other) and its timing noise averages out with the others'.
    """
    medians = [statistics.median(values) for values in per_instance if values]
    if not medians:
        return 0.0
    return math.exp(statistics.fmean(math.log(value) for value in medians))


def end_to_end(run: Run, seconds: float, seed: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Untraced solves of the panel's (instance, allocator) pairs.

    The pairs are solved in laps, in an order drawn from ``seed``.  The
    first lap solves every pair once; after it, the next solve is that of
    the pair with the fewest solves so far (the earliest in the order on a
    tie) among the pairs whose last solve would still end within
    ``seconds`` of the first, and the run ends when none would.  Between
    solves the host's :func:`~hostspeed.slowdown` is measured; a solve's
    set-up and solve times are divided by the mean of the slowdowns on
    either side of it, which puts them in seconds on the reference host.
    Times are :func:`_typical` over the panel; scores are totals over the
    panel.  The wall times as measured, and the slowdowns, go to the
    samples.
    """
    pairs = [(index, name) for index in range(len(run.payloads)) for name in ALLOCATORS]
    random.Random(seed).shuffle(pairs)
    keys = ("setup_s", "greedy.solve_s", "game.solve_s")
    scaled: Dict[str, List[List[float]]] = {key: [[] for _ in run.payloads] for key in keys}
    wall: Dict[str, List[List[float]]] = {key: [[] for _ in run.payloads] for key in keys}
    factors: List[float] = [slowdown()]
    took: Dict[Tuple[int, str], float] = {}
    count: Dict[Tuple[int, str], int] = {pair: 0 for pair in pairs}
    deadline = time.perf_counter() + seconds

    def next_pair() -> Optional[Tuple[int, str]]:
        if len(took) < len(pairs):
            return pairs[len(took)]
        now = time.perf_counter()
        fitting = [pair for pair in pairs if now + took[pair] <= deadline]
        return min(fitting, key=count.__getitem__, default=None)

    while (pair := next_pair()) is not None:
        index, name = pair
        started = time.perf_counter()
        solve = run.solve(name, index)
        factors.append(slowdown())
        took[pair] = time.perf_counter() - started
        count[pair] += 1
        if solve is None:
            continue
        factor = (factors[-2] + factors[-1]) / 2.0
        for key, value in (("setup_s", solve.setup_s), (f"{name.lower()}.solve_s", solve.solve_s)):
            wall[key][index].append(value)
            scaled[key][index].append(value / factor)
    metrics = {key: _typical(scaled[key]) for key in keys}
    metrics.update(
        {
            "greedy.score": float(sum(run.scores["Greedy"])),
            "game.score": float(sum(run.scores["Game"])),
            "peak_rss_mb": _peak_rss_mb(),
        }
    )
    samples = {
        **{key: sum(map(len, wall[key])) for key in keys},
        "wall": {key: _typical(wall[key]) for key in keys},
        "slowdown": {
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
        },
    }
    return metrics, samples


def _add(total: Dict[str, float], entry: Dict[str, float]) -> None:
    for key, value in entry.items():
        total[key] = total.get(key, 0.0) + value


def _solves(run: Run, tracer: Optional[Tracer] = None) -> Iterator[Solve]:
    """Every instance of the panel solved by each allocator, one at a time."""
    for index in range(len(run.payloads)):
        for name in ALLOCATORS:
            solve = run.solve(name, index, tracer)
            if solve is not None:
                yield solve


def per_layer(run: Run, seconds: float, seed: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Laps that solve the panel untraced, then the panel traced, while
    another such lap fits in ``seconds`` (the first always runs).

    The ledger is the first traced lap's, summed over its solves, with
    times as measured.  The overhead is the median traced lap time over the
    median untraced one, minus 1, each lap's solve time divided by the
    mean :func:`~hostspeed.slowdown` on either side of it, as
    :func:`end_to_end` does.  The order is fixed, so ``seed`` is unused.
    """
    plain: List[float] = []
    wrapped: List[float] = []
    ledgers: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    factors = [slowdown()]

    while True:
        started = time.perf_counter()
        plain_s = sum(solve.solve_s for solve in _solves(run))
        factors.append(slowdown())
        plain.append(plain_s / ((factors[-2] + factors[-1]) / 2.0))
        tracer = Tracer()
        warm_before = warm_starts()
        sums: Dict[str, Dict[str, float]] = {"setup": {}, "engine": {}, "aux": {}, "roadnet": {}}
        solved, solve_s, batches = 0, 0.0, 0
        with traced(tracer) as outcome_stats:
            for solve in _solves(run, tracer):
                solved += 1
                solve_s += solve.solve_s
                batches += solve.report.num_batches
                engine = solve.platform.last_engine
                _add(sums["setup"], solve.steps)
                _add(sums["engine"], engine.stats())
                _add(sums["aux"], engine.aux_stats())
                if run.workload.roadnet:
                    _add(sums["roadnet"], solve.platform.instance.metric.network.stats())
        factors.append(slowdown())
        wrapped.append(solve_s / ((factors[-2] + factors[-1]) / 2.0))
        if not ledgers and solved == len(ALLOCATORS) * len(run.payloads):
            ledgers.append(
                layer_metrics(
                    tracer.finished,
                    setup=sums["setup"],
                    outcome_stats=outcome_stats,
                    engine_stats=sums["engine"],
                    aux_stats=sums["aux"],
                    roadnet_stats=sums["roadnet"],
                    warm=warm_starts() - warm_before,
                    batches=batches,
                )
            )
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    metrics = ledgers[0] if ledgers else {name: 0.0 for name in LAYER_METRICS}
    if plain and wrapped and statistics.median(plain) > 0.0:
        metrics["obs.trace_overhead"] = statistics.median(wrapped) / statistics.median(plain) - 1.0
    solves_per_lap = len(ALLOCATORS) * len(run.payloads)
    return metrics, {"laps": len(wrapped), "traced_solves": solves_per_lap * len(wrapped)}


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; else "unavailable"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    """Hash of every ``src/**/*.py`` path and content: identifies the code
    under test where no git metadata exists (the checkout may not be a
    repository)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, run: Run) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpus": os.cpu_count(),
        "python": host.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "panel": run.seeds,
        "defaults": {
            "columnar": default_columnar(),
            "store": default_store(),
            "game_kernels": default_game_kernels(),
            "roadnet_acceleration": default_acceleration(),
            **run.resolved,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = Run(workload)
    run.warm_up()
    measure = per_layer if args.trace else end_to_end
    values, samples = measure(run, args.seconds, args.seed)
    run.check_pinned()
    print(
        json.dumps(
            {
                "workload": workload.name,
                "provenance": provenance(args.seed, run),
                "samples": samples,
                "digests": run.digests,
                "scores": run.scores,
            }
        )
    )
    print(json.dumps(run.result(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Warm-started staffing: ``MatchMemo`` replays repeated matching queries.

``DASCGreedy`` keeps a :class:`~repro.matching.bipartite.MatchMemo` by
default, so a task set the platform re-asks batch after batch is answered
from the memo instead of re-running the solver.  Two workloads pin it:

* a repeated-staffing loop over Hall-violating and feasible task sets whose
  queries *reach the solver*: the memo must return identical assignments
  and eliminate the repeat augment rounds (``matching_augment_rounds``
  warm < cold, ``matching_warm_starts`` > 0);
* a multi-batch platform run with the memo on and off: identical reports,
  memo engaged.

Counter-based checks are deterministic on 1-CPU hosts; ``check_perf_gate.py``
reruns the first workload as the ``warm_matching_gate``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_warm_matching.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
for _entry in (str(_HERE), str(_HERE.parent / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.matching.bipartite import MatchMemo, match_task_set
from repro.obs.metrics import REGISTRY


def make_matching_sets(
    n_sets: int = 6, seed: int = 23
) -> Tuple[ProblemInstance, List[Dict[str, object]], object]:
    """Solver-reaching staffing queries with a deterministic repeat pattern.

    Each cluster contributes two four-task sets over four local workers:
    an *infeasible* one (a Hall violation — two tasks share a single
    capable worker — that Hungarian must discover) and a *feasible* one.
    Candidate rows are fixed per query, so re-asking across simulated
    batches is exactly the repeated-failed-set pattern of a platform run,
    minus the arrival noise.
    """
    rng = Random(seed)
    workers: List[Worker] = []
    tasks: List[Task] = []
    queries: List[Dict[str, object]] = []
    rows_of: Dict[int, List[int]] = {}
    for s in range(n_sets):
        wids = list(range(s * 4, s * 4 + 4))
        tids = list(range(10_000 + s * 8, 10_000 + s * 8 + 8))
        for wid in wids:
            workers.append(
                Worker(
                    id=wid,
                    location=(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
                    start=0.0,
                    wait=1e6,
                    velocity=1.0,
                    max_distance=1e6,
                    skills=frozenset([0]),
                )
            )
        for tid in tids:
            tasks.append(
                Task(
                    id=tid,
                    location=(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
                    start=0.0,
                    wait=1e6,
                    skill=0,
                )
            )
        w0, w1, w2, w3 = wids
        hall = tids[:4]
        # Two tasks admit only w0: a Hall violation the solver must reach
        # (four distinct columns, so the early column-count check passes).
        rows_of[hall[0]] = [w0, w1]
        rows_of[hall[1]] = [w0]
        rows_of[hall[2]] = [w0]
        rows_of[hall[3]] = [w2, w3]
        feasible = tids[4:]
        rows_of[feasible[0]] = [w0, w1]
        rows_of[feasible[1]] = [w1, w2]
        rows_of[feasible[2]] = [w2, w3]
        rows_of[feasible[3]] = [w3]
        queries.append({"task_ids": hall, "free": wids})
        queries.append({"task_ids": feasible, "free": wids})
    instance = ProblemInstance(
        workers=workers, tasks=tasks, skills=SkillUniverse(1)
    )

    class _FixedChecker:
        """Feasible-pair oracle with pinned candidate rows."""

        def workers_of(self, task_id: int) -> List[int]:
            return rows_of[task_id]

    return instance, queries, _FixedChecker()


def run_matching_workload(
    warm: bool, rounds: int = 25, method: str = "hungarian"
) -> Tuple[List[Optional[Dict[int, int]]], Dict[str, float]]:
    """``rounds`` simulated batches of identical staffing queries.

    Returns every solve result (in order) plus the deltas of the
    process-wide matching counters, so callers can pin both identity and
    the warm/cold augment-round gap.
    """
    rounds_counter = REGISTRY.counter("matching_augment_rounds")
    warm_counter = REGISTRY.counter("matching_warm_starts")
    before = (rounds_counter.value, warm_counter.value)
    instance, queries, checker = make_matching_sets()
    memo = MatchMemo() if warm else None
    results: List[Optional[Dict[int, int]]] = []
    for _ in range(rounds):
        for query in queries:
            results.append(
                match_task_set(
                    query["task_ids"],
                    query["free"],
                    checker,
                    instance,
                    method=method,
                    memo=memo,
                )
            )
    deltas = {
        "matching_augment_rounds": rounds_counter.value - before[0],
        "matching_warm_starts": warm_counter.value - before[1],
    }
    return results, deltas


def run_platform_matching_workload(warm: bool):
    """A real multi-batch simulation with the warm memo on or off.

    Task-heavy and worker-scarce with long windows, so unstaffable sets
    are re-queried batch after batch — the memo's natural prey.  Returns
    (report, counter deltas).
    """
    from repro.algorithms.greedy import DASCGreedy
    from repro.datagen.distributions import Range
    from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
    from repro.simulation.platform import Platform

    cfg = replace(
        SyntheticConfig(seed=9).scaled(0.04),
        num_workers=40,
        num_tasks=120,
        waiting_time=Range(40.0, 60.0),
    )
    instance = generate_synthetic(cfg)
    rounds_counter = REGISTRY.counter("matching_augment_rounds")
    warm_counter = REGISTRY.counter("matching_warm_starts")
    before = (rounds_counter.value, warm_counter.value)
    report = Platform(
        instance, DASCGreedy(warm_matching=warm), batch_interval=5.0
    ).run()
    deltas = {
        "matching_augment_rounds": rounds_counter.value - before[0],
        "matching_warm_starts": warm_counter.value - before[1],
    }
    return report, deltas


# -- pytest entry points ------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct `python bench_warm_matching.py` runs
    pytest = None

if pytest is not None:

    def test_bench_warm_matching(record_bench_json):
        """Warm memo: identical solutions, repeat augment rounds eliminated."""
        started = time.perf_counter()
        warm_results, warm_deltas = run_matching_workload(True)
        cold_results, cold_deltas = run_matching_workload(False)
        wall_ms = (time.perf_counter() - started) * 1000.0
        assert warm_results == cold_results
        assert cold_deltas["matching_warm_starts"] == 0.0
        assert warm_deltas["matching_warm_starts"] > 0.0
        assert (
            warm_deltas["matching_augment_rounds"]
            < cold_deltas["matching_augment_rounds"]
        )
        record_bench_json(
            "matching_warm_start",
            {"workload": "hall+feasible sets x 25 rounds", "method": "hungarian"},
            wall_ms,
            {
                "warm_augment_rounds": warm_deltas["matching_augment_rounds"],
                "cold_augment_rounds": cold_deltas["matching_augment_rounds"],
                "warm_starts": warm_deltas["matching_warm_starts"],
            },
        )

    def test_bench_platform_warm_matching():
        """End to end: warm allocator, identical report, memo engaged."""
        warm_report, warm_deltas = run_platform_matching_workload(True)
        cold_report, cold_deltas = run_platform_matching_workload(False)
        assert warm_report.assignments == cold_report.assignments
        assert warm_report.completion_times == cold_report.completion_times
        assert warm_report.expired_tasks == cold_report.expired_tasks
        assert warm_report.engine_stats == cold_report.engine_stats
        assert warm_deltas["matching_warm_starts"] > 0.0
        assert cold_deltas["matching_warm_starts"] == 0.0
        assert (
            warm_deltas["matching_augment_rounds"]
            <= cold_deltas["matching_augment_rounds"]
        )


def main() -> int:
    warm_results, warm_deltas = run_matching_workload(True)
    cold_results, cold_deltas = run_matching_workload(False)
    ok = (
        warm_results == cold_results
        and warm_deltas["matching_warm_starts"] > 0
        and warm_deltas["matching_augment_rounds"]
        < cold_deltas["matching_augment_rounds"]
    )
    print(
        f"warm matching: rounds warm={warm_deltas['matching_augment_rounds']:.0f} "
        f"cold={cold_deltas['matching_augment_rounds']:.0f} "
        f"hits={warm_deltas['matching_warm_starts']:.0f} "
        f"identical={warm_results == cold_results}"
    )
    print("warm matching gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Micro-benchmarks of the substrates (proper multi-round timings).

These are conventional pytest-benchmark measurements of the inner building
blocks: the Hungarian solver, Hopcroft-Karp, the grid-index feasibility
builder and a single greedy/game batch.  Useful for tracking performance
regressions; they reproduce no specific paper figure.
"""

import random
import time
from dataclasses import replace

import pytest

from repro.algorithms.baselines import ClosestBaseline
from repro.algorithms.game import DASCGame
from repro.algorithms.greedy import DASCGreedy
from repro.core.constraints import FeasibilityChecker
from repro.datagen.distributions import Range
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import INFEASIBLE, hungarian
from repro.simulation.platform import Platform


@pytest.fixture(scope="module")
def batch_instance():
    return generate_synthetic(SyntheticConfig(seed=3).scaled(0.06))  # 300x300


def make_feasibility_instance():
    """Long presence windows keep entities in the pool across many batches,
    so per-batch feasibility construction dominates the simulation — the
    regime the allocation engine's incremental graph targets.  Module-level
    so ``check_perf_gate.py`` reruns the identical workload."""
    config = replace(SyntheticConfig(seed=3), waiting_time=Range(25.0, 35.0))
    return generate_synthetic(config.scaled(0.12))  # 600x600


@pytest.fixture(scope="module")
def feasibility_dominated_instance():
    return make_feasibility_instance()


def test_micro_hungarian_40x60(benchmark):
    rng = random.Random(1)
    cost = [
        [INFEASIBLE if rng.random() < 0.3 else rng.uniform(0, 10) for _ in range(60)]
        for _ in range(40)
    ]
    benchmark(hungarian, cost)


def test_micro_hopcroft_karp_500(benchmark):
    rng = random.Random(2)
    adjacency = {
        i: [j for j in range(500) if rng.random() < 0.02] for i in range(500)
    }
    benchmark(hopcroft_karp, adjacency, 500)


def test_micro_feasibility_indexed(benchmark, batch_instance):
    benchmark(
        FeasibilityChecker,
        batch_instance.workers,
        batch_instance.tasks,
        now=0.0,
        use_index=True,
    )


def test_micro_feasibility_exhaustive(benchmark, batch_instance):
    benchmark(
        FeasibilityChecker,
        batch_instance.workers,
        batch_instance.tasks,
        now=0.0,
        use_index=False,
    )


def test_micro_greedy_single_batch(benchmark, batch_instance):
    greedy = DASCGreedy()
    benchmark(
        greedy.allocate,
        batch_instance.workers,
        batch_instance.tasks,
        batch_instance,
        0.0,
        frozenset(),
    )


def test_micro_game_single_batch(benchmark, batch_instance):
    game = DASCGame(seed=1)
    benchmark(
        game.allocate,
        batch_instance.workers,
        batch_instance.tasks,
        batch_instance,
        0.0,
        frozenset(),
    )


def _platform_report(instance, use_engine, batch_interval=1.0):
    return Platform(
        instance,
        ClosestBaseline(),
        batch_interval=batch_interval,
        use_engine=use_engine,
    ).run()


def _platform_run(instance, use_engine, batch_interval=1.0):
    return _platform_report(instance, use_engine, batch_interval).total_score


#: Knobs behind ``feasibility_dominated_instance``, recorded verbatim into
#: the BENCH_engine.json entries so the trajectory is comparable run-to-run.
_FEASIBILITY_CONFIG = {
    "instance": "synthetic seed=3 scale=0.12 waiting_time=25-35",
    "allocator": "Closest",
    "batch_interval": 1.0,
}


def _record_platform_entry(record_bench_json, instance, use_engine, name):
    """One extra measured run feeding the machine-readable perf trajectory."""
    started = time.perf_counter()
    report = _platform_report(instance, use_engine)
    wall_ms = (time.perf_counter() - started) * 1000.0
    record_bench_json(
        name,
        dict(_FEASIBILITY_CONFIG, use_engine=use_engine),
        wall_ms,
        report.engine_stats,
    )


def test_micro_platform_engine(
    benchmark, feasibility_dominated_instance, record_bench_json
):
    """Multi-batch simulation on the engine path (incremental feasibility +
    distance cache).  Feasibility-dominated: a cheap allocator over a small
    batch interval, so per-batch graph construction is the bottleneck."""
    benchmark(_platform_run, feasibility_dominated_instance, True)
    _record_platform_entry(
        record_bench_json, feasibility_dominated_instance, True,
        "micro_platform_engine",
    )


def test_micro_platform_legacy(
    benchmark, feasibility_dominated_instance, record_bench_json
):
    """The same simulation on the legacy fresh-rebuild-per-batch path.
    Compare against ``test_micro_platform_engine``: the engine path is the
    same run bit for bit, just faster."""
    benchmark(_platform_run, feasibility_dominated_instance, False)
    _record_platform_entry(
        record_bench_json, feasibility_dominated_instance, False,
        "micro_platform_legacy",
    )


def test_micro_grid_query_radius(benchmark):
    """The sqrt-free radius query — the hottest instruction stream in a
    feasibility build (one query per worker row)."""
    from repro.spatial.index import GridIndex

    rng = random.Random(7)
    index = GridIndex(cell_size=0.05)
    index.insert_many(
        (i, (rng.uniform(0, 1), rng.uniform(0, 1))) for i in range(2000)
    )
    centers = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(100)]

    def query_all():
        total = 0
        for center in centers:
            total += len(index.query_radius(center, 0.15))
        return total

    benchmark(query_all)


def test_micro_grid_nearest(benchmark):
    """Ring-walking nearest with the incremental occupied-bounds cutoff."""
    from repro.spatial.index import GridIndex

    rng = random.Random(8)
    index = GridIndex(cell_size=0.05)
    index.insert_many(
        (i, (rng.uniform(0, 1), rng.uniform(0, 1))) for i in range(2000)
    )
    # Mix of interior centers (short walks) and far-out ones (bounds cutoff).
    centers = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(80)]
    centers += [(rng.uniform(3, 5), rng.uniform(3, 5)) for _ in range(20)]

    def nearest_all():
        found = 0
        for center in centers:
            if index.nearest(center) is not None:
                found += 1
        return found

    benchmark(nearest_all)


def test_micro_incremental_feasibility_churn(benchmark, batch_instance):
    """Maintain pairs under churn vs rebuilding: the incremental cache's
    reason to exist."""
    from repro.core.incremental import IncrementalFeasibility

    workers = batch_instance.workers
    tasks = batch_instance.tasks

    def churn():
        cache = IncrementalFeasibility(cell_size=0.1)
        for w in workers[:150]:
            cache.add_worker(w)
        for t in tasks[:150]:
            cache.add_task(t)
        # five batches of churn: 20 departures + 20 arrivals each
        for round_index in range(5):
            base = 150 + round_index * 20
            for w in workers[base - 20 : base]:
                cache.remove_worker(w.id)
            for t in tasks[base - 20 : base]:
                cache.remove_task(t.id)
            for w in workers[base : base + 20]:
                cache.add_worker(w)
            for t in tasks[base : base + 20]:
                cache.add_task(t)
        return cache.pair_count(now=0.0)

    benchmark(churn)

"""Geo-sharded engine: reconcile and quality gates.

Two pinned claims on a genuinely bordered workload, both counter
arithmetic (deterministic on 1-CPU hosts):

* **Reconcile overhead** — the two-phase protocol's phase-2 reconcile
  examines fewer than ``MAX_RECONCILE_OVERHEAD`` of the pairs phase 1
  settles.
* **Quality ratio** — the sharded total score stays within
  ``MIN_QUALITY_RATIO`` of the unsharded solution on the same workload.
  (It can exceed 1.0: the post-merge dependency-retry pass re-offers
  tasks the single-pass unsharded allocator abandons after a dependency
  prune frees their worker.)

``check_perf_gate.py`` reruns the identical workload as a CI gate.
"""

import time
from dataclasses import replace

import pytest

from repro.algorithms.baselines import ClosestBaseline
from repro.datagen.distributions import Range
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.simulation.platform import Platform

#: Phase-2 reconcile pairs must stay under this fraction of phase-1 work.
MAX_RECONCILE_OVERHEAD = 0.10

#: Sharded total score over unsharded total score, same workload.
MIN_QUALITY_RATIO = 0.9

N_SHARDS = 4

SHARD_CONFIG = {
    "instance": "synthetic seed=3 scale=0.12 wait=25-35 in 4 clusters (gap=1.25)",
    "allocator": "Closest",
    "batch_interval": 5.0,
    "shards": N_SHARDS,
    "scheme": "kd",
}


def _clustered(base, gap):
    offsets = [((i % 2) * gap, (i // 2) * gap) for i in range(4)]

    def moved(entity):
        ox, oy = offsets[entity.id % 4]
        return (entity.location[0] + ox, entity.location[1] + oy)

    return replace(
        base,
        workers=[replace(w, location=moved(w)) for w in base.workers],
        tasks=[replace(t, location=moved(t)) for t in base.tasks],
    )


def make_bordered_instance():
    """Four long-wait clusters pulled within reach of each other.

    Worker/task locations span ``[0, 0.5]`` per cluster and the KD cut
    lands mid-gap, so a gap of 1.25 leaves the cut ~0.38 from each
    cluster's near edge — inside the ~0.4 reach radius for a thin ring of
    real border workers (and nobody else).  The stretched waiting times
    keep entities alive across batches so dependency chains actually span
    batches and shards.  Module-level so ``check_perf_gate.py`` reruns the
    identical workload.
    """
    base = generate_synthetic(
        replace(SyntheticConfig(seed=3), waiting_time=Range(25.0, 35.0)).scaled(0.12)
    )
    return _clustered(base, 1.25)


def run_shard_workload(instance, shards=1):
    """One measured platform run; returns (platform, report, wall_ms)."""
    platform = Platform(
        instance,
        ClosestBaseline(),
        batch_interval=SHARD_CONFIG["batch_interval"],
        shards=shards,
        shard_scheme=SHARD_CONFIG["scheme"],
    )
    started = time.perf_counter()
    report = platform.run()
    wall_ms = (time.perf_counter() - started) * 1000.0
    return platform, report, wall_ms


def settled_work(stats, prefix="engine_"):
    """Feasibility work actually performed: pair checks + deadline filters."""
    return stats[f"{prefix}pairs_checked"] + stats[f"{prefix}time_filtered"]


def per_shard_settled(platform):
    """The settled work of each shard engine of the last run, in shard order."""
    return [settled_work(shard.stats()) for shard in platform.last_engine.engines]


@pytest.fixture(scope="module")
def bordered_instance():
    return make_bordered_instance()


def test_bench_shard_reconcile_and_quality(bordered_instance, record_bench_json):
    """Sharded run: bounded reconcile work, bounded quality loss."""
    platform, part_report, part_ms = run_shard_workload(
        bordered_instance, shards=N_SHARDS
    )
    _, flat_report, _ = run_shard_workload(bordered_instance)

    registry = platform.metrics_registry
    border = registry.counter("shard_border_workers").value
    reconcile_pairs = registry.counter("shard_reconcile_pairs").value
    phase1 = sum(per_shard_settled(platform))
    overhead = reconcile_pairs / max(phase1, 1)
    quality = part_report.total_score / max(flat_report.total_score, 1)

    record_bench_json(
        "shard_platform_partitioned",
        dict(
            SHARD_CONFIG,
            max_reconcile_overhead=MAX_RECONCILE_OVERHEAD,
            min_quality_ratio=MIN_QUALITY_RATIO,
        ),
        part_ms,
        {
            "border_workers": border,
            "reconcile_pairs": reconcile_pairs,
            "reconcile_assigned": registry.counter("shard_reconcile_assigned").value,
            "dep_retry_assigned": registry.counter("shard_dep_retry_assigned").value,
            "phase1_settled": phase1,
            "reconcile_overhead": round(overhead, 4),
            "partitioned_score": part_report.total_score,
            "unsharded_score": flat_report.total_score,
            "quality_ratio": round(quality, 4),
        },
    )

    assert border > 0, "gate workload must actually have border workers"
    assert overhead < MAX_RECONCILE_OVERHEAD, (
        f"reconcile examined {reconcile_pairs:.0f} pairs = {overhead:.1%} of "
        f"phase-1's {phase1:.0f} (limit {MAX_RECONCILE_OVERHEAD:.0%})"
    )
    assert quality >= MIN_QUALITY_RATIO, (
        f"sharded quality {quality:.3f} < {MIN_QUALITY_RATIO} "
        f"({part_report.total_score} vs {flat_report.total_score})"
    )

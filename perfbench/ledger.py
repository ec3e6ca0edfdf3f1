"""The traced run's per-layer ledger, recorded from outside ``src/``.

Traced solves run under a :class:`repro.obs.trace.Tracer` handed to
``Platform``, which already opens spans around the engine's syncs
(``engine.full_build``, ``engine.incremental_update``) and each allocator
call (``alloc.<name>``).  For the length of a ``with`` block,
:func:`traced` adds spans around two functions the program does not trace
itself -- ``DependencyGraph.influence_set`` (``dependency.influence``) and
``match_task_set`` at the name ``repro.algorithms.greedy`` resolves
(``matching``) -- and wraps ``BatchAllocator.allocate`` to sum each
allocator's outcome stats; it removes all three afterwards, so the program
carries no benchmark code.  The benchmark itself opens the ``simulation``
span around ``Platform.run`` and times the set-up steps.

Inclusive and self times come from the finished spans through their parent
ids.  The ``platform.*`` and ``alloc.game.round`` spans are not layers of
the ledger: their time counts as the nearest enclosing ledger span's own.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import repro.algorithms.greedy as greedy_module
from repro.algorithms.base import BatchAllocator
from repro.core.dependency import DependencyGraph
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Span, Tracer

#: Per-layer metric -> (unit, better, the end-to-end metric it should move
#: and on which workload).  Written before any measurement; a later change
#: cites these rows.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "io.load_s": ("s", "lower", "setup_s on every workload"),
    "core.closure_s": ("s", "lower", "setup_s, mostly on table5 (deep dependency chains)"),
    "spatial.network_build_s": ("s", "lower", "setup_s on meetup_roadnet; ~0 elsewhere"),
    "roadnet.settled_nodes": ("count", "lower", "*.solve_s on meetup_roadnet; 0 on table5/burst"),
    "roadnet.table_queries": ("count", "lower", "*.solve_s on meetup_roadnet; 0 on table5/burst"),
    "roadnet.bounded_queries": ("count", "lower", "*.solve_s on meetup_roadnet; 0 on table5/burst"),
    "engine.cache_hit_rate": ("ratio", "higher", "*.solve_s on meetup_roadnet (road distances are dear)"),
    "engine.full_build_s": ("s", "lower", "*.solve_s on burst (one bulk build)"),
    "engine.incremental_s": ("s", "lower", "*.solve_s on table5 (largest timed layer there)"),
    "engine.pairs_checked": ("count", "lower", "*.solve_s on table5"),
    "engine.pruned_by_index": ("count", "higher", "*.solve_s on table5 and meetup_roadnet"),
    "engine.prune_rate": ("ratio", "higher", "*.solve_s on table5 (0 today) and meetup_roadnet"),
    "engine.rows_recomputed": ("count", "lower", "*.solve_s on table5"),
    "engine.tasks_added": ("count", "lower", "*.solve_s on table5"),
    "columnar.pairs": ("count", "higher", "game.solve_s on burst; no columnar code on meetup_roadnet"),
    "columnar.scalar_pair_evals": ("count", "lower", "*.solve_s on table5 and meetup_roadnet"),
    "columnar.share": ("ratio", "higher", "*.solve_s on burst; 0 on meetup_roadnet"),
    "columnar.game_kernel_sweeps": ("count", "higher", "game.solve_s on burst; 0 on table5/meetup_roadnet"),
    "columnar.game_kernel_coverage": ("ratio", "higher", "game.solve_s on burst; 0 on table5/meetup_roadnet"),
    "columnar.store_rows_touched": ("count", "lower", "*.solve_s on burst (store off by default: 0)"),
    "alloc.greedy_s": ("s", "lower", "greedy.solve_s on burst"),
    "alloc.game_s": ("s", "lower", "game.solve_s on burst (largest timed layer there)"),
    "greedy.iterations": ("count", "lower", "greedy.solve_s on burst"),
    "greedy.matchings": ("count", "lower", "greedy.solve_s on burst"),
    "game.rounds": ("count", "lower", "game.solve_s on burst"),
    "game.evaluations": ("count", "lower", "game.solve_s on burst"),
    "game.value_recomputes": ("count", "lower", "game.solve_s on burst"),
    "game.memo_hit_rate": ("ratio", "higher", "game.solve_s on burst"),
    "dependency.influence_calls": ("count", "lower", "game.solve_s on table5"),
    "dependency.influence_s": ("s", "lower", "game.solve_s on table5"),
    "matching.calls": ("count", "lower", "greedy.solve_s on burst"),
    "matching.s": ("s", "lower", "greedy.solve_s on burst"),
    "matching.staffed_rate": ("ratio", "higher", "greedy.solve_s on burst"),
    "matching.warm_start_rate": ("ratio", "higher", "greedy.solve_s on burst"),
    "simulation.self_s": ("s", "lower", "*.solve_s on meetup_roadnet (42 batches a solve)"),
    "simulation.batches": ("count", "lower", "*.solve_s on meetup_roadnet"),
    "obs.trace_overhead": ("ratio", "lower", "none; the cost of this ledger, kept out of end-to-end metrics"),
    "trace.unattributed_share": (
        "ratio", "lower", "none; share of Platform.run that no layer span covers"
    ),
}


#: Spans the ledger attributes time to.
LEDGER_SPANS = frozenset(
    {
        "simulation",
        "engine.full_build",
        "engine.incremental_update",
        "alloc.Greedy",
        "alloc.Game",
        "dependency.influence",
        "matching",
    }
)


def span_times(
    spans: List[Span],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Inclusive time, self time and calls per ledger span name.

    A span's self time is its duration minus that of the ledger spans whose
    nearest enclosing ledger span it is.
    """
    by_id = {span.span_id: span for span in spans}
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name not in LEDGER_SPANS:
            continue
        inclusive[span.name] += span.duration
        own[span.name] += span.duration
        calls[span.name] += 1
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name not in LEDGER_SPANS:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            own[parent.name] -= span.duration
    return inclusive, own, calls


@contextmanager
def traced(tracer: Tracer) -> Iterator[Dict[str, Dict[str, float]]]:
    """Install the wrappers for the block; yields outcome-stat sums per
    allocator (``"greedy"``, ``"game"``)."""
    outcome_stats: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    originals = (
        BatchAllocator.allocate,
        DependencyGraph.influence_set,
        greedy_module.match_task_set,
    )
    allocate, influence_set, match_task_set = originals

    def summing_allocate(allocator, *args, **kwargs):
        outcome = allocate(allocator, *args, **kwargs)
        sums = outcome_stats[allocator.name.lower()]
        for key, value in outcome.stats.items():
            sums[key] += value
        return outcome

    def traced_match_task_set(*args, **kwargs):
        with tracer.span("matching") as span:
            staffing = match_task_set(*args, **kwargs)
            span.set("staffed", staffing is not None)
        return staffing

    BatchAllocator.allocate = summing_allocate
    DependencyGraph.influence_set = tracer.trace("dependency.influence")(influence_set)
    greedy_module.match_task_set = traced_match_task_set
    try:
        yield outcome_stats
    finally:
        (
            BatchAllocator.allocate,
            DependencyGraph.influence_set,
            greedy_module.match_task_set,
        ) = originals


def warm_starts() -> float:
    """The process-wide ``matching_warm_starts`` counter (read as a delta)."""
    return REGISTRY.counter("matching_warm_starts").value


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: List[Span],
    setup: Dict[str, float],
    outcome_stats: Dict[str, Dict[str, float]],
    engine_stats: Dict[str, float],
    aux_stats: Dict[str, float],
    roadnet_stats: Dict[str, float],
    warm: float,
    batches: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    A traced pass solves every instance of the run with Greedy and with
    Game; times and counts are totals over its solves (set-up step times,
    engine, aux and road-network counters summed by the caller across the
    solves' instances, engines and networks).  ``obs.trace_overhead`` needs
    untraced solves too; the caller sets it.
    """
    inc, own, span_calls = span_times(spans)
    game = outcome_stats["game"]
    greedy = outcome_stats["greedy"]
    hits, misses = engine_stats["engine_cache_hits"], engine_stats["engine_cache_misses"]
    checked, pruned = engine_stats["engine_pairs_checked"], engine_stats["engine_pruned_by_index"]
    columnar, scalar = aux_stats["engine_columnar_pairs"], aux_stats["engine_scalar_pair_evals"]
    calls = span_calls["matching"]
    staffed = sum(1 for span in spans if span.name == "matching" and span.attrs["staffed"])
    return {
        "io.load_s": setup["io.load"],
        "core.closure_s": setup["core.closure"],
        "spatial.network_build_s": setup["spatial.network_build"],
        "roadnet.settled_nodes": roadnet_stats.get("settled_nodes", 0.0),
        "roadnet.table_queries": roadnet_stats.get("table_queries", 0.0),
        "roadnet.bounded_queries": roadnet_stats.get("bounded_queries", 0.0),
        "engine.cache_hit_rate": _ratio(hits, hits + misses),
        "engine.full_build_s": inc["engine.full_build"],
        "engine.incremental_s": inc["engine.incremental_update"],
        "engine.pairs_checked": checked,
        "engine.pruned_by_index": pruned,
        "engine.prune_rate": _ratio(pruned, pruned + checked),
        "engine.rows_recomputed": engine_stats["engine_worker_rows_recomputed"],
        "engine.tasks_added": engine_stats["engine_tasks_added"],
        "columnar.pairs": columnar,
        "columnar.scalar_pair_evals": scalar,
        "columnar.share": _ratio(columnar, columnar + scalar),
        "columnar.game_kernel_sweeps": aux_stats["engine_game_kernel_sweeps"],
        "columnar.game_kernel_coverage": _ratio(
            aux_stats["engine_game_kernel_candidates"], game["evaluations"]
        ),
        "columnar.store_rows_touched": aux_stats["engine_store_rows_touched"],
        "alloc.greedy_s": inc["alloc.Greedy"],
        "alloc.game_s": inc["alloc.Game"],
        "greedy.iterations": greedy["iterations"],
        "greedy.matchings": greedy["matchings"],
        "game.rounds": game["rounds"],
        "game.evaluations": game["evaluations"],
        "game.value_recomputes": game["value_recomputes"],
        "game.memo_hit_rate": _ratio(
            game["cache_hits"], game["cache_hits"] + game["value_recomputes"]
        ),
        "dependency.influence_calls": float(span_calls["dependency.influence"]),
        "dependency.influence_s": inc["dependency.influence"],
        "matching.calls": float(calls),
        "matching.s": inc["matching"],
        "matching.staffed_rate": _ratio(staffed, calls),
        "matching.warm_start_rate": _ratio(warm, calls),
        "simulation.self_s": own["simulation"],
        "simulation.batches": float(batches),
        "obs.trace_overhead": 0.0,
        "trace.unattributed_share": _ratio(own["simulation"], inc["simulation"]),
    }

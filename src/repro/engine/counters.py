"""Instrumentation counters for the allocation engine's hot path.

:class:`EngineCounters` is a thin façade over ``repro.obs`` counters: each
named field delegates to a :class:`repro.obs.metrics.Counter` in a per-run
:class:`~repro.obs.metrics.MetricsRegistry`, so the same totals the engine
has always reported through ``as_dict`` (``engine_*`` keys, unchanged) are
also visible to the metrics exporters — Prometheus text, JSONL dumps —
without a second bookkeeping path.

The registry is **private to each instance** by default.  Engine stats are
per-run by contract (``SimulationReport.engine_stats`` must be reproducible
for a given seed), so sharing one registry between engines would silently
merge runs; callers who want the counters in a larger export pass their own
registry explicitly and own that trade-off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import Counter, MetricsRegistry

#: Field name -> help text, in report order.  ``as_dict`` key order follows
#: this tuple, so the flat dict is stable across runs and Python versions.
_COUNTER_FIELDS = (
    ("full_builds", "batches served by a from-scratch feasibility build"),
    ("incremental_updates", "batches served by diffing the previous graph"),
    (
        "worker_rows_recomputed",
        "candidate rows rebuilt because a worker was new or rejoined "
        "at a different position/window",
    ),
    ("tasks_added", "tasks linked into the graph after the first build"),
    ("tasks_removed", "tasks dropped (assigned or expired) from the graph"),
    ("pairs_checked", "exact feasibility evaluations performed"),
    ("pruned_by_index", "candidate pairs skipped thanks to grid-index probes"),
    ("time_filtered", "cheap per-batch deadline re-checks of cached pairs"),
    ("cache_hits", "distance-cache hits"),
    ("cache_misses", "distance-cache misses (actual metric evaluations)"),
    ("game_rounds", "best-response rounds run by DASC_Game"),
    ("game_evaluations", "candidate utilities evaluated in best response"),
    (
        "game_value_recomputes",
        "task values actually recomputed (utility-cache misses)",
    ),
    ("game_cache_hits", "task values served from the utility memo"),
    (
        "game_skipped_workers",
        "worker evaluations skipped by the dirty-set scheduler",
    ),
)

FIELD_NAMES = tuple(name for name, _ in _COUNTER_FIELDS)

#: Mode-dependent telemetry kept OUT of ``as_dict`` on purpose:
#: ``SimulationReport.engine_stats`` is pinned bit-identical between the
#: columnar and scalar build paths, so counters whose values *distinguish*
#: the paths live in this auxiliary group instead.  They are still
#: registered (``engine_<name>``) in the obs registry — exporters and the
#: perf gate read them there or via :meth:`EngineCounters.aux_dict`.
_AUX_COUNTER_FIELDS = (
    (
        "columnar_full_builds",
        "full feasibility builds evaluated by the columnar kernels",
    ),
    (
        "columnar_pairs",
        "candidate pairs decided vectorised by the columnar kernels",
    ),
    (
        "scalar_pair_evals",
        "candidate pairs decided by interpreter-level per-pair evaluation",
    ),
    # Always 0 (there is no column store); perfbench/ledger.py reads it.
    ("store_rows_touched", "always 0: there is no persistent column store"),
    (
        "game_kernel_sweeps",
        "candidate rows evaluated vectorised by the columnar game kernels",
    ),
    (
        "game_kernel_candidates",
        "candidate utilities computed inside vectorised game sweeps",
    ),
    (
        "game_scalar_evals",
        "candidate utilities computed by interpreter-level per-candidate "
        "evaluation (scalar sweeps plus the masked withdrawn-view "
        "evaluations left inside vectorised sweeps)",
    ),
)

AUX_FIELD_NAMES = tuple(name for name, _ in _AUX_COUNTER_FIELDS)


class EngineCounters:
    """Cumulative counters over an engine's lifetime.

    Every field reads and writes an obs :class:`Counter` registered as
    ``engine_<field>`` in :attr:`registry`; ``counters.pairs_checked += 1``
    and ``registry.counter("engine_pairs_checked").inc()`` are the same
    operation.  Field semantics are documented on :data:`_COUNTER_FIELDS`.
    """

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters: Dict[str, Counter] = {
            name: self.registry.counter(f"engine_{name}", help=text)
            for name, text in _COUNTER_FIELDS + _AUX_COUNTER_FIELDS
        }

    def as_dict(self, prefix: str = "engine_") -> Dict[str, float]:
        """The counters as a flat float dict (stats-record friendly).

        Key order is fixed by :data:`_COUNTER_FIELDS`, so two snapshots can
        be compared or serialized without sorting first.  The auxiliary
        columnar group (:data:`_AUX_COUNTER_FIELDS`) is excluded — see its
        docstring — read it via :meth:`aux_dict`.
        """
        counters = self._counters
        return {f"{prefix}{name}": float(counters[name].value) for name in FIELD_NAMES}

    def aux_dict(self, prefix: str = "engine_") -> Dict[str, float]:
        """The mode-dependent columnar telemetry as a flat float dict."""
        counters = self._counters
        return {
            f"{prefix}{name}": float(counters[name].value)
            for name in AUX_FIELD_NAMES
        }

    def add_game_work(
        self,
        rounds: int,
        evaluations: int,
        value_recomputes: int,
        cache_hits: int,
        skipped: int,
    ) -> None:
        """Bulk-add one game run's work totals (one call per allocation).

        Keeping the per-candidate increments on the
        :class:`~repro.algorithms.utility.GameState` ints and folding them
        in here once keeps the best-response hot loop free of façade
        overhead, per the engine's bulk-add convention.
        """
        counters = self._counters
        counters["game_rounds"].value += rounds
        counters["game_evaluations"].value += evaluations
        counters["game_value_recomputes"].value += value_recomputes
        counters["game_cache_hits"].value += cache_hits
        counters["game_skipped_workers"].value += skipped

    def add_game_kernel_work(
        self, sweeps: int, candidates: int, scalar_evals: int
    ) -> None:
        """Bulk-add one run's vectorised-vs-scalar sweep split (aux group).

        ``scalar_evals`` is the gate's denominator: with the kernels off it
        equals ``game_evaluations``; engaged runs report only the
        interpreter-level remainder (sub-floor rows plus masked
        withdrawn-view evaluations).  Kept out of ``as_dict`` so
        engine_stats stay bit-identical across modes, per the aux-group
        convention.
        """
        counters = self._counters
        counters["game_kernel_sweeps"].value += sweeps
        counters["game_kernel_candidates"].value += candidates
        counters["game_scalar_evals"].value += scalar_evals

    def delta_since(
        self, snapshot: Dict[str, float], prefix: str = "engine_"
    ) -> Dict[str, float]:
        """Per-batch view: current totals minus an ``as_dict`` snapshot.

        Keys that exist only in the snapshot (a counter renamed or removed
        between snapshot and now) are still surfaced — as the negated
        snapshot value — so a rename can never silently drop history from a
        delta.  Current-total keys come first, in ``as_dict`` order.
        """
        current = self.as_dict(prefix)
        delta = {key: current[key] - snapshot.get(key, 0.0) for key in current}
        for key, value in snapshot.items():
            if key not in delta:
                delta[key] = -value
        return delta

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={int(self._counters[name].value)}" for name in FIELD_NAMES)
        return f"EngineCounters({parts})"


def _counter_property(name: str) -> property:
    def _get(self: EngineCounters) -> float:
        return self._counters[name].value

    def _set(self: EngineCounters, value: float) -> None:
        self._counters[name].value = value

    return property(_get, _set)


for _name in FIELD_NAMES + AUX_FIELD_NAMES:
    setattr(EngineCounters, _name, _counter_property(_name))
del _name

"""The shared per-batch allocation engine.

One :class:`AllocationEngine` lives for a whole platform run.  It owns the
feasible-pair graph, a memoizing distance cache and the instrumentation
counters, and hands each batch a :class:`~repro.engine.context.BatchContext`
whose feasibility oracle is a cheap *view* over the persistent graph rather
than a from-scratch rebuild.

Why this is sound
-----------------
With a fixed worker record, pair feasibility is monotone non-increasing in
time: the departure ``max(s_w, s_t, now)`` only moves later as ``now``
advances.  The engine therefore stores links checked at the batch timestamp
they were (re)computed — a superset of the feasible pairs at any *later*
``now`` — along with each link's exact distance.  Each batch view
re-applies only the cheap time-dependent deadline predicate (pure
arithmetic on the stored distance), yielding exactly the pair set a fresh
:class:`~repro.core.constraints.FeasibilityChecker` would compute.  Batch
timestamps must be non-decreasing for the supersets to hold, which the
platform's clock guarantees; a backwards jump triggers a full rebuild.

Between batches the graph updates incrementally: assigned and expired tasks
are unlinked, departed workers dropped (a busy worker always returns as a
*relocated* record, so a row can never silently go stale), newly-appearing
tasks linked against the current workers, and only new or changed workers
get their candidate row recomputed — a grid-index probe plus exact checks
instead of a full ``|W| x |T|`` rebuild.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.columnar import (
    REASON_NAMES,
    ColumnarBatch,
    default_columnar,
    feasible_pairs,
    rejection_reasons,
    rejection_reasons_dense,
    skill_candidates_dense,
    true_positions,
)
from repro.columnar.kernels import CODES as COLUMNAR_CODES
from repro.core.constraints import deadline_ok, prune_rejection_reason, reach_radius
from repro.core.instance import ProblemInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.engine.context import BatchContext
from repro.engine.counters import EngineCounters
from repro.obs.events import EventJournal, get_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.spatial.cache import CachedMetric
from repro.spatial.index import GridIndex

def index_cell_size(
    workers: Sequence[Worker], tasks: Sequence[Task], now: float
) -> Optional[float]:
    """Grid-index cell size for a non-empty task set, or None when an index
    cannot prune.

    Same sizing heuristics as ``FeasibilityChecker._build_with_index``.
    """
    latest = max(t.deadline for t in tasks)
    spans = [reach_radius(w, latest, now) for w in workers]
    positive = sorted(s for s in spans if s > 0.0)
    cell = positive[len(positive) // 2] if positive else 1.0
    xs = [t.location[0] for t in tasks]
    ys = [t.location[1] for t in tasks]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    if cell > extent / 2.0:
        # Typical reach spans most of the region: the index cannot prune
        # anything, so skip its bookkeeping for the whole run.
        return None
    floor_cell = extent / max(4.0, math.sqrt(len(tasks)) * 2.0)
    return max(cell, floor_cell, 1e-9)


class AllocationEngine:
    """Incremental feasibility + distance caching for a platform run.

    Args:
        instance: the problem being simulated; supplies the base metric.
        use_index: probe a task grid index when the metric declares
            ``euclidean_lower_bound``; otherwise rows are computed by
            exhaustive (but cached-distance) scans, which is always correct.
        tracer: spans are recorded around graph builds and updates
            (``engine.full_build`` / ``engine.incremental_update``).
            Defaults to the shared no-op tracer.
        registry: metrics registry receiving the engine's counters and the
            ``engine_cache_size`` / ``engine_cache_evictions`` gauges.  A
            private registry is created by default so per-run
            ``engine_stats`` can never merge across engines.
        cache_maxsize: optional bound on the distance cache (FIFO eviction);
            None keeps it unbounded.
        use_columnar: route full builds through the vectorised columnar
            kernels when the base metric advertises a
            :attr:`~repro.spatial.distance.DistanceMetric.columnar_code`.
            None (default) follows the process default
            (:func:`repro.columnar.default_columnar`).  The graph, the
            reported ``engine_stats`` and the cache trajectory are
            bit-identical either way — the kernels share the scalar
            oracle's exactness contract and the build replays the serial
            metric-access sequence against the kernel's distances (same
            :meth:`~repro.spatial.cache.CachedMetric.preload` mechanism as
            the road-network table build).  Only the auxiliary
            :meth:`~repro.engine.counters.EngineCounters.aux_dict`
            telemetry distinguishes the modes.  Incremental syncs always
            run the scalar link loop: nearly all sync pairs fail the skill
            test, which the scalar loop rejects for less than the cost of
            packing the pairs for a kernel call.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        use_index: bool = True,
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        cache_maxsize: Optional[int] = None,
        use_columnar: Optional[bool] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.instance = instance
        self.metric = CachedMetric(instance.metric, maxsize=cache_maxsize)
        columnar_code = getattr(self.metric.base, "columnar_code", None)
        enabled = default_columnar() if use_columnar is None else use_columnar
        self._columnar_code: Optional[str] = (
            columnar_code if enabled and columnar_code in COLUMNAR_CODES else None
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = EngineCounters(self.registry)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Reason-coded rejections and feas_build summaries flow here; the
        # shared NULL_JOURNAL default keeps the disabled path to one branch.
        self.journal = journal if journal is not None else get_journal()
        self._cache_size_gauge = self.registry.gauge(
            "engine_cache_size", "entries currently memoized by the distance cache"
        )
        self._cache_evictions_gauge = self.registry.gauge(
            "engine_cache_evictions", "distance-cache entries evicted (bounded caches)"
        )
        self.use_index = use_index
        self._workers: Dict[int, Worker] = {}
        self._tasks: Dict[int, Task] = {}
        # Each link stores (task start, task deadline, exact travel time),
        # so per-batch deadline filtering is three float comparisons — no
        # metric, cache or attribute traffic.
        self._tasks_of: Dict[int, Dict[int, Tuple[float, float, float]]] = {}
        self._workers_of: Dict[int, Set[int]] = {}
        self._index: Optional[GridIndex[int]] = None
        self._built = False
        self._now = -math.inf

    # -- public API --------------------------------------------------------------

    def begin_batch(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        previously_assigned: AbstractSet[int] = frozenset(),
    ) -> BatchContext:
        """Bring the graph up to date for this batch and wrap it in a context.

        The engine self-heals by diffing against the populations it is
        given, so callers need no separate "end batch" notification:
        whatever left the pool since the previous call is unlinked here.
        """
        workers = list(workers)
        tasks = list(tasks)
        self._sync_cache_counters()
        snapshot = self.counters.as_dict()
        if self._built and now < self._now:
            # Time went backwards: stored rows are no longer supersets.
            self._reset()
        if not self._built:
            with self.tracer.span("engine.full_build") as span:
                self._full_build(workers, tasks, now)
            self.counters.full_builds += 1
            self._built = True
            mode = "full"
        else:
            with self.tracer.span("engine.incremental_update") as span:
                self._incremental_update(workers, tasks, now)
            self.counters.incremental_updates += 1
            mode = "incremental"
        self._now = now
        self._sync_cache_counters()
        if self.tracer.enabled:
            span.set("workers", len(workers))
            span.set("tasks", len(tasks))
            span.set("cache_hits", self.counters.cache_hits - snapshot["engine_cache_hits"])
            span.set("cache_misses", self.counters.cache_misses - snapshot["engine_cache_misses"])
        if self.journal.enabled:
            after = self.counters.as_dict()
            # Pairs decided by this build/update: exact checks plus
            # index-pruned pairs (each of which also got a prune reject).
            self.journal.emit(
                "feas_build",
                mode=mode,
                workers=len(workers),
                tasks=len(tasks),
                pairs=int(
                    after["engine_pairs_checked"]
                    - snapshot["engine_pairs_checked"]
                    + after["engine_pruned_by_index"]
                    - snapshot["engine_pruned_by_index"]
                ),
                columnar=self._columnar_code is not None,
            )
        return BatchContext(
            workers,
            tasks,
            self.instance,
            now,
            previously_assigned,
            metric=self.metric,
            counters=self.counters,
            checker_factory=lambda: BatchFeasibilityView(self, workers, tasks, now),
            stats_snapshot=snapshot,
            tracer=self.tracer,
            journal=self.journal,
        )

    def stats(self) -> Dict[str, float]:
        """Cumulative counters (including distance-cache totals)."""
        self._sync_cache_counters()
        return self.counters.as_dict()

    def aux_stats(self) -> Dict[str, float]:
        """The mode-dependent auxiliary telemetry (columnar/game-kernel counters)."""
        return self.counters.aux_dict()

    @property
    def columnar_active(self) -> bool:
        """Whether full builds route through the columnar kernels."""
        return self._columnar_code is not None

    #: Always False (there is no column store); ``perfbench/run.py`` reads it.
    store_active = False

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    # -- build / update ----------------------------------------------------------

    def _reset(self) -> None:
        self._workers.clear()
        self._tasks.clear()
        self._tasks_of.clear()
        self._workers_of.clear()
        self._index = None
        self._built = False

    def _full_build(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> None:
        for task in tasks:
            self._tasks[task.id] = task
            self._workers_of[task.id] = set()
        self._index = self._make_index(workers, tasks, now)
        latest = self._latest_deadline()
        if self._columnar_code is not None:
            self._columnar_full_build(workers, latest, now)
            return
        if not getattr(self.metric.base, "supports_distance_table", False):
            for worker in workers:
                self._recompute_row(worker, latest, now)
            return
        # Table build: gather every candidate row first (index probes and
        # pruning counters run exactly as in the serial path), answer the
        # uncached pair distances with one many-to-many table call, then
        # replay the serial link sequence against the prefetched values —
        # same graph, same edge order, same cache trajectory.
        rows: List[Tuple[Worker, List[int]]] = []
        for worker in workers:
            self._install_row(worker)
            rows.append((worker, self._candidates_for(worker, latest, now)))
        self._prefetch_distances(rows)
        try:
            for worker, candidates in rows:
                self.counters.scalar_pair_evals += len(candidates)
                for task_id in candidates:
                    self._link_check(worker, self._tasks[task_id], now)
        finally:
            self.metric.clear_preload()

    def _columnar_full_build(
        self, workers: Sequence[Worker], latest: float, now: float
    ) -> None:
        """Full build with pair decisions made by the columnar kernels.

        Candidate pairs are gathered exactly as in the scalar paths — the
        same index probes and pruning counters when a grid index exists,
        the dense cross product otherwise — and decided in one kernel
        sweep.  The distance cache then *replays* the scalar path's
        metric-access sequence in bulk
        (:meth:`~repro.spatial.cache.CachedMetric.replay` over the
        skill-passing candidates, in row order, with the kernel's
        distances), so hits, misses, contents and eviction order are
        bit-identical to a scalar build.  The kernel verdicts agree with
        ``_link_check`` by the kernels' exactness contract; only the
        auxiliary columnar counters record which path ran.
        """
        tasks = list(self._tasks.values())
        code = self._columnar_code
        batch = ColumnarBatch(workers, tasks)
        if self._index is None:
            # Dense tile: the skill filter runs inside the kernel, so the
            # bulk of the cross product is rejected without ever existing
            # as per-pair python state.  Counter totals match the scalar
            # ``_candidates_for`` loop exactly.
            for worker in workers:
                self._install_row(worker)
            total = len(workers) * len(tasks)
            self.counters.pairs_checked += total
            cand_w, cand_t, dists, mask = skill_candidates_dense(batch, now, code)
            self.counters.columnar_pairs += total
            if self.journal.enabled:
                # Reason side-channel: decisions stay with the kernel call
                # above; the reason sweep touches no counters.
                codes = rejection_reasons_dense(batch, now, code)
                n_t = len(tasks)
                for k, verdict in enumerate(codes):
                    if verdict:
                        self.journal.emit(
                            "reject",
                            worker=workers[k // n_t].id,
                            task=tasks[k % n_t].id,
                            reason=REASON_NAMES[verdict],
                            phase="build",
                        )
        else:
            tpos = {task.id: pos for pos, task in enumerate(tasks)}
            rows: List[List[int]] = []
            for worker in workers:
                self._install_row(worker)
                rows.append(self._candidates_for(worker, latest, now))
            widx: List[int] = []
            tidx: List[int] = []
            for pos, candidates in enumerate(rows):
                widx.extend(pos for _ in candidates)
                tidx.extend(tpos[tid] for tid in candidates)
            full_mask, skill_mask, all_dists = feasible_pairs(
                batch, widx, tidx, now, code
            )
            self.counters.columnar_pairs += len(widx)
            if self.journal.enabled:
                codes = rejection_reasons(batch, widx, tidx, now, code)
                for k, verdict in enumerate(codes):
                    if verdict:
                        self.journal.emit(
                            "reject",
                            worker=workers[widx[k]].id,
                            task=tasks[tidx[k]].id,
                            reason=REASON_NAMES[verdict],
                            phase="build",
                        )
            keep = true_positions(skill_mask)
            cand_w = [widx[k] for k in keep]
            cand_t = [tidx[k] for k in keep]
            dists = [all_dists[k] for k in keep]
            mask = bytes(full_mask[k] for k in keep)
        self.counters.columnar_full_builds += 1
        # Cache replay: candidates are in row-major order — exactly the
        # sequence the scalar build hands the metric — and the kernel's
        # distances are bitwise what ``base`` would return, so the bulk
        # replay leaves hits/misses/contents/evictions scalar-identical.
        self.metric.replay(
            (
                (workers[cand_w[k]].location, tasks[cand_t[k]].location)
                for k in range(len(cand_w))
            ),
            dists,
        )
        for k in true_positions(mask):
            worker = workers[cand_w[k]]
            task = tasks[cand_t[k]]
            dist = dists[k]
            # The kernel verdict held, so dist > 0 implies velocity > 0.
            travel = dist / worker.velocity if dist > 0.0 else 0.0
            self._tasks_of[worker.id][task.id] = (task.start, task.deadline, travel)
            self._workers_of[task.id].add(worker.id)

    def _prefetch_distances(self, rows: Sequence[Tuple[Worker, List[int]]]) -> None:
        """Answer the build's unique uncached pair distances in one table call.

        Only pairs the serial link loop would actually hand to the metric
        (skill filter applied, cache probed) are asked for; the table
        kernel shares one search cone per distinct endpoint across them.
        """
        pairs: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
        seen: Set[Tuple[Tuple[float, float], Tuple[float, float]]] = set()
        for worker, candidates in rows:
            skills = worker.skills
            w_loc = worker.location
            for task_id in candidates:
                task = self._tasks[task_id]
                if task.skill not in skills:
                    continue
                key = (w_loc, task.location)
                if key in seen or key in self.metric:
                    continue
                seen.add(key)
                pairs.append(key)
        if not pairs:
            return
        with self.tracer.span("engine.distance_table") as span:
            self.metric.preload(self.metric.base.distance_table(pairs=pairs))
            if self.tracer.enabled:
                span.set("pairs", len(pairs))

    def _incremental_update(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> None:
        batch_tids = {t.id for t in tasks}
        batch_wids = {w.id for w in workers}
        removed = [t for t in self._tasks if t not in batch_tids]
        for tid in removed:
            self._remove_task(tid)
        self.counters.tasks_removed += len(removed)
        # A worker absent from the batch is busy or gone; it can only return
        # as a *different* record (relocated / refreshed window), which
        # forces a row recompute — so dropping its row now is safe.
        for wid in [w for w in self._workers if w not in batch_wids]:
            self._remove_worker(wid)
        changed = [w for w in workers if self._workers.get(w.id) != w]
        changed_ids = {w.id for w in changed}
        added_tasks = [task for task in tasks if task.id not in self._tasks]
        for task in added_tasks:
            self._add_task(task, changed_ids, now)
        self.counters.tasks_added += len(added_tasks)
        latest = self._latest_deadline()
        for worker in changed:
            self._recompute_row(worker, latest, now)

    def _add_task(
        self, task: Task, skip_workers: AbstractSet[int], now: float
    ) -> None:
        self._tasks[task.id] = task
        self._workers_of[task.id] = set()
        if self._index is not None:
            self._index.insert(task.id, task.location)
        # Workers about to be re-probed (skip_workers) pick the task up
        # during their own row recompute.
        checked = 0
        for worker in self._workers.values():
            if worker.id not in skip_workers:
                self._link_check(worker, task, now)
                checked += 1
        self.counters.pairs_checked += checked
        self.counters.scalar_pair_evals += checked

    def _remove_task(self, task_id: int) -> None:
        del self._tasks[task_id]
        if self._index is not None and task_id in self._index:
            self._index.remove(task_id)
        for worker_id in self._workers_of.pop(task_id):
            del self._tasks_of[worker_id][task_id]

    def _remove_worker(self, worker_id: int) -> None:
        del self._workers[worker_id]
        for task_id in self._tasks_of.pop(worker_id):
            self._workers_of[task_id].discard(worker_id)

    def _install_row(self, worker: Worker) -> None:
        if worker.id in self._workers:
            self._remove_worker(worker.id)
        self._workers[worker.id] = worker
        self._tasks_of[worker.id] = {}
        self.counters.worker_rows_recomputed += 1

    def _candidates_for(
        self, worker: Worker, latest_deadline: float, now: float
    ) -> List[int]:
        if self._index is not None:
            span = reach_radius(worker, latest_deadline, now)
            candidates = list(self._index.query_radius(worker.location, span))
            self.counters.pruned_by_index += len(self._tasks) - len(candidates)
            if self.journal.enabled and len(candidates) < len(self._tasks):
                self._journal_pruned(worker, set(candidates))
        else:
            candidates = list(self._tasks)
        self.counters.pairs_checked += len(candidates)
        return candidates

    def _journal_pruned(self, worker: Worker, candidate_ids: Set[int]) -> None:
        # An index-pruned pair provably fails reach or the arrival deadline:
        # its Euclidean lower bound exceeded min(d_w, v_w * Δt), and the
        # true metric distance is at least that bound (see
        # prune_rejection_reason for the case split).
        journal = self.journal
        wx, wy = worker.location
        for task in self._tasks.values():
            if task.id in candidate_ids:
                continue
            lb = math.hypot(wx - task.location[0], wy - task.location[1])
            journal.emit(
                "reject",
                worker=worker.id,
                task=task.id,
                reason=prune_rejection_reason(worker, lb),
                phase="prune",
            )

    def _recompute_row(
        self, worker: Worker, latest_deadline: float, now: float
    ) -> None:
        self._install_row(worker)
        candidates = self._candidates_for(worker, latest_deadline, now)
        self.counters.scalar_pair_evals += len(candidates)
        for task_id in candidates:
            self._link_check(worker, self._tasks[task_id], now)

    def _link_check(self, worker: Worker, task: Task, now: float) -> None:
        # Superset test at the batch timestamp: feasibility only shrinks as
        # time advances, so later batch views' deadline filter never misses
        # a pair.  The stored travel time is the same division
        # ``deadline_ok`` would perform, so the filters are bit-identical.
        # Callers count ``pairs_checked`` in bulk — a per-pair counter
        # increment here dominates the link check itself.
        if task.skill not in worker.skills:
            if self.journal.enabled:
                self.journal.emit(
                    "reject", worker=worker.id, task=task.id,
                    reason="skill", phase="build",
                )
            return
        dist = self.metric(worker.location, task.location)
        if dist > worker.max_distance:
            if self.journal.enabled:
                self.journal.emit(
                    "reject", worker=worker.id, task=task.id,
                    reason="reach", phase="build",
                )
            return
        if not deadline_ok(worker, task, now=now, dist=dist):
            if self.journal.enabled:
                self.journal.emit(
                    "reject", worker=worker.id, task=task.id,
                    reason="deadline", phase="build",
                )
            return
        # ``deadline_ok`` held, so dist > 0 implies velocity > 0 here.
        travel = dist / worker.velocity if dist > 0.0 else 0.0
        self._tasks_of[worker.id][task.id] = (task.start, task.deadline, travel)
        self._workers_of[task.id].add(worker.id)

    # -- helpers -----------------------------------------------------------------

    def _latest_deadline(self) -> float:
        return max((t.deadline for t in self._tasks.values()), default=0.0)

    def _make_index(
        self, workers: Sequence[Worker], tasks: Sequence[Task], now: float
    ) -> Optional[GridIndex[int]]:
        if not self.use_index or not self.metric.euclidean_lower_bound or not tasks:
            return None
        cell = index_cell_size(workers, tasks, now)
        if cell is None:
            return None
        index: GridIndex[int] = GridIndex(cell_size=cell)
        index.insert_many((t.id, t.location) for t in tasks)
        return index

    def _sync_cache_counters(self) -> None:
        self.counters.cache_hits = self.metric.hits
        self.counters.cache_misses = self.metric.misses
        self._cache_size_gauge.value = float(len(self.metric))
        self._cache_evictions_gauge.value = float(self.metric.evictions)

    def __repr__(self) -> str:
        return (
            f"AllocationEngine(workers={len(self._workers)}, "
            f"tasks={len(self._tasks)}, built={self._built})"
        )


class BatchFeasibilityView:
    """A :class:`FeasibilityChecker`-compatible view over the engine's graph.

    Construction filters each batch worker's candidate row with the
    time-dependent deadline predicate at the batch timestamp (each link's
    distance was stored when the link was made, so no metric evaluation
    happens here) and canonically sorts both row directions — the result is
    the exact pair set, in the exact order, a fresh checker would produce.
    """

    def __init__(
        self,
        engine: AllocationEngine,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.metric = engine.metric
        self.now = now
        journal = engine.journal
        tasks_of: Dict[int, List[int]] = {}
        workers_of: Dict[int, List[int]] = {t.id: [] for t in self.tasks}
        checked = 0
        for worker in self.workers:
            row: List[int] = []
            links = engine._tasks_of.get(worker.id, {})
            checked += len(links)
            w_deadline = worker.deadline
            base = now if now > worker.start else worker.start
            # Inlined ``deadline_ok``: a stored link already passed the
            # time-independent window/velocity tests, so only the departure
            # checks remain — same comparisons, same floats.
            for tid in sorted(links):
                t_start, t_deadline, travel = links[tid]
                depart = t_start if t_start > base else base
                if depart <= w_deadline and depart + travel <= t_deadline:
                    row.append(tid)
                    workers_of[tid].append(worker.id)
                elif journal.enabled:
                    # A stored link only ever *ages out* of the deadline
                    # test — the other constraints were settled at link time.
                    journal.emit(
                        "reject", worker=worker.id, task=tid,
                        reason="deadline", phase="view",
                    )
            tasks_of[worker.id] = row
        for tid in workers_of:
            workers_of[tid].sort()
        engine.counters.time_filtered += checked
        engine._sync_cache_counters()
        self._tasks_of = tasks_of
        self._workers_of = workers_of
        self._task_sets = {wid: frozenset(row) for wid, row in tasks_of.items()}
        if journal.enabled:
            journal.emit("feas_view", links=checked, feasible=self.pair_count())

    # -- FeasibilityChecker API ---------------------------------------------------

    def tasks_of(self, worker_id: int) -> List[int]:
        return self._tasks_of.get(worker_id, [])

    def workers_of(self, task_id: int) -> List[int]:
        return self._workers_of.get(task_id, [])

    def feasible(self, worker_id: int, task_id: int) -> bool:
        row = self._task_sets.get(worker_id)
        return row is not None and task_id in row

    def pairs(self) -> Iterable[Tuple[int, int]]:
        for wid, tids in self._tasks_of.items():
            for tid in tids:
                yield (wid, tid)

    def pair_count(self) -> int:
        return sum(len(tids) for tids in self._tasks_of.values())

"""Columnar game kernels: vectorised candidate-utility sweeps (Eq. 3).

The best-response hot loop of ``DASC_Game`` asks, per dirty worker, for the
utility of every candidate task in its strategy row — historically one
scalar :meth:`~repro.algorithms.utility.GameState.candidate_utility` call
per candidate.  :class:`GameSweeper` computes the whole utility vector in
one sweep over columns packed once per allocation: hypothetical task
values, ``nw`` crowd counts and a valid-bit overlay of the state's value
memo, gathered through CSR candidate rows held in a
:class:`~repro.columnar.store.RowArena` (no per-round re-packing, only
dirty deltas are synced by the
:class:`~repro.algorithms.utility.GameState` hooks).

:class:`SearchColumns` is the sibling for ``LocalSearchImprover``: dense
open/ready/idle masks over the same kind of position maps, so the fill and
relocate passes find their first qualifying candidate with one masked row
scan instead of per-id set probes.

Exactness contract
------------------
Both backends (numpy via the ``perf`` extra, pure-python otherwise) return
**bit-identical** utilities, decisions and ``GameState`` counter
trajectories to the scalar oracle:

* every utility is a single IEEE-754 division ``value / crowd`` with the
  crowd an exactly-representable small integer, so the vectorised float64
  division reproduces the scalar CPython float bit for bit;
* the per-candidate value memo is shared with the scalar path — a sweep
  *fills* the same :attr:`GameState._value_cache` entries a scalar scan
  would have filled, and the valid-bit overlay only ever marks entries the
  memo really holds, so ``evaluations == cache_hits + value_recomputes``
  stays pinned whichever path ran each sweep;
* withdrawn-view candidates (the evaluating worker is the sole chooser of
  its current task) are recomputed through the state's own
  ``_masked_value``, never cached — exactly like the scalar branch;
* the ``_EPS`` strict-improvement fold runs *scalar* over the resulting
  python floats in the row's original order (the fold is stateful — the
  running best is the best *accepted* utility, not a plain max — so it
  cannot be replaced by an argmax without changing tie behaviour).

The sweeper therefore never changes moves, rounds, scores, reports or
``engine_game_*`` stats; only the auxiliary ``engine_game_kernel_*`` /
``engine_game_scalar_evals`` counters reveal which path ran.

Engagement floors
-----------------
Packing columns only pays above a workload floor:

* :data:`GAME_KERNEL_MIN_PAIRS` — total strategy-pair count
  (``sum_w |S_w|``) under which no columns are built at all;
* :data:`GAME_KERNEL_MIN_CANDIDATES` — per-row floor under which an
  engaged run still evaluates that worker's row through the scalar path
  (the numpy gather/divide has fixed per-call overhead that a short row
  cannot amortise).

Both were measured on the 500x500 gate workload (see DESIGN.md §17 and the
``game.sweep_candidates`` histogram that ``--profile`` surfaces); the
fallback backend shares the floors so decisions stay mode-independent.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar import kernels as _kernels
from repro.columnar.kernels import resolve_backend
from repro.columnar.store import RowArena
from repro.obs.metrics import REGISTRY

#: Process totals in the shared obs registry (substrate view; the engine's
#: per-run aux counters are fed separately through ``add_game_kernel_work``).
_SWEEPS = REGISTRY.counter(
    "game_kernel_sweeps", "candidate rows evaluated by the vectorised game kernels"
)
_SWEEP_CANDIDATES = REGISTRY.counter(
    "game_kernel_candidates", "candidate utilities computed by vectorised sweeps"
)

#: Total strategy pairs (``sum_w |S_w|``) below which the game kernels stay
#: disengaged for the whole allocation.  Measured on the 500x500 bench
#: family: below ~2k pairs the column packing itself costs more than the
#: scalar sweeps it replaces.
GAME_KERNEL_MIN_PAIRS = 2048

#: Per-row floor: an engaged sweeper still routes rows shorter than this
#: through the scalar path.  A one-candidate row has nothing to vectorise
#: (one gather + one divide either way), and on the 500x500 gate workload
#: wall time is flat for floors 1..16 while kernel coverage falls from
#: 100% to 2% — so the floor sits at the smallest row a sweep can actually
#: batch (measured; see DESIGN.md §17).
GAME_KERNEL_MIN_CANDIDATES = 2

#: Process-default game-kernel toggle: True / False, or None for *auto*
#: (enabled exactly when numpy is importable — the fallback backend is
#: decision-identical but has no speed advantage over the scalar loop).
_DEFAULT_GAME_KERNELS: Optional[bool] = None


def set_default_game_kernels(enabled: Optional[bool]) -> Optional[bool]:
    """Set the process-wide game-kernel default; returns the previous value.

    ``None`` restores *auto* (on when numpy is available).  Mirrors
    :func:`repro.columnar.kernels.set_default_columnar`.
    """
    global _DEFAULT_GAME_KERNELS
    previous = _DEFAULT_GAME_KERNELS
    _DEFAULT_GAME_KERNELS = enabled
    return previous


def default_game_kernels() -> bool:
    """The resolved process default (auto -> numpy availability)."""
    if _DEFAULT_GAME_KERNELS is None:
        return _kernels._np is not None
    return _DEFAULT_GAME_KERNELS


class GameColumns:
    """The strategy profile packed into columns, built once per allocation.

    Columns are dense over the sorted union of every worker's strategy row
    (``task_ids`` / ``task_pos``); candidate rows live in a CSR
    :class:`RowArena` whose content order *is* each ``strategies[w]`` list
    (canonically sorted by the feasibility checker), so a vectorised sweep
    reproduces the scalar scan order by construction.

    After construction the columns are never re-packed: the owning
    :class:`~repro.algorithms.utility.GameState` patches ``nw_col`` on
    every :meth:`set_choice` and clears ``valid`` bits alongside its own
    memo invalidation in ``_flip`` (the dirty-delta sync).
    """

    __slots__ = (
        "task_ids",
        "task_pos",
        "nw_col",
        "val_col",
        "valid",
        "rows",
        "row_of",
        "row_offset",
        "total_pairs",
    )

    def __init__(self, strategies: Dict[int, List[int]], nw: Dict[int, int]) -> None:
        union: set = set()
        for row in strategies.values():
            union.update(row)
        self.task_ids: List[int] = sorted(union)
        self.task_pos: Dict[int, int] = {
            tid: pos for pos, tid in enumerate(self.task_ids)
        }
        self.nw_col = array(
            "d", (float(nw.get(tid, 0)) for tid in self.task_ids)
        )
        self.val_col = array("d", bytes(8 * len(self.task_ids)))
        self.valid = bytearray(len(self.task_ids))
        #: worker -> CSR slot in :attr:`rows`; offsets within a row mirror
        #: the worker's strategy list index for index-free tie-break replay.
        self.rows = RowArena("q")
        self.row_of: Dict[int, int] = {}
        self.row_offset: Dict[int, Dict[int, int]] = {}
        task_pos = self.task_pos
        total = 0
        for worker_id in sorted(strategies):
            row = strategies[worker_id]
            self.row_of[worker_id] = self.rows.append(
                task_pos[tid] for tid in row
            )
            self.row_offset[worker_id] = {tid: k for k, tid in enumerate(row)}
            total += len(row)
        self.total_pairs = total

    # -- dirty-delta sync (driven by the GameState hooks) -----------------------

    def sync_count(self, task_id: int, count: int) -> None:
        """Mirror one ``nw`` entry after a profile mutation."""
        pos = self.task_pos.get(task_id)
        if pos is not None:
            self.nw_col[pos] = float(count)

    def invalidate(self, task_id: int) -> None:
        """Drop the valid bit for a task whose memoised value was evicted."""
        pos = self.task_pos.get(task_id)
        if pos is not None:
            self.valid[pos] = 0


class GameSweeper:
    """Per-worker vectorised candidate sweeps over a :class:`GameColumns`.

    One sweeper serves one best-response run: it attaches the columns to
    the state (enabling the dirty-delta hooks), and :meth:`sweep` returns
    the full utility vector for a worker's strategy row — python floats in
    row order, bit-identical to per-candidate scalar calls — or ``None``
    when the row sits under :data:`GAME_KERNEL_MIN_CANDIDATES` and the
    caller should take the scalar path.

    Work accounting (read by ``DASCGame`` into the engine's aux group):

    * ``kernel_sweeps`` / ``kernel_candidates`` — rows and candidates
      evaluated vectorised;
    * ``scalar_evals`` — per-candidate *utility* computations that remained
      interpreter-level inside engaged sweeps: the masked withdrawn-view
      evaluations (the sub-floor scalar rows are counted by the caller from
      ``GameState.evaluations``).  Memo fills are deliberately excluded:
      they are task-*value* computations, happen in the same number
      whichever path runs (pinned by ``game_value_recomputes``), and the
      utility arithmetic for those candidates is still vectorised.
    """

    __slots__ = (
        "state",
        "columns",
        "backend",
        "kernel_sweeps",
        "kernel_candidates",
        "scalar_evals",
        "_np_bufs",
    )

    def __init__(
        self,
        state,
        strategies: Dict[int, List[int]],
        backend: Optional[str] = None,
    ) -> None:
        self.state = state
        self.columns = GameColumns(strategies, state.nw)
        self.backend = resolve_backend(backend)
        self.kernel_sweeps = 0
        self.kernel_candidates = 0
        self.scalar_evals = 0
        self._np_bufs = None
        state.attach_columns(self.columns)

    def detach(self) -> None:
        """Disconnect the dirty-delta hooks (end of the best-response run)."""
        self.state.attach_columns(None)

    # -- sweeps -------------------------------------------------------------------

    def sweep(
        self, worker_id: int, row: Sequence[int], current: int
    ) -> Optional[Tuple[List[float], int]]:
        """Utilities for every candidate in ``row``; ``None`` below the floor.

        Returns ``(utilities, current_offset)`` with ``utilities[k]`` the
        exact float ``candidate_utility(worker_id, row[k])`` would return
        (including ``row[current_offset] == current`` scored at its
        committed crowd), without mutating anything a scalar scan would not
        have mutated: the shared value memo gains the same entries, the
        state counters advance by the same totals.
        """
        if len(row) < GAME_KERNEL_MIN_CANDIDATES:
            return None
        state = self.state
        columns = self.columns
        cur_off = columns.row_offset[worker_id][current]

        # The scalar scan calls candidate_utility once per row entry.
        state.evaluations += len(row)

        # Withdrawn-view candidates: only when the worker is the sole
        # chooser of its current task do any candidates read the masked
        # indicator — and only those inside its influence neighbourhood.
        masked_offs: List[int] = []
        if state.nw[current] == 1 and current not in state.prev:
            offsets = columns.row_offset[worker_id]
            for tid in state.graph.influence_frozenset(current):
                off = offsets.get(tid)
                if off is not None and tid != current:
                    masked_offs.append(off)

        start, end = self.columns.rows.bounds(columns.row_of[worker_id])
        if self.backend == "numpy":
            utilities = self._sweep_numpy(row, start, end, masked_offs)
        else:
            utilities = self._sweep_fallback(row, start, end, masked_offs)

        # Masked candidates replay the scalar withdrawn-view branch verbatim
        # (each recomputes, none caches — _masked_value counts itself).
        if masked_offs:
            nw_get = state.nw.get
            masked_value = state._masked_value
            for off in masked_offs:
                tid = row[off]
                utilities[off] = masked_value(tid, current) / (nw_get(tid, 0) + 1)
            self.scalar_evals += len(masked_offs)

        # The committed strategy is scored at its own crowd (no +1): the
        # scalar branch divides by ``crowd - 1 == nw[current]``.
        cur_pos = columns.task_pos[current]
        utilities[cur_off] = columns.val_col[cur_pos] / columns.nw_col[cur_pos]

        self.kernel_sweeps += 1
        self.kernel_candidates += len(row)
        _SWEEPS.value += 1
        _SWEEP_CANDIDATES.value += len(row)
        return utilities, cur_off

    def _fill_values(
        self, row: Sequence[int], positions: Sequence[int], masked_offs: List[int]
    ) -> int:
        """Bring every non-masked row position onto the valid overlay.

        Valid positions count as memo hits exactly as the scalar calls they
        replace would have (the overlay invariant: a set bit implies the
        memo holds that task's value, bit-equal).  Invalid positions go
        through the state's own ``_hypothetical_value`` — which classifies
        itself as hit or recompute, covering entries a scalar path cached
        without ever setting a bit — and land on the overlay for the next
        sweep.  Returns the number of fills performed (value computations,
        not utility evaluations — see the class docstring's accounting).
        """
        state = self.state
        columns = self.columns
        valid = columns.valid
        val_col = columns.val_col
        masked = frozenset(masked_offs)
        hits = 0
        fills = 0
        hypothetical = state._hypothetical_value
        for off, pos in enumerate(positions):
            if off in masked:
                continue
            if valid[pos]:
                hits += 1
            else:
                val_col[pos] = hypothetical(row[off])
                valid[pos] = 1
                fills += 1
        state.cache_hits += hits
        return fills

    def _sweep_numpy(
        self, row: Sequence[int], start: int, end: int, masked_offs: List[int]
    ) -> List[float]:
        np = _kernels._np
        bufs = self._np_bufs
        if bufs is None:
            columns = self.columns
            bufs = self._np_bufs = (
                np.frombuffer(columns.rows.data, dtype=np.int64),
                np.frombuffer(columns.val_col, dtype=np.float64),
                np.frombuffer(columns.nw_col, dtype=np.float64),
            )
        pos_buf, val_buf, nw_buf = bufs
        positions = pos_buf[start:end]
        self._fill_values(row, positions.tolist(), masked_offs)
        utilities = val_buf[positions] / (nw_buf[positions] + 1.0)
        return utilities.tolist()

    def _sweep_fallback(
        self, row: Sequence[int], start: int, end: int, masked_offs: List[int]
    ) -> List[float]:
        columns = self.columns
        positions = columns.rows.data[start:end]
        self._fill_values(row, positions, masked_offs)
        val_col = columns.val_col
        nw_col = columns.nw_col
        return [val_col[pos] / (nw_col[pos] + 1.0) for pos in positions]


class SearchColumns:
    """Dense masks driving the local-search fill/relocate scans.

    Task-side columns (``open`` / ``ready``) are indexed by position in the
    sorted batch task-id universe; worker-side ``idle`` by position in the
    sorted worker-id universe.  First-qualifying-candidate queries gather a
    worker's (sorted) candidate row against the masks and return the first
    set offset — the same task/worker the scalar set-probe scan picks,
    because both orders are ascending by id.

    The masks are synced by the caller as moves are applied (`take_task`,
    `set_idle`), mirroring ``_SearchState``'s incremental views; the
    relocate pass additionally snapshots ``open & ready`` into a separate
    overlay (`snapshot_open_ready`) because the scalar pass iterates a
    stale list captured at sweep start.
    """

    __slots__ = (
        "task_ids",
        "task_pos",
        "worker_ids",
        "worker_pos",
        "open_mask",
        "ready_mask",
        "snap_mask",
        "idle_mask",
        "backend",
        "sweeps",
        "candidates",
        "_rows",
        "_row_of",
        "_wrows",
        "_wrow_of",
    )

    def __init__(
        self,
        checker,
        state,
        backend: Optional[str] = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.task_ids = sorted(t.id for t in checker.tasks)
        self.task_pos = {tid: pos for pos, tid in enumerate(self.task_ids)}
        self.worker_ids = sorted(w.id for w in checker.workers)
        self.worker_pos = {wid: pos for pos, wid in enumerate(self.worker_ids)}
        n_tasks = len(self.task_ids)
        readiness = state.readiness
        open_tasks = state.open_tasks
        self.open_mask = bytearray(n_tasks)
        self.ready_mask = bytearray(n_tasks)
        for pos, tid in enumerate(self.task_ids):
            if tid in open_tasks:
                self.open_mask[pos] = 1
            if readiness.ready(tid):
                self.ready_mask[pos] = 1
        self.snap_mask = bytearray(n_tasks)
        self.idle_mask = bytearray(len(self.worker_ids))
        busy = state.busy
        for pos, wid in enumerate(self.worker_ids):
            if wid not in busy:
                self.idle_mask[pos] = 1
        self.sweeps = 0
        self.candidates = 0
        # Candidate rows are packed lazily per entity: local search touches
        # only idle workers / contended tasks, not the whole population.
        self._rows = RowArena("q")
        self._row_of: Dict[int, int] = {}
        self._wrows = RowArena("q")
        self._wrow_of: Dict[int, int] = {}

    # -- mask sync ---------------------------------------------------------------

    def take_task(self, graph, readiness, task_id: int) -> None:
        """A fill/relocate consumed ``task_id``: close it, promote dependents.

        ``readiness`` is the live :class:`ReadinessView` the scalar pass
        reads (already updated for this move); readiness only ever flips
        forward, so unset bits are re-probed and set bits stay set.
        """
        pos = self.task_pos.get(task_id)
        if pos is not None:
            self.open_mask[pos] = 0
        if task_id in graph:
            ready_mask = self.ready_mask
            task_pos = self.task_pos
            for dependent in graph.direct_dependents(task_id):
                dpos = task_pos.get(dependent)
                if dpos is not None and not ready_mask[dpos]:
                    ready_mask[dpos] = 1 if readiness.ready(dependent) else 0

    def set_busy(self, worker_id: int) -> None:
        pos = self.worker_pos.get(worker_id)
        if pos is not None:
            self.idle_mask[pos] = 0

    def snapshot_open_ready(self) -> None:
        """Capture ``open & ready`` for the relocate pass's stale list."""
        open_mask = self.open_mask
        ready_mask = self.ready_mask
        snap = self.snap_mask
        for pos in range(len(snap)):
            snap[pos] = open_mask[pos] & ready_mask[pos]

    def snapshot_discard(self, task_id: int) -> None:
        pos = self.task_pos.get(task_id)
        if pos is not None:
            self.snap_mask[pos] = 0

    # -- rows --------------------------------------------------------------------

    def _task_row(self, checker, worker_id: int) -> int:
        slot = self._row_of.get(worker_id)
        if slot is None:
            task_pos = self.task_pos
            slot = self._rows.append(
                task_pos[tid] for tid in checker.tasks_of(worker_id)
            )
            self._row_of[worker_id] = slot
        return slot

    def _worker_row(self, checker, task_id: int) -> int:
        slot = self._wrow_of.get(task_id)
        if slot is None:
            worker_pos = self.worker_pos
            slot = self._wrows.append(
                worker_pos[wid] for wid in checker.workers_of(task_id)
            )
            self._wrow_of[task_id] = slot
        return slot

    # -- first-qualifying queries ------------------------------------------------

    def _count(self, row_length: int) -> None:
        self.sweeps += 1
        self.candidates += row_length
        _SWEEPS.value += 1
        _SWEEP_CANDIDATES.value += row_length

    def first_fill(self, checker, worker_id: int) -> Optional[int]:
        """First task in the worker's row that is open *and* ready."""
        slot = self._task_row(checker, worker_id)
        start, end = self._rows.bounds(slot)
        if start == end:
            return None
        self._count(end - start)
        if self.backend == "numpy":
            off = self._first_masked_numpy(
                self._rows, start, end, self.open_mask, self.ready_mask
            )
        else:
            off = self._first_masked_fallback(
                self._rows, start, end, self.open_mask, self.ready_mask
            )
        if off is None:
            return None
        return self.task_ids[self._rows.data[start + off]]

    def first_extra(self, checker, worker_id: int) -> Optional[int]:
        """First snapshot open-ready task the worker can also serve."""
        slot = self._task_row(checker, worker_id)
        start, end = self._rows.bounds(slot)
        if start == end:
            return None
        self._count(end - start)
        if self.backend == "numpy":
            off = self._first_masked_numpy(
                self._rows, start, end, self.snap_mask, None
            )
        else:
            off = self._first_masked_fallback(
                self._rows, start, end, self.snap_mask, None
            )
        if off is None:
            return None
        return self.task_ids[self._rows.data[start + off]]

    def first_substitute(self, checker, task_id: int) -> Optional[int]:
        """First idle worker able to serve ``task_id``."""
        slot = self._worker_row(checker, task_id)
        start, end = self._wrows.bounds(slot)
        if start == end:
            return None
        self._count(end - start)
        if self.backend == "numpy":
            off = self._first_masked_numpy(
                self._wrows, start, end, self.idle_mask, None
            )
        else:
            off = self._first_masked_fallback(
                self._wrows, start, end, self.idle_mask, None
            )
        if off is None:
            return None
        return self.worker_ids[self._wrows.data[start + off]]

    def _first_masked_numpy(
        self, arena: RowArena, start: int, end: int, mask_a, mask_b
    ) -> Optional[int]:
        np = _kernels._np
        positions = np.frombuffer(arena.data, dtype=np.int64)[start:end]
        hits = np.frombuffer(mask_a, dtype=np.uint8)[positions]
        if mask_b is not None:
            hits = hits & np.frombuffer(mask_b, dtype=np.uint8)[positions]
        off = int(hits.argmax())
        if not hits[off]:
            return None
        return off

    def _first_masked_fallback(
        self, arena: RowArena, start: int, end: int, mask_a, mask_b
    ) -> Optional[int]:
        data = arena.data
        if mask_b is None:
            for off in range(end - start):
                if mask_a[data[start + off]]:
                    return off
            return None
        for off in range(end - start):
            pos = data[start + off]
            if mask_a[pos] and mask_b[pos]:
                return off
        return None

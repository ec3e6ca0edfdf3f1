"""Persistent column store: units plus the bit-identity acceptance pins.

The ISSUE's contract: with ``use_store=True`` the engine serves kernel
batches out of a delta-maintained arena instead of rebuilding them per
batch, and *nothing observable changes* — reports, ``engine_stats`` and
the distance-cache trajectory are byte-for-byte equal to the rebuild
path for every registered approach, on both kernel backends, sharded or
not.  Only the auxiliary ``store_rows_touched`` /
``store_rebuild_rows_avoided`` counters reveal which path ran.

The store's stable interning assigns skill-bit positions append-only, so
mask *bytes* may legitimately differ from a fresh batch (which sorts its
batch-local universe); the unit tests therefore pin semantic equality —
scalar columns byte-for-byte, skill/feasibility verdicts and distances
kernel-for-kernel — which is exactly what the engine consumes.
"""

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.columnar import (
    ColumnStore,
    ColumnarBatch,
    InterningCache,
    SkillInterner,
    available_backends,
    default_store,
    feasible_pairs,
    set_default_store,
)
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.engine import AllocationEngine
from repro.simulation.platform import Platform

AUX = ("store_rows_touched", "store_rebuild_rows_avoided")
SCALARS = (
    "wx",
    "wy",
    "wstart",
    "wdeadline",
    "wvelocity",
    "wmax_distance",
    "tx",
    "ty",
    "tstart",
    "tdeadline",
)


def _worker(wid, x=0.0, y=0.0, skills=(0,), start=0.0, wait=50.0):
    return Worker(
        id=wid,
        location=(x, y),
        start=start,
        wait=wait,
        velocity=1.0,
        max_distance=10.0,
        skills=frozenset(skills),
    )


def _task(tid, x=1.0, y=1.0, skill=0, start=0.0, wait=50.0):
    return Task(id=tid, location=(x, y), start=start, wait=wait, skill=skill)


def _assert_view_equivalent(view, workers, tasks, now=0.0):
    """A store view must be indistinguishable from a fresh batch to kernels."""
    fresh = ColumnarBatch(workers, tasks)
    assert view.n_workers == fresh.n_workers
    assert view.n_tasks == fresh.n_tasks
    assert view.worker_ids == fresh.worker_ids
    assert view.task_ids == fresh.task_ids
    for name in SCALARS:
        assert getattr(view, name).tobytes() == getattr(fresh, name).tobytes(), name
    if not workers or not tasks:
        return
    widx = [i for i in range(len(workers)) for _ in range(len(tasks))]
    tidx = list(range(len(tasks))) * len(workers)
    for backend in available_backends():
        got = feasible_pairs(view, widx, tidx, now, "euclidean", backend=backend)
        want = feasible_pairs(fresh, widx, tidx, now, "euclidean", backend=backend)
        assert got[0] == want[0]  # feasibility verdicts
        assert got[1] == want[1]  # skill verdicts
        assert list(got[2]) == list(want[2])  # bitwise distances


class TestSkillInterner:
    def test_positions_are_append_only_and_stable(self):
        interner = SkillInterner()
        first = interner.intern(7)
        interner.intern(3)
        assert interner.intern(7) == first  # re-interning never moves a bit
        assert interner.table[7] == (0, 0)
        assert interner.table[3] == (0, 1)
        assert len(interner) == 2
        assert interner.n_words == 1

    def test_word_count_grows_past_64_skills(self):
        interner = SkillInterner()
        for skill in range(65):
            interner.intern(skill)
        assert interner.n_words == 2
        assert interner.table[64] == (1, 0)


class TestInterningCache:
    def test_resorts_only_when_universe_grows(self):
        cache = InterningCache()
        first = cache.table_for([_worker(0, skills=(2, 5))], [_task(0, skill=2)])
        assert first == {2: (0, 0), 5: (0, 1)}
        again = cache.table_for([_worker(0, skills=(2, 5))], [_task(0, skill=5)])
        assert again is first  # same universe: the cached table is reused
        grown = cache.table_for([_worker(0, skills=(2, 5))], [_task(0, skill=1)])
        assert grown is not first
        assert grown == {1: (0, 0), 2: (0, 1), 5: (0, 2)}


class TestColumnStore:
    def test_sync_packs_once_then_serves_clean_rows(self):
        store = ColumnStore()
        workers = [_worker(i, x=float(i)) for i in range(3)]
        tasks = [_task(10 + j, x=float(j)) for j in range(2)]
        assert store.sync(workers, tasks) == 5
        assert store.sync(workers, tasks) == 0  # identity fast path
        assert store.sync(list(workers), [Task(**{
            "id": 10, "location": (0.0, 1.0), "start": 0.0, "wait": 50.0,
            "skill": 0,
        }), tasks[1]]) == 0  # value-equal record: adopted, not re-packed
        _assert_view_equivalent(store.view(workers, tasks), workers, tasks)

    def test_dirty_rows_are_repacked(self):
        store = ColumnStore()
        workers = [_worker(0, x=1.0), _worker(1, x=2.0)]
        store.sync(workers, [])
        moved = [_worker(0, x=9.0), workers[1]]
        assert store.sync(moved, []) == 1
        view = store.view(moved, [])
        assert view.wx[0] == 9.0

    def test_compact_order_views_alias_the_arena(self):
        store = ColumnStore()
        workers = [_worker(i) for i in range(4)]
        tasks = [_task(10 + j) for j in range(3)]
        store.sync(workers, tasks)
        view = store.view(workers, tasks)
        assert view.wx is store._wx  # zero-copy
        assert view.tx is store._tx

    def test_subset_views_gather_exact_length_buffers(self):
        store = ColumnStore()
        workers = [_worker(i, x=float(i)) for i in range(5)]
        tasks = [_task(10 + j, x=float(j)) for j in range(4)]
        store.sync(workers, tasks)
        some_w = [workers[3], workers[1]]
        some_t = [tasks[2]]
        view = store.view(some_w, some_t)
        assert view.wx is not store._wx
        assert len(view.wx) == 2 and len(view.tx) == 1
        _assert_view_equivalent(view, some_w, some_t)

    def test_removed_rows_are_reused_via_free_list(self):
        store = ColumnStore()
        workers = [_worker(i) for i in range(3)]
        store.sync(workers, [])
        rows_before = store.n_worker_rows
        store.remove_worker(1)
        assert store.free_worker_rows == 1
        store.sync([_worker(7, x=4.0)], [])
        assert store.n_worker_rows == rows_before  # slot reused, no growth
        assert store.free_worker_rows == 0
        store.remove_worker(99)  # unknown ids are a no-op
        store.remove_task(99)

    def test_view_raises_for_unsynced_entities(self):
        store = ColumnStore()
        store.sync([_worker(0)], [])
        with pytest.raises(KeyError):
            store.view([_worker(1)], [])

    def test_stride_regrows_when_interning_crosses_a_word(self):
        # Interned positions are dense in *arrival* order, so crossing a
        # word boundary takes >64 distinct skills — and rows packed before
        # the crossing must re-stride without losing their bits.
        store = ColumnStore()
        early = [_worker(0, skills=(0, 1))]
        store.sync(early, [])
        assert store.interner.n_words == 1
        late = [_worker(1, skills=tuple(range(2, 70)))]
        store.sync(late, [])
        assert store.interner.n_words == 2
        both = early + late
        tasks = [_task(10, skill=69), _task(11, skill=1)]
        store.sync(both, tasks)
        view = store.view(both, tasks)
        assert view.n_skill_words == 2
        _assert_view_equivalent(view, both, tasks)

    def test_default_store_toggle_round_trips(self):
        initial = default_store()
        try:
            previous = set_default_store(True)
            assert default_store() is True
            set_default_store(previous)
        finally:
            set_default_store(initial)


class TestEngineStoreEquivalence:
    """Engine-level pins: graph, stats and cache trajectory, store on vs off."""

    def _waves(self, engine):
        # 150 workers x 30-task waves > the 4096-pair columnar sync floor,
        # so the incremental arrivals go through _make_batch (and the
        # store's delta accounting), not the scalar small-batch path.
        workers = [_worker(i, x=float(i % 7), y=float(i % 5), skills=(i % 3,))
                   for i in range(150)]
        tasks = [_task(1000 + j, x=float(j % 6), y=float(j % 4), skill=j % 3)
                 for j in range(60)]
        engine.begin_batch(workers, tasks, 0.0)
        # Wave: retire tasks, add arrivals, relocate a worker.
        tasks = tasks[5:] + [
            _task(2000 + j, x=float(j % 6), y=2.0, skill=j % 3, start=1.0)
            for j in range(30)
        ]
        workers[0] = _worker(0, x=3.5, skills=(1,))
        engine.begin_batch(workers, tasks, 1.0)
        # Second wave: pure departures.
        engine.begin_batch(workers[:-4], tasks[3:], 2.0)
        return engine

    def test_graph_stats_and_cache_identical(self):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))
        on = self._waves(AllocationEngine(instance, use_columnar=True, use_store=True))
        off = self._waves(AllocationEngine(instance, use_columnar=True, use_store=False))
        assert on.store_active and not off.store_active
        assert on._tasks_of == off._tasks_of
        assert on._workers_of == off._workers_of
        assert on.stats() == off.stats()
        assert on.metric.hits == off.metric.hits
        assert on.metric.misses == off.metric.misses
        assert list(on.metric._cache.items()) == list(off.metric._cache.items())

    def test_store_counters_are_aux_only(self):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))
        engine = self._waves(
            AllocationEngine(instance, use_columnar=True, use_store=True)
        )
        aux = engine.counters.aux_dict()
        assert aux["engine_store_rows_touched"] > 0
        assert aux["engine_store_rebuild_rows_avoided"] > 0
        for key in engine.stats():
            assert "store_" not in key  # never leaks into the pinned stats

    def test_store_requires_the_columnar_path(self):
        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))
        engine = AllocationEngine(instance, use_columnar=False, use_store=True)
        assert not engine.store_active


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


def _run(instance, name, use_store, shards=1):
    platform = Platform(
        instance,
        make_allocator(name, seed=11),
        batch_interval=5.0,
        shards=shards,
        use_columnar=True,
        use_store=use_store,
    )
    report = platform.run()
    # aux_stats aggregates across shards (each shard engine keeps a
    # private registry), and reads the plain engine's counters unsharded.
    full_aux = platform.last_engine.aux_stats()
    aux = {key: full_aux[f"engine_{key}"] for key in AUX}
    return report, aux


def _assert_identical(on_report, off_report):
    assert on_report.assignments == off_report.assignments
    assert on_report.completion_times == off_report.completion_times
    assert on_report.expired_tasks == off_report.expired_tasks
    assert [b.score for b in on_report.batches] == [
        b.score for b in off_report.batches
    ]
    # The headline pin: engine_stats may not even reveal which path ran.
    assert on_report.engine_stats == off_report.engine_stats


def _fallback_only(monkeypatch):
    """Force the pure-python backend by hiding numpy from the kernels."""
    import repro.columnar.kernels as kernels

    monkeypatch.setattr(kernels, "_np", None)


class TestPlatformStoreEquivalence:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_numpy_backend(self, instance, name):
        on_report, on_aux = _run(instance, name, True)
        off_report, off_aux = _run(instance, name, False)
        _assert_identical(on_report, off_report)
        # The auxiliary telemetry is where the modes ARE allowed to differ.
        # (rows_avoided may legitimately be 0 here: on a small instance every
        # incremental wave can stay under the columnar sync floor.)
        assert on_aux["store_rows_touched"] > 0
        assert off_aux["store_rows_touched"] == 0
        assert off_aux["store_rebuild_rows_avoided"] == 0

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_fallback_backend(self, instance, name, monkeypatch):
        _fallback_only(monkeypatch)
        on_report, on_aux = _run(instance, name, True)
        off_report, _ = _run(instance, name, False)
        _assert_identical(on_report, off_report)
        assert on_aux["store_rows_touched"] > 0

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_sharded(self, instance, name):
        on_report, on_aux = _run(instance, name, True, shards=2)
        off_report, _ = _run(instance, name, False, shards=2)
        _assert_identical(on_report, off_report)
        assert on_aux["store_rows_touched"] > 0

"""Acceptance: columnar on vs off is bit-identical end to end.

The ISSUE's contract: ``SimulationReport`` AND ``engine_stats`` must be
byte-for-byte equal with the columnar kernels on or off, for every
registered approach, on both backends.  The distance-cache trajectory
(hits, misses, contents, insertion/eviction order) is part of that state
and is pinned directly.
"""

import math

import pytest

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.columnar import available_backends
from repro.core.constraints import FeasibilityChecker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.engine import AllocationEngine
from repro.simulation.platform import Platform, RejoinPolicy
from repro.spatial.cache import CachedMetric
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

AUX = ("columnar_full_builds", "columnar_pairs", "scalar_pair_evals")


@pytest.fixture(scope="module")
def instance():
    return generate_synthetic(SyntheticConfig(seed=5).scaled(0.05))


def _fallback_only(monkeypatch):
    """Force the pure-python backend by hiding numpy from the kernels."""
    import repro.columnar.kernels as kernels

    monkeypatch.setattr(kernels, "_np", None)


def _run(instance, name, use_columnar, rejoin=RejoinPolicy.REMAINING):
    platform = Platform(
        instance,
        make_allocator(name, seed=11),
        batch_interval=5.0,
        rejoin=rejoin,
        use_columnar=use_columnar,
    )
    report = platform.run()
    registry = platform.metrics_registry
    aux = {key: registry.counter(f"engine_{key}").value for key in AUX}
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


class TestPlatformEquivalence:
    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_numpy_backend(self, instance, name):
        on_report, on_aux = _run(instance, name, True)
        off_report, off_aux = _run(instance, name, False)
        _assert_identical(on_report, off_report)
        # The auxiliary telemetry is where the modes ARE allowed to differ.
        assert on_aux["columnar_full_builds"] >= 1
        assert off_aux["columnar_full_builds"] == 0
        assert off_aux["columnar_pairs"] == 0

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_every_approach_fallback_backend(self, instance, name, monkeypatch):
        _fallback_only(monkeypatch)
        on_report, _ = _run(instance, name, True)
        off_report, _ = _run(instance, name, False)
        _assert_identical(on_report, off_report)

    @pytest.mark.parametrize("rejoin", list(RejoinPolicy))
    def test_every_rejoin_policy(self, instance, rejoin):
        on_report, _ = _run(instance, "Greedy", True, rejoin)
        off_report, _ = _run(instance, "Greedy", False, rejoin)
        _assert_identical(on_report, off_report)


class TestEngineGraphAndCache:
    @pytest.mark.parametrize("use_index", [True, False])
    def test_graph_counters_and_cache_trajectory(self, instance, use_index):
        engines = {}
        for columnar in (True, False):
            engine = AllocationEngine(
                instance, use_index=use_index, use_columnar=columnar
            )
            engine.begin_batch(
                instance.workers, instance.tasks, instance.earliest_start
            )
            engines[columnar] = engine
        on, off = engines[True], engines[False]
        assert on._tasks_of == off._tasks_of
        assert on._workers_of == off._workers_of
        assert on.stats() == off.stats()
        # Cache contents AND insertion order are replayed exactly.
        assert on.metric._cache == off.metric._cache
        assert list(on.metric._cache) == list(off.metric._cache)
        assert on.columnar_active and not off.columnar_active

    def test_fallback_backend_engine(self, instance, monkeypatch):
        _fallback_only(monkeypatch)
        results = {}
        for columnar in (True, False):
            engine = AllocationEngine(instance, use_columnar=columnar)
            engine.begin_batch(
                instance.workers, instance.tasks, instance.earliest_start
            )
            results[columnar] = (engine._tasks_of, engine.stats())
        assert results[True] == results[False]

    def test_bounded_cache_eviction_order(self, instance):
        """FIFO eviction depends on insertion order — pinned across modes."""
        caches = {}
        for columnar in (True, False):
            engine = AllocationEngine(
                instance, cache_maxsize=50, use_columnar=columnar
            )
            engine.begin_batch(
                instance.workers, instance.tasks, instance.earliest_start
            )
            caches[columnar] = engine.metric
        assert caches[True]._cache == caches[False]._cache
        assert list(caches[True]._cache) == list(caches[False]._cache)
        assert caches[True].evictions == caches[False].evictions

    def test_road_network_metric_is_ineligible(self):
        """No ``columnar_code`` -> the scalar path runs even when forced on."""
        from repro.spatial.region import BoundingBox
        from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network
        import random

        from repro.core.instance import ProblemInstance
        from repro.core.skills import SkillUniverse

        base = generate_synthetic(SyntheticConfig(seed=5).scaled(0.03))
        net = grid_road_network(
            BoundingBox(-1.0, -1.0, 11.0, 11.0), 6, 6, rng=random.Random(3)
        )
        instance = ProblemInstance(
            workers=base.workers,
            tasks=base.tasks,
            skills=SkillUniverse(size=base.skills.size),
            metric=RoadNetworkDistance(net),
        )
        engine = AllocationEngine(instance, use_columnar=True)
        assert not engine.columnar_active


class TestCachedMetricReplay:
    def _sequence(self, rng_seed=7, count=300, distinct=40):
        import random

        rng = random.Random(rng_seed)
        points = [
            ((rng.uniform(0, 9), rng.uniform(0, 9)), (rng.uniform(0, 9), rng.uniform(0, 9)))
            for _ in range(distinct)
        ]
        return [points[rng.randrange(distinct)] for _ in range(count)]

    @pytest.mark.parametrize("maxsize,policy", [(None, "fifo"), (16, "fifo"), (16, "lru")])
    def test_replay_equals_serial_calls(self, maxsize, policy):
        metric = EuclideanDistance()
        keys = self._sequence()
        serial = CachedMetric(metric, maxsize=maxsize, policy=policy)
        for a, b in keys:
            serial(a, b)
        bulk = CachedMetric(metric, maxsize=maxsize, policy=policy)
        bulk.replay(keys, [metric(a, b) for a, b in keys])
        assert (bulk.hits, bulk.misses, bulk.evictions) == (
            serial.hits, serial.misses, serial.evictions
        )
        assert bulk._cache == serial._cache
        assert list(bulk._cache) == list(serial._cache)


class TestFeasibilityChecker:
    @pytest.mark.parametrize("metric", [EuclideanDistance(), ManhattanDistance()])
    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("now", [-math.inf, 0.0, 9.0])
    def test_checker_columnar_equivalence(self, instance, metric, use_index, now):
        on = FeasibilityChecker(
            instance.workers, instance.tasks, metric, now,
            use_index=use_index, use_columnar=True,
        )
        off = FeasibilityChecker(
            instance.workers, instance.tasks, metric, now,
            use_index=use_index, use_columnar=False,
        )
        assert on._tasks_of == off._tasks_of
        assert on._workers_of == off._workers_of

    def test_cached_metric_never_columnar(self, instance):
        """CachedMetric hides ``columnar_code`` -> scalar path populates it."""
        cached = CachedMetric(EuclideanDistance())
        checker = FeasibilityChecker(
            instance.workers, instance.tasks, cached, 0.0, use_columnar=True
        )
        assert checker._columnar_code is None
        assert cached.misses > 0  # the scalar path actually ran


class TestLegacyPath:
    """``use_engine=False`` builds a fresh checker per batch; the flag must reach it."""

    def test_columnar_off_never_calls_the_kernels(self, instance, monkeypatch):
        import repro.columnar as columnar

        calls = []

        def counting(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)

            return wrapper

        for name in ("feasible_pairs", "feasible_dense"):
            monkeypatch.setattr(columnar, name, counting(getattr(columnar, name)))
        reports = {}
        for flag in (True, False):
            calls.clear()
            reports[flag] = Platform(
                instance,
                make_allocator("Greedy", seed=11),
                batch_interval=5.0,
                use_engine=False,
                use_columnar=flag,
            ).run()
            assert bool(calls) == flag
        _assert_identical(reports[True], reports[False])

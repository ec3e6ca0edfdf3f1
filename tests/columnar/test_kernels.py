"""Unit tests for the columnar kernels: edge semantics and backend plumbing."""

import math

import pytest

from repro.columnar import (
    CODES,
    ColumnarBatch,
    available_backends,
    default_columnar,
    feasible_dense,
    feasible_pairs,
    numpy_available,
    resolve_backend,
    set_default_columnar,
    skill_candidates_dense,
    true_positions,
)
from repro.core.constraints import pair_feasible
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

BACKENDS = available_backends()


def _worker(i, *, location=(0.0, 0.0), velocity=1.0, start=0.0, wait=10.0,
            max_distance=100.0, skills=(0,)):
    return Worker(
        id=i, location=location, start=start, wait=wait, velocity=velocity,
        max_distance=max_distance, skills=frozenset(skills),
    )


def _task(j, *, location=(3.0, 4.0), start=0.0, wait=10.0, skill=0):
    return Task(id=j, location=location, start=start, wait=wait, skill=skill)


def _flat(batch):
    n_w, n_t = batch.n_workers, batch.n_tasks
    return [i for i in range(n_w) for _ in range(n_t)], list(range(n_t)) * n_w


class TestBackendPlumbing:
    def test_resolve_default_prefers_numpy(self):
        expected = "numpy" if numpy_available() else "fallback"
        assert resolve_backend(None) == expected

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_default_columnar_toggle_roundtrip(self):
        previous = set_default_columnar(False)
        try:
            assert default_columnar() is False
            set_default_columnar(True)
            assert default_columnar() is True
            set_default_columnar(None)  # auto
            assert default_columnar() == numpy_available()
        finally:
            set_default_columnar(previous)

    def test_codes_cover_planar_metrics(self):
        assert EuclideanDistance().columnar_code in CODES
        assert ManhattanDistance().columnar_code in CODES

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            feasible_pairs(ColumnarBatch([], []), [], [], 0.0, "chebyshev")


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeSemantics:
    """The scalar oracle's edge cases, replicated pair for pair."""

    def _verdicts(self, workers, tasks, now, code, backend):
        batch = ColumnarBatch(workers, tasks)
        widx, tidx = _flat(batch)
        mask, skill_mask, dists = feasible_pairs(
            batch, widx, tidx, now, code, backend=backend
        )
        metric = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}[code]
        for k in range(len(widx)):
            w, t = workers[widx[k]], tasks[tidx[k]]
            assert bool(mask[k]) == pair_feasible(w, t, metric, now), (w, t)
            assert dists[k] == metric(w.location, t.location)
        return mask

    def test_zero_velocity_zero_distance_is_feasible(self, backend):
        workers = [_worker(0, velocity=0.0, location=(1.0, 1.0))]
        tasks = [_task(0, location=(1.0, 1.0))]
        mask = self._verdicts(workers, tasks, -math.inf, "euclidean", backend)
        assert mask == b"\x01"

    def test_zero_velocity_positive_distance_is_infeasible(self, backend):
        workers = [_worker(0, velocity=0.0)]
        tasks = [_task(0)]
        mask = self._verdicts(workers, tasks, -math.inf, "euclidean", backend)
        assert mask == b"\x00"

    def test_empty_skills_reject_everything(self, backend):
        workers = [_worker(0, skills=())]
        tasks = [_task(0)]
        batch = ColumnarBatch(workers, tasks)
        mask, skill_mask, _ = feasible_pairs(
            batch, [0], [0], 0.0, "euclidean", backend=backend
        )
        assert mask == b"\x00" and skill_mask == b"\x00"

    def test_now_minus_inf_matches_static_oracle(self, backend):
        workers = [_worker(0, start=4.0, wait=2.0)]
        tasks = [_task(0, start=0.0, wait=3.0, location=(0.5, 0.0))]
        self._verdicts(workers, tasks, -math.inf, "euclidean", backend)

    def test_now_after_deadline_rejects(self, backend):
        workers = [_worker(0)]
        tasks = [_task(0, location=(0.1, 0.0))]
        mask = self._verdicts(workers, tasks, 50.0, "euclidean", backend)
        assert mask == b"\x00"

    def test_manhattan_and_reach_boundary(self, backend):
        # dist exactly equal to max_distance stays feasible (<=, not <).
        workers = [_worker(0, max_distance=7.0)]
        tasks = [_task(0, location=(3.0, 4.0))]
        mask = self._verdicts(workers, tasks, 0.0, "manhattan", backend)
        assert mask == b"\x01"

    def test_length_mismatch_raises(self, backend):
        batch = ColumnarBatch([_worker(0)], [_task(0)])
        with pytest.raises(ValueError):
            feasible_pairs(batch, [0, 0], [0], 0.0, "euclidean", backend=backend)

    def test_empty_tile(self, backend):
        batch = ColumnarBatch([_worker(0)], [_task(0)])
        assert feasible_pairs(batch, [], [], 0.0, "euclidean", backend=backend) == (
            b"", b"", []
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_true_positions(backend):
    assert true_positions(b"\x01\x00\x01\x01\x00", backend=backend) == [0, 2, 3]
    assert true_positions(b"", backend=backend) == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("code", CODES)
def test_dense_variants_consistent(backend, code):
    workers = [
        _worker(0, location=(0.0, 0.0), skills=(0, 1)),
        _worker(1, location=(9.0, 9.0), skills=()),
        _worker(2, location=(1.0, 0.0), velocity=0.0, skills=(1,)),
    ]
    tasks = [
        _task(0, location=(1.0, 0.0), skill=1),
        _task(1, location=(5.0, 5.0), skill=0),
        _task(2, location=(0.0, 0.0), skill=2),
    ]
    batch = ColumnarBatch(workers, tasks)
    widx, tidx = _flat(batch)
    mask, skill_mask, dists = feasible_pairs(
        batch, widx, tidx, 0.0, code, backend=backend
    )
    assert feasible_dense(batch, 0.0, code, backend=backend) == [
        (widx[k], tidx[k]) for k in true_positions(mask)
    ]
    cw, ct, cdists, cmask = skill_candidates_dense(batch, 0.0, code, backend=backend)
    keep = true_positions(skill_mask)
    assert cw == [widx[k] for k in keep]
    assert ct == [tidx[k] for k in keep]
    assert cdists == [dists[k] for k in keep]
    assert bytes(cmask) == bytes(mask[k] for k in keep)


def test_kernel_counters_increment():
    from repro.obs.metrics import REGISTRY

    batch = ColumnarBatch([_worker(0)], [_task(0)])
    pairs_before = REGISTRY.counter("columnar_kernel_pairs").value
    calls_before = REGISTRY.counter("columnar_kernel_calls").value
    feasible_pairs(batch, [0], [0], 0.0, "euclidean")
    assert REGISTRY.counter("columnar_kernel_pairs").value == pairs_before + 1
    assert REGISTRY.counter("columnar_kernel_calls").value == calls_before + 1

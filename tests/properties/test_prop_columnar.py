"""Property tests pinning the columnar kernels to the scalar oracle.

The exactness contract of :mod:`repro.columnar.kernels` is *bitwise*
equality with :func:`repro.core.constraints.pair_feasible` — decisions AND
distances, on both backends.  These tests generate adversarial populations
(zero-velocity workers, coincident locations, empty skill sets, skill
universes wider than one packed 64-bit word, ``now = -inf``) and compare
every kernel against the scalar predicate float for float.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnarBatch,
    available_backends,
    feasible_dense,
    feasible_pairs,
    skill_candidates_dense,
    true_positions,
)
from repro.core.constraints import pair_feasible
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import EuclideanDistance, ManhattanDistance

METRICS = {"euclidean": EuclideanDistance(), "manhattan": ManhattanDistance()}
BACKENDS = available_backends()


def _population(rng, n_w, n_t, n_skills):
    """Adversarial mix: every few workers/tasks hit a scalar edge case."""
    coincident = (rng.uniform(0, 2), rng.uniform(0, 2))
    workers = []
    for i in range(n_w):
        location = coincident if i % 5 == 0 else (
            rng.uniform(0, 2), rng.uniform(0, 2)
        )
        skills = frozenset(
            rng.sample(range(n_skills), rng.randint(0, min(3, n_skills)))
        )
        workers.append(
            Worker(
                id=i,
                location=location,
                start=rng.uniform(0, 5),
                wait=rng.uniform(0, 10),
                velocity=0.0 if i % 4 == 0 else rng.uniform(0.1, 2.0),
                max_distance=rng.uniform(0.0, 3.0),
                skills=skills,
            )
        )
    tasks = []
    for j in range(n_t):
        location = coincident if j % 3 == 0 else (
            rng.uniform(0, 2), rng.uniform(0, 2)
        )
        tasks.append(
            Task(
                id=j,
                location=location,
                start=rng.uniform(0, 5),
                wait=rng.uniform(0, 10),
                skill=rng.randrange(n_skills),
            )
        )
    return workers, tasks


@given(
    st.integers(0, 10_000_000),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([2, 3, 70, 150]),  # 70/150 force multi-word skill masks
    st.sampled_from([-math.inf, 0.0, 4.5]),
    st.sampled_from(BACKENDS),
)
@settings(max_examples=120, deadline=None)
def test_feasible_pairs_matches_scalar_oracle(
    seed, n_w, n_t, code, n_skills, now, backend
):
    rng = random.Random(seed)
    workers, tasks = _population(rng, n_w, n_t, n_skills)
    metric = METRICS[code]
    batch = ColumnarBatch(workers, tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    mask, skill_mask, dists = feasible_pairs(
        batch, widx, tidx, now, code, backend=backend
    )
    for k in range(len(widx)):
        worker, task = workers[widx[k]], tasks[tidx[k]]
        assert bool(skill_mask[k]) == (task.skill in worker.skills)
        # Bitwise distance equality, not approximate.
        exact = metric(worker.location, task.location)
        assert math.isclose(dists[k], exact, rel_tol=0.0, abs_tol=0.0)
        assert bool(mask[k]) == pair_feasible(worker, task, metric, now)


@given(
    st.integers(0, 10_000_000),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([-math.inf, 2.0]),
    st.sampled_from(BACKENDS),
)
@settings(max_examples=60, deadline=None)
def test_dense_kernels_agree_with_flat(seed, code, now, backend):
    rng = random.Random(seed)
    workers, tasks = _population(rng, rng.randint(1, 10), rng.randint(1, 10), 70)
    batch = ColumnarBatch(workers, tasks)
    n_w, n_t = len(workers), len(tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    mask, skill_mask, dists = feasible_pairs(
        batch, widx, tidx, now, code, backend=backend
    )

    dense = feasible_dense(batch, now, code, backend=backend)
    assert dense == [(widx[k], tidx[k]) for k in true_positions(mask)]

    cw, ct, cdists, cmask = skill_candidates_dense(batch, now, code, backend=backend)
    expect = [k for k in range(len(widx)) if skill_mask[k]]
    assert cw == [widx[k] for k in expect]
    assert ct == [tidx[k] for k in expect]
    assert cdists == [dists[k] for k in expect]
    assert bytes(cmask) == bytes(mask[k] for k in expect)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy backend unavailable")
@given(st.integers(0, 10_000_000), st.sampled_from(["euclidean", "manhattan"]))
@settings(max_examples=40, deadline=None)
def test_backends_agree_with_each_other(seed, code):
    rng = random.Random(seed)
    workers, tasks = _population(rng, rng.randint(1, 8), rng.randint(1, 8), 150)
    batch = ColumnarBatch(workers, tasks)
    n_w, n_t = len(workers), len(tasks)
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    now = rng.choice([-math.inf, 1.0])
    a = feasible_pairs(batch, widx, tidx, now, code, backend="numpy")
    b = feasible_pairs(batch, widx, tidx, now, code, backend="fallback")
    assert a == b

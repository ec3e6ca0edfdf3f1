"""Unit tests for the struct-of-arrays batch snapshot."""

import pytest

from repro.columnar import ColumnarBatch, flatten_rows, intern_skills
from repro.columnar.batch import WORD_BITS
from repro.core.task import Task
from repro.core.worker import Worker


def _worker(i, skills=(0,), location=(0.0, 0.0), velocity=1.0):
    return Worker(
        id=i,
        location=location,
        start=0.0,
        wait=10.0,
        velocity=velocity,
        max_distance=5.0,
        skills=frozenset(skills),
    )


def _task(j, skill=0, location=(1.0, 1.0)):
    return Task(id=j, location=location, start=0.0, wait=10.0, skill=skill)


class TestInternSkills:
    def test_deterministic_sorted_packing(self):
        workers = [_worker(0, skills=(7, 3)), _worker(1, skills=(9,))]
        tasks = [_task(0, skill=5)]
        table = intern_skills(workers, tasks)
        # Sorted union {3, 5, 7, 9} -> positions 0..3 regardless of input order.
        assert table == {3: (0, 0), 5: (0, 1), 7: (0, 2), 9: (0, 3)}
        shuffled = intern_skills(list(reversed(workers)), tasks)
        assert shuffled == table

    def test_task_only_skills_intern(self):
        # A required skill no worker practises still gets a bit; the
        # corresponding worker-mask bit is simply never set.
        table = intern_skills([_worker(0, skills=(1,))], [_task(0, skill=42)])
        assert 42 in table

    def test_multi_word_universe(self):
        skills = range(WORD_BITS + 5)
        table = intern_skills([_worker(0, skills=skills)], [])
        assert table[WORD_BITS] == (1, 0)
        assert table[WORD_BITS + 4] == (1, 4)


class TestColumnarBatch:
    def test_columns_are_positional(self):
        workers = [
            _worker(3, location=(1.5, 2.5), velocity=0.75),
            _worker(1, location=(4.0, 0.5)),
        ]
        tasks = [_task(9, location=(0.25, 0.125))]
        batch = ColumnarBatch(workers, tasks)
        assert batch.worker_ids == [3, 1]
        assert batch.task_ids == [9]
        assert list(batch.wx) == [1.5, 4.0]
        assert batch.wvelocity[0] == 0.75
        assert (batch.tx[0], batch.ty[0]) == (0.25, 0.125)

    def test_skill_masks_match_membership(self):
        # Interning packs the sorted *union* densely, so a multi-word mask
        # needs more than 64 distinct skills in play.
        universe = WORD_BITS * 2 + 7
        workers = [
            _worker(0, skills=range(0, universe, 2)),
            _worker(1, skills=()),
        ]
        tasks = [_task(j, skill=s) for j, s in enumerate((0, WORD_BITS, universe - 1, 5))]
        batch = ColumnarBatch(workers, tasks)
        assert batch.n_skill_words == 2  # 69 interned skills -> two words
        for wpos, worker in enumerate(workers):
            for tpos, task in enumerate(tasks):
                assert batch.worker_has_skill(wpos, tpos) == (
                    task.skill in worker.skills
                )

    def test_empty_universe_keeps_one_word(self):
        batch = ColumnarBatch([_worker(0, skills=())], [])
        assert batch.n_skill_words == 1
        assert len(batch.wskills) == 1

    def test_snapshot_is_picklable(self):
        import pickle

        batch = ColumnarBatch([_worker(0)], [_task(0)])
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.worker_ids == batch.worker_ids
        assert clone.wx == batch.wx
        assert clone.wskills == batch.wskills


class TestPairTransport:
    def test_flatten_rows(self):
        widx, tidx = flatten_rows([(0, [2, 1]), (1, []), (2, [0])])
        assert widx == [0, 0, 2]
        assert tidx == [2, 1, 0]


def test_repr_smoke():
    batch = ColumnarBatch([_worker(0)], [_task(0)])
    assert "ColumnarBatch" in repr(batch)

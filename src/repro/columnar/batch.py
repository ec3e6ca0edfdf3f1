"""Struct-of-arrays batch snapshots for the feasibility kernels.

A :class:`ColumnarBatch` freezes one batch's worker and task populations
into contiguous columns: ``array('d')`` floats for the spatial/temporal
attributes and packed ``array('Q')`` uint64 words for skill membership,
built from a per-batch *skill interning table* (skill id -> bit position).
The layout is backend-neutral on purpose: the stdlib ``array`` buffers
expose the buffer protocol, so the numpy backend views them zero-copy via
``frombuffer`` while the pure-python fallback indexes them directly — one
snapshot, two kernels.

Columns are *positional*: row ``i`` of the worker columns is
``workers[i]`` of the sequence the batch was built from, and
:attr:`worker_ids` / :attr:`task_ids` map positions back to entity ids.
The snapshot carries exactly the attributes the feasibility predicate
reads (location, window, velocity, reach, skills); everything else stays
on the object records at the edges of the system.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

#: Bits per packed skill word.
WORD_BITS = 64


def intern_skills(
    workers: Sequence, tasks: Sequence
) -> Dict[int, Tuple[int, int]]:
    """Per-batch skill interning table: skill id -> ``(word, bit)``.

    The universe is the union of every worker's skill set and every task's
    required skill, enumerated in sorted order so the packing is
    deterministic for a given batch regardless of input order.  Task skills
    no worker practises still intern — their bit is simply never set in any
    worker mask, which is exactly the ``skill_ok == False`` the scalar
    predicate computes.
    """
    universe: set = set()
    for worker in workers:
        universe.update(worker.skills)
    for task in tasks:
        universe.add(task.skill)
    return {
        skill: divmod(position, WORD_BITS)
        for position, skill in enumerate(sorted(universe))
    }


class ColumnarBatch:
    """One batch's populations as contiguous columns.

    Attributes:
        n_workers / n_tasks: row counts.
        n_skill_words: packed uint64 words per worker skill mask (>= 1 even
            for an empty universe, so mask rows never have zero width).
        skill_table: the interning table used to pack the masks.
        wx, wy, wstart, wdeadline, wvelocity, wmax_distance: worker columns
            (``array('d')``, one row per worker).
        wskills: flattened row-major worker skill masks
            (``array('Q')``, ``n_workers * n_skill_words`` words).
        tx, ty, tstart, tdeadline: task columns (``array('d')``).
        tskill_word / tskill_bitmask: per-task word index and single-bit
            uint64 mask of the required skill, so
            ``wskills[i * n_skill_words + tskill_word[j]] & tskill_bitmask[j]``
            is the packed form of ``task.skill in worker.skills``.
        worker_ids / task_ids: position -> entity id.
    """

    __slots__ = (
        "n_workers",
        "n_tasks",
        "n_skill_words",
        "skill_table",
        "wx",
        "wy",
        "wstart",
        "wdeadline",
        "wvelocity",
        "wmax_distance",
        "wskills",
        "tx",
        "ty",
        "tstart",
        "tdeadline",
        "tskill_word",
        "tskill_bitmask",
        "worker_ids",
        "task_ids",
    )

    def __init__(self, workers: Sequence, tasks: Sequence) -> None:
        table = intern_skills(workers, tasks)
        words = max(1, -(-len(table) // WORD_BITS))
        self.skill_table = table
        self.n_workers = len(workers)
        self.n_tasks = len(tasks)
        self.n_skill_words = words

        self.wx = array("d", (w.location[0] for w in workers))
        self.wy = array("d", (w.location[1] for w in workers))
        self.wstart = array("d", (w.start for w in workers))
        self.wdeadline = array("d", (w.deadline for w in workers))
        self.wvelocity = array("d", (w.velocity for w in workers))
        self.wmax_distance = array("d", (w.max_distance for w in workers))
        self.worker_ids = [w.id for w in workers]

        masks = array("Q", bytes(8 * self.n_workers * words))
        for row, worker in enumerate(workers):
            base = row * words
            for skill in worker.skills:
                word, bit = table[skill]
                masks[base + word] |= 1 << bit
        self.wskills = masks

        self.tx = array("d", (t.location[0] for t in tasks))
        self.ty = array("d", (t.location[1] for t in tasks))
        self.tstart = array("d", (t.start for t in tasks))
        self.tdeadline = array("d", (t.deadline for t in tasks))
        self.tskill_word = array("q", (table[t.skill][0] for t in tasks))
        self.tskill_bitmask = array(
            "Q", (1 << table[t.skill][1] for t in tasks)
        )
        self.task_ids = [t.id for t in tasks]

    @classmethod
    def from_entities(cls, workers: Sequence, tasks: Sequence) -> "ColumnarBatch":
        """Build a snapshot from worker/task record sequences."""
        return cls(workers, tasks)

    def worker_has_skill(self, worker_pos: int, task_pos: int) -> bool:
        """Scalar probe of the packed masks (testing/debug convenience)."""
        word = self.tskill_word[task_pos]
        return bool(
            self.wskills[worker_pos * self.n_skill_words + word]
            & self.tskill_bitmask[task_pos]
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch(workers={self.n_workers}, tasks={self.n_tasks}, "
            f"skills={len(self.skill_table)}, words={self.n_skill_words})"
        )


def flatten_rows(
    rows: Sequence[Tuple[int, Sequence[int]]],
) -> Tuple[List[int], List[int]]:
    """Ragged candidate rows -> flat parallel position lists.

    ``rows`` holds ``(worker_position, [task_position, ...])`` entries; the
    result is the tile in flattened form, suitable for
    :func:`repro.columnar.kernels.feasible_pairs`.
    """
    widx: List[int] = []
    tidx: List[int] = []
    for worker_pos, task_positions in rows:
        widx.extend(worker_pos for _ in task_positions)
        tidx.extend(task_positions)
    return widx, tidx

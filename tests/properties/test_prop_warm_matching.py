"""Property test for warm-start matching.

Replaying a randomized query stream through :func:`match_task_set` with a
:class:`MatchMemo` must produce exactly the results of the memo-less run,
feasible or not.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.matching.bipartite import MatchMemo, match_task_set


class _ScriptedChecker:
    """Feasibility oracle with arbitrary pinned candidate rows."""

    def __init__(self, rows):
        self._rows = rows

    def workers_of(self, task_id):
        return self._rows.get(task_id, [])


def _matching_universe(rng):
    """A tiny instance plus a randomized candidate table over it."""
    workers = [
        Worker(
            id=i,
            location=(rng.uniform(0, 4), rng.uniform(0, 4)),
            start=0.0,
            wait=100.0,
            velocity=1.0,
            max_distance=50.0,
            skills=frozenset({0}),
        )
        for i in range(5)
    ]
    tasks = [
        Task(
            id=100 + j,
            location=(rng.uniform(0, 4), rng.uniform(0, 4)),
            start=0.0,
            wait=100.0,
            skill=0,
        )
        for j in range(6)
    ]
    instance = ProblemInstance(workers, tasks, SkillUniverse(1))
    rows = {
        t.id: sorted(rng.sample(range(5), rng.randint(0, 4))) for t in tasks
    }
    return instance, tasks, _ScriptedChecker(rows)


@given(st.integers(0, 10_000_000), st.sampled_from(["hungarian", "hopcroft-karp"]))
@settings(max_examples=50, deadline=None)
def test_warm_matching_replays_the_cold_run_exactly(seed, method):
    rng = random.Random(seed)
    instance, tasks, checker = _matching_universe(rng)
    queries = []
    for _ in range(rng.randint(2, 8)):
        picked = rng.sample(tasks, rng.randint(1, 4))
        free = set(rng.sample(range(5), rng.randint(1, 5)))
        queries.append(([t.id for t in picked], free))
    # Repeat the stream so the memo actually gets warm hits.
    stream = queries * 3
    cold = [
        match_task_set(tids, free, checker, instance, method=method)
        for tids, free in stream
    ]
    memo = MatchMemo()
    warm = [
        match_task_set(tids, free, checker, instance, method=method, memo=memo)
        for tids, free in stream
    ]
    assert warm == cold
    assert len(memo) <= len(queries)  # one entry per distinct query

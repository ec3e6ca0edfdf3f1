"""Instance linting tests."""

import pytest

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.validation import (
    DOOMED_BY_ANCESTOR,
    IDLE_WORKER,
    NO_SKILLED_WORKER,
    NON_FINITE_VALUE,
    UNDEMANDED_SKILL,
    UNPRACTISED_SKILL,
    UNREACHABLE_TASK,
    lint_instance,
    lint_summary,
)
from repro.core.worker import Worker


def build(workers, tasks, n_skills=4):
    return ProblemInstance(
        workers=workers, tasks=tasks, skills=SkillUniverse(n_skills)
    )


def worker(wid, skills, velocity=10.0, max_distance=100.0, wait=100.0):
    return Worker(id=wid, location=(0.0, 0.0), start=0.0, wait=wait,
                  velocity=velocity, max_distance=max_distance,
                  skills=frozenset(skills))


def task(tid, skill, deps=(), location=(1.0, 0.0), wait=100.0):
    return Task(id=tid, location=location, start=0.0, wait=wait, skill=skill,
                dependencies=frozenset(deps))


class TestFindings:
    def test_clean_instance_has_no_findings(self, example1):
        assert lint_instance(example1) == []
        assert lint_summary([]) == "no findings"

    def test_no_skilled_worker(self):
        instance = build([worker(1, {0})], [task(1, skill=1)])
        codes = [f.code for f in lint_instance(instance)]
        assert NO_SKILLED_WORKER in codes
        assert UNPRACTISED_SKILL in codes

    def test_unreachable_task(self):
        # skilled worker exists but cannot cover the distance in time
        instance = build(
            [worker(1, {0}, velocity=0.001, wait=1.0, max_distance=0.1)],
            [task(1, skill=0, location=(50.0, 0.0), wait=1.0)],
        )
        codes = [f.code for f in lint_instance(instance)]
        assert UNREACHABLE_TASK in codes
        assert IDLE_WORKER in codes

    def test_doomed_by_ancestor(self):
        # task 2 is serviceable, but its dependency needs an absent skill
        instance = build(
            [worker(1, {0})],
            [task(1, skill=3), task(2, skill=0, deps={1})],
        )
        findings = lint_instance(instance)
        doomed = [f for f in findings if f.code == DOOMED_BY_ANCESTOR]
        assert [f.subject for f in doomed] == [2]
        assert "[1]" in doomed[0].detail

    def test_deep_doom_propagates(self):
        instance = build(
            [worker(1, {0})],
            [
                task(1, skill=3),
                task(2, skill=0, deps={1}),
                task(3, skill=0, deps={1, 2}),
            ],
        )
        doomed = [f.subject for f in lint_instance(instance)
                  if f.code == DOOMED_BY_ANCESTOR]
        assert doomed == [2, 3]

    def test_undemanded_skill(self):
        instance = build([worker(1, {0, 2})], [task(1, skill=0)])
        codes = {f.code: f.subject for f in lint_instance(instance)}
        assert codes.get(UNDEMANDED_SKILL) == 2

    def test_summary_counts(self):
        instance = build(
            [worker(1, {0})],
            [task(1, skill=3), task(2, skill=0, deps={1})],
        )
        text = lint_summary(lint_instance(instance))
        assert "task-no-skilled-worker: 1" in text
        assert "task-doomed-by-ancestor: 1" in text


class TestNonFinite:
    # Built in memory, bypassing repro.io (which rejects NaN/inf at load).
    def test_nan_and_inf_are_named_by_entity_and_field(self):
        nan, inf = float("nan"), float("inf")
        bad_worker = Worker(id=3, location=(nan, 0.0), start=0.0, wait=10.0,
                            velocity=inf, max_distance=5.0, skills=frozenset({0}))
        bad_task = Task(id=7, location=(1.0, 0.0), start=-inf, wait=10.0,
                        skill=0, duration=nan)
        instance = build([bad_worker, worker(4, {0})], [bad_task, task(8, skill=0)])
        findings = lint_instance(instance)
        assert {f.code for f in findings} == {NON_FINITE_VALUE}
        assert [(f.subject, f.detail) for f in findings] == [
            (3, "worker 3: location[0] is nan"),
            (3, "worker 3: velocity is inf"),
            (7, "task 7: start is -inf"),
            (7, "task 7: duration is nan"),
        ]

    def test_max_distance_and_task_location(self):
        instance = build(
            [worker(1, {0}, max_distance=float("inf"))],
            [task(2, skill=0, location=(0.0, float("nan")))],
        )
        assert [f.detail for f in lint_instance(instance)] == [
            "worker 1: max_distance is inf",
            "task 2: location[1] is nan",
        ]


class TestOnGeneratedData:
    def test_synthetic_instances_lint_cleanly_or_explain_low_scores(self):
        from repro.datagen.synthetic import SyntheticConfig, generate_synthetic

        instance = generate_synthetic(SyntheticConfig(seed=5).scaled(0.02))
        findings = lint_instance(instance)
        # generated data legitimately contains doomed tasks (that is the
        # point of the dependency experiments); the lint must classify every
        # finding with a known code.
        known = {NO_SKILLED_WORKER, UNREACHABLE_TASK, DOOMED_BY_ANCESTOR,
                 IDLE_WORKER, UNPRACTISED_SKILL, UNDEMANDED_SKILL}
        assert {f.code for f in findings} <= known

"""Instance linting: find structurally doomed tasks and idle capacity.

`ProblemInstance` validates hard invariants (ids, skills, acyclicity); this
module reports problems a platform operator would want surfaced before
running allocation:

* NaN or infinite numbers in an instance built in memory (the JSON loader
  rejects them, but the model's range checks are all false for NaN) — an
  error, reported alone because every other check would read the poisoned
  distances and deadlines;
* tasks no worker has the skill for;
* tasks transitively doomed because an ancestor can never be completed;
* tasks no capable worker can physically reach in time (static check);
* workers with no feasible task at all;
* skills nobody practises or nobody requires.

Allocation treats these gracefully (doomed tasks simply never match);
linting exists so data problems surface as diagnostics rather than as
mysteriously low scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.constraints import pair_feasible
from repro.core.instance import ProblemInstance


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic.

    Attributes:
        code: stable machine-readable identifier.
        subject: the task/worker/skill id concerned.
        detail: human-readable explanation.
    """

    code: str
    subject: int
    detail: str


#: Finding codes, in report order.
NON_FINITE_VALUE = "non-finite-value"
NO_SKILLED_WORKER = "task-no-skilled-worker"
UNREACHABLE_TASK = "task-unreachable"
DOOMED_BY_ANCESTOR = "task-doomed-by-ancestor"
IDLE_WORKER = "worker-no-feasible-task"
UNPRACTISED_SKILL = "skill-unpractised"
UNDEMANDED_SKILL = "skill-undemanded"


#: Entity kind -> numeric fields checked for NaN/inf besides ``location``.
_NUMBER_FIELDS = {
    "worker": ("start", "wait", "velocity", "max_distance"),
    "task": ("start", "wait", "duration"),
}


def _non_finite(instance: ProblemInstance) -> List[LintFinding]:
    """One finding per NaN/inf number, worded like ``instance_from_dict``."""
    findings: List[LintFinding] = []
    entities = [("worker", w) for w in instance.workers]
    entities += [("task", t) for t in instance.tasks]
    for kind, entity in entities:
        numbers: List[Tuple[str, float]] = [
            (f"location[{axis}]", v) for axis, v in enumerate(entity.location)
        ]
        numbers += [(name, getattr(entity, name)) for name in _NUMBER_FIELDS[kind]]
        for label, value in numbers:
            if not math.isfinite(value):
                findings.append(
                    LintFinding(
                        NON_FINITE_VALUE,
                        entity.id,
                        f"{kind} {entity.id!r}: {label} is {value!r}",
                    )
                )
    return findings


def lint_instance(instance: ProblemInstance) -> List[LintFinding]:
    """Run every lint over the instance; findings come back grouped by code.

    Non-finite numbers are an error that short-circuits the soft checks:
    their findings come back alone.
    """
    findings = _non_finite(instance)
    if findings:
        return findings
    practised: Set[int] = set()
    for worker in instance.workers:
        practised |= worker.skills
    demanded = {task.skill for task in instance.tasks}

    # Per-task serviceability: someone skilled AND someone who can make it.
    skilled_ok: Dict[int, bool] = {}
    reachable_ok: Dict[int, bool] = {}
    for task in instance.tasks:
        capable = [w for w in instance.workers if task.skill in w.skills]
        skilled_ok[task.id] = bool(capable)
        reachable_ok[task.id] = any(
            pair_feasible(worker, task, instance.metric) for worker in capable
        )
        if not skilled_ok[task.id]:
            findings.append(
                LintFinding(
                    NO_SKILLED_WORKER,
                    task.id,
                    f"task {task.id} requires skill {task.skill} "
                    "which no worker practises",
                )
            )
        elif not reachable_ok[task.id]:
            findings.append(
                LintFinding(
                    UNREACHABLE_TASK,
                    task.id,
                    f"task {task.id} has skilled workers but none can reach "
                    "it within its deadline and their distance budget",
                )
            )

    # Transitive doom: completable iff self-completable and all ancestors are.
    graph = instance.dependency_graph
    completable: Set[int] = set()
    for tid in graph.topological_order():
        self_ok = skilled_ok.get(tid, False) and reachable_ok.get(tid, False)
        deps_ok = all(dep in completable for dep in graph.direct_dependencies(tid))
        if self_ok and deps_ok:
            completable.add(tid)
    for task in instance.tasks:
        if task.id in completable:
            continue
        if skilled_ok[task.id] and reachable_ok[task.id]:
            blocked = sorted(
                dep for dep in graph.ancestors(task.id) if dep not in completable
            )
            findings.append(
                LintFinding(
                    DOOMED_BY_ANCESTOR,
                    task.id,
                    f"task {task.id} is serviceable but ancestors {blocked} "
                    "can never be completed",
                )
            )

    for worker in instance.workers:
        if not any(
            pair_feasible(worker, task, instance.metric) for task in instance.tasks
        ):
            findings.append(
                LintFinding(
                    IDLE_WORKER,
                    worker.id,
                    f"worker {worker.id} has no feasible task "
                    "(skills, reach or timing never line up)",
                )
            )

    for skill in instance.skills:
        if skill in demanded and skill not in practised:
            findings.append(
                LintFinding(
                    UNPRACTISED_SKILL,
                    skill,
                    f"skill {skill} is required by tasks but practised by "
                    "no worker",
                )
            )
        elif skill in practised and skill not in demanded:
            findings.append(
                LintFinding(
                    UNDEMANDED_SKILL,
                    skill,
                    f"skill {skill} is practised but no task requires it",
                )
            )

    order = [
        NO_SKILLED_WORKER,
        UNREACHABLE_TASK,
        DOOMED_BY_ANCESTOR,
        IDLE_WORKER,
        UNPRACTISED_SKILL,
        UNDEMANDED_SKILL,
    ]
    findings.sort(key=lambda f: (order.index(f.code), f.subject))
    return findings


def lint_summary(findings: List[LintFinding]) -> str:
    """One line per finding code with a count."""
    if not findings:
        return "no findings"
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return ", ".join(f"{code}: {count}" for code, count in sorted(counts.items()))

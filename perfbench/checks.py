"""Output checks run on every solve, and the report digest.

A solve counts as failed when any check below finds a problem; the checks
read only the report and the instance it was solved on.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from repro.core.instance import ProblemInstance
from repro.simulation import SimulationReport


def report_problems(instance: ProblemInstance, report: SimulationReport) -> List[str]:
    """Every way ``report`` violates the DA-SC output contract (empty = valid).

    * each assigned task's skill is in its worker's skill set;
    * every dependency of an assigned task is assigned too;
    * assigned and expired tasks partition the task set;
    * ``total_score == len(assignments) == sum(batch scores)``.
    """
    problems: List[str] = []
    assigned = report.assignments
    for task_id, worker_id in sorted(assigned.items()):
        if task_id not in instance.task_ids or worker_id not in instance.worker_ids:
            problems.append(f"pair ({worker_id}, {task_id}) names an unknown id")
            continue
        task = instance.task(task_id)
        if task.skill not in instance.worker(worker_id).skills:
            problems.append(f"task {task_id} needs skill {task.skill}; worker {worker_id} lacks it")
        missing = sorted(task.dependencies - assigned.keys())
        if missing:
            problems.append(f"task {task_id} assigned without its dependencies {missing}")
    expired = report.expired_tasks
    if len(set(expired)) != len(expired):
        problems.append("expired task list has duplicates")
    if set(expired) & assigned.keys():
        problems.append("a task is both assigned and expired")
    if set(expired) | assigned.keys() != instance.task_ids:
        problems.append("assigned and expired tasks do not cover the task set")
    batch_total = sum(record.score for record in report.batches)
    if not report.total_score == len(assigned) == batch_total:
        problems.append(
            f"score mismatch: total {report.total_score}, "
            f"assignments {len(assigned)}, batch sum {batch_total}"
        )
    return problems


def report_digest(report: SimulationReport) -> str:
    """Short hash of the sorted ``task -> worker`` assignments."""
    pairs = sorted(report.assignments.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]

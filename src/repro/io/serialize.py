"""Round-trippable JSON encodings of the core model.

The schema is deliberately flat and explicit so instances can be produced or
consumed by other tooling (the format version is embedded for forward
compatibility).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import get_metric

FORMAT_VERSION = 1

PathLike = Union[str, Path]

#: Scalar number fields per entity kind (``location`` is checked separately).
_NUMBER_FIELDS = {
    "worker": ("start", "wait", "velocity", "max_distance"),
    "task": ("start", "wait", "duration"),
}


def instance_to_dict(instance: ProblemInstance) -> Dict[str, Any]:
    """Encode an instance as a JSON-ready dictionary."""
    return {
        "format": FORMAT_VERSION,
        "name": instance.name,
        "metric": instance.metric.name,
        "skills": {"size": len(instance.skills), "names": instance.skills.names},
        "workers": [
            {
                "id": w.id,
                "location": list(w.location),
                "start": w.start,
                "wait": w.wait,
                "velocity": w.velocity,
                "max_distance": w.max_distance,
                "skills": sorted(w.skills),
            }
            for w in instance.workers
        ],
        "tasks": [
            {
                "id": t.id,
                "location": list(t.location),
                "start": t.start,
                "wait": t.wait,
                "skill": t.skill,
                "dependencies": sorted(t.dependencies),
                "duration": t.duration,
            }
            for t in instance.tasks
        ],
    }


def _require_finite(kind: str, entries: List[Dict[str, Any]]) -> None:
    """Reject a NaN or infinite number, naming the entity and the field.

    The model's range checks (``wait < 0`` and friends) are all false for
    NaN, so without this a NaN slips through and poisons every distance
    and deadline computed from it.  One sum over every number is finite
    exactly when no number is NaN or infinite (barring overflow, which
    only costs the per-field scan below), so valid input pays one pass.
    """
    fields = _NUMBER_FIELDS[kind]
    try:
        total = sum(c for entry in entries for c in entry["location"])
        total += sum(entry.get(name, 0.0) for entry in entries for name in fields)
        if math.isfinite(total):
            return
    except (TypeError, OverflowError):
        pass  # a non-float somewhere; the scan below only judges floats
    for entry in entries:
        numbers = [(f"location[{axis}]", v) for axis, v in enumerate(entry["location"])]
        numbers += [(name, entry[name]) for name in fields if name in entry]
        for label, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{kind} {entry.get('id')!r}: {label} is {value!r}")


def instance_from_dict(data: Dict[str, Any]) -> ProblemInstance:
    """Decode an instance; raises ValueError on schema mismatch or a non-finite number."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format {version!r}")
    skills = SkillUniverse(size=data["skills"]["size"], names=data["skills"]["names"])
    _require_finite("worker", data["workers"])
    _require_finite("task", data["tasks"])
    workers = [
        Worker(
            id=entry["id"],
            location=tuple(entry["location"]),
            start=entry["start"],
            wait=entry["wait"],
            velocity=entry["velocity"],
            max_distance=entry["max_distance"],
            skills=frozenset(entry["skills"]),
        )
        for entry in data["workers"]
    ]
    tasks = [
        Task(
            id=entry["id"],
            location=tuple(entry["location"]),
            start=entry["start"],
            wait=entry["wait"],
            skill=entry["skill"],
            dependencies=frozenset(entry["dependencies"]),
            duration=entry.get("duration", 0.0),
        )
        for entry in data["tasks"]
    ]
    return ProblemInstance(
        workers=workers,
        tasks=tasks,
        skills=skills,
        metric=get_metric(data.get("metric", "euclidean")),
        name=data.get("name", "instance"),
    )


def save_instance(instance: ProblemInstance, path: PathLike) -> None:
    """Write an instance to ``path`` as JSON."""
    Path(path).write_text(json.dumps(instance_to_dict(instance)), encoding="utf-8")


def load_instance(path: PathLike) -> ProblemInstance:
    """Read an instance previously written by :func:`save_instance`."""
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def assignment_to_dict(assignment: Assignment) -> Dict[str, Any]:
    """Encode an assignment as a JSON-ready dictionary."""
    return {
        "format": FORMAT_VERSION,
        "pairs": [[w, t] for w, t in assignment.pairs()],
    }


def assignment_from_dict(data: Dict[str, Any]) -> Assignment:
    """Decode an assignment written by :func:`assignment_to_dict`."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported assignment format {version!r}")
    return Assignment((int(w), int(t)) for w, t in data["pairs"])

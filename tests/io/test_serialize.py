"""JSON persistence tests."""

import json

import pytest

from repro.core.assignment import Assignment
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.io.serialize import (
    assignment_from_dict,
    assignment_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.spatial.distance import ManhattanDistance


class TestInstanceRoundTrip:
    def test_example1_round_trip(self, example1):
        data = instance_to_dict(example1)
        restored = instance_from_dict(data)
        assert restored.name == example1.name
        assert restored.worker_ids == example1.worker_ids
        assert restored.task_ids == example1.task_ids
        for wid in example1.worker_ids:
            assert restored.worker(wid) == example1.worker(wid)
        for tid in example1.task_ids:
            assert restored.task(tid) == example1.task(tid)
        assert restored.metric == example1.metric
        assert restored.skills.names == example1.skills.names

    def test_synthetic_round_trip_via_file(self, tmp_path):
        instance = generate_synthetic(
            SyntheticConfig(num_workers=20, num_tasks=20, skill_universe=5, seed=3)
        )
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        restored = load_instance(path)
        assert restored.workers == instance.workers
        assert restored.tasks == instance.tasks

    def test_json_is_plain(self, example1, tmp_path):
        path = tmp_path / "i.json"
        save_instance(example1, path)
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert len(data["workers"]) == 3

    def test_metric_preserved(self, example1):
        example1.metric = ManhattanDistance()
        restored = instance_from_dict(instance_to_dict(example1))
        assert restored.metric == ManhattanDistance()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported instance format"):
            instance_from_dict({"format": 99})

    def test_duration_default(self, example1):
        data = instance_to_dict(example1)
        for task in data["tasks"]:
            task.pop("duration")
        restored = instance_from_dict(data)
        assert all(t.duration == 0.0 for t in restored.tasks)


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("workers", "location", [float("nan"), 0.5], r"worker \d+: location\[0\] is nan"),
            ("workers", "velocity", float("nan"), r"worker \d+: velocity is nan"),
            ("workers", "max_distance", float("inf"), r"worker \d+: max_distance is inf"),
            ("tasks", "location", [0.5, float("-inf")], r"task \d+: location\[1\] is -inf"),
            ("tasks", "wait", float("nan"), r"task \d+: wait is nan"),
            ("tasks", "duration", float("nan"), r"task \d+: duration is nan"),
        ],
        ids=[
            "worker-location", "worker-velocity", "worker-max_distance",
            "task-location", "task-wait", "task-duration",
        ],
    )
    def test_names_entity_and_field(self, example1, kind, field, value, message):
        data = instance_to_dict(example1)
        data[kind][0][field] = value
        with pytest.raises(ValueError, match=message):
            instance_from_dict(data)

    def test_nan_survives_json_and_is_rejected_on_load(self, example1, tmp_path):
        path = tmp_path / "nan.json"
        data = instance_to_dict(example1)
        data["tasks"][0]["start"] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="start is nan"):
            load_instance(path)


class TestAssignmentRoundTrip:
    def test_round_trip(self):
        assignment = Assignment([(1, 10), (2, 20)])
        restored = assignment_from_dict(assignment_to_dict(assignment))
        assert restored == assignment

    def test_empty(self):
        assert assignment_from_dict(assignment_to_dict(Assignment())).score == 0

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported assignment format"):
            assignment_from_dict({"format": 0, "pairs": []})

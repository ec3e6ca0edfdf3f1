"""The benchmark's own tests: tiny-scale smoke runs and the output checks.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run as bench
from checks import report_problems
from ledger import LAYER_METRICS, span_times, traced
from workloads import WORKLOADS

from repro import Platform, make_allocator
from repro.core.dependency import DependencyGraph
from repro.obs.trace import Tracer

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


def _tiny(name: str, trace: int) -> dict:
    """One lap over a run's panel at 5% of the benchmark's population."""
    run = bench.Run(WORKLOADS[name], 0.05)
    run.warm_up()
    measure = bench.per_layer if trace else bench.end_to_end
    values, _ = measure(run, 0.0, 2)
    return run.result(values)


def test_spec_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_emits_every_metric_and_passes_the_checks(workload, trace):
    result = _tiny(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _solved(seed: int = 3):
    instance = WORKLOADS["table5"].generate(seed, 0.05)
    report = Platform(instance, make_allocator("Greedy"), batch_interval=5.0).run()
    assert report.assignments and report_problems(instance, report) == []
    return instance, report


def test_skill_mismatch_is_reported():
    instance, report = _solved()
    task_id = next(iter(report.assignments))
    skill = instance.task(task_id).skill
    report.assignments[task_id] = next(w.id for w in instance.workers if skill not in w.skills)
    assert any("lacks it" in p for p in report_problems(instance, report))


def test_dropped_dependency_is_reported():
    instance, report = _solved()
    dependent = next(
        t for t in instance.tasks if t.id in report.assignments and t.dependencies
    )
    for dep in dependent.dependencies:
        del report.assignments[dep]
    problems = report_problems(instance, report)
    assert any("without its dependencies" in p for p in problems)
    assert any("score mismatch" in p for p in problems)


def test_a_corrupted_report_counts_as_a_failed_operation(monkeypatch):
    class SkillCorruptingPlatform(Platform):
        def run(self):
            report = super().run()
            task = self.instance.tasks[0]
            wrong = next(w for w in self.instance.workers if task.skill not in w.skills)
            report.assignments[task.id] = wrong.id
            return report

    monkeypatch.setattr(bench, "Platform", SkillCorruptingPlatform)
    result = _tiny("burst", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_trace_wrappers_are_removed_afterwards():
    original = DependencyGraph.influence_set
    with traced(Tracer()):
        assert DependencyGraph.influence_set is not original
    assert DependencyGraph.influence_set is original


def test_self_time_skips_platform_spans():
    tracer = Tracer()
    with tracer.span("simulation"):
        with tracer.span("platform.batch"):
            with tracer.span("alloc.Game") as alloc:
                with tracer.span("alloc.game.round"):
                    with tracer.span("dependency.influence") as influence:
                        pass
    simulation = tracer.finished[-1]
    inclusive, own, calls = span_times(tracer.finished)
    assert set(inclusive) == {"simulation", "alloc.Game", "dependency.influence"}
    assert own["simulation"] == pytest.approx(simulation.duration - alloc.duration)
    assert own["alloc.Game"] == pytest.approx(alloc.duration - influence.duration)
    assert calls["dependency.influence"] == 1

import json
from pathlib import Path

import pytest

from perfbench import report, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def suite():
    from repro import build_bird_like

    return build_bird_like()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
class TestInputs:
    def test_same_seed_gives_identical_bytes(self, suite, workload):
        first = workloads.make_inputs(workload, 3, suite).fingerprint()
        second = workloads.make_inputs(workload, 3, suite).fingerprint()
        assert first == second

    def test_other_seed_gives_other_inputs(self, suite, workload):
        first = workloads.make_inputs(workload, 3, suite).fingerprint()
        other = workloads.make_inputs(workload, 4, suite).fingerprint()
        assert first != other


def test_each_cold_pass_is_every_dev_and_test_question_once(suite):
    inputs = workloads.make_inputs("cold_unique", 0, suite)
    expected = {e.question_id for e in list(suite.dev) + list(suite.test)}
    assert inputs.pass_length == inputs.accounted_stream == len(expected)
    assert len(inputs.stream) == workloads.COLD_PASSES * len(expected)
    passes = [[e.question_id for e in inputs.stream[i:i + inputs.pass_length]]
              for i in range(0, len(inputs.stream), inputs.pass_length)]
    for ids in passes:
        assert len(ids) == len(set(ids)) and set(ids) == expected
    assert passes[0] != passes[1]
    assert not {e.question_id for e in inputs.warmup} & expected


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(report.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(
        report.per_layer_units().items()
    )

"""Every workload and metric in BENCHMARK.json has its notes, and back."""

from perfbench import catalog
from perfbench.workloads import WORKLOADS


def test_benchmark_json_keeps_exactly_its_contract_keys():
    assert set(catalog.SPEC) == {"command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"}


def test_every_workload_is_described_and_implemented():
    names = [w["name"] for w in catalog.SPEC["workloads"]]
    assert sorted(names) == sorted(catalog.WORKLOAD_NOTES)
    assert sorted(names) == sorted(WORKLOADS)


def test_every_metric_has_notes_and_no_note_is_stale():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(catalog.METRIC_NOTES)
    e2e = {m.name for m in catalog.END_TO_END}
    workloads = {w.name for w in catalog.WORKLOADS}
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert metric.kind in ("host", "simulated", "count")
        assert metric.better in ("lower", "higher")
        for moved, workload in metric.moves:
            assert moved in e2e and workload in workloads
    for metric in catalog.END_TO_END:
        assert 0 < metric.bound <= 0.25
    assert max(m.bound for m in catalog.END_TO_END) == \
        catalog.BY_NAME["setup_s"].bound

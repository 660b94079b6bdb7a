"""Results made with different settings are never compared."""

import json

import pytest

from perfbench import compare
from perfbench.bench import settings_of


def _result(wall, **changes):
    settings = settings_of("cases-atropos", 1, 30.0, False, {"cases": ["c1"]})
    settings.update(changes)
    return {"settings": settings,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "sim_goodput_per_s": {"value": 100.0,
                                              "unit": "1/s"}}}


@pytest.mark.parametrize("key, value", [
    ("seed", 2), ("trace", True), ("seconds", 10.0), ("nproc", 64),
    ("python", "0.0"), ("bench_code", "0" * 64),
    ("params", {"cases": ["c2"]}), ("workload", "cluster-epoch"),
])
def test_mismatched_settings_are_refused(key, value):
    with pytest.raises(compare.SettingsMismatch, match=key):
        compare.compare(_result(1.0), _result(1.0, **{key: value}))


def test_matching_settings_compare_against_the_bound():
    rows = {r["name"]: r for r in compare.compare(_result(1.0),
                                                  _result(1.3))}
    assert rows["wall_s"]["verdict"] == "WORSE"
    assert rows["sim_goodput_per_s"]["verdict"] == "same"
    rows = {r["name"]: r for r in compare.compare(_result(1.0),
                                                  _result(0.9))}
    assert rows["wall_s"]["verdict"] == "better"


def test_a_base_of_zero_still_gives_a_verdict():
    def result(wall, goodput):
        out = _result(wall)
        out["metrics"]["sim_goodput_per_s"]["value"] = goodput
        return out

    rows = {r["name"]: r for r in compare.compare(result(0.0, 0.0),
                                                  result(2.0, 3.0))}
    assert rows["wall_s"]["verdict"] == "WORSE"
    assert rows["sim_goodput_per_s"]["verdict"] == "better"
    rows = {r["name"]: r for r in compare.compare(result(0.0, 0.0),
                                                  result(0.0, 0.0))}
    assert rows["wall_s"]["verdict"] == "same"


def test_cli_exits_2_on_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(1.0)))
    b.write_text(json.dumps(_result(1.0, seed=9)))
    assert compare.main([str(a), str(b)]) == 2
    assert "refusing" in capsys.readouterr().err
    assert compare.main([str(a), str(a)]) == 0

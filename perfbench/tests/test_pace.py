"""Pacing scales each call by the median of the readings around it."""

import gc

import pytest

from perfbench import pace


def test_pacer_reads_before_the_first_call_and_after_each(monkeypatch):
    readings = iter([0.02, 0.03, 0.05])
    monkeypatch.setattr(pace, "reference_s", lambda: next(readings))
    clock = iter([10.0, 10.5, 20.0, 21.0])
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(clock))
    pacer = pace.Pacer()

    assert pacer.call(lambda: "first") == ("first", 0.5)
    assert pacer.call(lambda: None) == (None, 1.0)
    assert pacer.readings == [0.02, 0.03, 0.05]


def test_each_call_is_paced_by_the_median_of_its_window(monkeypatch):
    monkeypatch.setattr(pace, "WINDOW", 2)
    readings = [0.02, 0.04, 0.03, 0.05, 0.01]
    raw = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    out = pace.paced(raw, readings)
    assert list(out) == list(raw)
    # Call i ran between readings i and i + 1; the window holds WINDOW
    # readings on each side of it, cut at the ends.
    assert out["a"] == 1.0 * pace.REF_S / 0.03  # 0.02 0.04 0.03
    assert out["b"] == 2.0 * pace.REF_S / 0.035  # 0.02 0.04 0.03 0.05
    assert out["c"] == 3.0 * pace.REF_S / 0.035  # 0.04 0.03 0.05 0.01
    assert out["d"] == 4.0 * pace.REF_S / 0.03  # 0.03 0.05 0.01
    with pytest.raises(ValueError):
        pace.paced(raw, readings[:-1])


def test_reference_kernel_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert pace.reference_s() > 0
    assert gc.isenabled()

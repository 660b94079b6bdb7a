"""Span arithmetic and the install/restore contract of the wrappers."""

import multiprocessing

import numpy as np
import pytest

from perfbench import spans
from perfbench.spans import SpanTable, Target, self_times


def test_self_time_subtracts_direct_children():
    # 0: root [0, 100]
    #    1: child [10, 40] with grandchildren 3 [15, 20] and 4 [25, 35]
    #    2: child [50, 90] with grandchild 5 [60, 61]
    # 6: a second root [100, 130] with child 7 [105, 110]
    start = [0, 10, 50, 15, 25, 60, 100, 105]
    end = [100, 40, 90, 20, 35, 61, 130, 110]
    parent = [-1, 0, 0, 1, 1, 2, -1, 6]
    got = self_times(np.array(start), np.array(end), np.array(parent))
    assert got.tolist() == [30, 15, 39, 5, 10, 1, 25, 5]
    # Self times partition each root's duration.
    assert got[:6].sum() == 100 and got[6:].sum() == 30


def _table(names, rows):
    cols = list(zip(*rows))
    arr = [np.array(c, dtype=np.int64) for c in cols]
    n = len(rows)
    return SpanTable(list(names), arr[0], arr[1], arr[2], arr[3],
                     np.zeros(n, np.int64), np.zeros(n, np.int64),
                     np.zeros(n, np.int64), ["-"])


def test_inclusive_time_counts_recursion_once():
    # a [0, 10] contains a [2, 6] (recursive call) and b [6, 9]
    t = _table(["a", "b"], [(0, 10, 0, -1), (2, 6, 0, 0), (6, 9, 1, 0)])
    assert t.inclusive_s(("a",)) == pytest.approx(10e-9)
    assert t.calls(("a",)) == 2
    assert t.self_s(("a",)) == pytest.approx((10 - 4 - 3 + 4) * 1e-9)
    assert t.ancestor_mask(("a",)).tolist() == [False, True, True]


class _Thing:
    def work(self, x):
        return x + 1

    def fail(self):
        raise KeyError("boom")

    def gen(self):
        yield 1


def _targets():
    mod = __name__
    return [Target("thing.work", mod, "_Thing.work"),
            Target("thing.fail", mod, "_Thing.fail")]


def test_install_records_and_restore_puts_originals_back(tmp_path):
    originals = dict(vars(_Thing))
    installed = spans.install(_targets(), tmp_path / "spill")
    try:
        assert vars(_Thing)["work"] is not originals["work"]
        assert _Thing().work(1) == 2
        with pytest.raises(KeyError):
            _Thing().fail()
        table = installed.recorder.collect()
    finally:
        installed.restore()
    for attr in ("work", "fail"):
        assert vars(_Thing)[attr] is originals[attr]
    assert table.calls(("thing.work",)) == 1
    assert table.calls(("thing.fail",)) == 1
    assert (table.end >= table.start).all()
    # A second installation is possible once the first is restored.
    spans.install(_targets(), tmp_path / "spill").restore()


def test_module_functions_are_patched_everywhere_and_restored(tmp_path):
    from repro import cluster
    from repro.cluster import fleet

    original = fleet.run_fleet
    installed = spans.install(
        [Target("cluster.run", "repro.cluster.fleet", "run_fleet")],
        tmp_path / "spill")
    try:
        assert cluster.run_fleet is fleet.run_fleet
        assert cluster.run_fleet is not original
    finally:
        installed.restore()
    assert cluster.run_fleet is original and fleet.run_fleet is original


def test_missing_or_generator_targets_are_errors(tmp_path):
    before = dict(vars(_Thing))
    with pytest.raises(AttributeError):
        spans.install(_targets() + [Target("x", __name__, "_Thing.nope")],
                      tmp_path)
    with pytest.raises(TypeError):
        spans.install(_targets() + [Target("x", __name__, "_Thing.gen")],
                      tmp_path)
    assert dict(vars(_Thing)) == before
    spans.install(_targets(), tmp_path).restore()


def _child_work():
    _Thing().work(41)


def test_fork_children_spill_their_spans(tmp_path):
    installed = spans.install(_targets(), tmp_path / "spill")
    try:
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_child_work)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
        _Thing().work(1)
        table = installed.recorder.collect()
    finally:
        installed.restore()
    assert table.calls(("thing.work",)) == 2
    assert sorted(table.proc.tolist()) == [0, 1]

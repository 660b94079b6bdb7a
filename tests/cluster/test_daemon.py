"""Sharded runs requested inside a daemonic process fall back to serial.

Campaign pool workers are daemonic, and a daemonic process may not start
children.  ``run_fleet`` and ``run_dag`` asked for ``jobs > 1`` there
must run serially and return the serial bytes, not raise.
"""

import multiprocessing

import pytest

from repro.cluster import demo_fleet, run_dag, run_fleet
from repro.workloads.dag import dag_storm

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the daemonic worker is fork-started",
)


def _fleet_spec():
    return demo_fleet(3, duration=4.0, warmup=1.0, mode="coordinated")


def _dag_spec():
    return dag_storm(2, duration=4.0, warmup=1.0)


def _sharded_in_daemon(conn):  # pragma: no cover - runs in the child
    out = {}
    for name, run in (
        ("fleet", lambda: run_fleet(_fleet_spec(), jobs=2)),
        ("dag", lambda: run_dag(_dag_spec(), "atropos", jobs=2)),
    ):
        try:
            out[name] = run().digest()
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    conn.send(out)
    conn.close()


@needs_fork
def test_sharded_runs_in_daemonic_process_return_serial_bytes():
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_sharded_in_daemon, args=(child,), daemon=True)
    proc.start()
    child.close()
    assert parent.poll(120), "daemonic worker produced no result"
    got = parent.recv()
    proc.join(timeout=10)
    assert got == {
        "fleet": run_fleet(_fleet_spec(), jobs=1).digest(),
        "dag": run_dag(_dag_spec(), "atropos", jobs=1).digest(),
    }

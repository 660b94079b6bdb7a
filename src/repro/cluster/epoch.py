"""The epoch engine: the one drive loop under the fleet and the mesh.

Both cluster tiers share one execution model, the key to serial ==
sharded byte parity: within an epoch every node advances independently
on inputs fixed at the epoch start, and cross-node coupling happens only
at epoch boundaries, through picklable values.  A node's trajectory is
therefore a pure function of the spec and its boundary inputs.

A *planner* owns everything that crosses nodes (the fleet's balancer
and coordinator, the mesh's request DAG and tower).  Each epoch the
engine asks it for every node's inputs, advances every node to the
epoch end, and hands the statuses back; after the last epoch the
planner turns the nodes' final reports into the run result.  Nodes run
either in this process or sharded round-robin across persistent
fork-started workers (one round-trip per epoch per shard); the node code
is the same either way, and so are the bytes.
"""

from __future__ import annotations

import math
import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence


def epoch_count(horizon: float, epoch: float) -> int:
    """Number of epochs covering ``[0, horizon]`` (last may be short)."""
    return max(1, math.ceil(horizon / epoch - 1e-9))


def epoch_end(index: int, horizon: float, epoch: float) -> float:
    return min(horizon, (index + 1) * epoch)


class _Nodes:
    """The nodes one process owns; results come back in ``indices`` order."""

    def __init__(self, make_node: Callable[[int], Any],
                 indices: Sequence[int]) -> None:
        self.nodes = [(index, make_node(index)) for index in indices]

    def advance(self, epoch, t_end, inputs) -> List[Any]:
        return [
            node.advance(epoch, t_end, *inputs[index])
            for index, node in self.nodes
        ]

    def finish(self) -> List[Dict[str, Any]]:
        return [node.finish() for _, node in self.nodes]

    def close(self) -> None:
        pass


def _shard_worker(make_node, indices, conn):  # pragma: no cover - subprocess
    """Persistent shard process: owns a subset of the run's nodes."""
    nodes = _Nodes(make_node, indices)
    try:
        while True:
            message = conn.recv()
            if message[0] == "advance":
                conn.send(nodes.advance(*message[1:]))
            elif message[0] == "finish":
                conn.send(nodes.finish())
            else:
                break
    finally:
        conn.close()


class _ShardPool:
    """Fork-started shard processes driven over pipes."""

    def __init__(self, make_node: Callable[[int], Any], n_nodes: int,
                 shards: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.assignments = [
            list(range(shard, n_nodes, shards)) for shard in range(shards)
        ]
        self.pipes = []
        self.procs = []
        for indices in self.assignments:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker, args=(make_node, indices, child)
            )
            proc.daemon = True
            proc.start()
            child.close()
            self.pipes.append(parent)
            self.procs.append(proc)

    def advance(self, epoch, t_end, inputs) -> List[Any]:
        for pipe, indices in zip(self.pipes, self.assignments):
            shard_inputs = {index: inputs[index] for index in indices}
            pipe.send(("advance", epoch, t_end, shard_inputs))
        return self._gather()

    def finish(self) -> List[Dict[str, Any]]:
        for pipe in self.pipes:
            pipe.send(("finish",))
        return self._gather()

    def _gather(self) -> List[Any]:
        """Every shard's reply, merged back into node order."""
        merged: Dict[int, Any] = {}
        for pipe, indices in zip(self.pipes, self.assignments):
            merged.update(zip(indices, pipe.recv()))
        return [merged[index] for index in sorted(merged)]

    def close(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.send(("stop",))
                pipe.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


def _shard_count(n_nodes: int, jobs: Optional[int]) -> int:
    """Shards for this run; 1 means serial, in this process.

    ``jobs`` defaults to the campaign worker-pool settings
    (:func:`repro.campaign.settings` overlays / ``REPRO_JOBS``), capped
    at one shard per node.  Platforms without the fork start method, and
    daemonic processes (campaign pool workers), which may not start
    children, run serially.
    """
    from ..campaign import current_settings

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(current_settings(jobs=jobs).jobs, n_nodes)


def run_epochs(spec, planner, make_node: Callable[[int], Any],
               n_nodes: int, jobs: Optional[int] = None) -> Any:
    """Drive ``planner`` and nodes ``make_node(0..n_nodes-1)`` through
    every epoch of ``spec``; serial or sharded, same bytes.

    Each epoch, ``planner.plan(epoch, t_end)`` gives every node's inputs
    (indexed by node: a ``(work, directives)`` pair passed to
    ``node.advance(epoch, t_end, work, directives)``) and
    ``planner.fold(epoch, t_end, statuses)`` takes the statuses back in
    node order.  The result is ``planner.finish(reports)`` over the
    nodes' ``finish()`` reports.
    """
    shards = _shard_count(n_nodes, jobs)
    nodes = (
        _ShardPool(make_node, n_nodes, shards) if shards > 1
        else _Nodes(make_node, range(n_nodes))
    )
    try:
        for epoch in range(spec.epoch_count()):
            t_end = spec.epoch_end(epoch)
            inputs = planner.plan(epoch, t_end)
            planner.fold(epoch, t_end, nodes.advance(epoch, t_end, inputs))
        return planner.finish(nodes.finish())
    finally:
        nodes.close()

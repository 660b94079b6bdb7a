"""One epoch-advanced app simulation: the node stack of both tiers.

:class:`EpochNode` is a complete single-node simulation (exactly the
stack :func:`repro.experiments.harness.run_simulation` assembles: sim
environment, backend app, controller, driver, metrics) behind the
epoch engine's node contract (:mod:`repro.cluster.epoch`): ``advance``
runs the environment to the epoch end on the epoch's inputs and returns
a picklable status, ``finish`` returns the end-of-run report.  Because a
node never touches another node's state mid-epoch, the same calls give
byte-identical results whether nodes live in one process or are sharded
across workers.  A fleet node is a :class:`ClusterNode`; a mesh service
is a :class:`~repro.cluster.mesh.ServiceNode`.

Backend-neutral ops (``point``/``write``/``scan``/``fanout_scan``, plus
the fleet's ``heavy_report``) are registered as *alias handlers* that
dispatch to the backend's native handlers, so request records,
candidate evidence, and cancel signals all carry the neutral op names
the coordinator and the mesh aggregate by.

Directive delivery reuses :mod:`repro.core.distributed`: each cancel
directive builds a :class:`~repro.core.distributed.TaskTree` over the
node's matching live tasks and propagates with per-hop delay; a
partitioned node (spec ``partitions``) defers the directive and retries
it on later epochs, and tasks another path already cancelled count as
delivered (``already-cancelling``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..apps.base import Operation
from ..apps.mysql import MySQL, MySQLConfig
from ..apps.postgres import PostgreSQL, PostgresConfig
from ..baselines import controller_factory
from ..core.distributed import Node as DistNode
from ..core.distributed import TaskTree
from ..core.task import CancellableTask
from ..core.types import CancelSignal
from ..sim.environment import Environment
from ..sim.metrics import MetricsCollector, Summary, percentile
from ..sim.rng import Rng
from ..workloads.driver import Driver
from .directives import CANCEL, Directive
from .spec import FleetSpec, NodeSpec

#: Arrival tuple crossing the LB -> node boundary (picklable).
#: ``(time, op, params, client_id)``.
Arrival = tuple


@dataclass
class NodeStatus:
    """One node's epoch-end snapshot (crosses shard-process pipes)."""

    node: str
    backend: str
    epoch: int
    t: float
    outstanding: int = 0
    offered_window: int = 0
    completed_window: int = 0
    cancelled_window: int = 0
    dropped_window: int = 0
    completions_by_op: Dict[str, int] = field(default_factory=dict)
    #: Latencies of completed victim ("point") requests this window.
    victim_latencies: List[float] = field(default_factory=list)
    p99_window: float = float("nan")
    goodput_window: float = 0.0
    #: Contention-weighted candidate scores by op (the audit
    #: scalarization of §3.5, summed over live tasks), from the node's
    #: most recent overload assessment.
    candidates: Dict[str, float] = field(default_factory=dict)
    #: Normalized contention per resource from the same assessment.
    blame: Dict[str, float] = field(default_factory=dict)
    #: Ops cancelled by the node's *local* pipeline this window.
    local_cancelled_ops: List[str] = field(default_factory=list)
    #: Tasks cancelled by coordinator directives this window.
    directive_cancels_window: int = 0
    #: Directives still pending delivery (node partitioned).
    directives_deferred: int = 0
    #: DAGOR feedback: highest op priority value the node admits.
    admit_priority: int = 99


def _mysql(env, controller, rng, spec):
    """A MySQL app and its neutral-op table."""
    app = MySQL(
        env,
        controller,
        rng,
        MySQLConfig(
            tables=spec.tables,
            pages_per_light_op=spec.mysql_pages_per_light_op,
            miss_penalty=spec.mysql_miss_penalty,
        ),
    )

    def point(task, table=0):
        yield from app.point_select(task, table=table)

    def write(task, table=0):
        yield from app.row_update(task, table=table)

    def scan(task, rows=0.0):
        yield from app.scan(task, table=0, rows=rows)

    return app, {"point": point, "write": write, "scan": scan,
                 "fanout_scan": scan}


def _postgres(env, controller, rng, spec):
    """A PostgreSQL app and its neutral-op table."""
    app = PostgreSQL(env, controller, rng, PostgresConfig(tables=spec.tables))

    def point(task, table=0):
        yield from app.select(task, table=table)

    def write(task, table=0):
        yield from app.update(task, table=table)

    def scan(task, rows=0.0):
        yield from app.vacuum(task, total_bytes=rows * spec.pg_bytes_per_row)

    return app, {"point": point, "write": write, "scan": scan,
                 "fanout_scan": scan}


#: Backend name -> builder of its app and neutral-op table.
_BACKENDS = {"mysql": _mysql, "postgres": _postgres}


class EpochNode:
    """The node stack both tiers share; subclasses add ``advance``.

    ``spec`` is a :class:`FleetSpec` or a
    :class:`~repro.workloads.dag.DagSpec` and ``member`` its
    :class:`NodeSpec` or :class:`~repro.workloads.dag.ServiceSpec` (each
    pair carries the fields read here).  The node's random stream forks
    from the spec seed as ``<tier>:<name>``; ``make_controller`` builds
    its controller, started unless ``start`` is false.
    """

    def __init__(self, spec, member, index: int, tier: str,
                 make_controller: Callable, start: bool) -> None:
        self.spec = spec
        self.index = index
        self.name = member.name
        self.backend = member.backend
        self.env = Environment()
        rng = Rng(spec.seed).fork(f"{tier}:{self.name}")
        self.controller = make_controller(self.env)
        self.app, ops = _BACKENDS[self.backend](self.env, self.controller,
                                                rng, spec)
        for op, handler in ops.items():
            self.app.register_handler(op, handler)
        self.controller.bind(self.app)
        if start:
            self.controller.start()
        self.collector = MetricsCollector()
        self.driver = Driver(self.env, self.app, self.controller, self.collector)
        # Window bookkeeping for status diffs.
        self._record_idx = 0
        self._offered_last = 0

    def _make_op(self, op: str, params: Dict[str, Any]):
        def factory(op=op, params=params):
            return Operation(op, dict(params))

        return factory

    def _take_window(self):
        """Records finished and arrivals offered since the last call."""
        records = self.collector.records
        window = records[self._record_idx:]
        self._record_idx = len(records)
        offered_window = self.collector.offered - self._offered_last
        self._offered_last = self.collector.offered
        return window, offered_window

    def _report(self, role: str, horizon: float,
                **extras: Any) -> Dict[str, Any]:
        """End-of-run report over post-warmup records, then ``extras``."""
        warmup = self.spec.warmup
        summary = Summary.from_collector(
            self.collector.trimmed(warmup), horizon - warmup
        )
        return {
            role: self.name,
            "backend": self.backend,
            "throughput": summary.throughput,
            "p99_latency": summary.p99_latency,
            "completed": summary.completed,
            "cancelled": summary.cancelled,
            "dropped": summary.dropped,
            **extras,
        }


class ClusterNode(EpochNode):
    """One fleet app node, advanced epoch by epoch."""

    def __init__(
        self, spec: FleetSpec, node_spec: NodeSpec, index: int
    ) -> None:
        super().__init__(
            spec,
            node_spec,
            index,
            "cluster",
            controller_factory(
                "atropos",
                spec.slo_latency,
                {"cancellation_enabled": spec.mode == "local"},
            ),
            start=spec.mode != "none",
        )
        self.app.register_handler("heavy_report", self._heavy_report)
        #: Reachability handle for the coordinator's failure model.
        self.dist_node = DistNode(self.name)
        #: Directives awaiting delivery (node was partitioned).
        self.pending_directives: List[Directive] = []
        #: Tasks cancelled through coordinator directives (total).
        self.directive_cancels = 0
        #: Ops those directive cancels targeted, in delivery order.
        self.directive_cancelled_ops: List[str] = []
        self._directive_seq = 0
        self._cancel_log_idx = 0
        self._directive_cancels_last = 0

    def _heavy_report(self, task):
        """The decoy culprit: a big single-node holder."""
        spec = self.spec
        if self.backend == "mysql":
            yield from self.app.report_query(
                task, pages=spec.report_pages, duration=spec.report_duration
            )
        else:
            yield from self.app.bulk_update(
                task, table=0, rows=spec.report_rows
            )

    # ------------------------------------------------------------------
    # Epoch advance
    # ------------------------------------------------------------------
    def advance(
        self,
        epoch: int,
        t_end: float,
        arrivals: List[Arrival],
        directives: List[Directive],
    ) -> NodeStatus:
        """Run this node's environment to ``t_end`` and snapshot it."""
        self._apply_partition_schedule(self.env.now)
        if directives:
            self.pending_directives.extend(directives)
        if self.pending_directives and self.dist_node.reachable:
            due = self.pending_directives
            self.pending_directives = []
            for directive in due:
                self.env.process(self._apply_directive(directive))
        if arrivals:
            by_client: Dict[str, List] = {}
            for t, op, params, client in arrivals:
                by_client.setdefault(client, []).append(
                    (t, self._make_op(op, params))
                )
            for client, entries in by_client.items():
                self.driver.run_arrivals(entries, client_id=client)
        self.env.run(until=t_end)
        return self._status(epoch, t_end)

    def _apply_partition_schedule(self, now: float) -> None:
        partitioned = any(
            node == self.name and start <= now < end
            for node, start, end in self.spec.partitions
        )
        if partitioned and not self.dist_node.partitioned:
            self.dist_node.partition()
        elif not partitioned and self.dist_node.partitioned:
            self.dist_node.heal()

    def _apply_directive(self, directive: Directive):
        """Process generator: deliver one cancel directive via TaskTree."""
        if directive.kind != CANCEL:
            return
        targets = [
            task
            for task in self.controller.live_tasks()
            if task.op_name == directive.op and task.cancellable
        ]
        if not targets:
            return
        self._directive_seq += 1
        root = CancellableTask(
            self.env,
            key=f"{self.name}:directive:{self._directive_seq}",
            op_name="cluster-directive",
            client_id="coordinator",
            cancellable=False,
        )
        tree = TaskTree(
            self.env, root, propagation_delay=self.spec.directive_delay
        )
        for task in targets:
            tree.add_child(task, self.dist_node)
        signal = CancelSignal(
            reason=f"cluster-directive:{directive.op}",
            decided_at=self.env.now,
        )
        deliveries = yield from tree.cancel_all(signal)
        self._count_directive_deliveries(deliveries, directive.op)
        if tree.undelivered():
            yield self.env.timeout(self.spec.directive_delay)
            retried = yield from tree.retry_undelivered(signal)
            self._count_directive_deliveries(retried, directive.op)

    def _count_directive_deliveries(self, deliveries, op: str) -> None:
        fresh = sum(1 for d in deliveries if d.delivered and not d.reason)
        self.directive_cancels += fresh
        self.directive_cancelled_ops.extend([op] * fresh)

    # ------------------------------------------------------------------
    # Status snapshot
    # ------------------------------------------------------------------
    def _status(self, epoch: int, t_end: float) -> NodeStatus:
        spec = self.spec
        window, offered_window = self._take_window()
        status = NodeStatus(
            node=self.name,
            backend=self.backend,
            epoch=epoch,
            t=t_end,
            outstanding=self.driver.inflight,
            offered_window=offered_window,
        )
        window_len = max(spec.epoch, 1e-9)
        good = 0
        for record in window:
            if record.completed:
                status.completed_window += 1
                status.completions_by_op[record.op_name] = (
                    status.completions_by_op.get(record.op_name, 0) + 1
                )
                if record.op_name == "point":
                    status.victim_latencies.append(record.latency)
                if record.latency <= spec.slo_latency:
                    good += 1
            elif record.status.value == "cancelled":
                status.cancelled_window += 1
            else:
                status.dropped_window += 1
        status.goodput_window = good / window_len
        if status.victim_latencies:
            status.p99_window = percentile(status.victim_latencies, 99)
        self._fill_candidates(status)
        log = self.controller.cancellation.log
        status.local_cancelled_ops = [
            entry.op_name
            for entry in log[self._cancel_log_idx:]
            if getattr(entry, "delivered", True)
        ]
        self._cancel_log_idx = len(log)
        status.directive_cancels_window = (
            self.directive_cancels - self._directive_cancels_last
        )
        self._directive_cancels_last = self.directive_cancels
        status.directives_deferred = len(self.pending_directives)
        status.admit_priority = self._admit_priority(status)
        return status

    def _fill_candidates(self, status: NodeStatus) -> None:
        """Report the audit scalarization of the latest assessment.

        Only live tasks count (a finished culprit frees nothing), and
        only while the node still sees meaningful contention -- a stale
        assessment from a recovered node must not keep accusing ops.
        """
        assessment = self.controller.last_assessment
        if assessment is None:
            return
        threshold = self.controller.config.contention_threshold
        blame = assessment.blame_scores()
        if max(blame.values(), default=0.0) < 0.5 * threshold:
            return
        status.blame = dict(blame)
        weights = {
            r.resource: r.contention_norm for r in assessment.resources
        }
        for report in assessment.tasks:
            task = report.task
            if not task.alive:
                continue
            score = sum(
                weights.get(resource, 0.0) * gain
                for resource, gain in report.gains.items()
            )
            if score > 0.0:
                status.candidates[task.op_name] = (
                    status.candidates.get(task.op_name, 0.0) + score
                )

    def _admit_priority(self, status: NodeStatus) -> int:
        """DAGOR feedback: tighten admission as the window p99 degrades."""
        spec = self.spec
        p99 = status.p99_window
        if p99 != p99:  # no victim completions: stay open
            return 99
        if p99 > 2.0 * spec.slo_latency:
            return 1  # only point + write
        if p99 > spec.slo_latency * spec.slo_slack:
            return 2  # shed fanout_scan
        return 99

    # ------------------------------------------------------------------
    # Final report
    # ------------------------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Per-node end-of-run report (picklable)."""
        log = self.controller.cancellation.log
        return self._report(
            "node",
            self.spec.duration,
            local_cancels=int(self.controller.cancels_issued),
            local_cancelled_ops=[
                entry.op_name
                for entry in log
                if getattr(entry, "delivered", True)
            ],
            directive_cancels=int(self.directive_cancels),
            directive_cancelled_ops=list(self.directive_cancelled_ops),
            regular_overloads=int(self.controller.regular_overloads),
        )

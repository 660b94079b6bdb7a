"""The fleet: the planner over the epoch engine, and the run result.

A fleet run is :func:`repro.cluster.epoch.run_epochs` over one
:class:`ClusterNode` per node spec, with :class:`FleetPlanner` as the
cross-node half: the balancer pre-assigns each epoch's arrivals using
epoch-*start* state, and coordinator directives issued at epoch ``k``
are delivered at the start of epoch ``k + 1``.  Cross-node coupling
therefore happens only at epoch boundaries, through picklable values
(arrival tuples, :class:`NodeStatus`, :class:`Directive`), which is
what makes serial and sharded runs byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.metrics import percentile
from .balancer import LoadBalancer
from .coordinator import GlobalCoordinator
from .directives import QUARANTINE, Directive
from .epoch import run_epochs
from .node import ClusterNode, NodeStatus
from .spec import FleetSpec


@dataclass
class FleetResult:
    """Everything a fleet run produces (JSON-able, deterministic)."""

    spec_mode: str
    policy: str
    n_nodes: int
    duration: float
    #: Fleet-wide victim ("point") p99 over post-warmup epochs, seconds.
    victim_p99: float = float("nan")
    #: Fleet-wide completions under SLO per second, post-warmup.
    goodput: float = 0.0
    #: All delivered cancellations (local + directive).
    cancels_total: int = 0
    #: Delivered cancellations whose op was not an expected culprit.
    wrong_cancels: int = 0
    wrong_culprit_rate: float = 0.0
    directives: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    health_events: List[Dict[str, Any]] = field(default_factory=list)
    lb: Dict[str, Any] = field(default_factory=dict)
    node_reports: List[Dict[str, Any]] = field(default_factory=list)
    epochs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["victim_p99"] = (
            None if self.victim_p99 != self.victim_p99
            else round(self.victim_p99, 9)
        )
        out["goodput"] = round(self.goodput, 9)
        out["wrong_culprit_rate"] = round(self.wrong_culprit_rate, 9)
        for report in out["node_reports"]:
            for key in ("throughput", "p99_latency"):
                report[key] = round(report[key], 9)
        return out

    def digest(self) -> str:
        """Canonical content hash (parity / determinism tests)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self) -> str:
        """Operator-facing text report."""
        p99 = (
            "n/a" if self.victim_p99 != self.victim_p99
            else f"{self.victim_p99 * 1000:.1f}ms"
        )
        lines = [
            f"fleet: {self.n_nodes} nodes, policy={self.policy}, "
            f"mode={self.spec_mode}, {self.epochs} epochs",
            f"victim p99 {p99} | goodput {self.goodput:.1f}/s | "
            f"cancels {self.cancels_total} "
            f"(wrong {self.wrong_cancels}, "
            f"rate {self.wrong_culprit_rate:.2f})",
            f"directives {len(self.directives)} | "
            f"quarantined {self.quarantined or '-'}",
            "",
            f"{'node':<10} {'backend':<9} {'tput':>7} {'p99':>9} "
            f"{'local':>6} {'directive':>10}",
        ]
        for report in self.node_reports:
            p99_node = report["p99_latency"]
            p99_text = (
                "n/a" if p99_node != p99_node else f"{p99_node * 1000:.1f}ms"
            )
            lines.append(
                f"{report['node']:<10} {report['backend']:<9} "
                f"{report['throughput']:>7.1f} {p99_text:>9} "
                f"{report['local_cancels']:>6} "
                f"{report['directive_cancels']:>10}"
            )
        return "\n".join(lines)


class FleetPlanner:
    """The fleet's cross-node half: load balancer plus coordinator."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.balancer = LoadBalancer(spec)
        self.coordinator = GlobalCoordinator(spec)
        self.statuses_by_epoch: List[List[NodeStatus]] = []
        #: Directives issued last epoch, delivered to every node now.
        self.pending: List[Directive] = []

    def plan(self, epoch: int, t_end: float):
        assigned = self.balancer.assign(t_end)
        return [
            (assigned.get(index, []), self.pending)
            for index in range(len(self.spec.nodes))
        ]

    def fold(self, epoch: int, t_end: float,
             statuses: List[NodeStatus]) -> None:
        self.statuses_by_epoch.append(statuses)
        self.balancer.update(statuses)
        issued = self.coordinator.observe(epoch, t_end, statuses)
        self.pending = []
        if self.spec.mode == "coordinated":
            for directive in issued:
                if directive.kind == QUARANTINE:
                    self.balancer.quarantine(directive.op)
                else:
                    self.pending.append(directive)

    def finish(self, reports: List[Dict[str, Any]]) -> FleetResult:
        spec = self.spec
        result = FleetResult(
            spec_mode=spec.mode,
            policy=spec.policy,
            n_nodes=len(spec.nodes),
            duration=spec.duration,
            lb=self.balancer.stats(),
            node_reports=reports,
            epochs=len(self.statuses_by_epoch),
            **self.coordinator.stats(),
        )
        latencies: List[float] = []
        good = 0.0
        for statuses in self.statuses_by_epoch:
            for status in statuses:
                if status.t <= spec.warmup:
                    continue
                latencies.extend(status.victim_latencies)
                good += status.goodput_window * spec.epoch
        effective = max(spec.duration - spec.warmup, 1e-9)
        if latencies:
            result.victim_p99 = percentile(latencies, 99)
        result.goodput = good / effective
        expected = set(spec.expected_culprits)
        cancelled_ops: List[str] = []
        for report in reports:
            cancelled_ops.extend(report["local_cancelled_ops"])
            cancelled_ops.extend(report["directive_cancelled_ops"])
        result.cancels_total = len(cancelled_ops)
        result.wrong_cancels = sum(
            1 for op in cancelled_ops if op not in expected
        )
        result.wrong_culprit_rate = (
            result.wrong_cancels / result.cancels_total
            if result.cancels_total
            else 0.0
        )
        return result


def run_fleet(spec: FleetSpec, jobs: Optional[int] = None) -> FleetResult:
    """Run a fleet to completion; serial or sharded, same bytes.

    Node simulations shard round-robin across ``min(jobs, nodes)``
    persistent fork-started workers; ``jobs`` defaults to the campaign
    worker-pool settings (see :func:`repro.cluster.epoch.run_epochs`).
    """
    return run_epochs(
        spec,
        FleetPlanner(spec),
        lambda index: ClusterNode(spec, spec.nodes[index], index),
        len(spec.nodes),
        jobs,
    )

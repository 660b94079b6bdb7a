"""Where the traced run puts spans, and how spans become layer metrics.

Layers are named after the ``src/repro`` packages.  Every wrap point is
a public function or method; :func:`targets` lists them and
:func:`layer_metrics` turns one traced pass into the per-layer metrics
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List

from .spans import ARG_N, EVENTS, SpanTable, Target

LEDGER_METHODS = ("record_get", "record_free", "record_slow_by",
                  "record_wait_start", "record_wait_end")

#: Spans whose self time counts as control-plane (``core``) time.
CORE_SPANS = ("core.ledger", "core.pipeline.tick", "core.detector.check",
              "core.estimator.assess", "core.policy.select",
              "core.lever.act")

#: Modules whose subclasses of wrapped bases must be loaded first.
SUBCLASS_MODULES = ("repro.baselines", "repro.core.levers",
                    "repro.core.atropos", "repro.cluster")

_RES = "repro.sim.resources."
#: Non-generator resource entry points other than the lock's.
OTHER_RESOURCE_CALLS = (
    (_RES + "lock", "SyncLock.reactivate"),
    (_RES + "pool", "MemoryPool.acquire"),
    (_RES + "pool", "MemoryPool.release"),
    (_RES + "pool", "MemoryPool.touch"),
    (_RES + "docbuffer", "DocumentBuffer.access"),
    (_RES + "docbuffer", "DocumentBuffer.release_owner"),
    (_RES + "threadpool", "ThreadPool.submit"),
)


def targets() -> List[Target]:
    """Every wrap point of the traced run."""
    out = [
        Target("sim.run", "repro.sim.environment", "Environment.run", EVENTS),
        Target("resources.lock.acquire", _RES + "lock", "SyncLock.acquire"),
        Target("resources.lock.reshape", _RES + "lock",
               "SyncLock.reshape_queue"),
        Target("workloads.record", "repro.sim.metrics",
               "MetricsCollector.record"),
        Target("workloads.offered", "repro.sim.metrics",
               "MetricsCollector.note_offered", ARG_N),
        Target("workloads.trimmed", "repro.sim.metrics",
               "MetricsCollector.trimmed"),
        Target("core.pipeline.tick", "repro.core.pipeline",
               "ControlPipeline.tick"),
        Target("core.detector.check", "repro.core.detector",
               "OverloadDetector.check"),
        Target("core.estimator.assess", "repro.core.estimator",
               "Estimator.assess"),
        Target("core.policy.select", "repro.core.policy",
               "CancellationPolicy.select", subclasses=True),
        Target("core.lever.act", "repro.core.pipeline", "ActionPolicy.act",
               subclasses=True),
        Target("cluster.node_advance", "repro.cluster.node",
               "ClusterNode.advance"),
        Target("cluster.node_advance", "repro.cluster.mesh",
               "ServiceNode.advance"),
        Target("cluster.run", "repro.cluster.fleet", "run_fleet"),
        Target("cluster.run", "repro.cluster.mesh", "run_dag"),
        Target("harness.run", "repro.experiments.harness", "run_simulation"),
        Target("campaign.execute", "repro.campaign.runner", "execute"),
        Target("campaign.cache_key", "repro.campaign.spec",
               "RunSpec.cache_key"),
        Target("campaign.fingerprint", "repro.campaign.spec",
               "code_fingerprint"),
        Target("campaign.store.get", "repro.campaign.store",
               "ResultStore.get"),
        Target("campaign.store.put", "repro.campaign.store",
               "ResultStore.put"),
        Target("telemetry.scrape", "repro.telemetry.scrape",
               "Scraper.scrape"),
    ]
    out += [Target("core.ledger", "repro.core.runtime",
                   f"RuntimeManager.{name}") for name in LEDGER_METHODS]
    out += [Target("resources.other", module, qualname)
            for module, qualname in OTHER_RESOURCE_CALLS]
    return out


def layer_metrics(table: SpanTable, traced_wall_s: float) -> Dict[str, float]:
    """Span-derived per-layer metrics of one traced pass.

    Counts and times sum over every process of the pass (the main
    process and its pool or shard workers), except ``core.share``,
    which is main-process core self time over the traced pass's wall
    time (``bench.traced_wall_s``, its base).
    """
    t = table
    main = t.proc == 0
    serial = t.label_mask(lambda label: label.endswith(":serial"))
    not_trimmed = ~t.ancestor_mask(("workloads.trimmed",))
    core_self_main = t.self_s(CORE_SPANS, where=main)
    node_advance = t.inclusive_s(("cluster.node_advance",),
                                 where=serial & main)
    return {
        "sim.events": t.count_sum(("sim.run",)),
        "sim.run_self_s": t.self_s(("sim.run",)),
        "resources.lock.acquire_calls": t.calls(("resources.lock.acquire",)),
        "resources.lock.acquire_s": t.inclusive_s(("resources.lock.acquire",)),
        "resources.lock.reshape_calls": t.calls(("resources.lock.reshape",)),
        "resources.other_s": t.inclusive_s(("resources.other",)),
        "workloads.offered": t.count_sum(("workloads.offered",),
                                         where=not_trimmed),
        "workloads.record_s": t.inclusive_s(("workloads.record",)),
        "core.ledger.calls": t.calls(("core.ledger",)),
        "core.ledger.self_s": t.self_s(("core.ledger",)),
        "core.pipeline.ticks": t.calls(("core.pipeline.tick",)),
        "core.pipeline.tick_s": t.inclusive_s(("core.pipeline.tick",)),
        "core.detector.check_s": t.inclusive_s(("core.detector.check",)),
        "core.estimator.assess_calls": t.calls(("core.estimator.assess",)),
        "core.estimator.assess_s": t.inclusive_s(("core.estimator.assess",)),
        "core.policy.select_s": t.inclusive_s(("core.policy.select",)),
        "core.lever.act_s": t.inclusive_s(("core.lever.act",)),
        "core.self_s": t.self_s(CORE_SPANS),
        "core.share": core_self_main / traced_wall_s if traced_wall_s else 0.0,
        "cluster.node_advance_s": node_advance,
        "cluster.glue_s": t.inclusive_s(("cluster.run",), where=serial & main)
        - node_advance,
        "campaign.cache_key_s": t.inclusive_s(("campaign.cache_key",)),
        "campaign.store.get_s": t.inclusive_s(("campaign.store.get",)),
        "campaign.store.put_s": t.inclusive_s(("campaign.store.put",)),
        "telemetry.scrapes": t.calls(("telemetry.scrape",)),
        "telemetry.scrape_s": t.inclusive_s(("telemetry.scrape",)),
    }

"""What the benchmark's metrics and workloads mean.

``BENCHMARK.json`` is the one list of workloads and metrics: their
names, units, directions and (for end-to-end metrics) bounds.  This
module loads it and adds, by name, what it does not carry: each
metric's kind and layer, what it measures, and for per-layer metrics
which end-to-end metric on which workload it should move; each
workload's loop type and process count.

Kinds:

* ``host`` -- wall-clock or memory on the machine that ran the
  benchmark.  Compare only runs from one host.  ``wall_s``, ``setup_s``
  and the other whole-call times (``cluster.shard_*``,
  ``campaign.cold_s``/``warm_s``, ``setup.*``, ``bench.traced_wall_s``)
  are in paced seconds: scaled to a fixed host speed by a reference
  kernel read between the calls (see ``perfbench/pace.py``).  Span
  times inside a pass are raw wall seconds.
* ``simulated`` -- a model output.  Deterministic for a seed, so a
  change to the simulator alone must leave it exactly equal.  These are
  not validated against the paper's testbed: they detect change, they
  are not accuracy figures.
* ``count`` -- a number of calls or events.  Deterministic for a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

CASES = "cases-atropos"
CLUSTER = "cluster-epoch"
CAMPAIGN = "campaign-observed"
ALL = (CASES, CLUSTER, CAMPAIGN)


class Notes(NamedTuple):
    kind: str
    layer: str
    meaning: str
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...] = ()


def _every(metric: str, workloads=ALL):
    return tuple((metric, w) for w in workloads)


#: Workload name -> (loop type, processes).
WORKLOAD_NOTES: Dict[str, Tuple[str, str]] = {
    CASES: ("closed loop, one run after another",
            "1 (the driving process)"),
    CLUSTER: ("closed loop, one run after another",
              "1 driving process; 2 shard workers in sharded runs"),
    CAMPAIGN: ("closed loop, one campaign batch after another",
               "1 driving process; 2 campaign pool workers"),
}

METRIC_NOTES: Dict[str, Notes] = {
    "wall_s": Notes(
        "host", "bench",
        "paced wall time of the workload's measured body: the sum over "
        "the calls into the program of each call's median across the "
        "run's passes, each call scaled by the median host-speed reference "
        "reading around it (bench.raw_wall_s is the unscaled sum)"),
    "setup_s": Notes(
        "host", "bench",
        "median over set-ups in fresh processes of imports, case/spec "
        "construction, family loading and the campaign code fingerprint, "
        "each paced by the reference read in its process after it"),
    "peak_rss_mb": Notes(
        "host", "bench",
        "peak resident set size of the benchmark process, including "
        "the ~20 MB working set of the pacing kernel"),
    "sim_p99_ms": Notes(
        "simulated", "bench",
        "geometric mean over the workload's runs of the simulated "
        "victim p99 (Summary.p99_latency, or victim_p99 of fleet and "
        "mesh runs)"),
    "sim_goodput_per_s": Notes(
        "simulated", "bench",
        "geometric mean over the workload's runs of Summary.throughput, "
        "or goodput of fleet and mesh runs"),
    "sim.events": Notes(
        "count", "sim",
        "events scheduled inside Environment.run",
        _every("wall_s")),
    "sim.events_per_host_s": Notes(
        "host", "sim",
        "sim.events over wall_s of the same run",
        _every("wall_s")),
    "sim.run_self_s": Notes(
        "host", "sim",
        "self time of Environment.run: the kernel plus model generators "
        "no other span covers",
        (("wall_s", CASES), ("wall_s", CAMPAIGN))),
    "resources.lock.acquire_calls": Notes(
        "count", "sim.resources",
        "SyncLock.acquire calls",
        (("wall_s", CASES),)),
    "resources.lock.acquire_s": Notes(
        "host", "sim.resources",
        "time in SyncLock.acquire",
        (("wall_s", CASES),)),
    "resources.lock.reshape_calls": Notes(
        "count", "sim.resources",
        "SyncLock.reshape_queue calls (c17/c18 levers)",
        (("wall_s", CASES),)),
    "resources.other_s": Notes(
        "host", "sim.resources",
        "time in the other non-generator resource entry points "
        "(MemoryPool, DocumentBuffer, ThreadPool.submit, "
        "SyncLock.reactivate)",
        (("wall_s", CAMPAIGN),)),
    "workloads.offered": Notes(
        "count", "workloads",
        "requests offered (MetricsCollector.note_offered, outside "
        "warm-up trimming)",
        _every("wall_s")),
    "workloads.record_s": Notes(
        "host", "workloads",
        "time in MetricsCollector.record",
        _every("wall_s")),
    "core.ledger.calls": Notes(
        "count", "core",
        "RuntimeManager.record_* calls; must be 0 on campaign-observed",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.ledger.self_s": Notes(
        "host", "core",
        "self time of RuntimeManager.record_*",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.pipeline.ticks": Notes(
        "count", "core",
        "ControlPipeline.tick calls",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.pipeline.tick_s": Notes(
        "host", "core",
        "time in ControlPipeline.tick",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.detector.check_s": Notes(
        "host", "core",
        "time in OverloadDetector.check",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.estimator.assess_calls": Notes(
        "count", "core",
        "Estimator.assess calls",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.estimator.assess_s": Notes(
        "host", "core",
        "time in Estimator.assess",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.policy.select_s": Notes(
        "host", "core",
        "time in CancellationPolicy.select and its overrides",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.lever.act_s": Notes(
        "host", "core",
        "time in ActionPolicy.act and its overrides (levers, baseline "
        "controllers)",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.self_s": Notes(
        "host", "core",
        "self time of every core span, all processes",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.share": Notes(
        "host", "core",
        "main-process core self time over the traced pass's raw wall "
        "(its base)",
        (("wall_s", CASES), ("wall_s", CLUSTER))),
    "core.cancels": Notes(
        "count", "core",
        "cancellations issued in single-node runs",
        (("sim_p99_ms", CASES),)),
    "core.cancel_useful_ratio": Notes(
        "count", "core",
        "cancels of the case's culprit_ops over cancels issued (0 when "
        "none issued)",
        (("sim_p99_ms", CASES),)),
    "cluster.epochs": Notes(
        "count", "cluster",
        "epochs of the serial fleet and mesh runs",
        (("wall_s", CLUSTER),)),
    "cluster.node_advance_s": Notes(
        "host", "cluster",
        "time in ClusterNode.advance and ServiceNode.advance, serial "
        "runs",
        (("wall_s", CLUSTER),)),
    "cluster.glue_s": Notes(
        "host", "cluster",
        "serial run wall minus node advance, traced pass",
        (("wall_s", CLUSTER),)),
    "cluster.shard_overhead_s": Notes(
        "host", "cluster",
        "sharded wall minus serial wall over the same specs, untraced "
        "(negative when sharding pays)",
        (("wall_s", CLUSTER),)),
    "cluster.shard_speedup": Notes(
        "host", "cluster",
        "serial wall over sharded wall, untraced",
        (("wall_s", CLUSTER),)),
    "cluster.wrong_culprit_rate": Notes(
        "simulated", "cluster",
        "wrong cancels over cancels in the serial fleet runs",
        (("sim_p99_ms", CLUSTER),)),
    "campaign.cold_s": Notes(
        "host", "campaign",
        "wall of the cold batch into an empty cache, untraced",
        (("wall_s", CAMPAIGN),)),
    "campaign.warm_s": Notes(
        "host", "campaign",
        "wall of the same batch served from the cache, untraced",
        (("wall_s", CAMPAIGN),)),
    "campaign.cache_key_s": Notes(
        "host", "campaign",
        "time in RunSpec.cache_key (fingerprint memoised)",
        (("wall_s", CAMPAIGN),)),
    "campaign.fingerprint_s": Notes(
        "host", "campaign",
        "first code_fingerprint call of a fresh process, median over "
        "the set-up probes",
        (("setup_s", CAMPAIGN),)),
    "campaign.store.get_s": Notes(
        "host", "campaign",
        "time in ResultStore.get",
        (("wall_s", CAMPAIGN),)),
    "campaign.store.put_s": Notes(
        "host", "campaign",
        "time in ResultStore.put",
        (("wall_s", CAMPAIGN),)),
    "campaign.store.bytes": Notes(
        "host", "campaign",
        "bytes in the cache directory after the cold batch",
        (("wall_s", CAMPAIGN),)),
    "campaign.hit_ratio": Notes(
        "count", "campaign",
        "warm-batch cache hits over lookups",
        (("wall_s", CAMPAIGN),)),
    "campaign.pool_efficiency": Notes(
        "host", "campaign",
        "sum of payload walltime over (jobs x cold wall)",
        (("wall_s", CAMPAIGN),)),
    "telemetry.scrapes": Notes(
        "count", "telemetry",
        "Scraper.scrape calls",
        (("wall_s", CAMPAIGN),)),
    "telemetry.scrape_s": Notes(
        "host", "telemetry",
        "time in Scraper.scrape",
        (("wall_s", CAMPAIGN),)),
    "telemetry.overhead_ratio": Notes(
        "host", "telemetry",
        "telemetered batch wall over the untelemetered payload walltime "
        "of the same specs",
        (("wall_s", CAMPAIGN),)),
    "obs.trace_events": Notes(
        "count", "obs",
        "events the repro.obs Tracer recorded",
        (("wall_s", CAMPAIGN),)),
    "obs.tracer_overhead_ratio": Notes(
        "host", "obs",
        "traced batch wall over the untraced payload walltime of the "
        "same specs",
        (("wall_s", CAMPAIGN),)),
    "setup.import_s": Notes(
        "host", "bench",
        "imports of a set-up probe, median",
        _every("setup_s")),
    "setup.build_s": Notes(
        "host", "bench",
        "case/spec construction, family loading and fingerprint of a "
        "set-up probe, median",
        _every("setup_s")),
    "bench.trace_overhead_ratio": Notes(
        "host", "bench",
        "traced pass wall over untraced wall_s: the cost of the "
        "benchmark's own wrappers, not of the program"),
    "bench.traced_wall_s": Notes(
        "host", "bench",
        "paced wall of the traced pass"),
    "bench.raw_wall_s": Notes(
        "host", "bench",
        "wall_s without the pacing: raw wall seconds, which move with "
        "the host's speed as well as the program's"),
    "bench.reference_ms": Notes(
        "host", "bench",
        "median reading of the host-speed reference kernel over the "
        "untraced passes (pace.REF_S reads 25 ms); describes the host, "
        "not the program"),
    "bench.child_peak_rss_mb": Notes(
        "host", "bench",
        "peak resident set size of the largest child process the run "
        "waited for before its set-up probes (pool or shard worker)",
        _every("peak_rss_mb")),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    processes: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str
    layer: str
    meaning: str
    moves: Tuple[Tuple[str, str], ...] = ()
    #: End-to-end only: allowed worsening as a share of the median.
    bound: float = 0.0


WORKLOADS = tuple(Workload(w["name"], w["why"], *WORKLOAD_NOTES[w["name"]])
                  for w in SPEC["workloads"])
END_TO_END = tuple(Metric(**m, **METRIC_NOTES[m["name"]]._asdict())
                   for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(**m, **METRIC_NOTES[m["name"]]._asdict())
                  for m in SPEC["per_layer"])
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

"""The three benchmark workloads, driven through public entry points.

Each workload has a ``setup`` (everything up to the first measured run:
imports happen when this module is imported, then cases, specs and
campaign families are built) and a ``run_pass`` that executes the whole
workload once, closed loop, one run after another, from this process.
Every pass of one invocation uses the same inputs, so passes must give
identical results; that repeat is one of the correctness checks.

The seed given on the command line is the only source of the inputs:
it becomes the simulation seed of every fleet, mesh and campaign spec,
and ``cases-atropos`` derives from it a simulation seed of its own for
each of its runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import campaign, cluster
from repro.baselines import controller_factory
from repro.cases import all_case_ids, get_case
from repro.experiments.case_family import case_spec
from repro.obs import Tracer, tracing
from repro.telemetry import TelemetrySession, telemetry_session
from repro.workloads.dag import dag_storm

from .pace import Pacer, paced

#: Worker processes of the campaign pool and the epoch shard pool.  The
#: driving process waits while a pool runs, so no workload keeps more
#: than two processes busy (the reference host has two cores).
JOBS = 2


@dataclass
class Check:
    """One correctness check; a failed check is a failed operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunRecord:
    """One simulated run of a pass."""

    label: str
    p99_ms: float
    goodput: float
    digest: str
    #: ``asdict(Summary)`` where the designated repeat compares it.
    summary: Optional[Dict[str, Any]] = None


@dataclass
class PassResult:
    """One execution of a workload's measured body."""

    #: Runs whose simulated metrics enter the end-to-end figures.
    runs: List[RunRecord]
    #: Raw wall seconds of each measured call into the program, by
    #: label, in call order.
    raw_units: Dict[str, float] = field(default_factory=dict)
    #: Host-speed reference readings taken around the calls, in s.
    reference: List[float] = field(default_factory=list)
    #: Result-derived per-layer values (counts, ratios).
    layer: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    @property
    def units(self) -> Dict[str, float]:
        """Paced seconds of each call (see :mod:`perfbench.pace`)."""
        return paced(self.raw_units, self.reference)

    @property
    def wall_s(self) -> float:
        """The body's paced time: the sum of the measured calls."""
        return sum(self.units.values())

    def digest(self) -> str:
        blob = json.dumps([(r.label, r.digest) for r in self.runs])
        return hashlib.sha256(blob.encode()).hexdigest()


def geomean(values: List[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError(f"geometric mean needs positive values: {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _sha(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def run_digest(result) -> str:
    """Content hash of a single-node :class:`RunResult`."""
    log = result.controller.cancellation.log if hasattr(
        result.controller, "cancellation") else []
    return _sha({
        "summary": asdict(result.summary),
        "offered": result.collector.offered,
        "inflight": result.driver.inflight,
        "cancels": [(e.time, e.op_name, e.delivered) for e in log],
    })


def conservation(label: str, result) -> Check:
    """offered = terminal requests + requests still in flight."""
    terminal = sum(result.collector.status_counts().values())
    inflight = result.driver.inflight
    offered = result.collector.offered
    return Check(
        f"conservation:{label}", offered == terminal + inflight,
        f"offered={offered} terminal={terminal} inflight={inflight}",
    )


class _Runs:
    """Times each call into the program between pacing readings; stamps
    the run id on spans when a recorder is present."""

    def __init__(self, recorder, out: Optional[PassResult] = None) -> None:
        self.recorder = recorder
        self.out = out if out is not None else PassResult(runs=[])
        self.pacer = Pacer()
        self.out.reference = self.pacer.readings

    def timed(self, label: str, fn: Callable[[], Any]):
        """Returns the call's result and its raw wall seconds."""
        if self.recorder is not None:
            self.recorder.begin_run(label)
        try:
            result, raw = self.pacer.call(fn)
        finally:
            if self.recorder is not None:
                self.recorder.end_run()
        self.out.raw_units[label] = raw
        return result, raw


# ----------------------------------------------------------------------
# cases-atropos
# ----------------------------------------------------------------------

class CasesAtropos:
    """Every registered case under ATROPOS, plus lever variants."""

    name = "cases-atropos"
    required_spans = (
        "sim.run", "resources.lock.acquire", "resources.lock.reshape",
        "resources.other", "workloads.record", "workloads.offered",
        "core.ledger", "core.pipeline.tick", "core.detector.check",
        "core.estimator.assess", "core.policy.select", "core.lever.act",
        "harness.run",
    )
    forbidden_spans = ()

    @staticmethod
    def default_params() -> Dict[str, Any]:
        return {
            "cases": all_case_ids(),
            "lever_cases": ["c17", "c18"],
            "levers": ["lock_reshape", "composite"],
            # Whether ATROPOS catches a culprit early is seed-dependent
            # for several cases (c4, c8, c13, c16 swing between ~5 ms and
            # ~100 ms p99), so each run repeats with this many simulation
            # seeds to steady the geometric mean across --seed values.
            # One simulation seed shared by every case would make those
            # swings coincide (a bad seed hits many cases at once), so
            # each run gets its own, see ``sim_seed``.
            "seeds_per_run": 2,
            "duration": None,
        }

    @staticmethod
    def setup(seed: int, params: Dict[str, Any]):
        configs = []
        for cid in params["cases"]:
            case = get_case(cid)
            configs.append((cid, case, dict(case.atropos_overrides)))
        for lever in params["levers"]:
            for cid in params["lever_cases"]:
                case = get_case(cid)
                configs.append((f"{cid}:{lever}", case,
                                dict(case.atropos_overrides, lever=lever)))
        runs = []
        for k in range(params["seeds_per_run"]):
            for label, case, overrides in configs:
                sim_seed = CasesAtropos.sim_seed(seed, label, k)
                runs.append((f"{label}:seed={sim_seed}", case,
                             controller_factory("atropos", case.slo_latency,
                                                atropos_overrides=overrides),
                             sim_seed))
        return {"duration": params["duration"], "runs": runs}

    @staticmethod
    def sim_seed(seed: int, label: str, k: int) -> int:
        """The ``k``-th simulation seed of run ``label`` under ``seed``."""
        digest = hashlib.sha256(f"{seed}:{label}:{k}".encode()).digest()
        return int.from_bytes(digest[:4], "big") >> 1

    @classmethod
    def _one(cls, plan, entry, runs: _Runs):
        label, case, factory, sim_seed = entry
        return runs.timed(label, lambda: case.run(
            controller_factory=factory, seed=sim_seed,
            duration=plan["duration"]))

    @classmethod
    def run_pass(cls, plan, recorder=None) -> PassResult:
        out = PassResult(runs=[])
        runs = _Runs(recorder, out)
        cancels = useful = 0
        for entry in plan["runs"]:
            label, case = entry[0], entry[1]
            result, _ = cls._one(plan, entry, runs)
            summary = result.summary
            out.runs.append(RunRecord(label, summary.p99_latency * 1e3,
                                      summary.throughput, run_digest(result)))
            out.checks.append(conservation(label, result))
            log = result.controller.cancellation.log
            cancels += len(log)
            useful += sum(1 for e in log if e.op_name in case.culprit_ops)
        out.layer["core.cancels"] = cancels
        out.layer["core.cancel_useful_ratio"] = (
            useful / cancels if cancels else 0.0)
        return out

    @classmethod
    def repeat_designated(cls, plan, first: PassResult) -> List[Check]:
        entry = plan["runs"][0]
        result, _ = cls._one(plan, entry, _Runs(None))
        return [
            Check(f"repeat:{entry[0]}", run_digest(result) == first.runs[0].digest),
            conservation(f"repeat:{entry[0]}", result),
        ]


# ----------------------------------------------------------------------
# cluster-epoch
# ----------------------------------------------------------------------

class ClusterEpoch:
    """Fleet modes and mesh controllers, each serial and sharded."""

    name = "cluster-epoch"
    required_spans = (
        "sim.run", "workloads.record", "workloads.offered", "core.ledger",
        "core.pipeline.tick", "core.detector.check", "core.lever.act",
        "cluster.node_advance", "cluster.run",
    )
    forbidden_spans = ()

    @staticmethod
    def default_params() -> Dict[str, Any]:
        return {
            "fleet_modes": ["none", "local", "coordinated"],
            "dag_controllers": ["none", "atropos", "dagor", "autothrottle"],
            # Half of demo_fleet's and dag_storm's default length, so three
            # passes fit one run; both still cover several culprit waves.
            "fleet_overrides": {"duration": 15.0},
            "dag_overrides": {"duration": 12.0},
        }

    @staticmethod
    def setup(seed: int, params: Dict[str, Any]):
        specs = []
        for mode in params["fleet_modes"]:
            spec = cluster.demo_fleet(3, mode=mode, seed=seed,
                                      **params["fleet_overrides"])
            specs.append((f"fleet:{mode}", "fleet", spec, None))
        dag = dag_storm(2, seed=seed, **params["dag_overrides"])
        for controller in params["dag_controllers"]:
            specs.append((f"dag:{controller}", "dag", dag, controller))
        return {"specs": specs}

    @staticmethod
    def _one(entry, jobs: int, runs: _Runs):
        label, kind, spec, controller = entry
        mode = "serial" if jobs == 1 else "sharded"
        if kind == "fleet":
            return runs.timed(f"{label}:{mode}",
                              lambda: cluster.run_fleet(spec, jobs=jobs))
        return runs.timed(f"{label}:{mode}",
                          lambda: cluster.run_dag(spec, controller, jobs=jobs))

    @classmethod
    def run_pass(cls, plan, recorder=None) -> PassResult:
        out = PassResult(runs=[])
        runs = _Runs(recorder, out)
        epochs = cancels = wrong = 0
        for entry in plan["specs"]:
            label, kind = entry[0], entry[1]
            serial, _ = cls._one(entry, 1, runs)
            sharded, _ = cls._one(entry, JOBS, runs)
            out.runs.append(RunRecord(label, serial.victim_p99 * 1e3,
                                      serial.goodput, serial.digest()))
            out.checks.append(Check(f"serial==sharded:{label}",
                                    serial.digest() == sharded.digest()))
            epochs += serial.epochs
            if kind == "fleet":
                cancels += serial.cancels_total
                wrong += serial.wrong_cancels
        out.layer.update({
            "cluster.epochs": epochs,
            "cluster.wrong_culprit_rate": wrong / cancels if cancels else 0.0,
        })
        return out

    @classmethod
    def repeat_designated(cls, plan, first: PassResult) -> List[Check]:
        entry = plan["specs"][0]
        result, _ = cls._one(entry, 1, _Runs(None))
        return [Check(f"repeat:{entry[0]}",
                      result.digest() == first.runs[0].digest)]


# ----------------------------------------------------------------------
# campaign-observed
# ----------------------------------------------------------------------

def _spec_label(spec) -> str:
    culprit = spec.params.get("include_culprit", True)
    return f"{spec.params['case_id']}:{'culprit' if culprit else 'baseline'}"


def _outcome_digest(outcome) -> str:
    return _sha({"summary": asdict(outcome.summary), "extras": outcome.extras})


class CampaignObserved:
    """Uncontrolled case specs through the campaign: cold, warm,
    telemetered and traced."""

    name = "campaign-observed"
    required_spans = (
        "sim.run", "workloads.record", "workloads.offered", "harness.run",
        "campaign.execute", "campaign.cache_key", "campaign.store.get",
        "campaign.store.put", "telemetry.scrape",
    )
    #: The control plane must do no work here: this is the bypass.
    forbidden_spans = ("core.ledger",)

    @staticmethod
    def default_params() -> Dict[str, Any]:
        return {
            "cases": all_case_ids(),
            "telemetry_specs": 4,
            "traced_specs": 2,
            "duration": None,
        }

    @staticmethod
    def setup(seed: int, params: Dict[str, Any]):
        campaign.load_all_families()
        started = time.perf_counter()
        campaign.code_fingerprint()
        fingerprint_s = time.perf_counter() - started
        specs = []
        for cid in params["cases"]:
            for culprit in (True, False):
                specs.append(case_spec("perfbench", cid, seed=seed,
                                       include_culprit=culprit))
        if params["duration"] is not None:
            specs = [replace(s, duration=params["duration"]) for s in specs]
        return {"seed": seed, "specs": specs, "params": params,
                "fingerprint_s": fingerprint_s}

    @classmethod
    def run_pass(cls, plan, recorder=None) -> PassResult:
        out = PassResult(runs=[])
        runs = _Runs(recorder, out)
        specs = plan["specs"]
        params = plan["params"]
        tele_specs = specs[:params["telemetry_specs"]]
        traced_specs = specs[:params["traced_specs"]]
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-",
                                          dir=plan["work_dir"]))

        def execute(batch):
            return campaign.execute(batch, jobs=JOBS, cache=True,
                                    cache_dir=cache_dir)

        cold, cold_s = runs.timed("campaign:cold", lambda: execute(specs))
        store_bytes = sum(p.stat().st_size for p in cache_dir.rglob("*")
                          if p.is_file())
        warm, _ = runs.timed("campaign:warm", lambda: execute(specs))
        session = TelemetrySession()

        def telemetered():
            with telemetry_session(session):
                return execute(tele_specs)

        tele, tele_s = runs.timed("campaign:telemetry", telemetered)
        tracer = Tracer()

        def traced():
            with tracing(tracer):
                return execute(traced_specs)

        obs, obs_s = runs.timed("campaign:obs", traced)
        shutil.rmtree(cache_dir)

        for spec, outcome in zip(specs, cold):
            out.runs.append(RunRecord(
                _spec_label(spec), outcome.summary.p99_latency * 1e3,
                outcome.summary.throughput, _outcome_digest(outcome),
                asdict(outcome.summary)))
        hits = sum(1 for o in warm if o.cache_hit)
        out.checks.append(Check("warm-hits", hits == len(specs),
                                f"{hits}/{len(specs)}"))
        for spec, a, b in zip(specs, cold, warm):
            out.checks.append(Check(f"warm==cold:{_spec_label(spec)}",
                                    _outcome_digest(a) == _outcome_digest(b)))
        for phase, batch in (("telemetry", tele), ("obs", obs)):
            for spec, a, b in zip(specs, cold, batch):
                out.checks.append(Check(
                    f"{phase}==cold:{_spec_label(spec)}",
                    asdict(a.summary) == asdict(b.summary)))
        out.checks.append(Check("telemetry-windows", all(
            len(r.windows) > 0 for r in session.runs)
            and len(session.runs) == len(tele_specs)))
        out.checks.append(Check("obs-events", len(tracer) > 0))

        def walltime_of(batch_len):
            return sum(o.walltime for o in cold[:batch_len])

        cold_work = sum(o.walltime for o in cold)
        units = out.units
        out.layer.update({
            "campaign.cold_s": units["campaign:cold"],
            "campaign.warm_s": units["campaign:warm"],
            "campaign.store.bytes": store_bytes,
            "campaign.hit_ratio": hits / len(specs),
            "campaign.pool_efficiency": cold_work / (JOBS * cold_s),
            "telemetry.overhead_ratio": tele_s / walltime_of(len(tele_specs)),
            "obs.trace_events": len(tracer),
            "obs.tracer_overhead_ratio":
                obs_s / walltime_of(len(traced_specs)),
            "core.cancels": sum(o.cancels for o in cold),
        })
        return out

    @classmethod
    def repeat_designated(cls, plan, first: PassResult) -> List[Check]:
        """Re-run the first spec directly through ``CaseSpec.run``: the
        campaign path must give the same summary, and the in-process
        run exposes the collector for the conservation check."""
        spec = plan["specs"][0]
        case = get_case(spec.params["case_id"])
        result = case.run(
            include_culprit=spec.params.get("include_culprit", True),
            seed=spec.seed, duration=spec.duration)
        label = f"repeat:{_spec_label(spec)}"
        return [
            Check(label, asdict(result.summary) == first.runs[0].summary),
            conservation(label, result),
        ]


WORKLOADS = {w.name: w for w in (CasesAtropos, ClusterEpoch, CampaignObserved)}


def get_workload(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None

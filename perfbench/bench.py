"""One benchmark run: set up, measure, trace, check, report.

:func:`run_benchmark` is what ``perfbench/run.py`` calls.  End-to-end
metrics come from untraced passes.  With ``trace`` set, one more pass
runs with span wrappers installed (:mod:`perfbench.spans`) and gives the
per-layer metrics; its simulated results must equal the untraced ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import catalog
from .pace import REF_S, settled_reference_s
from .workloads import Check, PassResult, geomean, get_workload

BENCH_DIR = Path(__file__).resolve().parent
#: Fresh-process set-ups per run, besides the run's own.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def bench_code_hash() -> str:
    """SHA-256 over the benchmark's own code (tests excluded)."""
    digest = hashlib.sha256()
    for path in sorted(BENCH_DIR.rglob("*.py")):
        rel = path.relative_to(BENCH_DIR)
        if rel.parts[0] == "tests":
            continue
        digest.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def settings_of(workload: str, seed: int, seconds: float, trace: bool,
                params: Dict[str, Any]) -> Dict[str, Any]:
    """Everything two results must share to be comparable."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "params": params,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "bench_code": bench_code_hash(),
    }


def measure(workload, plan, seconds: float) -> List[PassResult]:
    """Untraced passes filling ``seconds``, at least one.

    The pass count is ``seconds`` over the first pass's length, rounded
    to the nearest whole pass: the run may end up to half a pass before
    or after ``seconds``.
    """
    started = time.perf_counter()
    passes = [workload.run_pass(plan)]
    first = time.perf_counter() - started
    for _ in range(max(1, round(seconds / first)) - 1):
        passes.append(workload.run_pass(plan))
    return passes


def body_wall(passes: List[PassResult], raw: bool = False) -> float:
    """Sum over the measured calls of each call's median across passes,
    in paced seconds (:mod:`perfbench.pace`), or raw ones with ``raw``.

    A pause of the host that hits one call in one pass is dropped by
    that call's median instead of moving the whole pass.
    """
    units = [p.raw_units if raw else p.units for p in passes]
    return sum(statistics.median(u[label] for u in units)
               for label in units[0])


def paced_setup(sample: Dict[str, float]) -> Dict[str, float]:
    """A set-up sample's times in paced seconds, by the reference
    reading taken in the same process right after the set-up."""
    scale = REF_S / sample["reference_s"]
    return {key: sample[key] * scale
            for key in ("setup_s", "import_s", "build_s", "fingerprint_s")}


def setup_probes(workload: str, seed: int, params: Dict[str, Any],
                 count: int) -> List[Dict[str, float]]:
    """Time set-up in ``count`` fresh interpreter processes."""
    script = BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(script), workload, str(seed),
             json.dumps(params)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_pass(workload, plan, work_dir: Path):
    """One pass with span wrappers in place; originals restored after."""
    from . import layers, spans

    spill = work_dir / "spans"
    installed = spans.install(layers.targets(), spill,
                              extra_modules=layers.SUBCLASS_MODULES)
    try:
        result = workload.run_pass(plan, recorder=installed.recorder)
    finally:
        installed.restore()
    table = installed.recorder.collect()
    return result, table


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    params: Optional[Dict[str, Any]] = None,
    started: Optional[float] = None,
    probes: int = SETUP_PROBES,
) -> Dict[str, Any]:
    """Run one workload; returns the full result record.

    ``started`` is the ``perf_counter`` reading taken before the
    program's imports, so the run's own set-up counts as one sample.
    """
    if started is None:
        started = time.perf_counter()
    workload = get_workload(workload_name)
    merged = workload.default_params()
    merged.update(params or {})
    plan = workload.setup(seed, merged)
    own_setup = time.perf_counter() - started
    own_setup *= REF_S / settled_reference_s()

    work_dir = Path(out_dir) / f"work-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    plan["work_dir"] = str(work_dir)
    try:
        passes = measure(workload, plan, seconds)
        checks: List[Check] = [c for p in passes for c in p.checks]
        for i, other in enumerate(passes[1:], start=1):
            checks.append(Check(f"pass{i}==pass0",
                                other.digest() == passes[0].digest()))
        checks += workload.repeat_designated(plan, passes[0])
        rss_self = _rss_mib(resource.RUSAGE_SELF)
        rss_child = _rss_mib(resource.RUSAGE_CHILDREN)

        layer: Dict[str, float] = {}
        table = traced = None
        if trace:
            traced, table = traced_pass(workload, plan, work_dir)
            checks += traced.checks
            checks.append(Check("traced==untraced",
                                traced.digest() == passes[0].digest()))
            layer = _layer_values(passes, traced, table)
            checks += _span_checks(workload, table)
            layer["bench.child_peak_rss_mb"] = rss_child
        samples = setup_probes(workload_name, seed, merged, probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    samples = [paced_setup(s) for s in samples]
    setup_times = [own_setup] + [s["setup_s"] for s in samples]
    wall = body_wall(passes)
    raw_wall = body_wall(passes, raw=True)
    reference_ms = 1e3 * statistics.median(
        r for p in passes for r in p.reference)
    first = passes[0]
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_self,
        "sim_p99_ms": geomean([r.p99_ms for r in first.runs]),
        "sim_goodput_per_s": geomean([r.goodput for r in first.runs]),
    }
    metrics = {name: {"value": value,
                      "unit": catalog.BY_NAME[name].unit}
               for name, value in e2e.items()}
    if trace:
        layer.update({
            "setup.import_s": statistics.median(s["import_s"]
                                                for s in samples),
            "setup.build_s": statistics.median(s["build_s"]
                                               for s in samples),
            "campaign.fingerprint_s": statistics.median(
                s["fingerprint_s"] for s in samples),
            "sim.events_per_host_s": layer["sim.events"] / wall,
            "bench.trace_overhead_ratio": traced.wall_s / wall,
            "bench.raw_wall_s": raw_wall,
            "bench.reference_ms": reference_ms,
        })
        for metric in catalog.PER_LAYER:
            metrics[metric.name] = {"value": layer.get(metric.name, 0),
                                    "unit": metric.unit}
        table.save(Path(out_dir) / f"spans-{workload_name}.npz")
    return {
        "settings": settings_of(workload_name, seed, seconds, trace, merged),
        "metrics": metrics,
        "passes": [p.units for p in passes],
        "raw_wall_s": raw_wall,
        "reference_ms": reference_ms,
        "raw_passes": [p.raw_units for p in passes],
        "reference_s": [p.reference for p in passes],
        "setup_samples": setup_times,
        "checks": [c.__dict__ for c in checks],
        "attempted": len(checks),
        "failed": sum(1 for c in checks if not c.ok),
    }


def _layer_values(passes: List[PassResult], traced: PassResult,
                  table) -> Dict[str, float]:
    """Per-layer metrics: spans of the traced pass, plus whole-phase
    timings from the untraced passes (wrappers would distort those)."""
    from .layers import layer_metrics

    values: Dict[str, float] = dict(traced.layer)
    values.update(layer_metrics(table, sum(traced.raw_units.values())))
    values["bench.traced_wall_s"] = traced.wall_s

    def median(key):
        return statistics.median(key(p) for p in passes)

    def mode_s(p, mode):
        return sum(v for k, v in p.units.items() if k.endswith(mode))

    if any(k.endswith(":sharded") for k in passes[0].units):
        values["cluster.shard_overhead_s"] = median(
            lambda p: mode_s(p, ":sharded") - mode_s(p, ":serial"))
        values["cluster.shard_speedup"] = median(
            lambda p: mode_s(p, ":serial") / mode_s(p, ":sharded"))
    for key in ("campaign.cold_s", "campaign.warm_s",
                "campaign.pool_efficiency", "telemetry.overhead_ratio",
                "obs.tracer_overhead_ratio"):
        if key in passes[0].layer:
            values[key] = median(lambda p: p.layer[key])
    return values


def _span_checks(workload, table) -> List[Check]:
    """A wrapped function the workload must use has to fire; one it
    must bypass must not."""
    out = []
    for span in workload.required_spans:
        calls = table.calls((span,))
        out.append(Check(f"fires:{span}", calls > 0, f"calls={calls}"))
    for span in workload.forbidden_spans:
        calls = table.calls((span,))
        out.append(Check(f"bypassed:{span}", calls == 0, f"calls={calls}"))
    return out

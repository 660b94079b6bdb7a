"""The standard kernel case mix measured by ``repro bench``.

Each case is a self-contained micro-simulation exercising one hot slice
of the DES engine (see docs/PERFORMANCE.md for the hot-path tour):

* ``timeout-churn``   -- the generator yield/resume cycle on Timeouts.
* ``process-storm``   -- process creation, start, finish, and join.
* ``condition-fanin`` -- AllOf/AnyOf composite event trees.
* ``lock-handoff``    -- SyncLock convoy handoffs (grant machinery).
* ``arrival-flood``   -- the full request path: arrival stream ->
  driver -> cancellable task -> handler -> metrics record.
* ``macro-case-c1``   -- one real paper case (MySQL backup overload),
  keeping the mix honest about end-to-end engine cost.
* ``cluster-fanout``  -- a 3-node coordinated fleet run (repro.cluster),
  timed individually but excluded from the mix aggregate so the 6-case
  mix stays comparable with pre-cluster baselines.

Cases express a *workload*, not an engine strategy: the same case runs
on any engine generation, so events/sec is comparable across kernels.
All randomness is seeded; a case run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..apps.base import Application, Operation
from ..core.controller import NullController
from ..sim.environment import Environment
from ..sim.metrics import MetricsCollector
from ..sim.resources.lock import SyncLock
from ..sim.rng import Rng
from ..workloads.driver import Driver
from ..workloads.spec import MixEntry, poisson_arrival_stream


def events_scheduled(env: Environment) -> int:
    """Total events the environment has scheduled."""
    return int(env.events_scheduled)


#: A case body: given a scale, build + run the simulation and return
#: (environment, simulated_seconds).  The *whole* body is timed, so
#: engines may trade setup cost for per-event cost but cannot hide it.
CaseBody = Callable[[int], Tuple[Environment, float]]


@dataclass(frozen=True)
class BenchCase:
    """One member of the standard mix."""

    name: str
    description: str
    body: CaseBody
    #: Scale (case-specific unit, roughly "units of work") per mode.
    quick_scale: int
    full_scale: int
    #: Whether the case counts toward the mix aggregate.  Cases added
    #: after a checked-in baseline run with ``in_mix=False`` so the mix
    #: events/sec stays comparable against that baseline; they are still
    #: timed, reported, and speedup-tracked individually.
    in_mix: bool = True

    def scale(self, quick: bool) -> int:
        return self.quick_scale if quick else self.full_scale


# ----------------------------------------------------------------------
# Kernel-pure cases
# ----------------------------------------------------------------------

def _timeout_churn(scale: int) -> Tuple[Environment, float]:
    """``scale`` Timeout waits spread over 100 concurrent processes."""
    env = Environment()
    procs = 100
    waits = scale // procs

    def churn(env: Environment, delay: float, n: int):
        for _ in range(n):
            yield env.timeout(delay)

    for i in range(procs):
        # Distinct delays keep heap times distinct (the common regime).
        env.process(churn(env, 0.001 + i * 1e-6, waits))
    env.run()
    return env, env.now


def _process_storm(scale: int) -> Tuple[Environment, float]:
    """``scale`` short-lived processes, spawned in waves and joined."""
    env = Environment()
    wave = 500
    waves = scale // wave

    def worker(env: Environment, delay: float):
        yield env.timeout(delay)

    def spawner(env: Environment):
        for w in range(waves):
            procs = [
                env.process(worker(env, 0.0005 + i * 1e-7))
                for i in range(wave)
            ]
            yield env.all_of(procs)

    env.process(spawner(env))
    env.run()
    return env, env.now


def _condition_fanin(scale: int) -> Tuple[Environment, float]:
    """``scale`` composite conditions over 8-way timeout fans."""

    env = Environment()

    def fanner(env: Environment):
        for i in range(scale):
            fan = [env.timeout(0.0001 * (j + 1)) for j in range(8)]
            if i % 2:
                yield env.any_of(fan)
            else:
                yield env.all_of(fan)

    env.process(fanner(env))
    env.run()
    return env, env.now


def _lock_handoff(scale: int) -> Tuple[Environment, float]:
    """``scale`` exclusive acquire/hold/release handoffs on one lock."""
    env = Environment()
    lock = SyncLock(env, "bench-lock")
    procs = 50
    rounds = scale // procs

    def contender(env: Environment, hold: float):
        for _ in range(rounds):
            with lock.acquire(owner=None, exclusive=True) as grant:
                yield grant
                yield env.timeout(hold)

    for i in range(procs):
        env.process(contender(env, 0.0001 + i * 1e-7))
    env.run()
    return env, env.now


# ----------------------------------------------------------------------
# Full request-path cases
# ----------------------------------------------------------------------

class _BenchApp(Application):
    """Minimal application: one handler burning a fixed service time."""

    name = "benchapp"

    def __init__(self, env, controller, rng) -> None:
        super().__init__(env, controller, rng)
        self.register_handler("noop", self._noop)

    def _noop(self, task, service: float = 0.002):
        yield self.env.timeout(service)


def _arrival_flood(scale: int) -> Tuple[Environment, float]:
    """~``scale`` open-loop Poisson arrivals through the full driver,
    pre-generated as one arrival stream (``Driver.run_arrivals``)."""
    rate = 2000.0
    duration = scale / rate
    env = Environment()
    rng = Rng(0)
    controller = NullController(env)
    app = _BenchApp(env, controller, rng)
    driver = Driver(env, app, controller, MetricsCollector())
    mix = [MixEntry(lambda: Operation("noop"), 1.0)]
    stream = poisson_arrival_stream(
        rng.fork("arrivals:client"),
        rate=rate,
        stop_time=duration,
        mix=mix,
    )
    driver.run_arrivals(stream)
    env.run(until=duration)
    return env, duration


class _FleetEnvProxy:
    """Engine-agnostic event-count carrier for multi-environment cases."""

    __slots__ = ("events_scheduled",)

    def __init__(self, events: int) -> None:
        self.events_scheduled = events


def _cluster_fanout(scale: int) -> Tuple[Environment, float]:
    """``scale`` seconds of a 3-node coordinated fleet run (serial).

    Exercises the cluster tier end to end -- LB routing, per-node app
    models, epoch advances, coordinator attribution -- on one process so
    the number is an engine cost, not an IPC cost.  Event counts are
    summed across the fleet's per-node environments.
    """
    from ..cluster import ClusterNode, demo_fleet
    from ..cluster.epoch import run_epochs
    from ..cluster.fleet import FleetPlanner

    duration = float(scale)
    spec = demo_fleet(
        n_nodes=3,
        duration=duration,
        warmup=min(2.0, duration / 2),
        mode="coordinated",
    )
    planner = FleetPlanner(spec)
    nodes = [ClusterNode(spec, node, i) for i, node in enumerate(spec.nodes)]
    run_epochs(spec, planner, nodes.__getitem__, len(nodes), jobs=1)
    total = sum(events_scheduled(node.env) for node in nodes)
    return _FleetEnvProxy(total), duration


def _macro_case_c1(scale: int) -> Tuple[Environment, float]:
    """``scale`` seconds of the paper's case c1 (MySQL backup), overload
    baseline -- the engine running a real app model end to end."""
    from ..cases import get_case

    case = get_case("c1")
    result = case.run(controller_factory=None, seed=0, duration=float(scale))
    return result.driver.env, float(scale)


#: The standard case mix, in report order.
STANDARD_MIX: List[BenchCase] = [
    BenchCase(
        "timeout-churn",
        "generator timeout waits, 100 concurrent processes",
        _timeout_churn,
        quick_scale=50_000,
        full_scale=400_000,
    ),
    BenchCase(
        "process-storm",
        "short-lived process create/start/finish/join waves",
        _process_storm,
        quick_scale=10_000,
        full_scale=60_000,
    ),
    BenchCase(
        "condition-fanin",
        "AllOf/AnyOf composites over 8-way timeout fans",
        _condition_fanin,
        quick_scale=4_000,
        full_scale=25_000,
    ),
    BenchCase(
        "lock-handoff",
        "exclusive SyncLock convoy handoffs, 50 contenders",
        _lock_handoff,
        quick_scale=10_000,
        full_scale=50_000,
    ),
    BenchCase(
        "arrival-flood",
        "open-loop Poisson arrivals through the full request path",
        _arrival_flood,
        quick_scale=10_000,
        full_scale=80_000,
    ),
    BenchCase(
        "macro-case-c1",
        "paper case c1 (MySQL backup overload), uncontrolled",
        _macro_case_c1,
        quick_scale=5,
        full_scale=20,
    ),
    BenchCase(
        "cluster-fanout",
        "3-node coordinated fleet: LB + app models + attribution",
        _cluster_fanout,
        quick_scale=8,
        full_scale=20,
        # Keeps the 6-case mix aggregate comparable with the BENCH_6
        # baseline; timed and speedup-tracked individually.
        in_mix=False,
    ),
]


def case_names() -> List[str]:
    return [case.name for case in STANDARD_MIX]


def get_bench_case(name: str) -> BenchCase:
    for case in STANDARD_MIX:
        if case.name == name:
            return case
    raise KeyError(
        f"unknown bench case {name!r}; known: {case_names()}"
    )

"""The ``rt_fanout`` workload: the asyncio backend on the ``fanout`` shape.

One spout task emits sequential ticks to four ``match`` tasks (all
grouping) on four hosts that share one event loop and talk over
localhost TCP, with the defaults ``python -m repro.rt run`` gives:
at-least-once delivery and no credits.

The benchmark owns the load generator.  It draws Poisson due times from
the seed, sleeps until each one, and stamps the tuple with its due time,
so a stalled loop shows up as latency (open loop).  Each run has a light
phase well under capacity, timed for latency, and an overload phase
above capacity, timed for goodput.  Each phase runs on a fresh runtime.

The sink records every ``(task, seq)`` it executes, which is the check:
every emitted tick must execute at every task; executions beyond the
first are duplicates and are counted apart.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from des import tail

_clock = time.perf_counter

PARALLELISM = 4
LIGHT_RATE = 1000.0
OVERLOAD_RATE = 8000.0
#: tuples per phase: (light, overload) at full and at tiny size
SIZES = {"full": (1500, 4000), "tiny": (100, 400)}
#: tuples of each timed DES twin of the light phase (``--trace 0``)
TWIN_TUPLES = {"full": 500, "tiny": 100}
#: JSONL-traced overload phases and strict-checked DES twins per run
RUNS = {"traced": 6, "twin": 5}
LATENCY_TAIL_PCT = 99.0
#: the loop-lag probe's sleep
PROBE_SLEEP_S = 0.001


def rt_config(backend: str = "asyncio"):
    from repro.dsps.config import SystemConfig

    return SystemConfig(
        name="rt-fanout", backend=backend, delivery="at_least_once",
        flow=False,
    )


class TaskRecorder:
    """Counts executions per ``(task, seq)`` and brackets them in time."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.clock = None
        self.last_t = 0.0

    def record(self, task: int, seq: int) -> None:
        self.counts[(task, seq)] += 1
        self.last_t = self.clock.now

    def verdict(self, tasks: List[int], n: int) -> Dict[str, int]:
        counts = self.counts
        missing = sum(
            1 for seq in range(n) for task in tasks if (task, seq) not in counts
        )
        return {
            "attempted": n * len(tasks),
            "executed": sum(counts.values()),
            "missing": missing,
            "duplicates": sum(c - 1 for c in counts.values()),
        }


def fanout_topology(recorder: TaskRecorder):
    """The ``fanout`` topology of :mod:`repro.rt.topologies` with a sink
    that records the task it runs on."""
    from repro.dsps.topology import Topology
    from repro.rt.topologies import MatchBolt, TickSpout

    class RecordingMatch(MatchBolt):
        def prepare(self, ctx) -> None:
            super().prepare(ctx)
            self.task = ctx.task_id

        def execute(self, tup, collector) -> None:
            self.seen += 1
            recorder.record(self.task, tup.values["seq"])

    topo = Topology("fanout")
    topo.add_spout("ticks", TickSpout)
    topo.add_bolt(
        "match", lambda: RecordingMatch(None), parallelism=PARALLELISM,
        inputs={"ticks": "all"}, terminal=True,
    )
    return topo


def due_times(seed: int, phase: int, rate: float, n: int) -> np.ndarray:
    """Poisson due times (seconds from phase start) for one phase."""
    rng = np.random.default_rng([seed, phase])
    return np.cumsum(rng.exponential(1.0 / rate, n))


@dataclass
class Phase:
    setup_s: float
    wall_s: float
    n: int
    verdict: Dict[str, int]
    latencies_s: List[float]
    lateness_s: List[float]
    replays: int
    credit_stall_s: float
    #: one-to-many tuples every destination executed / registered
    completed: int
    registered: int
    loop_lag_s: List[float] = field(default_factory=list)


async def _probe(lags: List[float], stop: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        t = loop.time()
        await asyncio.sleep(PROBE_SLEEP_S)
        lags.append(loop.time() - t - PROBE_SLEEP_S)


async def _phase(seed: int, phase: int, rate: float, n: int, tracer=None,
                 probe: bool = False) -> Phase:
    from repro.dsps.tuples import StreamTuple
    from repro.rt.runtime import AsyncRuntime, default_cluster

    dues = due_times(seed, phase, rate, n)
    recorder = TaskRecorder()
    runtime = AsyncRuntime(
        fanout_topology(recorder), rt_config(), cluster=default_cluster(),
        seed=seed, tracer=tracer,
    )
    t0 = _clock()
    await runtime.setup()
    setup_s = _clock() - t0
    lags: List[float] = []
    stop = asyncio.Event()
    probe_task = asyncio.create_task(_probe(lags, stop)) if probe else None
    try:
        clock = runtime.clock
        recorder.clock = clock
        spout = runtime.spout_executors[0]
        operator = spout.operator
        clock.start()
        runtime.metrics.open_window()
        lateness = []
        for due in dues.tolist():
            delay = due - clock.now
            if delay > 0:
                await asyncio.sleep(delay)
            values, key, nbytes = spout.spout.next_tuple()
            tup = StreamTuple(
                stream=operator, values=values, key=key,
                payload_bytes=nbytes, created_at=due,
                source_operator=operator,
            )
            lateness.append(clock.now - due)
            await spout.host.route(tup, spout)
        await runtime.drain()
        runtime.metrics.close_window()
        report = runtime.report()
        tasks = runtime.placement.tasks_of["match"]
        verdict = recorder.verdict(tasks, n)
        completion = runtime.metrics.completion
        latencies = list(completion.latencies)
    finally:
        stop.set()
        if probe_task is not None:
            await probe_task
        await runtime.shutdown()
    return Phase(
        setup_s=setup_s,
        wall_s=recorder.last_t,
        n=n,
        verdict=verdict,
        latencies_s=latencies,
        lateness_s=lateness,
        replays=report.replays,
        credit_stall_s=report.credit_stall_s,
        completed=completion.completed,
        registered=completion.registered,
        loop_lag_s=lags,
    )


def light_phase(seed: int, n: int, tracer=None, probe: bool = False) -> Phase:
    return asyncio.run(_phase(seed, 0, LIGHT_RATE, n, tracer, probe))


def overload_phase(seed: int, n: int, tracer=None) -> Phase:
    return asyncio.run(_phase(seed, 1, OVERLOAD_RATE, n, tracer))


# ----------------------------------------------------------------------
# the DES twin: the same light phase simulated, under the strict checker
# ----------------------------------------------------------------------
@dataclass
class Twin:
    wall_s: float
    obs: Dict[str, float]
    verdict: Dict[str, int]
    check_report: Any


def des_twin(seed: int, n: int, check: Optional[str] = "strict",
             slack_s: float = 0.5) -> Twin:
    """Simulate the light phase's exact due times on the DES backend."""
    from repro.core import create_system
    from repro.rt.runtime import default_cluster

    dues = due_times(seed, 0, LIGHT_RATE, n)
    gaps = iter(np.diff(dues, prepend=0.0).tolist())
    recorder = TaskRecorder()
    system = create_system(
        fanout_topology(recorder), rt_config("sim"),
        cluster=default_cluster(),
        arrivals={"ticks": lambda _now: next(gaps, None)},
        seed=seed,
    )
    recorder.clock = system.sim
    checker = system.attach_checker(mode=check) if check else None
    t0 = _clock()
    system.start()
    system.metrics.open_window()
    system.sim.run(until=float(dues[-1]) + slack_s)
    system.metrics.close_window()
    wall_s = _clock() - t0
    report = checker.finalize() if checker is not None else None
    completion = system.metrics.completion
    latencies = completion.latencies
    tasks = system.placement.tasks_of["match"]
    return Twin(
        wall_s=wall_s,
        obs={
            "sim_goodput_tps": completion.completed / recorder.last_t,
            "sim_latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
            "sim_latency_tail_ms": 1e3 * tail(latencies, LATENCY_TAIL_PCT),
        },
        verdict=recorder.verdict(tasks, n),
        check_report=report,
    )


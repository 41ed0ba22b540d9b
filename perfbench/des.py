"""The three discrete-event workloads, driven through the program's own
entry points.

Each workload is a *unit*: one seeded simulation of fixed size, built
and started (timed as set-up) and then run (timed as wall).  The unit
returns the system it ran, so the caller can read the program's
counters, drain it, and check its ledger.

* ``rdmc_fanout``       — the fig03 shape at 6000 tuples/s;
* ``whale_ridehailing`` — ``run_app("ridehailing",
  whale_full_config(d_star=5), 30)`` at its default 1.1x overdrive;
* ``reliable_overload`` — the ``at_least_once``, flow-on row of
  ``ablation_overload``.

Both start from settings on which the program loses and duplicates no
copy: the adaptive controller starts at the d* it settles on, and the
overload row is the at-least-once one.  ``README.md`` (known defects)
says why, and the benchmark's tests keep both defects in view.

Fast-forward is passed as ``False`` wherever the program takes it; the
environment variables that change engine defaults are refused by
``run.py`` before any unit runs.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

_clock = time.perf_counter

#: sim observable sample counts must leave at least this many samples
#: beyond the stated tail percentile.
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------------
# ledger: every one-to-many copy's outcome, from the program's trace
# ----------------------------------------------------------------------
def ledger_tap():
    """An in-memory tracer that keeps the per-copy ledger of a run.

    It records, for each one-to-many tuple registered in the measurement
    window, its destination tasks (``mc.register``), every execution at a
    task (``tuple.execute``), and the tuple-level outcomes that excuse a
    copy from executing: a transfer-queue drop, a shed, an abandoned
    replay tree, or a deferral back to the spout (which re-emits it as a
    new tuple, so a deferred tuple is not an attempted one).  It also
    keeps every emit, so copies of tuples emitted before the window
    opened are counted too (:meth:`copies`).
    """
    from repro.trace.tracer import Tracer

    class LedgerTap(Tracer):
        def __init__(self) -> None:
            super().__init__({"mc", "tuple", "shed", "fault", "flow"})
            self.expected: Dict[int, set] = {}
            self.executed: Counter = Counter()
            self.outcome: Dict[int, str] = {}
            self.emits: List[tuple] = []

        def write(self, record: Dict[str, Any]) -> None:
            kind = record["kind"]
            if kind == "tuple.execute":
                self.executed[(record["id"], record["task"])] += 1
            elif kind == "tuple.emit":
                self.emits.append((record["id"], record["operator"]))
            elif kind == "mc.register":
                self.expected.setdefault(record["id"], set()).update(
                    record["dsts"]
                )
            elif kind == "tuple.drop":
                self.outcome.setdefault(record["id"], "dropped")
            elif kind in ("shed.drop", "shed.evict"):
                self.outcome.setdefault(record["id"], "shed")
            elif kind == "fault.replay_give_up":
                self.outcome.setdefault(record["root"], "abandoned")
            elif kind == "flow.defer":
                self.outcome[record["id"]] = "deferred"

        def copies(self, system) -> Dict[int, List[int]]:
            """Destination tasks of every one-to-many tuple of the run.

            A tuple registered in the window has its registered
            destinations.  The program registers no tuple emitted before
            the window opened, so such a tuple is owed one execution at
            every task of its operator's one-to-many consumers.
            """
            fanout: Dict[str, List[int]] = {}
            for op in system.topology.bolts():
                for src, grouping in op.inputs.items():
                    if grouping.one_to_many:
                        fanout.setdefault(src, []).extend(
                            system.placement.tasks_of[op.name]
                        )
            out: Dict[int, Any] = dict(self.expected)
            for tuple_id, operator in self.emits:
                if operator in fanout and tuple_id not in out:
                    out[tuple_id] = fanout[operator]
            return out

        def ledger(self, system) -> Dict[str, int]:
            """Each copy's outcome: executed once, dropped, shed,
            abandoned, or lost (no outcome); executions beyond the first
            are duplicates.  ``*_before_window`` are the shares of the
            lost and duplicate counts from tuples emitted before the
            window opened."""
            out = Counter(
                attempted=0, executed=0, dropped=0, shed=0, abandoned=0,
                lost=0, duplicates=0, lost_before_window=0,
                duplicates_before_window=0,
            )
            executed = self.executed
            for tuple_id, dsts in self.copies(system).items():
                outcome = self.outcome.get(tuple_id)
                if outcome == "deferred":
                    continue
                early = tuple_id not in self.expected
                for task in dsts:
                    out["attempted"] += 1
                    n = executed.get((tuple_id, task), 0)
                    if n:
                        out["executed"] += 1
                        out["duplicates"] += n - 1
                        if early:
                            out["duplicates_before_window"] += n - 1
                    elif outcome is not None:
                        out[outcome] += 1
                    else:
                        out["lost"] += 1
                        if early:
                            out["lost_before_window"] += 1
            return dict(out)

        def in_flight(self) -> int:
            executed = self.executed
            return sum(
                1
                for tuple_id, dsts in self.expected.items()
                if tuple_id not in self.outcome
                for task in dsts
                if (tuple_id, task) not in executed
            )

    return LedgerTap()


def settle(system, tap=None, horizon_s: float = 2.0,
           step_s: float = 0.005) -> Dict[str, Any]:
    """Stop the spouts and run the simulation until every one-to-many
    tuple has an outcome and the executions stop changing (or
    ``horizon_s`` more simulated seconds pass).

    Returns the drained run's delivered ratio (tuples every destination
    executed / tuples registered in the window), its total destination
    executions, and the per-copy ledger when ``tap`` is attached.  The
    drain waits for the registered copies only: a copy emitted before
    the window that is still missing when executions stop is lost.
    """
    for spout in system.spout_executors:
        spout.stop()
    completion = system.metrics.completion
    deadline = system.sim.now + horizon_s
    last = -1
    while system.sim.now < deadline:
        done = executions(system)
        if done == last and not completion.outstanding and (
            tap is None or not tap.in_flight()
        ):
            break
        last = done
        system.sim.run(until=min(deadline, system.sim.now + step_s))
    return {
        "delivered_ratio": (
            completion.completed / completion.registered
            if completion.registered else 1.0
        ),
        "executions": executions(system),
        "ledger": tap.ledger(system) if tap is not None else None,
    }


# ----------------------------------------------------------------------
# observables
# ----------------------------------------------------------------------
def tail(samples: List[float], pct: float) -> float:
    """The ``pct`` percentile, or NaN when fewer than ten samples lie
    beyond it (``run.py`` refuses a NaN metric)."""
    if len(samples) * (1 - pct / 100.0) < TAIL_MIN_BEYOND:
        return math.nan
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def observables(goodput_tps: float, latencies_s: List[float],
                tail_pct: float) -> Dict[str, float]:
    """The simulated observables of one unit (deterministic per seed)."""
    return {
        "sim_goodput_tps": float(goodput_tps),
        "sim_latency_p50_ms": 1e3 * float(np.percentile(latencies_s, 50)),
        "sim_latency_tail_ms": 1e3 * tail(latencies_s, tail_pct),
        "latency_samples": len(latencies_s),
    }


def executions(system) -> int:
    """Destination executions over the whole run (every bolt task)."""
    return sum(getattr(ex, "processed", 0) for ex in system.executors.values())


@dataclass
class Unit:
    """One seeded simulation: timings, the system, its observables."""

    setup_s: float
    wall_s: float
    system: Any
    obs: Dict[str, float]
    copies: int
    check_report: Any = None


@contextmanager
def timed_setup(module, tracer=None):
    """Time ``create_system`` + ``start`` as called from ``module``.

    The program's drivers (``run_app``, ``overload_run``) build and start
    their system internally; this swaps ``module.create_system`` for a
    wrapper that times the build and the system's ``start`` and, when
    ``tracer`` is given, hands it to the system.  The module attribute is
    restored on exit.
    """
    real = module.create_system
    times: List[float] = []

    def create_system(*args, **kwargs):
        if tracer is not None:
            kwargs["tracer"] = tracer
        t0 = _clock()
        system = real(*args, **kwargs)
        built = _clock() - t0
        start = system.start

        def timed_start() -> None:
            t1 = _clock()
            start()
            times.append(built + _clock() - t1)

        system.start = timed_start
        return system

    module.create_system = create_system
    try:
        yield times
    finally:
        module.create_system = real


# ----------------------------------------------------------------------
# rdmc_fanout
# ----------------------------------------------------------------------
RDMC_RATE = 6000.0
RDMC_SINKS = 480
RDMC_MACHINES = 30
RDMC_QUEUE = 64
RDMC_TAIL_PCT = 80.0
#: simulated seconds after the last arrival by which every copy must
#: have executed (a static tree at 6000 tuples/s drains in well under 1 ms)
RDMC_DRAIN_LIMIT_S = 0.05


def _rdmc_topology():
    from repro.dsps import AllGrouping, Bolt, Spout, Topology

    class RequestSpout(Spout):
        payload_bytes = 150

        def next_tuple(self):
            return {}, None, 150

    class LightMatching(Bolt):
        base_service_s = 20e-6

    topo = Topology("rdmc-exam")
    topo.add_spout("src", RequestSpout)
    topo.add_bolt(
        "matching",
        LightMatching,
        parallelism=RDMC_SINKS,
        inputs={"src": AllGrouping()},
        terminal=True,
    )
    return topo


def uniform_arrivals(rng, n: int, window_s: float):
    """Exactly ``n`` arrivals at sorted uniform instants in
    ``[0, window_s)``: a Poisson process conditioned on its count, so the
    seed moves the arrival pattern but not the amount of work."""
    times = np.sort(rng.uniform(0.0, window_s, n))
    gaps = iter(np.diff(times, prepend=0.0).tolist())
    return lambda _now: next(gaps, None)


def rdmc_unit(seed: int, window_s: float, check: Optional[str] = None,
              tracer=None, trace_path: Optional[str] = None) -> Unit:
    """``window_s`` simulated seconds of arrivals in the fig03 shape at
    6000 tuples/s, measured until the last copy executes."""
    from repro.core import create_system
    from repro.dsps.presets import rdmc_config
    from repro.net.cluster import Cluster

    if trace_path is not None:
        from repro.trace import JsonlTracer

        tracer = JsonlTracer(trace_path)
    config = rdmc_config().with_overrides(transfer_queue_capacity=RDMC_QUEUE)
    n = round(RDMC_RATE * window_s)
    rng = np.random.default_rng(seed)
    try:
        t0 = _clock()
        system = create_system(
            _rdmc_topology(),
            config,
            cluster=Cluster(RDMC_MACHINES, 1, 16),
            arrivals={"src": uniform_arrivals(rng, n, window_s)},
            tracer=tracer,
        )
        checker = system.attach_checker(mode=check) if check else None
        system.start()
        t1 = _clock()
        system.metrics.open_window()
        # Arrivals stop at ``window_s``; run until the last copy has
        # executed, so every seed does exactly the same work.
        sim = system.sim
        limit = window_s + RDMC_DRAIN_LIMIT_S
        while sim.peek() <= limit:
            sim.step()
        system.metrics.close_window()
        t2 = _clock()
        report = checker.finalize() if checker is not None else None
    finally:
        if trace_path is not None:
            tracer.close()
    m = system.metrics
    obs = observables(
        m.processed["matching"] / RDMC_SINKS / m.window_duration,
        m.completion.latencies,
        RDMC_TAIL_PCT,
    )
    return Unit(t1 - t0, t2 - t1, system, obs, executions(system), report)


# ----------------------------------------------------------------------
# whale_ridehailing
# ----------------------------------------------------------------------
WHALE_PARALLELISM = 30
WHALE_TAIL_PCT = 95.0
#: the d* the adaptive controller starts from.  From the config's default
#: of 3 it switches to 5 at ~0.10 simulated s and loses or duplicates
#: copies in flight across the switch; started at 5, it keeps 5.
WHALE_D_STAR = 5


def whale_unit(seed: int, budget: int, check: Optional[str] = None,
               tracer=None, trace_path: Optional[str] = None,
               d_star: int = WHALE_D_STAR) -> Unit:
    """``run_app("ridehailing", whale_full_config(d_star=d_star), 30)``
    with a ``budget``-tuple window."""
    import repro.bench.runner as runner
    from repro.core.whale import whale_full_config

    with timed_setup(runner, tracer) as setups:
        t0 = _clock()
        run = runner.run_app(
            "ridehailing",
            whale_full_config(d_star=d_star),
            WHALE_PARALLELISM,
            tuple_budget=budget,
            seed=seed,
            keep_system=True,
            fast_forward=False,
            check=check,
            trace_path=trace_path,
        )
        total = _clock() - t0
    system = run.system
    obs = observables(
        run.throughput, system.metrics.completion.latencies, WHALE_TAIL_PCT
    )
    return Unit(setups[0], total - setups[0], system, obs, executions(system),
                run.check_report)


# ----------------------------------------------------------------------
# reliable_overload
# ----------------------------------------------------------------------
OVERLOAD_TAIL_PCT = 90.0
#: the delivery guarantee of the overload row.  Under ``exactly_once``
#: the slow node executes some copies twice (epoch GC drops a root's
#: dedup state while a replay of it is queued); at-least-once allows
#: duplicates, so the ledger counts them apart and fails only lost copies.
OVERLOAD_DELIVERY = "at_least_once"
_SCHEDULES: Dict[tuple, Any] = {}


def overload_schedule(seed: int, duration_s: float):
    """The ``ablation_overload`` timeline for ``seed``: one random crash of
    a machine that hosts neither the acker nor a multicast source, an 8x
    flash crowd from 0.15 s for 0.3 s, and one 3x slow node over the same
    window."""
    key = (seed, duration_s)
    if key in _SCHEDULES:
        return _SCHEDULES[key]
    from repro.apps.ridehailing import ride_hailing_topology
    from repro.bench import faults
    from repro.core import create_system
    from repro.faults import FaultEvent, FaultSchedule
    from repro.net.cluster import Cluster

    probe = create_system(
        ride_hailing_topology(
            18, n_drivers=faults.N_DRIVERS, compute_real_matches=False
        ),
        faults._overload_config("at_least_once", False),
        cluster=Cluster(8, 1, 16),
        seed=seed,
    )
    protected = {probe.reliability.home_machine}
    for service in probe.multicast_services:
        protected.add(service.src_machine)
    eligible = sorted(set(probe.workers) - protected)
    crashes = FaultSchedule.random(
        eligible, horizon_s=duration_s, n_crashes=1, seed=seed,
        min_downtime_s=0.1, max_downtime_s=0.2,
    )
    events = list(crashes.events)
    events.append(FaultEvent.flash_crowd(0.15, 8.0, 0.3))
    events.append(FaultEvent.slow_node(0.15, eligible[0], 3.0, 0.3))
    schedule = _SCHEDULES[key] = FaultSchedule(events)
    return schedule


def overload_unit(seed: int, duration_s: float, check: Optional[str] = None,
                  tracer=None, trace_path: Optional[str] = None,
                  delivery: str = OVERLOAD_DELIVERY) -> Unit:
    """``overload_run(delivery, flow=True)`` under the seeded
    ``ablation_overload`` timeline; the run drains its own replays."""
    import repro.bench.faults as faults

    schedule = overload_schedule(seed, duration_s)
    if trace_path is not None:
        from repro.trace import JsonlTracer

        tracer = JsonlTracer(trace_path)
    try:
        with timed_setup(faults, tracer) as setups:
            t0 = _clock()
            point = faults.overload_run(
                delivery,
                True,
                fault_schedule=schedule,
                duration_s=duration_s,
                seed=seed,
                check=check,
            )
            total = _clock() - t0
    finally:
        if trace_path is not None:
            tracer.close()
    system = point["system"]
    obs = observables(
        point["goodput"], system.metrics.completion.latencies,
        OVERLOAD_TAIL_PCT,
    )
    return Unit(setups[0], total - setups[0], system, obs, executions(system),
                point["check_report"])


# ----------------------------------------------------------------------
TAIL_PCT = {
    "rdmc_fanout": RDMC_TAIL_PCT,
    "whale_ridehailing": WHALE_TAIL_PCT,
    "reliable_overload": OVERLOAD_TAIL_PCT,
}

#: workloads whose delivery guarantee allows a copy to execute twice
DUPLICATES_ALLOWED = {"reliable_overload"}

UNITS = {
    "rdmc_fanout": rdmc_unit,
    "whale_ridehailing": whale_unit,
    "reliable_overload": overload_unit,
}

#: size argument per workload and purpose, each made for the first
#: ``<purpose>_runs`` sub-seeds: ``full`` is the measured unit and the
#: size of the ledger runs; ``traced`` the JSONL-traced runs; ``checked``
#: the strict-checked runs; ``tiny`` the benchmark's own tests.  The
#: strict checker costs ~7x on whale_ridehailing, ~5x on
#: reliable_overload and ~70x on rdmc_fanout (one state sweep over 480
#: sinks per trace record), so its runs are smaller than the measured
#: unit, and several (on reliable_overload, where its cost differs most
#: between inputs, eight).  On rdmc_fanout the traced runs are half size too:
#: three full-size ones (~2 s each) spread 0.28 over five seeds, as one
#: slow moment of the host moved a median of three.
SIZES = {
    "rdmc_fanout": {
        "full": 0.01, "traced": 0.005, "checked": 0.0002, "tiny": 0.002,
        "ledger_runs": 1, "traced_runs": 5, "checked_runs": 4,
    },
    "whale_ridehailing": {
        "full": 400, "traced": 400, "checked": 100, "tiny": 60,
        "ledger_runs": 1, "traced_runs": 4, "checked_runs": 6,
    },
    "reliable_overload": {
        "full": 0.8, "traced": 0.8, "checked": 0.3, "tiny": 0.3,
        "ledger_runs": 2, "traced_runs": 4, "checked_runs": 8,
    },
}

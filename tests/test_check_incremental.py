"""Incremental invariant checking: as sharp as a full sweep, and cheap.

The checker runs each state invariant only on the record kinds it
watches, and the queue invariants only on the queue a ``queue.*`` record
names.  These tests hold that to three promises:

* **Same verdicts.** Seeded bugs — each corrupting one subsystem inside
  the code path that mutates it — are reported under the same invariant
  names by the incremental checker as by a full ``check_state()`` sweep
  after every record (``tests/_check_util.SweepTap``).
* **Caught during the run.** A bug in shedding or in the rebalancer's
  directory fails a strict run by name, not only at ``finalize()``.
* **Size-independent cost.** The work the state invariants do per record
  (counted in Python calls, so machine speed does not enter) stays the
  same from parallelism 8 to 64, and a ``queue.*`` record makes the
  queue invariants inspect one queue.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np
import pytest

from repro.bench.hotkey import CountingSink, ZipfKeySpout
from repro.check import InvariantChecker, InvariantViolation
from repro.check.invariants import CheckContext
from repro.core import create_system, whale_full_config
from repro.dsps import Topology
from repro.dsps.comm import MulticastService
from repro.dsps.metrics import CompletionTracker
from repro.dsps.rebalance import PartitionRouter
from repro.faults import FaultEvent, FaultSchedule
from repro.net import Cluster
from repro.sim.queues import TransferQueue
from repro.workloads import PoissonArrivals

from tests._check_util import (
    build_checked_system,
    incremental_vs_swept,
    run_windowed,
)


# ----------------------------------------------------------------------
# scenarios that reach each guarded subsystem
# ----------------------------------------------------------------------
def _plain(check):
    system, _ = build_checked_system(
        whale_full_config(adaptive=False), check=check
    )
    return system, run_windowed


def _shedding(check):
    """Flow control with ``drop_head`` shedding at a two-slot transfer
    queue under a 20x flash crowd: queues evict."""
    config = whale_full_config(adaptive=False).with_overrides(
        flow=True,
        credit_window=8,
        transfer_queue_capacity=2,
        shed_policy="drop_head",
    )
    schedule = FaultSchedule([FaultEvent.flash_crowd(0.05, 20.0, 0.2)])
    system, _ = build_checked_system(
        config, n_tuples=400, gap_s=0.0005, fault_schedule=schedule,
        check=check,
    )
    return system, run_windowed


def _rebalancing(check):
    """A Zipf hot-key storm over a fields edge with the rebalancer on:
    the hot task gets parked."""
    config = whale_full_config(adaptive=False).with_overrides(
        partitioning="fields",
        rebalance=True,
        rebalance_waterline_fraction=0.02,
        rebalance_interval_s=0.02,
        rebalance_cooldown_s=0.05,
    )
    topo = Topology("storm")
    topo.add_spout("events", lambda: ZipfKeySpout(n_keys=50, s=1.5, seed=5))
    topo.add_bolt(
        "counts",
        lambda: CountingSink(0.5e-3),
        parallelism=8,
        inputs={"events": "fields"},
        terminal=True,
    )
    system = create_system(
        topo,
        config,
        cluster=Cluster(4, 1, 16),
        arrivals={
            "events": PoissonArrivals(6_000.0, np.random.default_rng(5))
        },
        seed=5,
    )
    if check:
        system.attach_checker(mode=check)

    def run(system):
        system.start()
        system.sim.run(until=0.2)

    return system, run


def _repairing(check):
    """A relay crash with failure detection: the controller excises the
    dead machine's endpoints, then reattaches them on recovery."""
    config = whale_full_config(adaptive=False).with_overrides(
        delivery="at_least_once",
        failure_detection=True,
        ack_timeout_s=0.1,
        ack_sweep_interval_s=0.02,
        max_replays=5,
    )
    schedule = FaultSchedule.single_crash(2, crash_at=0.08, recover_at=0.2)
    system, _ = build_checked_system(
        config, n_machines=4, parallelism=8, n_tuples=80,
        fault_schedule=schedule, check=check,
    )
    return system, lambda s: run_windowed(s, measure_s=0.4, drain_s=0.6)


# ----------------------------------------------------------------------
# seeded bugs, each inside the code path that owns the state
# ----------------------------------------------------------------------
def _leak_tracker(monkeypatch):
    def leaky_on_executed(self, root_id, destination, at=None):
        self._pending.pop(root_id, None)  # lost, never counted anywhere

    monkeypatch.setattr(CompletionTracker, "on_executed", leaky_on_executed)


def _forget_dequeue(monkeypatch):
    original = TransferQueue._on_get

    def forgetful_on_get(self, item):
        original(self, item)
        self.dequeued -= 1

    monkeypatch.setattr(TransferQueue, "_on_get", forgetful_on_get)


def _evict_as_dequeue(monkeypatch):
    """The victim is booked as a dequeue instead of a shed: the queue's
    own identity still closes, only the shed views disagree."""
    original = TransferQueue.evict

    def miscounted_evict(self, index=0):
        payload = original(self, index)
        self.shed -= 1
        self.dequeued += 1
        return payload

    monkeypatch.setattr(TransferQueue, "evict", miscounted_evict)


def _park_without_rewire(monkeypatch):
    """Parking records the task but leaves it in the live route list."""

    def park(self, operator, task_id):
        self._parked[operator].add(task_id)

    monkeypatch.setattr(PartitionRouter, "park", park)


def _detach_without_bookkeeping(monkeypatch):
    """Repair excises the endpoint but forgets it was detached."""
    original = MulticastService.detach_endpoint

    def detach(self, endpoint):
        plan = original(self, endpoint)
        self._detached.discard(endpoint)
        return plan

    monkeypatch.setattr(MulticastService, "detach_endpoint", detach)


SEEDED_BUGS = {
    "tracker_leak": (_leak_tracker, _plain, "tracker_conservation"),
    "forgotten_dequeue": (_forget_dequeue, _plain, "queue_conservation"),
    "evict_as_dequeue": (_evict_as_dequeue, _shedding, "shed_conservation"),
    "park_without_rewire": (
        _park_without_rewire, _rebalancing, "partition_routing",
    ),
    "detach_without_bookkeeping": (
        _detach_without_bookkeeping, _repairing, "tree_structure",
    ),
}


@pytest.mark.parametrize("scenario", [_plain, _shedding, _rebalancing,
                                      _repairing])
def test_clean_scenarios_agree_with_full_sweeps(scenario):
    system, run = scenario(None)
    assert incremental_vs_swept(system, run) == (set(), set())


@pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
def test_seeded_bugs_incremental_matches_full_sweeps(bug, monkeypatch):
    seed_bug, scenario, expected = SEEDED_BUGS[bug]
    seed_bug(monkeypatch)
    system, run = scenario(None)
    incremental, swept = incremental_vs_swept(system, run)
    assert expected in incremental
    assert incremental == swept


@pytest.mark.parametrize("bug", ["evict_as_dequeue", "park_without_rewire"])
def test_seeded_bug_is_caught_strict_during_the_run(bug, monkeypatch):
    seed_bug, scenario, expected = SEEDED_BUGS[bug]
    seed_bug(monkeypatch)
    system, run = scenario("strict")
    with pytest.raises(InvariantViolation) as exc:
        run(system)
    assert exc.value.violation.invariant == expected
    assert not system.checker.report.finalized


def test_replay_cursor_catches_a_root_completing_twice():
    """The uniqueness check only scans completions added since its last
    call; a root recorded twice must still be named."""
    system, run = _repairing("warn")
    run(system)
    checker = system.checker
    assert checker.check_state().ok
    coord = system.reliability
    coord.completions.append(coord.completions[0])
    coord.registered += 1  # keep the count identity closed
    violations = checker.check_state().violations
    assert [v.invariant for v in violations] == ["replay_conservation"]
    assert "counted twice" in violations[0].message


# ----------------------------------------------------------------------
# cost per record does not grow with the system
# ----------------------------------------------------------------------
def _state_check_costs(parallelism, monkeypatch):
    """Run the broadcast topology under a strict checker.  Returns the
    state-invariant evaluations per record, the Python calls made per
    evaluation, and the most executors one ``queue.*`` record made each
    queue invariant inspect."""
    evaluations = [0]
    calls = [0]
    widest = defaultdict(int)

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    run_one = InvariantChecker._run

    def counted_run(self, ctx, t, record=None):
        if ctx.invariant.scope != "state":
            return run_one(self, ctx, t, record)
        evaluations[0] += 1
        sys.setprofile(count)
        try:
            return run_one(self, ctx, t, record)
        finally:
            sys.setprofile(None)

    executors = CheckContext.executors

    def counted_executors(self):
        scope = list(executors(self))
        record = self.record
        if record is not None and record["kind"].startswith("queue."):
            key = self.invariant.name
            widest[key] = max(widest[key], len(scope))
        return scope

    with monkeypatch.context() as patch:
        patch.setattr(InvariantChecker, "_run", counted_run)
        patch.setattr(CheckContext, "executors", counted_executors)
        # Task-level endpoints: the multicast tree grows with parallelism.
        config = whale_full_config(adaptive=False).with_overrides(
            worker_oriented=False
        )
        system, _ = build_checked_system(
            config, parallelism=parallelism, n_machines=4, n_tuples=40,
        )
        run_windowed(system)
    records = system.checker.report.records_seen
    return evaluations[0] / records, calls[0] / evaluations[0], dict(widest)


def test_state_checks_per_record_do_not_grow_with_parallelism(monkeypatch):
    """A regression to per-record full sweeps makes each evaluation walk
    every queue or the whole tree, so its cost grows ~8x from 8 to 64."""
    small = _state_check_costs(8, monkeypatch)
    large = _state_check_costs(64, monkeypatch)
    for metric in (0, 1):
        assert abs(large[metric] - small[metric]) < 0.10 * small[metric], (
            small, large,
        )
    for _, _, widest in (small, large):
        assert widest["queue_conservation"] == 1

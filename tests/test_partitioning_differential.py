"""Differential: the strategy registry is invisible to legacy runs.

The registry refactor rewired how groupings are constructed and bound to
executors.  These tests pin the contract that made that safe: a seeded
topology routed through registry-constructed strategies (string names on
edges, or a system-wide ``SystemConfig.partitioning`` override naming
the same algorithm) produces a **bit-identical trace** to the legacy
grouping instances — every record, in order, field for field.  Every run
is strict-checked.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_system, whale_full_config
from repro.dsps import (
    AllGrouping,
    Bolt,
    FieldsGrouping,
    ShuffleGrouping,
    Spout,
    Topology,
)
from repro.net import Cluster
from repro.trace import MemoryTracer

from tests._check_util import finite_arrivals

N_TUPLES = 40
GAP_S = 0.002

seeds = st.integers(min_value=0, max_value=2**16)
diff_settings = settings(max_examples=6, deadline=None)


class KeyedSeqSpout(Spout):
    """Deterministic keyed sequence: key cycles over 7 values."""

    payload_bytes = 120

    def __init__(self):
        self.sequence = 0

    def next_tuple(self):
        self.sequence += 1
        return (
            {"seq": self.sequence},
            f"k{self.sequence % 7}",
            self.payload_bytes,
        )


class SeqSpout(Spout):
    payload_bytes = 120

    def __init__(self):
        self.sequence = 0

    def next_tuple(self):
        self.sequence += 1
        return {"seq": self.sequence}, None, self.payload_bytes


class NullSink(Bolt):
    base_service_s = 2e-6

    def execute(self, tup, collector):
        pass


def _topology(spout_cls, grouping):
    topo = Topology("diff")
    topo.add_spout("src", spout_cls)
    topo.add_bolt(
        "sink", NullSink, parallelism=6, inputs={"src": grouping}, terminal=True
    )
    return topo


def _trace(topology, seed, config=None):
    tracer = MemoryTracer()
    system = create_system(
        topology,
        config or whale_full_config(adaptive=False),
        cluster=Cluster(3, 1, 16),
        arrivals={"src": finite_arrivals(GAP_S, N_TUPLES)},
        seed=seed,
        tracer=tracer,
    )
    # The checker schedules nothing, so checked traces stay comparable.
    checker = system.attach_checker(mode="strict")
    system.start()
    system.sim.run(until=0.5)
    assert checker.finalize().ok
    return tracer.records


def _assert_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left == right


# ----------------------------------------------------------------------
# registry names on edges == legacy instances
# ----------------------------------------------------------------------
@given(seed=seeds)
@diff_settings
def test_registry_shuffle_is_bit_identical_to_legacy(seed):
    legacy = _trace(_topology(SeqSpout, ShuffleGrouping()), seed)
    registry = _trace(_topology(SeqSpout, "shuffle"), seed)
    _assert_identical(legacy, registry)


@given(seed=seeds)
@diff_settings
def test_registry_fields_is_bit_identical_to_legacy(seed):
    legacy = _trace(_topology(KeyedSeqSpout, FieldsGrouping()), seed)
    registry = _trace(_topology(KeyedSeqSpout, "fields"), seed)
    _assert_identical(legacy, registry)


@given(seed=seeds)
@diff_settings
def test_registry_all_is_bit_identical_to_legacy(seed):
    legacy = _trace(_topology(SeqSpout, AllGrouping()), seed)
    registry = _trace(_topology(SeqSpout, "all"), seed)
    _assert_identical(legacy, registry)


# ----------------------------------------------------------------------
# config.partitioning naming the same algorithm == declared grouping
# ----------------------------------------------------------------------
@given(seed=seeds)
@diff_settings
def test_partitioning_override_with_same_algorithm_is_bit_identical(seed):
    """``partitioning="fields"`` over a fields-declared edge constructs
    a fresh registry instance — the trace must not move by a bit."""
    base = whale_full_config(adaptive=False)
    declared = _trace(_topology(KeyedSeqSpout, FieldsGrouping()), seed)
    overridden = _trace(
        _topology(KeyedSeqSpout, FieldsGrouping()),
        seed,
        config=base.with_overrides(partitioning="fields"),
    )
    _assert_identical(declared, overridden)


@given(seed=seeds)
@diff_settings
def test_partitioning_override_never_touches_broadcast_edges(seed):
    """One-to-many edges carry the multicast machinery; the system-wide
    override must leave them on their declared grouping."""
    base = whale_full_config(adaptive=False)
    declared = _trace(_topology(SeqSpout, AllGrouping()), seed)
    overridden = _trace(
        _topology(SeqSpout, AllGrouping()),
        seed,
        config=base.with_overrides(partitioning="shuffle"),
    )
    _assert_identical(declared, overridden)


def test_partitioning_override_changes_routing_when_algorithms_differ():
    """Sanity check that the differential harness has teeth: overriding
    a shuffle edge with consistent hashing *does* change the trace."""
    base = whale_full_config(adaptive=False)
    shuffle = _trace(_topology(KeyedSeqSpout, ShuffleGrouping()), seed=3)
    hashed = _trace(
        _topology(KeyedSeqSpout, ShuffleGrouping()),
        seed=3,
        config=base.with_overrides(partitioning="consistent_hash"),
    )
    assert shuffle != hashed

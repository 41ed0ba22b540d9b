"""Differential testing: lazy sinks vs. the per-tuple working-thread server.

A bolt's working thread is one FIFO server (see
:class:`repro.dsps.executor.BoltExecutor`), with one exception: in an
untraced run with no reliability or flow layer, terminal sinks complete
*lazily* — their completion instants are computed and realized in
batches, with no engine event per tuple.  Attaching a tracer (even one
that records nothing) or an invariant checker puts every bolt on the
per-tuple server, the slower path.  Neither choice may change *what*
the system computes: the executed tuple multiset, completion counts,
drop counts and per-tuple latency values have to match exactly —
observable differences are limited to same-instant tie ordering, which
multiset comparison is deliberately blind to.  Test names call the
lazy sinks the *batched* path and the per-tuple server the *slow* path.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_system, whale_full_config, whale_woc_rdma_config
from repro.dsps import ShuffleGrouping, Topology, storm_config
from repro.net import Cluster
from repro.trace import MemoryTracer
from tests._check_util import (
    RecordingBolt,
    SeqSpout,
    build_checked_system,
    finite_arrivals,
    run_windowed,
)

END_TO_END = settings(max_examples=8, deadline=None)


def _noop_tracer():
    return MemoryTracer(categories=())


def _run(config, *, traced, check=None, parallelism=6, n_machines=3,
         n_tuples=60, seed=1):
    system, log = build_checked_system(
        config,
        parallelism=parallelism, n_machines=n_machines,
        n_tuples=n_tuples, seed=seed, check=check,
        tracer=_noop_tracer() if traced else None,
    )
    run_windowed(system, drain_s=0.5)
    return system, log


def _lazy(system):
    return {
        ex._lazy
        for ex in system.executors.values()
        if type(ex).__name__ == "BoltExecutor"
    }


CONFIGS = [
    ("whale_full", lambda: whale_full_config(adaptive=False)),
    ("whale_woc_rdma", whale_woc_rdma_config),
    ("storm", storm_config),
]


@pytest.mark.parametrize("name,make_config", CONFIGS)
def test_batched_and_slow_paths_deliver_identical_multisets(
    name, make_config
):
    lazy_sys, lazy_log = _run(make_config(), traced=False)
    served_sys, served_log = _run(make_config(), traced=True)
    # The runs actually took different paths.
    assert _lazy(lazy_sys) == {True}
    assert _lazy(served_sys) == {False}
    assert Counter(lazy_log) == Counter(served_log)
    assert set(Counter(lazy_log).values()) == {1}  # exactly-once


def _assert_same_results(a, b):
    am, bm = a.metrics, b.metrics
    assert am.completion.completed == bm.completion.completed
    assert sum(am.dropped.values()) == sum(bm.dropped.values())
    # Lazy completion instants are computed, not event-resolved — but
    # they are the *same* instants, so the per-tuple latency multiset
    # matches exactly (ordering may differ on ties).
    assert set(am.sink_latencies) == set(bm.sink_latencies)
    for op in am.sink_latencies:
        assert sorted(am.sink_latencies[op]) == sorted(bm.sink_latencies[op])


@pytest.mark.parametrize("name,make_config", CONFIGS)
def test_batched_and_slow_paths_agree_on_metrics(name, make_config):
    lazy_sys, _ = _run(make_config(), traced=False)
    served_sys, _ = _run(make_config(), traced=True)
    _assert_same_results(lazy_sys, served_sys)


def test_checker_forces_event_resolved_path_and_multiset_matches():
    lazy_sys, lazy_log = _run(whale_full_config(adaptive=False), traced=False)
    checked_sys, checked_log = _run(
        whale_full_config(adaptive=False), traced=False, check="strict"
    )
    # The checker's tracer tap puts every bolt on the per-tuple server.
    assert _lazy(checked_sys) == {False}
    assert checked_sys.checker.finalize().ok
    assert Counter(lazy_log) == Counter(checked_log)
    _assert_same_results(lazy_sys, checked_sys)


def test_batched_dispatch_is_deterministic_per_seed():
    for traced in (False, True):
        runs = [
            _run(whale_full_config(adaptive=False), traced=traced, seed=7)[1]
            for _ in range(2)
        ]
        # Full ordered log, not just the multiset: same seed, same trace.
        assert runs[0] == runs[1]


@END_TO_END
@given(
    parallelism=st.integers(min_value=2, max_value=8),
    n_machines=st.integers(min_value=2, max_value=4),
    n_tuples=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_dispatch_equivalence_holds_for_fuzzed_scenarios(
    parallelism, n_machines, n_tuples, seed
):
    runs = [
        _run(
            whale_full_config(adaptive=False), traced=traced,
            parallelism=parallelism, n_machines=n_machines,
            n_tuples=n_tuples, seed=seed,
        )
        for traced in (False, True)
    ]
    (lazy_sys, lazy_log), (served_sys, served_log) = runs
    assert Counter(lazy_log) == Counter(served_log)
    assert set(Counter(lazy_log).values()) == {1}
    _assert_same_results(lazy_sys, served_sys)


# ----------------------------------------------------------------------
# Queue-depth readers see one definition on both paths
# ----------------------------------------------------------------------
class _SlowSink(RecordingBolt):
    base_service_s = 40e-6


def _load_adaptive_run(traced: bool, seed: int = 1):
    log: list = []
    topo = Topology("load-adaptive")
    topo.add_spout("src", SeqSpout)
    topo.add_bolt(
        "sink",
        lambda: _SlowSink(log),
        parallelism=6,
        inputs={"src": ShuffleGrouping()},
        terminal=True,
    )
    system = create_system(
        topo,
        storm_config().with_overrides(partitioning="load_adaptive"),
        cluster=Cluster(3, 1, 16),
        arrivals={"src": finite_arrivals(10e-6, 400)},
        seed=seed,
        tracer=_noop_tracer() if traced else None,
    )
    system.start()
    system.sim.run(until=0.1)
    return system, log


def test_load_adaptive_routes_identically_traced_and_untraced():
    """``load_adaptive`` probes the sinks' queued depth on every emit; the
    depth excludes the tuple in service on both paths, so attaching a
    tracer must not move a single tuple to a different task."""
    lazy_sys, lazy_log = _load_adaptive_run(traced=False)
    served_sys, served_log = _load_adaptive_run(traced=True)
    assert _lazy(lazy_sys) == {True} and _lazy(served_sys) == {False}
    assert len(lazy_log) == 400
    # the sinks do back up, so the probe has depths to compare
    assert max(ex.inqueue_hwm for ex in served_sys.operator_executors("sink")) > 0
    assert sorted(lazy_log) == sorted(served_log)
    assert (
        lazy_sys.metrics.queue_depth_hwm == served_sys.metrics.queue_depth_hwm
    )


# ----------------------------------------------------------------------
# Vectorized arrivals: the block-buffered exponential draws must be
# bit-identical to scalar ``rng.exponential`` calls, including when
# several arrival processes share one generator.
# ----------------------------------------------------------------------
def test_poisson_arrivals_bit_identical_to_scalar_draws():
    from repro.workloads import PoissonArrivals

    rate = 4000.0
    vec = PoissonArrivals(rate, np.random.default_rng(42))
    ref = np.random.default_rng(42)
    gaps = [vec(0.0) for _ in range(3000)]  # spans block boundaries
    expected = [float(ref.exponential(1.0 / rate)) for _ in range(3000)]
    assert gaps == expected


def test_dynamic_arrivals_bit_identical_to_scalar_draws():
    from repro.workloads import DynamicRateArrivals, RateStep

    steps = [RateStep(0.0, 2000.0), RateStep(1.0, 8000.0)]
    vec = DynamicRateArrivals(steps, np.random.default_rng(9))
    ref = np.random.default_rng(9)
    for now in (0.0, 0.5, 1.0, 1.5, 2.0) * 600:
        rate = vec.rate_at(now)
        assert vec(now) == float(ref.exponential(1.0 / rate))


def test_shared_rng_interleaving_matches_scalar_semantics():
    from repro.workloads import PoissonArrivals

    rng = np.random.default_rng(5)
    a = PoissonArrivals(1000.0, rng)
    b = PoissonArrivals(3000.0, rng)
    ref = np.random.default_rng(5)
    # Alternate draws across two processes sharing one generator: the
    # shared buffer must hand out variates in global draw order.
    for i in range(2100):
        proc, rate = (a, 1000.0) if i % 2 == 0 else (b, 3000.0)
        assert proc(0.0) == float(ref.exponential(1.0 / rate))

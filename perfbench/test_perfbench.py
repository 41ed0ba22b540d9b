"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench -q

They run every workload at a tiny size (``run.py --tiny``), so they take
a few minutes.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import des  # noqa: E402
import layers  # noqa: E402
import rt  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_results():
    cache = {}

    def get(workload, trace):
        key = (workload, trace)
        if key not in cache:
            proc = _run(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace), "--tiny"])
            cache[key] = proc
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(tiny_results, workload,
                                                    trace):
    proc = tiny_results(workload, trace)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    assert result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    env = json.loads(lines[-2])["env"]
    assert {"commit", "code_digest", "nproc", "python", "numpy"} <= set(env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct(tiny_results, workload, trace):
    proc = tiny_results(workload, trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        name for name, _unit in run.END_TO_END
    ]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [
        name for name, _unit in layers.PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


# ----------------------------------------------------------------------
# an injected lost copy is counted
# ----------------------------------------------------------------------
def test_dropped_copy_in_the_ledger_fails_the_run():
    tap = des.ledger_tap()
    unit = des.rdmc_unit(5, des.SIZES["rdmc_fanout"]["tiny"], tracer=tap)
    settled = des.settle(unit.system, tap)
    clean = run.Checks()
    run.judge_ledger(clean, settled, settled)
    assert clean.failed == 0 and not clean.problems
    assert clean.attempted > 0

    victim = next(iter(tap.executed))
    del tap.executed[victim]
    dropped = dict(settled, ledger=tap.ledger(unit.system))
    checks = run.Checks()
    run.judge_ledger(checks, dropped, settled)
    assert checks.failed / checks.attempted > 0
    assert checks.problems


@pytest.mark.xfail(
    strict=True,
    reason="exactly-once executes 30 copies twice at the slow node: the "
    "epoch GC drops a root's dedup state while a selective replay of it "
    "is still queued (README.md, known defects)",
)
def test_exactly_once_overload_executes_each_copy_once():
    tap = des.ledger_tap()
    unit = des.overload_unit(12, des.SIZES["reliable_overload"]["full"],
                             tracer=tap, delivery="exactly_once")
    ledger = des.settle(unit.system, tap)["ledger"]
    assert ledger["lost"] == 0
    assert ledger["duplicates"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="copies in flight across the adaptive d* switch (3 -> 5) are "
    "never executed; at the 400-tuple size they were emitted before the "
    "measurement window opened (README.md, known defects)",
)
def test_adaptive_switch_loses_no_copy():
    tap = des.ledger_tap()
    # whale_full_config's own starting d*, from which the controller
    # switches to the benchmark's WHALE_D_STAR
    unit = des.whale_unit(16, des.SIZES["whale_ridehailing"]["full"],
                          tracer=tap, d_star=3)
    ledger = des.settle(unit.system, tap)["ledger"]
    assert ledger["lost_before_window"] == 0
    assert ledger["lost"] == 0


def test_copies_emitted_before_the_window_are_judged():
    tap = des.ledger_tap()
    unit = des.rdmc_unit(5, des.SIZES["rdmc_fanout"]["tiny"], tracer=tap)
    settled = des.settle(unit.system, tap)
    # one tuple emitted before the window, executed twice at one sink and
    # never at the other 479
    tap.write({"kind": "tuple.emit", "id": -1, "operator": "src"})
    sink = unit.system.placement.tasks_of["matching"][0]
    tap.write({"kind": "tuple.execute", "id": -1, "task": sink})
    tap.write({"kind": "tuple.execute", "id": -1, "task": sink})
    ledger = tap.ledger(unit.system)
    assert ledger["lost"] == ledger["lost_before_window"] == des.RDMC_SINKS - 1
    assert ledger["duplicates"] == ledger["duplicates_before_window"] == 1
    checks = run.Checks()
    run.judge_ledger(checks, dict(settled, ledger=ledger), settled)
    assert checks.failed == des.RDMC_SINKS
    assert len(checks.problems) == 2


def test_duplicated_copy_in_the_ledger_fails_the_run():
    tap = des.ledger_tap()
    unit = des.rdmc_unit(5, des.SIZES["rdmc_fanout"]["tiny"], tracer=tap)
    settled = des.settle(unit.system, tap)
    tap.executed[next(iter(tap.executed))] += 1
    checks = run.Checks()
    run.judge_ledger(checks, dict(settled, ledger=tap.ledger(unit.system)),
                     settled)
    assert checks.failed == 1


def test_at_least_once_counts_duplicates_without_failing():
    tap = des.ledger_tap()
    unit = des.overload_unit(5, des.SIZES["reliable_overload"]["tiny"],
                             tracer=tap)
    settled = des.settle(unit.system, tap)
    assert settled["ledger"]["duplicates"] > 0  # spurious replays
    allowed = run.Checks()
    run.judge_ledger(allowed, settled, settled, duplicates_allowed=True)
    assert allowed.failed == 0 and not allowed.problems
    strict = run.Checks()
    run.judge_ledger(strict, settled, settled)
    assert strict.failed == settled["ledger"]["duplicates"]


def test_host_speed_scales_to_reference_seconds():
    speed = run.HostSpeed()
    out, factor = speed.run(sum, range(10))
    assert out == 45
    assert factor > 0 and speed.factors == [factor]


def test_missing_rt_execution_fails_the_run():
    recorder = rt.TaskRecorder()
    recorder.clock = type("Clock", (), {"now": 0.0})()
    for seq in range(3):
        for task in (1, 2):
            recorder.record(task, seq)
    recorder.record(2, 1)
    assert recorder.verdict([1, 2], 3) == {
        "attempted": 6, "executed": 7, "missing": 0, "duplicates": 1,
    }
    del recorder.counts[(1, 0)]
    phase = rt.Phase(
        setup_s=0.0, wall_s=1.0, n=3, verdict=recorder.verdict([1, 2], 3),
        latencies_s=[], lateness_s=[], replays=0,
        credit_stall_s=0.0, completed=3, registered=3,
    )
    checks = run.Checks()
    run._rt_phase_checks(checks, phase)
    assert checks.failed == 1 and checks.problems


# ----------------------------------------------------------------------
# determinism of the simulated numbers
# ----------------------------------------------------------------------
def _traced_unit(seed):
    recorder = SpanRecorder()
    try:
        layers.instrument(recorder)
        unit = des.overload_unit(seed, des.SIZES["reliable_overload"]["tiny"])
    finally:
        recorder.unwrap()
    return unit.obs, recorder.count("sim.step")


def test_same_seed_repeats_sim_numbers_and_another_seed_changes_them():
    obs1, events1 = _traced_unit(1)
    obs1b, events1b = _traced_unit(1)
    obs2, events2 = _traced_unit(2)
    assert repr(obs1) == repr(obs1b)
    assert events1 == events1b > 0
    assert events2 != events1
    assert obs2["sim_goodput_tps"] != obs1["sim_goodput_tps"]


def test_spans_leave_the_simulation_unchanged():
    size = des.SIZES["whale_ridehailing"]["tiny"]
    plain = des.whale_unit(4, size)
    recorder = SpanRecorder()
    try:
        layers.instrument(recorder)
        traced = des.whale_unit(4, size)
    finally:
        recorder.unwrap()
    assert repr(plain.obs) == repr(traced.obs)
    assert plain.copies == traced.copies


# ----------------------------------------------------------------------
# span plumbing
# ----------------------------------------------------------------------
class _Target:
    def leaf(self):
        return sum(range(1000))

    def parent(self):
        return self.leaf() + self.leaf()

    def gen(self):
        got = yield self.leaf()
        yield got

    async def coro(self):
        await asyncio.sleep(0)
        return self.leaf()


def test_span_recorder_times_calls_resumes_and_unwraps():
    originals = dict(_Target.__dict__)
    recorder = SpanRecorder()
    for attr in ("leaf", "parent", "gen", "coro"):
        recorder.patch(_Target, attr, attr)
    try:
        target = _Target()
        target.parent()
        g = target.gen()
        next(g)
        assert g.send("x") == "x"
        with pytest.raises(StopIteration):
            next(g)
        assert asyncio.run(target.coro()) == sum(range(1000))
    finally:
        recorder.unwrap()
    assert all(_Target.__dict__[a] is originals[a]
               for a in ("leaf", "parent", "gen", "coro"))
    assert recorder.count("parent") == 1
    assert recorder.count("leaf") == 4
    assert recorder.count("gen") == 3  # one span per resume
    assert recorder.count("coro") == 2  # before and after the sleep
    parent = recorder.stats["parent"]
    assert 0 < parent.self_ns < parent.total_ns


# ----------------------------------------------------------------------
# environment hygiene
# ----------------------------------------------------------------------
@pytest.mark.parametrize("var", run.FORBIDDEN_ENV)
def test_engine_override_variables_are_refused(var):
    env = dict(os.environ, **{var: "1"})
    proc = _run(["--workload", "rt_fanout", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--tiny"], env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rdmc_fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

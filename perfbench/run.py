"""The repository's benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload rdmc_fanout --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and
checks the program's outputs; ``--trace 1`` runs the same workload with
timing spans around each layer's public functions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment (commit, code
digest, nproc, Python and numpy versions).  The exit code is 0 when the
outputs are correct, 1 when a check failed, 2 on a usage or environment
error.  ``README.md`` defines every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("rdmc_fanout", "whale_ridehailing", "reliable_overload",
             "rt_fanout")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("copies_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("delivered_ratio", "ratio"),
    ("sim_goodput_tps", "tuples/s"),
    ("checked_wall_s", "s"),
    ("traced_wall_s", "s"),
]

#: environment variables that switch engine defaults (the array calendar
#: is ~1.6x slower; fast-forward truncates windows).  The benchmark runs
#: the program's defaults, so it refuses to run with either set.
FORBIDDEN_ENV = ("REPRO_SIM_CALENDAR", "REPRO_FAST_FORWARD")
#: seeds per run: repeats cycle through ``SUB_SEEDS`` seeds derived from
#: ``--seed``, so one run's medians average over that many inputs (the
#: wall time of one seed's input differs from another's by up to ~20%)
SUB_SEEDS = 8
#: measured repeats per run, at least: one per sub-seed, so the medians
#: of the simulated metrics are over the same inputs on every host
MIN_REPEATS = SUB_SEEDS
#: tolerance between the fast untraced path and the event-resolved
#: checked path on the same seed: executions after drain must match
#: exactly (a lost or duplicated copy fails); simulated goodput and
#: median latency may differ by a same-instant tie reorder
OBS_TOLERANCE = 0.01

#: metrics that need ten samples beyond their percentile
TAILS = ("sim_latency_tail_ms", "driver.latency_tail_ms")

#: Host times are reported in reference seconds: each measured call runs
#: between two calibration loops (``ref_loop``), and its seconds are
#: scaled by ``REF_LOOP_S`` / their mean duration.  On a host that runs
#: the loop in ``REF_LOOP_S`` (a quiet 2-vCPU x86 VM, CPython 3.11) they
#: are wall seconds; a shared host that slows down as a whole for a while
#: moves them far less than it moves wall seconds.  The factors are
#: printed beside the result (``host_speed``).
REF_LOOP_S = 0.039
#: events the calibration loop handles, and its processes and pending events
REF_LOOP_EVENTS = 45_000
REF_LOOP_PROCS = 64
REF_LOOP_PENDING = 2_000

_clock = time.perf_counter


class Checks:
    """Collects correctness findings for one run."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: findings reported beside the result that do not fail the run
        self.notes: Dict[str, Any] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def agree(self, name: str, a: float, b: float) -> None:
        ok = math.isfinite(a) and math.isfinite(b) and (
            abs(a - b) <= OBS_TOLERANCE * max(abs(a), abs(b))
        )
        self.require(ok, f"{name}: fast path {a!r} vs checked path {b!r}")


def sub_seeds(seed: int) -> List[int]:
    """The input seeds of one run: ``SUB_SEEDS * seed + j``, disjoint
    between runs."""
    return [SUB_SEEDS * seed + j for j in range(SUB_SEEDS)]


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, Any]:
    import numpy

    from repro.exp.points import code_version

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "code_digest": code_version(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def jsonl_stats(path: str) -> Dict[str, float]:
    """Records (excluding the manifest line) and bytes of a JSONL trace."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        lines = sum(1 for _ in f)
    records = max(lines - 1, 1)
    return {"records": records, "bytes": size}


def timed(fn: Callable, *args, **kwargs):
    t0 = _clock()
    out = fn(*args, **kwargs)
    return out, _clock() - t0


def _ref_process(state: Dict[int, float]):
    while True:
        key, t = yield
        state[key] = state.get(key, 0.0) + t


def ref_loop() -> float:
    """Seconds a fixed pure-Python event loop takes now.

    It does the kind of work the simulator does (a heap of pending
    events, generator processes resumed by ``send``, dict updates) but
    none of the program's code, so a change to the program leaves it
    alone; only the host's speed moves it.
    """
    t0 = _clock()
    state: Dict[int, float] = {}
    procs = [_ref_process(state) for _ in range(REF_LOOP_PROCS)]
    for proc in procs:
        next(proc)
    heap = [(i * 0.37 % 50.0, i, i % REF_LOOP_PROCS)
            for i in range(REF_LOOP_PENDING)]
    heapq.heapify(heap)
    for i in range(REF_LOOP_EVENTS):
        t, _, owner = heapq.heappop(heap)
        procs[owner].send((i % 997, t))
        heapq.heappush(heap, (t + (i * 7919 % 101) * 0.01,
                              REF_LOOP_PENDING + i,
                              (owner * 31 + i) % REF_LOOP_PROCS))
    return _clock() - t0


class HostSpeed:
    """Scale factors to reference seconds, one per measured call."""

    def __init__(self) -> None:
        self.factors: List[float] = []

    def run(self, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` between two calibration loops; returns
        its result and the factor that turns its seconds into reference
        seconds.  Garbage left by earlier calls is collected first, so
        no call pays for another's."""
        gc.collect()
        before = ref_loop()
        out = fn(*args, **kwargs)
        factor = 2 * REF_LOOP_S / (before + ref_loop())
        self.factors.append(factor)
        return out, factor

    def notes(self) -> Dict[str, Any]:
        return {"host_speed": {"median": median(self.factors),
                               "min": min(self.factors),
                               "max": max(self.factors)}}


# ----------------------------------------------------------------------
# DES workloads
# ----------------------------------------------------------------------
def judge_ledger(checks: Checks, checked: Dict[str, Any],
                 fast: Dict[str, Any], duplicates_allowed: bool = False
                 ) -> None:
    """Fail the run on any copy without an outcome, any duplicate
    execution (unless the delivery guarantee allows duplicates, which
    are then only counted), or any difference between the drained
    executions of the checked (event-resolved) path and the fast path of
    the same seed.  Copies of tuples emitted before the measurement
    window count the same as those inside it."""
    ledger = checked["ledger"]
    lost = ledger["lost"]
    dup = 0 if duplicates_allowed else ledger["duplicates"]
    drift = abs(fast["executions"] - checked["executions"])
    checks.attempted += ledger["attempted"]
    checks.failed += lost + dup + drift
    checks.require(
        lost == 0,
        f"{lost} copies never reached an outcome "
        f"({ledger['lost_before_window']} emitted before the window)",
    )
    checks.require(
        dup == 0,
        f"{dup} duplicate executions "
        f"({ledger['duplicates_before_window']} emitted before the window)",
    )
    checks.require(
        drift == 0,
        f"executions after drain: fast path {fast['executions']} vs "
        f"checked path {checked['executions']}",
    )


def des_end_to_end(name: str, seed: int, seconds: float, tiny: bool,
                   checks: Checks) -> Dict[str, float]:
    import des

    unit = des.UNITS[name]
    sizes = des.SIZES[name]
    pick = (lambda _key: sizes["tiny"]) if tiny else sizes.__getitem__
    full = pick("full")
    subs = sub_seeds(seed)
    speed = HostSpeed()
    unit(seed, pick("tiny"))  # warm-up: imports, caches
    t_start = _clock()

    walls: List[float] = []
    setups: List[float] = []
    rates: List[float] = []
    #: per sub-seed: (observables, copies, drained summary) of its first
    #: repeat, which every later repeat of that sub-seed must reproduce
    seen: Dict[int, tuple] = {}
    while True:
        sub = subs[len(walls) % len(subs)]
        u, k = speed.run(unit, sub, full)
        walls.append(k * u.wall_s)
        setups.append(k * u.setup_s)
        rates.append(u.copies / (k * u.wall_s))
        if sub not in seen:
            seen[sub] = (u.obs, u.copies, des.settle(u.system))
        else:
            obs, copies, _ = seen[sub]
            checks.require(
                repr(u.obs) == repr(obs) and u.copies == copies,
                f"repeats of seed {sub} disagree: {u.obs} / {u.copies} vs "
                f"{obs} / {copies}",
            )
        del u
        if len(walls) >= MIN_REPEATS and _clock() - t_start >= seconds:
            break
    rss = peak_rss_mb()

    # The ledger runs: every one-to-many copy's outcome, on the
    # event-resolved path (an attached tracer refuses batched dispatch).
    totals: Counter = Counter()
    for sub in subs[:1 if tiny else sizes["ledger_runs"]]:
        tap = des.ledger_tap()
        lu = unit(sub, full, tracer=tap)
        ls = des.settle(lu.system, tap)
        fast_obs, _copies, fast_settled = seen[sub]
        judge_ledger(checks, ls, fast_settled,
                     name in des.DUPLICATES_ALLOWED)
        for key in ("sim_goodput_tps", "sim_latency_p50_ms"):
            checks.agree(key, fast_obs[key], lu.obs[key])
        totals.update(ls["ledger"])
    checks.notes["ledger"] = dict(totals)
    # The strict checker costs 5-70x, so it runs at a smaller size, on
    # several sub-seeds.
    checked_walls: List[float] = []
    reports = []
    for sub in subs[:1 if tiny else sizes["checked_runs"]]:
        cu, k = speed.run(unit, sub, pick("checked"), check="strict")
        checked_walls.append(k * cu.wall_s)
        reports.append(cu.check_report)
    checks.require(all(r is not None and r.ok for r in reports),
                   "invariant violations")

    traced_walls = []
    with scratch_dir() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        for sub in subs[:1 if tiny else sizes["traced_runs"]]:
            tu, k = speed.run(unit, sub, pick("traced"), trace_path=path)
            traced_walls.append(k * tu.wall_s)
    checks.notes.update(speed.notes())
    # Every run reaches the first MIN_REPEATS sub-seeds, however fast the
    # host is, so medians over those alone are exact per --seed.
    reached = [seen[sub] for sub in subs[:MIN_REPEATS]]
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "copies_per_s": median(rates),
        "peak_rss_mb": rss,
        "delivered_ratio": median([v[2]["delivered_ratio"] for v in reached]),
        "sim_goodput_tps": median([v[0]["sim_goodput_tps"] for v in reached]),
        "checked_wall_s": median(checked_walls),
        "traced_wall_s": median(traced_walls),
    }


def des_per_layer(name: str, seed: int, tiny: bool,
                  checks: Checks) -> Dict[str, float]:
    import des
    import layers
    from spans import SpanRecorder

    unit = des.UNITS[name]
    sizes = des.SIZES[name]
    pick = (lambda _key: sizes["tiny"]) if tiny else sizes.__getitem__
    full = pick("full")
    seed = sub_seeds(seed)[0]

    base, base_total = timed(unit, seed, full)
    recorder = SpanRecorder()
    try:
        extra = layers.instrument(recorder)
        traced, traced_total = timed(unit, seed, full)
    finally:
        recorder.unwrap()
    checks.require(repr(traced.obs) == repr(base.obs),
                   "timing spans changed the simulated observables")
    out = layers.empty()
    out.update(layers.span_metrics(
        recorder, extra, int(traced_total * 1e9), traced.copies
    ))
    out.update(layers.system_metrics(traced.system))
    out["sim_latency_p50_ms"] = traced.obs["sim_latency_p50_ms"]
    out["sim_latency_tail_ms"] = traced.obs["sim_latency_tail_ms"]
    out["sim_latency_tail_pct"] = des.TAIL_PCT[name]
    out["trace.overhead"] = traced_total / base_total

    checked_size = pick("checked")
    checked = unit(seed, checked_size, check="strict")
    plain = unit(seed, checked_size)
    report = checked.check_report
    checks.require(report is not None and report.ok, "invariant violations")
    out["check.records"] = report.records_seen
    out["check.checks"] = report.checks_run
    out["check.ns_per_record"] = 1e9 * (
        checked.wall_s - plain.wall_s
    ) / max(report.records_seen, 1)
    with scratch_dir() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        jsonl = unit(seed, full, trace_path=path)
        stats = jsonl_stats(path)
    out["trace.records"] = stats["records"]
    out["trace.bytes_per_record"] = stats["bytes"] / stats["records"]
    out["trace.ns_per_record"] = 1e9 * (
        jsonl.wall_s - base.wall_s
    ) / stats["records"]

    # The same per-copy ledger as --trace 0, apart from the timed runs.
    tap = des.ledger_tap()
    ledger_run = unit(seed, full, tracer=tap)
    settled = des.settle(ledger_run.system, tap)
    judge_ledger(checks, settled, des.settle(base.system),
                 name in des.DUPLICATES_ALLOWED)
    checks.notes["ledger"] = settled["ledger"]
    return out


# ----------------------------------------------------------------------
# rt workload
# ----------------------------------------------------------------------
def _rt_phase_checks(checks: Checks, phase) -> None:
    verdict = phase.verdict
    checks.attempted += verdict["attempted"]
    checks.failed += verdict["missing"]
    checks.require(
        verdict["missing"] == 0,
        f"{verdict['missing']} of {verdict['attempted']} (task, tick) "
        "executions missing",
    )


def rt_jsonl_phase(seed: int, n: int, path: str):
    """An overload phase with the JSONL tracer writing to ``path``."""
    import rt
    from repro.trace import JsonlTracer

    tracer = JsonlTracer(path)
    try:
        return rt.overload_phase(seed, n, tracer=tracer)
    finally:
        tracer.close()


def rt_end_to_end(seed: int, seconds: float, tiny: bool,
                  checks: Checks) -> Dict[str, float]:
    import rt

    size = "tiny" if tiny else "full"
    _n_light, n_over = rt.SIZES[size]
    subs = sub_seeds(seed)
    speed = HostSpeed()
    rt.overload_phase(seed, rt.SIZES["tiny"][1])  # warm-up: imports, caches
    t_start = _clock()
    setups: List[float] = []
    walls: List[float] = []
    rates: List[float] = []
    completed = registered = 0
    while True:
        phase, k = speed.run(rt.overload_phase, subs[len(walls) % len(subs)],
                             n_over)
        _rt_phase_checks(checks, phase)
        setups.append(k * phase.setup_s)
        completed += phase.completed
        registered += phase.registered
        walls.append(k * phase.wall_s)
        rates.append(phase.verdict["executed"] / (k * phase.wall_s))
        if len(walls) >= MIN_REPEATS and _clock() - t_start >= seconds:
            break
    rss = peak_rss_mb()

    twins = []
    twin_walls = []
    for sub in subs[:rt.RUNS["twin"]]:
        twin, k = speed.run(rt.des_twin, sub, rt.TWIN_TUPLES[size])
        twins.append(twin)
        twin_walls.append(k * twin.wall_s)
    for twin in twins:
        verdict = twin.verdict
        checks.attempted += verdict["attempted"]
        checks.failed += verdict["missing"] + verdict["duplicates"]
        checks.require(
            verdict["missing"] == 0 and verdict["duplicates"] == 0,
            f"DES twin executions: {verdict}",
        )
        checks.require(twin.check_report.ok, "invariant violations (DES twin)")

    traced_walls = []
    with scratch_dir() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        for sub in subs[:rt.RUNS["traced"]]:
            traced, k = speed.run(rt_jsonl_phase, sub, n_over, path)
            _rt_phase_checks(checks, traced)
            traced_walls.append(k * traced.wall_s)
    checks.notes.update(speed.notes())
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "copies_per_s": median(rates),
        "peak_rss_mb": rss,
        "delivered_ratio": completed / registered if registered else 1.0,
        "sim_goodput_tps": median([t.obs["sim_goodput_tps"] for t in twins]),
        "checked_wall_s": median(twin_walls),
        "traced_wall_s": median(traced_walls),
    }


def rt_per_layer(seed: int, tiny: bool, checks: Checks) -> Dict[str, float]:
    import numpy as np

    import layers
    import rt
    from spans import SpanRecorder

    n_light, n_over = rt.SIZES["tiny" if tiny else "full"]
    seed = sub_seeds(seed)[0]
    out = layers.empty()

    light = rt.light_phase(seed, n_light, probe=True)
    _rt_phase_checks(checks, light)
    out["latency_p50_ms"] = 1e3 * median(light.latencies_s)
    out["driver.lag_ms"] = 1e3 * median(light.lateness_s)
    out["driver.latency_tail_ms"] = 1e3 * rt.tail(
        light.latencies_s, rt.LATENCY_TAIL_PCT
    )
    lags = np.asarray(light.loop_lag_s or [0.0])
    out["rt.loop_lag_p50_ms"] = 1e3 * float(np.percentile(lags, 50))
    out["rt.loop_lag_p99_ms"] = 1e3 * float(np.percentile(lags, 99))

    base, base_total = timed(rt.overload_phase, seed, n_over)
    _rt_phase_checks(checks, base)
    recorder = SpanRecorder()
    try:
        extra = layers.instrument(recorder)
        traced, traced_total = timed(rt.overload_phase, seed, n_over)
    finally:
        recorder.unwrap()
    _rt_phase_checks(checks, traced)
    copies = traced.verdict["executed"]
    out.update(layers.span_metrics(
        recorder, extra, int(traced_total * 1e9), copies
    ))
    out["trace.overhead"] = traced_total / base_total
    out["rt.replays_per_tuple"] = base.replays / base.n
    out["rt.duplicates"] = base.verdict["duplicates"]
    out["rt.credit_stall_s"] = base.credit_stall_s

    plain = rt.des_twin(seed, n_light, check=None)
    twin = rt.des_twin(seed, n_light)
    report = twin.check_report
    checks.require(report.ok, "invariant violations (DES twin)")
    out["sim_latency_p50_ms"] = twin.obs["sim_latency_p50_ms"]
    out["sim_latency_tail_ms"] = twin.obs["sim_latency_tail_ms"]
    out["sim_latency_tail_pct"] = rt.LATENCY_TAIL_PCT
    out["check.records"] = report.records_seen
    out["check.checks"] = report.checks_run
    out["check.ns_per_record"] = (
        1e9 * (twin.wall_s - plain.wall_s) / max(report.records_seen, 1)
    )
    with scratch_dir() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        jsonl = rt_jsonl_phase(seed, n_over, path)
        stats = jsonl_stats(path)
    _rt_phase_checks(checks, jsonl)
    out["trace.records"] = stats["records"]
    out["trace.bytes_per_record"] = stats["bytes"] / stats["records"]
    out["trace.ns_per_record"] = (
        1e9 * (jsonl.wall_s - base.wall_s) / stats["records"]
    )
    return out


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> Dict[str, Any]:
    import layers

    checks = Checks()
    if workload == "rt_fanout":
        values = (rt_per_layer(seed, tiny, checks) if trace
                  else rt_end_to_end(seed, seconds, tiny, checks))
    elif trace:
        values = des_per_layer(workload, seed, tiny, checks)
    else:
        values = des_end_to_end(workload, seed, seconds, tiny, checks)
    spec = layers.PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in spec:
        value = float(values[name])
        # A tiny run has too few samples for its tail percentile.
        checks.require(math.isfinite(value) or (tiny and name in TAILS),
                       f"{name} is not finite")
        metrics[name] = {"value": value if math.isfinite(value) else 0.0,
                         "unit": unit}
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return checks.notes, {
        "correct": not checks.problems,
        "attempted": max(int(checks.attempted), 1),
        "failed": int(checks.failed),
        "metrics": metrics,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure repeats for this long (at least "
                        f"{MIN_REPEATS} repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    forbidden = [var for var in FORBIDDEN_ENV if var in os.environ]
    if forbidden:
        print(f"error: unset {', '.join(forbidden)}: the benchmark measures "
              "the program's defaults", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    notes, result = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny)
    print(json.dumps({"env": environment(), **notes}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

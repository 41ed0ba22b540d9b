"""Per-layer metrics: which public functions the traced run times, and
how the spans and the program's own counters become named numbers.

Every workload prints every name in :data:`PER_LAYER`; a layer a
workload does not reach reads 0.  ``README.md`` maps each metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from spans import SpanRecorder

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.events", "count"),
    ("sim.events_per_copy", "ratio"),
    ("sim.step.self_ns", "ns"),
    ("sim.schedule_call.count", "count"),
    ("sim.timeout.count", "count"),
    ("sim.process.count", "count"),
    ("sim.self_share", "ratio"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_tail_ms", "ms"),
    ("sim_latency_tail_pct", "pct"),
    ("comm.send.count", "count"),
    ("comm.send.self_ns", "ns"),
    ("comm.send_to_endpoint.count", "count"),
    ("comm.send_to_endpoint.self_ns", "ns"),
    ("comm.relay_from.count", "count"),
    ("comm.relay_from.self_ns", "ns"),
    ("comm.deliver.count", "count"),
    ("comm.deliver.self_ns", "ns"),
    ("comm.self_share", "ratio"),
    ("net.fabric.send.count", "count"),
    ("net.fabric.send.self_ns", "ns"),
    ("net.rdma.send.count", "count"),
    ("net.rdma.send.self_ns", "ns"),
    ("net.rnic.post.count", "count"),
    ("net.rnic.post.self_ns", "ns"),
    ("net.rnic.queue_depth.max", "count"),
    ("net.tcp.send.count", "count"),
    ("net.messages_per_copy", "ratio"),
    ("net.bytes_per_copy", "B"),
    ("net.self_share", "ratio"),
    ("executor.accept.count", "count"),
    ("executor.accept.self_ns", "ns"),
    ("executor.accept.refused", "count"),
    ("executor.transfer_queue.max_load", "ratio"),
    ("worker.dispatch_local.count", "count"),
    ("worker.dispatch_local.self_ns", "ns"),
    ("executor.self_share", "ratio"),
    ("grouping.all.choose.count", "count"),
    ("grouping.all.choose.self_ns", "ns"),
    ("grouping.fields.choose.count", "count"),
    ("grouping.fields.choose.self_ns", "ns"),
    ("grouping.shuffle.choose.count", "count"),
    ("grouping.shuffle.choose.self_ns", "ns"),
    ("grouping.self_share", "ratio"),
    ("reliability.register.count", "count"),
    ("reliability.on_delivery.count", "count"),
    ("reliability.on_delivery.self_ns", "ns"),
    ("reliability.notify_executed.self_ns", "ns"),
    ("reliability.useful_ratio", "ratio"),
    ("reliability.replays", "count"),
    ("reliability.duplicates_suppressed", "count"),
    ("reliability.self_share", "ratio"),
    ("flow.credit_stall_s", "s"),
    ("flow.deferred", "count"),
    ("flow.shed", "count"),
    ("metrics.self_share", "ratio"),
    ("metrics.latency_samples", "count"),
    ("multicast.plan_switch.count", "count"),
    ("multicast.plan_repair.count", "count"),
    ("core.d_star.final", "count"),
    ("check.records", "count"),
    ("check.checks", "count"),
    ("check.ns_per_record", "ns"),
    ("trace.records", "count"),
    ("trace.bytes_per_record", "B"),
    ("trace.ns_per_record", "ns"),
    ("trace.overhead", "ratio"),
    ("rt.encode_frame.count", "count"),
    ("rt.encode_frame.self_ns", "ns"),
    ("rt.feed.count", "count"),
    ("rt.feed.self_ns", "ns"),
    ("rt.frames_per_copy", "ratio"),
    ("rt.bytes_per_copy", "B"),
    ("rt.replays_per_tuple", "ratio"),
    ("rt.duplicates", "count"),
    ("rt.credit_stall_s", "s"),
    ("rt.loop_lag_p50_ms", "ms"),
    ("rt.loop_lag_p99_ms", "ms"),
    ("rt.self_share", "ratio"),
    ("latency_p50_ms", "ms"),
    ("driver.lag_ms", "ms"),
    ("driver.latency_tail_ms", "ms"),
    ("copies", "count"),
    ("traced_wall_ns", "ns"),
    ("unattributed_share", "ratio"),
]

#: layer prefix of each span name -> the layer whose self share it
#: counts toward
LAYERS = ("sim", "comm", "net", "executor", "grouping", "reliability",
          "metrics", "rt")


def _layer_of(span: str) -> str:
    head = span.split(".", 1)[0]
    return "executor" if head == "worker" else head


def instrument(recorder: SpanRecorder) -> Dict[str, Any]:
    """Patch every layer's public entry points with timing spans.

    Returns counters the spans cannot express (refused accepts, the
    reliability verdicts, bytes framed, the deepest RNIC queue); they
    are filled while the patches are in place.
    """
    from repro.dsps import comm, executor, metrics, reliability, worker
    from repro.dsps.grouping import STRATEGIES
    from repro.net import fabric, rdma, rnic, tcp
    from repro.rt import framing, transport
    from repro.rt import worker as rt_worker
    from repro.sim import engine

    extra: Dict[str, Any] = {
        "refused": 0, "verdicts": 0, "executes": 0, "frame_bytes": 0,
        "rnic_depth": 0,
    }

    def on_accept(ok) -> None:
        if not ok:
            extra["refused"] += 1

    def on_verdict(verdict) -> None:
        extra["verdicts"] += 1
        if verdict == "execute":
            extra["executes"] += 1

    def on_frame(frame) -> None:
        extra["frame_bytes"] += len(frame)

    recorder.on_result.update({
        "executor.accept": on_accept,
        "reliability.on_delivery": on_verdict,
        "rt.encode_frame": on_frame,
    })

    targets = [
        (engine.Simulator, "step", "sim.step"),
        (engine.Simulator, "schedule_call", "sim.schedule_call"),
        (engine.Simulator, "timeout", "sim.timeout"),
        (engine.Simulator, "process", "sim.process"),
        (comm.CommEngine, "send", "comm.send"),
        (comm.CommEngine, "send_to_endpoint", "comm.send_to_endpoint"),
        (comm.MulticastService, "send_from_source", "comm.send_from_source"),
        (comm.MulticastService, "relay_from", "comm.relay_from"),
        (comm.InstancePacket, "deliver", "comm.deliver"),
        (comm.WorkerPacket, "deliver", "comm.deliver"),
        (fabric.Fabric, "send", "net.fabric.send"),
        (rdma.RdmaTransport, "send", "net.rdma.send"),
        (tcp.TcpTransport, "send", "net.tcp.send"),
        (executor.BoltExecutor, "accept", "executor.accept"),
        (worker.Worker, "dispatch_local", "worker.dispatch_local"),
        (reliability.ReplayCoordinator, "register", "reliability.register"),
        (reliability.ReplayCoordinator, "on_delivery",
         "reliability.on_delivery"),
        (reliability.ReplayCoordinator, "notify_executed",
         "reliability.notify_executed"),
        (transport, "encode_frame", "rt.encode_frame"),
        (framing.FrameDecoder, "feed", "rt.feed"),
        (rt_worker.WorkerHost, "route", "rt.route"),
        (rt_worker.WorkerHost, "send", "rt.send"),
        (rt_worker.WorkerHost, "deliver_local", "rt.deliver_local"),
        (rt_worker.RtBoltExecutor, "_run", "rt.bolt_loop"),
        (rt_worker.Acker, "register", "rt.acker.register"),
        (rt_worker.Acker, "on_ack", "rt.acker.on_ack"),
    ]
    for attr in ("on_emit", "on_processed", "on_processed_at", "on_drop",
                 "on_sink_latency", "on_sink_latency_at", "note_queue_depth"):
        targets.append((metrics.MetricsHub, attr, f"metrics.{attr}"))
    for cls in (metrics.MulticastTracker, metrics.CompletionTracker):
        for attr in ("register", "on_receive", "on_executed"):
            if attr in cls.__dict__:
                targets.append((cls, attr, f"metrics.{cls.__name__}.{attr}"))
    for name, cls in STRATEGIES.items():
        if "choose" in getattr(cls, "__dict__", {}):
            targets.append((cls, "choose", f"grouping.{name}.choose"))
    for owner, attr, name in targets:
        recorder.patch(owner, attr, name)

    # The deepest RNIC send queue: read right after each post.
    post = rnic.Rnic.post

    def deepest_post(self, wr):
        event = post(self, wr)
        if self.queue_depth > extra["rnic_depth"]:
            extra["rnic_depth"] = self.queue_depth
        return event

    recorder.patch(rnic.Rnic, "post", "net.rnic.post", fn=deepest_post)
    return extra


def span_metrics(recorder: SpanRecorder, extra: Dict[str, Any],
                 traced_wall_ns: int, copies: int) -> Dict[str, float]:
    """Counts, mean self times and layer shares from a traced run."""
    out: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "ns" and name.endswith(".self_ns"):
            out[name] = recorder.mean_self_ns(name[: -len(".self_ns")])
        elif name.endswith(".count"):
            out[name] = recorder.count(name[: -len(".count")])
    out["sim.events"] = recorder.count("sim.step")
    out["sim.events_per_copy"] = _ratio(out["sim.events"], copies)
    out["executor.accept.refused"] = extra["refused"]
    out["net.rnic.queue_depth.max"] = extra["rnic_depth"]
    out["reliability.useful_ratio"] = _ratio(extra["executes"],
                                             extra["verdicts"])
    out["rt.frames_per_copy"] = _ratio(recorder.count("rt.encode_frame"),
                                       copies)
    out["rt.bytes_per_copy"] = _ratio(extra["frame_bytes"], copies)
    shares: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, stats in recorder.stats.items():
        shares[_layer_of(name)] += stats.self_ns
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(shares[layer], traced_wall_ns)
    out["unattributed_share"] = 1.0 - sum(
        out[f"{layer}.self_share"] for layer in LAYERS
    )
    out["copies"] = copies
    out["traced_wall_ns"] = traced_wall_ns
    return out


def system_metrics(system) -> Dict[str, float]:
    """Per-layer numbers the DES keeps itself, read after a run."""
    m = system.metrics
    fabric = system.fabric
    copies = sum(getattr(ex, "processed", 0) for ex in system.executors.values())
    reliability = system.reliability
    controllers = getattr(system, "controllers", [])
    services = system.multicast_services
    return {
        "net.messages_per_copy": _ratio(fabric.messages_injected, copies),
        "net.bytes_per_copy": _ratio(fabric.total_bytes_sent, copies),
        "executor.transfer_queue.max_load": max(
            ex.transfer_queue.max_length / ex.transfer_queue.capacity
            for ex in system.executors.values()
        ),
        "reliability.replays": reliability.replays if reliability else 0,
        "reliability.duplicates_suppressed": (
            reliability.duplicates_suppressed if reliability else 0
        ),
        "flow.credit_stall_s": sum(m.credit_stall_s.values()),
        "flow.deferred": m.messages_deferred,
        "flow.shed": m.messages_shed,
        "metrics.latency_samples": (
            len(m.completion.latencies)
            + len(m.multicast.latencies)
            + sum(len(v) for v in m.sink_latencies.values())
        ),
        "multicast.plan_switch.count": sum(len(c.history) for c in controllers),
        "multicast.plan_repair.count": sum(len(c.repairs) for c in controllers),
        "core.d_star.final": max((s.d_star for s in services), default=0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def empty() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


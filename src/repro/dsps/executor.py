"""Executors: the task threads of a worker.

Each task runs as two simulated threads, mirroring Storm's executor
anatomy (Section 4 of the paper):

* the **working thread** serves accepted tuples in FIFO order from a
  bounded backlog, charges the operator's service time, and runs the
  user logic (which may emit);
* the **sending thread** drains the bounded **transfer queue** and hands
  envelopes to the communication engine.  The transfer queue is the
  queue of the paper's M/D/1 model; when it overflows, tuples are lost
  (Definition 4: *stream input loss*).

Spout executors replace the working thread with an arrival-driven
emission loop.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.dsps.api import Bolt, Spout, TupleContext
from repro.dsps.comm import Envelope
from repro.dsps.tuples import AddressedTuple, StreamTuple
from repro.net import cpu as cats
from repro.net.cpu import CpuAccount
from repro.sim.queues import TransferQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.system import DspsSystem


class _EmitCollector:
    """Collector handed to operator logic; routes emits to the transfer
    queue via the topology's groupings."""

    def __init__(self, executor: "ExecutorBase"):
        self._executor = executor

    def emit(
        self,
        stream: Optional[str] = None,
        values: Any = None,
        key: Any = None,
        payload_bytes: Optional[int] = None,
        anchor: Optional[StreamTuple] = None,
    ) -> None:
        self._executor._emit(
            values=values,
            key=key,
            payload_bytes=payload_bytes,
            anchor=anchor,
        )


class ExecutorBase:
    """Shared machinery of spout and bolt executors."""

    is_spout = False
    #: tuples waiting for the working thread, and their high-water mark
    #: (spouts take no input)
    queued = 0
    inqueue_hwm = 0

    def __init__(self, system: "DspsSystem", task_id: int):
        self.system = system
        self.sim = system.sim
        self.task_id = task_id
        self.operator = system.placement.operator_of[task_id]
        self.task_index = system.placement.index_of[task_id]
        self.machine_id = system.placement.machine_of[task_id]
        spec = system.topology.operators[self.operator]
        self.spec = spec
        self.cpu = CpuAccount(self.sim, f"{self.operator}[{task_id}]")
        self.transfer_queue = TransferQueue(
            self.sim,
            capacity=system.config.transfer_queue_capacity,
            name=f"{self.operator}[{task_id}].transfer",
        )
        self.collector = _EmitCollector(self)
        # Grouping instances are shared per topology edge (Storm's
        # semantics; shuffle's cursor interleaves across co-emitters),
        # except placement-aware strategies, whose ``for_emitter`` binds
        # a per-emitter wrapper.  Task lists are the placement's — or,
        # when the rebalancer is on, the router's *live* lists for
        # non-broadcast edges (broadcast always fans over the pristine
        # placement so multicast membership stays stable).
        router = system.partition_router
        self._groupings = {}
        for down in system.topology.downstream_of(self.operator):
            grouping = system.edge_grouping(self.operator, down.name)
            tasks = system.placement.tasks_of[down.name]
            if router is not None and not grouping.one_to_many:
                tasks = router.active_tasks(down.name)
            self._groupings[down.name] = (grouping.for_emitter(self), tasks)
        # EMA of the per-replica send time (the model's t_e), maintained by
        # the sending thread; seeded lazily from the first measurement.
        self.te_estimate: Optional[float] = None
        self._te_alpha = 0.2
        self.last_out_degree = 1
        self.emitted = 0
        self.sent = 0
        #: True while this executor's machine is crashed.
        self.halted = False
        #: service-time multiplier (gray failure: slow-node fault events
        #: inflate it; ``x * 1.0`` is exact, so the default is free)
        self.service_scale = 1.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.process(self._send_loop())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Machine crash: stop working and lose every queued item."""
        self.halted = True
        self.transfer_queue.clear()

    def resume_from_crash(self) -> None:
        self.halted = False

    def context(self) -> TupleContext:
        return TupleContext(
            task_id=self.task_id,
            task_index=self.task_index,
            parallelism=self.spec.parallelism,
            operator=self.operator,
            machine_id=self.machine_id,
        )

    # ------------------------------------------------------------------
    # emission path (runs in the working thread)
    # ------------------------------------------------------------------
    def _emit(
        self,
        values: Any,
        key: Any,
        payload_bytes: Optional[int],
        anchor: Optional[StreamTuple],
    ) -> bool:
        """Emit one tuple through every grouping.

        Returns ``False`` only when the flow layer *deferred* the emit
        (reliable delivery at a full transfer queue) — the spout's
        arrival loop then waits for space and re-offers.
        """
        if anchor is not None:
            tup = anchor.derive(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes,
                source_operator=self.operator,
            )
        else:
            tup = StreamTuple(
                stream=self.operator,
                values=values,
                key=key,
                payload_bytes=payload_bytes or 128,
                created_at=self.sim.now,
                source_operator=self.operator,
            )
        metrics = self.system.metrics
        metrics.on_emit(self.operator)
        self.emitted += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "tuple.emit",
                self.sim.now,
                id=tup.tuple_id,
                root=tup.root_id,
                operator=self.operator,
                task=self.task_id,
            )
        accepted = True
        for dst_operator, (grouping, tasks) in self._groupings.items():
            dst_tasks = grouping.choose(tup, tasks)
            env = Envelope(
                tuple=tup,
                dst_operator=dst_operator,
                dst_tasks=dst_tasks,
                one_to_many=grouping.one_to_many,
            )
            if grouping.one_to_many and metrics.in_window:
                metrics.multicast.register(tup.tuple_id, dst_tasks, self.sim.now)
                metrics.completion.register(tup.tuple_id, dst_tasks, tup.created_at)
                if tracer is not None:
                    tracer.emit(
                        "mc.register",
                        self.sim.now,
                        id=tup.tuple_id,
                        operator=dst_operator,
                        dsts=list(dst_tasks),
                        created_at=tup.created_at,
                    )
            if not self.transfer_queue.try_put(env):
                flow = self.system.flow
                reliability = self.system.reliability
                if flow is not None and reliability is not None and self.is_spout:
                    # Defer-and-nack: reliable delivery must not shed an
                    # accepted tuple — hand it back to the arrival loop.
                    if grouping.one_to_many:
                        metrics.multicast.cancel(tup.tuple_id)
                        metrics.completion.cancel(tup.tuple_id)
                    flow.on_defer(self, tup.tuple_id)
                    accepted = False
                    continue
                if flow is not None and reliability is None:
                    if flow.shed_offer(self, env):
                        continue  # a victim was evicted; env is queued
                    if grouping.one_to_many:
                        metrics.multicast.cancel(tup.tuple_id)
                        metrics.completion.cancel(tup.tuple_id)
                    continue  # the newcomer itself was shed
                # Transfer queue overflow: stream input loss (Def. 4).
                metrics.on_drop(f"{self.operator}.transfer_queue")
                if grouping.one_to_many:
                    metrics.multicast.cancel(tup.tuple_id)
                    metrics.completion.cancel(tup.tuple_id)
                if tracer is not None:
                    tracer.emit(
                        "tuple.drop",
                        self.sim.now,
                        id=tup.tuple_id,
                        operator=self.operator,
                        where=f"{self.operator}.transfer_queue",
                    )
            elif grouping.one_to_many and self.is_spout:
                reliability = self.system.reliability
                if reliability is not None:
                    reliability.register(self, env)
        flow = self.system.flow
        if flow is not None:
            metrics.note_queue_depth(
                f"{self.operator}.transfer_queue", self.transfer_queue.level
            )
        return accepted

    # ------------------------------------------------------------------
    # sending thread
    # ------------------------------------------------------------------
    def _send_loop(self):
        comm = self.system.comm
        flow = self.system.flow
        while True:
            env = yield self.transfer_queue.get()
            if flow is not None:
                flow.on_transfer_drain()
            if self.halted:
                continue  # crashed machine: the envelope dies here
            if flow is not None:
                yield from flow.acquire_send_credit(self, env)
                if self.halted:
                    continue  # crashed while stalled on credits
            t0 = self.sim.now
            n_sends = yield from comm.send(self, env)
            n_sends = max(1, n_sends or 1)
            self.last_out_degree = n_sends
            sample = (self.sim.now - t0) / n_sends
            if sample > 0:
                if self.te_estimate is None:
                    self.te_estimate = sample
                else:
                    self.te_estimate = (
                        self._te_alpha * sample
                        + (1 - self._te_alpha) * self.te_estimate
                    )
            self.sent += 1


class BoltExecutor(ExecutorBase):
    """Working thread + sending thread around one Bolt instance.

    The working thread is a FIFO single server on the simulator's call
    lane, shaped like the worker's receive thread: a tuple accepted while
    the thread is idle starts service at once, otherwise it waits in the
    bounded ``backlog`` until the one before completes.  Service start
    runs the delivery gates (the flow layer's consume hook, the crash
    check, the reliability verdict) and reads the service time; one call
    at the completion instant charges the CPU, runs the bolt and starts
    the next tuple — one engine event per executed tuple, traced or not.

    **Lazy sinks.**  A terminal bolt with no downstream edges, in a run
    with no tracer, reliability or flow layer, has nothing downstream to
    time and nobody watching its per-tuple instants.  Its completions are
    computed, not scheduled: ``done = max(now, busy_until) + service``.
    Completed work is flushed on the next accept, when ``processed`` or
    ``queued`` is read, on the metrics hub's one shared drain timer
    (:meth:`MetricsHub.hold_until`), and at measurement-window boundaries
    (:meth:`MetricsHub.flush`), with metrics taking the computed
    completion instants — the instants the server would produce.  The
    choice is made in :meth:`start`: attach tracers and checkers first.
    """

    def __init__(self, system: "DspsSystem", task_id: int):
        super().__init__(system, task_id)
        self.bolt: Bolt = self.spec.factory()  # type: ignore[assignment]
        self._capacity = system.config.executor_queue_capacity
        #: tuples accepted while the working thread is busy, FIFO
        self.backlog: Deque[StreamTuple] = deque()
        self.busy = False
        #: the tuple in service and its service time
        self._current: Optional[tuple] = None
        self._processed = 0
        #: high-water mark of the queued (not in-service) input depth,
        #: maintained on every accept so overload experiments can measure
        #: queue growth with or without the flow layer
        self.inqueue_hwm = 0
        self._lazy = False
        #: lazy sinks: computed ``(start, done, service, tuple)`` FIFO;
        #: the head may be in service, everything behind it waits
        self._computed: Deque[tuple] = deque()
        self._busy_until = self.sim.now

    @property
    def processed(self) -> int:
        """Executions so far (realizing lazy completions due by now)."""
        if self._lazy:
            self._flush_completed()
        return self._processed

    @property
    def queued(self) -> int:
        """Tuples waiting for the working thread: neither the one in
        service nor completed ones."""
        if not self._lazy:
            return len(self.backlog)
        self._flush_completed()
        return self._lazy_waiting()

    def halt(self) -> None:
        super().halt()
        self.backlog.clear()
        if not self._lazy:
            return  # the tuple in service completes into the crash
        self._flush_completed()
        fifo = self._computed
        now = self.sim.now
        self._busy_until = now
        if fifo and fifo[0][0] <= now:
            # Mid-service head: the CPU was committed at service start
            # and the thread stays busy until ``done``; the crash eats
            # the output.
            _start, self._busy_until, service, _tup = fifo[0]
            self.cpu.charge(service, cats.PROCESSING)
        fifo.clear()

    def start(self) -> None:
        super().start()
        self.bolt.prepare(self.context())
        system = self.system
        self._lazy = (
            self.spec.terminal
            and not self._groupings
            and self.sim.tracer is None
            and system.reliability is None
            and system.flow is None
        )
        if self._lazy:
            system.metrics.add_flush_hook(self._flush_completed)

    def accept(self, at: AddressedTuple) -> bool:
        """Dispatcher entry point: queue a tuple (False = overflow)."""
        if self._lazy:
            return self._accept_lazy(at.tuple)
        if not self.busy:
            self._serve(at.tuple)
            return True
        backlog = self.backlog
        if len(backlog) >= self._capacity:
            self.system.metrics.on_drop(f"{self.operator}.inqueue")
            return False
        backlog.append(at.tuple)
        if len(backlog) > self.inqueue_hwm:
            self.inqueue_hwm = len(backlog)
        return True

    # ------------------------------------------------------------------
    # the working thread
    # ------------------------------------------------------------------
    def _serve(self, tup: StreamTuple) -> None:
        """Service start for ``tup`` — and, while the gates drop tuples,
        for the ones behind it."""
        self.busy = True
        flow = self.system.flow
        reliability = self.system.reliability
        backlog = self.backlog
        while True:
            if flow is not None:
                flow.on_execute(self.task_id)
            # A crashed machine's tuples die unprocessed; the delivery
            # gate (exactly-once dedup, atomic commit buffering) absorbs
            # a copy before any service is charged.
            if not self.halted and (
                reliability is None
                or reliability.on_delivery(self.task_id, tup) == "execute"
            ):
                service = self.bolt.service_time(tup) * self.service_scale
                self._current = (tup, service)
                self.sim.schedule_call(service, self._complete)
                return
            if not backlog:
                self.busy = False
                return
            tup = backlog.popleft()

    def _complete(self) -> None:
        tup, service = self._current
        if service > 0:
            self.cpu.charge(service, cats.PROCESSING)
        if not self.halted:  # a crash mid-service eats output and ack
            self._execute(tup)
        if self.backlog:
            self._serve(self.backlog.popleft())
        else:
            self.busy = False

    def _execute(self, tup: StreamTuple) -> None:
        metrics = self.system.metrics
        self.bolt.execute(tup, self.collector)
        self._processed += 1
        metrics.on_processed(self.operator)
        metrics.completion.on_executed(tup.tuple_id, self.task_id)
        reliability = self.system.reliability
        if reliability is not None:
            reliability.notify_executed(self.task_id, tup)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "tuple.execute",
                self.sim.now,
                id=tup.tuple_id,
                root=tup.root_id,
                operator=self.operator,
                task=self.task_id,
            )
        if self.spec.terminal:
            metrics.on_sink_latency(
                self.operator, self.sim.now - tup.created_at
            )

    # ------------------------------------------------------------------
    # lazy sinks
    # ------------------------------------------------------------------
    def _lazy_waiting(self) -> int:
        fifo = self._computed
        if fifo and fifo[0][0] <= self.sim.now:
            return len(fifo) - 1
        return len(fifo)

    def _accept_lazy(self, tup: StreamTuple) -> bool:
        self._flush_completed()
        if self.halted:
            return True  # absorbed; dies unprocessed, as at the server
        waiting = self._lazy_waiting()
        if waiting >= self._capacity:
            self.system.metrics.on_drop(f"{self.operator}.inqueue")
            return False
        now = self.sim.now
        service = self.bolt.service_time(tup) * self.service_scale
        start = self._busy_until
        if start <= now:
            start = now
        elif waiting + 1 > self.inqueue_hwm:
            self.inqueue_hwm = waiting + 1
        done = start + service
        self._busy_until = done
        self._computed.append((start, done, service, tup))
        self.system.metrics.hold_until(done, self._flush_completed)
        return True

    def _flush_completed(self) -> None:
        fifo = self._computed
        now = self.sim.now
        if not fifo or fifo[0][1] > now:
            return
        metrics = self.system.metrics
        completion = metrics.completion
        bolt = self.bolt
        collector = self.collector
        cpu = self.cpu
        operator = self.operator
        task_id = self.task_id
        while fifo and fifo[0][1] <= now:
            _start, done, service, tup = fifo.popleft()
            if service > 0:
                cpu.charge(service, cats.PROCESSING)
            bolt.execute(tup, collector)
            self._processed += 1
            metrics.on_processed_at(operator, done)
            completion.on_executed(tup.tuple_id, task_id, at=done)
            metrics.on_sink_latency_at(operator, done - tup.created_at, at=done)


class SpoutExecutor(ExecutorBase):
    """Arrival-driven emission loop around one Spout instance."""

    is_spout = True

    def __init__(self, system: "DspsSystem", task_id: int):
        super().__init__(system, task_id)
        self.spout: Spout = self.spec.factory()  # type: ignore[assignment]
        self._arrival_gap: Optional[Callable[[float], float]] = None
        self._stop = False

    def set_arrival_process(self, gap_fn: Callable[[float], float]) -> None:
        """``gap_fn(now) -> seconds until the next tuple``."""
        self._arrival_gap = gap_fn

    def stop(self) -> None:
        self._stop = True

    def start(self) -> None:
        super().start()
        self.spout.prepare(self.context())
        self.sim.process(self._arrival_loop())

    def _arrival_loop(self):
        if self._arrival_gap is None:
            raise RuntimeError(
                f"spout {self.operator!r} has no arrival process; call "
                "set_arrival_process() or pass arrivals= to DspsSystem"
            )
        flow = self.system.flow
        while not self._stop:
            gap = self._arrival_gap(self.sim.now)
            if gap is None:
                return  # arrival process exhausted
            load = self.system.load_factor
            if load != 1.0:
                gap = gap / load  # flash crowd: arrivals speed up
            yield self.sim.timeout(gap)
            if self._stop:
                return
            if self.halted:
                continue  # crashed machine: arrivals are lost, not queued
            if flow is not None:
                # Admission gate: pause while the acker is at its cap.
                yield from flow.admission_gate(self)
                if self._stop or self.halted:
                    continue
            values, key, nbytes = self.spout.next_tuple()
            if self.spout.emit_service_s > 0:
                yield from self.cpu.work(self.spout.emit_service_s, cats.PROCESSING)
            accepted = self._emit(
                values=values, key=key, payload_bytes=nbytes, anchor=None
            )
            while not accepted and flow is not None:
                # Deferred (reliable delivery, transfer queue full): wait
                # for the sending thread to drain, then re-offer.
                yield from flow.wait_for_transfer_space(
                    self, slots=max(1, len(self._groupings))
                )
                if self._stop or self.halted:
                    break
                accepted = self._emit(
                    values=values, key=key, payload_bytes=nbytes, anchor=None
                )

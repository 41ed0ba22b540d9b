"""In-memory span tracing for the traced benchmark run.

:class:`SpanRecorder` patches public functions of the program with
timing wrappers, keeps every span's count and its total and self time in
memory, and restores the original attributes on :meth:`SpanRecorder.
unwrap`, so untraced runs execute the unmodified code.

A span's self time is its duration minus the time covered by its child
spans.  Plain functions are timed per call.  Generator functions (DES
processes such as ``CommEngine.send``) and coroutine functions (the rt
paths) are timed per resume: the call that creates the generator or
coroutine does no work, so each ``send``/``throw`` into it is one span.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class SpanStats:
    """Running totals of one named span."""

    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class SpanRecorder:
    """Wraps functions in timing spans; all state lives on the instance."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        #: per open span: [start_ns, ns covered by finished children]
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: optional per-call result hooks: span name -> fn(result)
        self.on_result: Dict[str, Callable[[Any], None]] = {}

    # ------------------------------------------------------------------
    def _enter(self) -> None:
        self._stack.append([_now(), 0])

    def _exit(self, name: str) -> None:
        end = _now()
        start, children = self._stack.pop()
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total_ns += duration
        stats.self_ns += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.count if stats is not None else 0

    def mean_self_ns(self, name: str) -> float:
        stats = self.stats.get(name)
        if stats is None or stats.count == 0:
            return 0.0
        return stats.self_ns / stats.count

    # ------------------------------------------------------------------
    def _timed_resumes(self, name: str, inner):
        """Drive ``inner`` (a generator or coroutine), one span per resume."""
        value, error = None, None
        while True:
            self._enter()
            try:
                if error is None:
                    out = inner.send(value)
                else:
                    out = inner.throw(error)
            except StopIteration as stop:
                self._exit(name)
                return stop.value
            except BaseException:
                self._exit(name)
                raise
            self._exit(name)
            try:
                value, error = (yield out), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into ``inner``
                value, error = None, exc

    def wrap_function(self, name: str, fn: Callable) -> Callable:
        """A timing wrapper for ``fn`` (plain, generator or coroutine)."""
        recorder = self
        hook = self.on_result.get(name)
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                return recorder._timed_resumes(name, fn(*args, **kwargs))

            return gen_wrapper
        if inspect.iscoroutinefunction(fn):

            class _Resumes:
                __slots__ = ("coro",)

                def __init__(self, coro):
                    self.coro = coro

                def __await__(self):
                    return recorder._timed_resumes(name, self.coro)

            async def coro_wrapper(*args, **kwargs):
                return await _Resumes(fn(*args, **kwargs))

            return coro_wrapper

        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              fn: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        timing wrapper recorded under ``name``, around ``fn`` if given
        (a stand-in that calls the original) or else the original."""
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot time {owner.__name__}.{attr}")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap_function(name, fn or original))

    def unwrap(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

"""Outside-in span tracer for the benchmark's traced run.

The tracer times layers from the outside: it wraps the public functions and
methods each layer exposes, without touching the program's source.  Callers
inside ``repro`` bind functions with ``from module import name``, so wrapping
a function rebinds *every* ``repro.*`` module attribute that refers to it;
methods are wrapped once on their class.

Spans nest.  Each span's *self time* is its duration minus the time covered
by spans opened inside it, so summing self times over all span names never
counts an interval twice.  Spans are kept in memory as compact tuples and
written once, at the end, as Chrome Trace Event JSON that Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span events kept per span name for the trace file.  Totals stay exact past
#: the cap; only the per-call events beyond it are left out of the file.
MAX_EVENTS_PER_NAME = 20000


class Tracer:
    """Nested timed spans plus named counters, installed by wrapping callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        #: Open spans, innermost last: ``[name, time covered by children]``.
        self._stack: List[List[Any]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._events: List[Tuple[str, float, float, int]] = []
        self._events_per_name: Dict[str, int] = defaultdict(int)
        self.dropped_events = 0
        #: Objects met at layer boundaries, by kind and identity (e.g. the
        #: executors whose stats are read once the pass ends).
        self.seen: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ spans
    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] += amount

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = self._clock()
        try:
            return function(*args, **kwargs)
        finally:
            duration = self._clock() - start
            stack.pop()
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
            if self._events_per_name[name] < MAX_EVENTS_PER_NAME:
                self._events_per_name[name] += 1
                self._events.append((name, start, duration, len(stack)))
            else:
                self.dropped_events += 1

    def reset(self) -> None:
        """Zero the totals and counters; recorded span events are kept."""
        self.self_time.clear()
        self.calls.clear()
        self.counters.clear()
        self.seen.clear()

    # ---------------------------------------------------------------- install
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: "str | Callable[..., Optional[str]]",
        *,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span.

        ``owner`` is a module (the function is rebound in every ``repro.*``
        module that holds it) or a class (the method is replaced on it).
        ``name`` is the span name, or a callable ``(args, kwargs) -> name``
        choosing one per call (``None`` runs the call untimed).  ``before``
        and ``after`` receive ``(tracer, args, kwargs)`` and
        ``(tracer, args, kwargs, result)`` and record counters.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span is None:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            result = tracer.call(span, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        if isinstance(owner, type):
            self._patch(owner, attribute, wrapper)
            return
        rebound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
                    rebound += 1
        if rebound == 0:
            raise LookupError(f"{attribute} is bound in no repro module")

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ----------------------------------------------------------------- output
    def write_chrome_trace(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Write the recorded spans as Chrome Trace Event JSON."""
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self._events
        ]
        events.sort(key=lambda event: (event["ts"], event["args"]["depth"]))
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_events=self.dropped_events),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))

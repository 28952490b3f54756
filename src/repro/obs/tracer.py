"""Hierarchical query tracing with Chrome ``trace_event`` export.

A :class:`Tracer` records a tree of timed :class:`Span` objects —
``differentiate`` containing ``starnet.enumerate``, ``explore``
containing per-operator backend spans, retry attempts containing error
tags — and exports it either as a nested dict tree (:meth:`Tracer.
to_tree`) or as Chrome ``trace_event`` JSON (:meth:`Tracer.
to_chrome_trace`) loadable in ``chrome://tracing`` / Perfetto.

Propagation is ambient: :func:`tracing_scope` installs a tracer into a
:class:`~contextvars.ContextVar`, and the *current span* rides a second
context variable, so nesting needs no span argument threading.  Query
work runs on the thread that opened the query span; a caller that does
hand work to another thread carries both variables along with
``contextvars.copy_context().run``, and spans opened there parent
correctly under the originating query span.

When no tracer is installed, :func:`current_tracer` returns the
module-level :data:`NOOP` tracer whose ``span()`` hands back one shared
do-nothing context manager: the disabled hot path costs one context-var
read and no allocation, which the benchmark suite gates at < 3%
overhead on the scan-aggregate workload.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar


def plan_digest(node) -> str:
    """Stable short hex digest of a plan node's canonical fingerprint.

    Used to tag per-operator spans so EXPLAIN ANALYZE can join span data
    back to plan-tree nodes (stable across processes, unlike ``hash()``).
    """
    return fingerprint_digest(node.fingerprint())


def fingerprint_digest(fingerprint) -> str:
    """:func:`plan_digest` of an already computed fingerprint."""
    payload = repr(fingerprint).encode("utf-8", "backslashreplace")
    return hashlib.sha1(payload).hexdigest()[:12]


class Span:
    """One timed, tagged node of a trace tree (a context manager).

    Spans are *inclusive*: a span's duration covers its children, like
    the "actual time" of a SQL EXPLAIN ANALYZE node.  Tags set after
    ``__exit__`` are allowed (the resilience layer tags errors while
    unwinding) but a span must only be entered once.
    """

    __slots__ = ("name", "tags", "tracer", "parent", "children",
                 "start_s", "end_s", "thread_id", "error", "_token")

    def __init__(self, tracer: "Tracer", name: str, tags: dict):
        self.name = name
        self.tags = tags
        self.tracer = tracer
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.start_s = 0.0
        self.end_s = 0.0
        self.thread_id = 0
        self.error: str | None = None
        self._token = None

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self.parent = _CURRENT_SPAN.get()
        self.tracer._attach(self)
        self._token = _CURRENT_SPAN.set(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end_s = time.perf_counter()
        if exc is not None and self.error is None:
            self.set_error(exc)
        _CURRENT_SPAN.reset(self._token)
        return False

    # -- annotation ----------------------------------------------------
    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def set_error(self, exc: BaseException) -> None:
        """Tag this span as failed (retry attempts, failovers)."""
        self.error = f"{type(exc).__name__}: {exc}"
        self.tags["error"] = self.error

    # -- introspection -------------------------------------------------
    @property
    def duration_s(self) -> float:
        """Inclusive wall time (0.0 while the span is still open)."""
        if not self.end_s:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """This span and its children as a JSON-serialisable tree."""
        out = {
            "name": self.name,
            "seconds": round(self.duration_s, 6),
            "thread": self.thread_id,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_s * 1000:.2f} ms, "
                f"{len(self.children)} children)")


class Tracer:
    """Collects a forest of spans for one traced scope.

    Span trees may be built from several threads at once (service worker
    threads sharing one tracer); child attachment is lock-guarded, while
    per-span fields stay single-writer (each span lives on the thread
    that opened it).
    """

    enabled = True

    def __init__(self):
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def span(self, name: str, **tags) -> Span:
        """A new span, opened by using it as a context manager."""
        return Span(self, name, tags)

    def _attach(self, span: Span) -> None:
        # a span whose contextual parent belongs to a *different* tracer
        # (nested tracing scopes) roots here instead of leaking into the
        # outer tracer's tree
        if span.parent is not None and span.parent.tracer is not self:
            span.parent = None
        with self._lock:
            if span.parent is not None:
                span.parent.children.append(span)
            else:
                self.roots.append(span)

    # -- export --------------------------------------------------------
    def spans(self):
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def to_tree(self) -> list[dict]:
        """The whole trace as a list of nested span dicts."""
        return [root.to_dict() for root in self.roots]

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (open in ``chrome://tracing``).

        Spans become complete ("X") events with microsecond timestamps
        relative to the tracer's creation; threads are renumbered to
        compact tids with name metadata so worker threads group sanely
        in the timeline.
        """
        events: list[dict] = []
        tids: dict[int, int] = {}
        for span in self.spans():
            tid = tids.setdefault(span.thread_id, len(tids))
            args = {k: _json_safe(v) for k, v in span.tags.items()}
            events.append({
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((span.start_s - self._epoch) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "args": args,
            })
        for ident, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": f"thread-{tid} ({ident})"},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _json_safe(value):
    """Tag values as JSON-representable scalars (repr as a fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class _NoopSpan:
    """Shared do-nothing span: the entire disabled-tracing fast path."""

    __slots__ = ()
    name = "noop"
    tags: dict = {}
    children: list = []
    error = None
    duration_s = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_tag(self, key: str, value) -> None:
        pass

    def set_error(self, exc: BaseException) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _NoopTracer:
    """The ambient tracer when tracing is off: every span is NOOP_SPAN."""

    enabled = False
    roots: list = []

    def span(self, name: str, **tags) -> _NoopSpan:
        return NOOP_SPAN

    def to_tree(self) -> list:
        return []

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


NOOP = _NoopTracer()

_ACTIVE_TRACER: ContextVar["Tracer | _NoopTracer"] = \
    ContextVar("kdap_tracer", default=NOOP)
_CURRENT_SPAN: ContextVar[Span | None] = ContextVar("kdap_span",
                                                    default=None)
_REQUEST_ID: ContextVar[str | None] = ContextVar("kdap_request_id",
                                                 default=None)


def current_tracer() -> "Tracer | _NoopTracer":
    """The ambient tracer (:data:`NOOP` outside any scope)."""
    return _ACTIVE_TRACER.get()


def current_span() -> Span | None:
    """The innermost open span of this context, if any."""
    return _CURRENT_SPAN.get()


@contextmanager
def tracing_scope(tracer: "Tracer | _NoopTracer | None"):
    """Install ``tracer`` as the ambient tracer for the duration.

    ``None`` installs nothing (one ``with tracing_scope(maybe_tracer):``
    fits both the traced and untraced call sites).
    """
    if tracer is None:
        yield None
        return
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


def current_request_id() -> str | None:
    """The ambient request id, if a service request is executing."""
    return _REQUEST_ID.get()


@contextmanager
def request_scope(request_id: str | None):
    """Attribute work in this context to one service request.

    The id rides a context variable — like the tracer and the budget, it
    survives ``contextvars.copy_context().run`` into other threads — so
    operator spans recorded anywhere under a request carry its id and a
    shared trace can be sliced per request.  ``None`` installs nothing.
    """
    if request_id is None:
        yield None
        return
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


def grouping_label(grouping) -> str:
    """One aggregate grouping as spans and EXPLAIN print it: ``()`` for
    the 0-key total, the attribute for a partition, ``(rows, columns)``
    for a pivot."""
    if len(grouping) == 1:
        return str(grouping[0])
    return "(" + ", ".join(str(key) for key in grouping) + ")"


def op_span(node):
    """A span for one plan-operator execution, or the no-op span.

    The enabled check lives here so backends pay nothing for the digest
    computation when tracing is off.
    """
    tracer = _ACTIVE_TRACER.get()
    if not tracer.enabled:
        return NOOP_SPAN
    span = tracer.span("op." + node.kind, fp=plan_digest(node))
    if node.kind == "MultiGroupAggregate":
        # EXPLAIN lists which group-bys (numerical ones included) rode
        # this fused scan / statement
        span.set_tag("keys", ",".join(grouping_label(grouping)
                                      for grouping in node.groupings))
    request_id = _REQUEST_ID.get()
    if request_id is not None:
        span.set_tag("request", request_id)
    return span

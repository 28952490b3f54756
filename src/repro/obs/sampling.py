"""Tail-based trace sampling: keep full traces only for requests that matter.

Head sampling (decide before the request runs) cannot keep what an
operator actually needs — the slow request, the 502, the budget-truncated
partial — because those are only known *at the end*.  The service layer
therefore buffers every request's spans in an in-memory
:class:`~repro.obs.tracer.Tracer` (cheap: spans are slotted objects, and
the tree dies with the request) and asks :class:`TailSampler` **after**
the request finished whether the full trace is worth persisting:

* **errored** requests (any 5xx, including 504 deadline expiries) are
  always persisted — a trace of the failure is the whole point;
* **budget-truncated** requests (200 + ``partial``) are persisted — a
  degraded answer deserves the same attribution as a failed one;
* **slow** requests over ``slow_ms`` are persisted — tail latency is
  what interactive OLAP lives or dies by;
* a deterministic **1-in-N head sample** of everything else keeps a
  baseline of healthy-fast traces for comparison (the very first request
  is always a head sample, so a single-request smoke test still gets its
  trace file).

Everything else is dropped, so ``--trace-dir`` stays usable under
sustained load: disk grows with incidents and the head-sample rate, not
with traffic.  Decisions are counted per reason, only in the sampler's
metrics registry (``kdap.trace.*``), so ``/v1/statz`` can prove the
policy is actually dropping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .metrics import MetricsRegistry


@dataclass(frozen=True)
class SamplingPolicy:
    """The persist-or-drop policy knobs.

    ``slow_ms`` is the latency above which a trace is always kept;
    ``head_n`` keeps one in every N otherwise-healthy traces (0 disables
    head sampling entirely, 1 keeps everything).
    """

    slow_ms: float = 1_000.0
    head_n: int = 10

    def __post_init__(self) -> None:
        if self.slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        if self.head_n < 0:
            raise ValueError("head_n must be non-negative")


@dataclass(frozen=True)
class SamplingDecision:
    """Persist or drop, and why (``reason`` is None on drop)."""

    persist: bool
    reason: str | None = None


class TailSampler:
    """Applies a :class:`SamplingPolicy` to finished requests.

    Thread-safe: workers finish requests concurrently and the head-sample
    sequence ``considered`` must tick exactly once per request; decisions
    are counted in ``registry`` (a private one when none is given).
    """

    #: Persist reasons, in decision priority order.
    REASONS = ("error", "truncated", "slow", "head")

    def __init__(self, policy: SamplingPolicy | None = None,
                 registry: MetricsRegistry | None = None):
        self.policy = policy or SamplingPolicy()
        self.registry = MetricsRegistry() if registry is None else registry
        self._lock = threading.Lock()
        self.considered = 0

    def decide(self, *, status: int, elapsed_ms: float,
               truncated: bool = False) -> SamplingDecision:
        """The persist decision for one finished request."""
        policy = self.policy
        with self._lock:
            self.considered += 1
            head = (policy.head_n > 0
                    and (self.considered - 1) % policy.head_n == 0)
            if status >= 500:
                reason = "error"
            elif truncated:
                reason = "truncated"
            elif elapsed_ms > policy.slow_ms:
                reason = "slow"
            elif head:
                reason = "head"
            else:
                reason = None
        self.registry.counter("kdap.trace.dropped" if reason is None
                              else f"kdap.trace.sampled.{reason}").inc()
        return SamplingDecision(reason is not None, reason)

    def snapshot(self) -> dict:
        """JSON-serialisable accounting for ``/v1/statz``."""
        counters = self.registry.snapshot()["counters"]
        persisted = {reason: counters.get(f"kdap.trace.sampled.{reason}", 0)
                     for reason in self.REASONS}
        return {
            "policy": {"slow_ms": self.policy.slow_ms,
                       "head_n": self.policy.head_n},
            "considered": self.considered,
            "persisted": persisted,
            "persisted_total": sum(persisted.values()),
            "dropped": counters.get("kdap.trace.dropped", 0),
        }

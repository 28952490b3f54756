"""The closed-loop load generator and its statistics.

Each client is one thread that sends a unit's requests back to back —
the next request leaves only after the previous answer arrived, as an
analyst waits for each answer — over a **new connection per request**
(the README's curl example).  Clients pull units from one shared pass
list, so two clients never idle while work remains; the timed window
closes the moment the first client finds none, and answers that arrive
after that are still checked but not timed.

Responses are kept as raw bytes and verified after the window, so the
generator spends its CPU on sending, not on parsing.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 120.0
#: a percentile is reported only with at least this many samples beyond
MIN_BEYOND = 10


@dataclass
class Sample:
    """One request as the client saw it."""

    request: object  # workloads.Request
    port: int  # which service instance answered (ids restart with it)
    started: float
    ended: float
    status: int | None  # None = transport error
    body: bytes
    request_id: str | None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


@dataclass
class Window:
    """Everything one closed-loop phase produced."""

    samples: list = field(default_factory=list)
    started: float = 0.0
    closed: float = 0.0
    excluded_s: float = 0.0  # service restarts between passes
    passes: int = 0
    client_cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.closed - self.started - self.excluded_s

    @property
    def timed(self) -> list:
        """Samples answered before the window closed."""
        return [s for s in self.samples if s.ended <= self.closed]


def send(port: int, request) -> Sample:
    """POST one request on a fresh connection; never raises."""
    started = time.perf_counter()
    connection = http.client.HTTPConnection(HOST, port,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request(
            "POST", f"/v1/{request.endpoint}", body=request.payload,
            headers={"Content-Type": "application/json",
                     "Connection": "close"})
        response = connection.getresponse()
        body = response.read()
        ended = time.perf_counter()
        return Sample(request, port, started, ended, response.status,
                      body, response.getheader("X-Request-Id"))
    except (OSError, http.client.HTTPException) as exc:
        return Sample(request, port, started, time.perf_counter(), None,
                      b"", None, error=f"{type(exc).__name__}: {exc}")
    finally:
        connection.close()


def run_window(host, passes: Callable[[int], list], clients: int, *,
               seconds: float | None = None,
               max_passes: int | None = None,
               fresh_service_per_pass: bool = False) -> Window:
    """Drive ``host`` through whole passes.

    ``passes(i)`` is the unit list of pass ``i``.  The window ends at a
    pass boundary: after ``max_passes`` passes, or at the boundary
    nearest to ``seconds`` of measuring (restart time not counted; at
    least one pass).  With ``fresh_service_per_pass`` the service is
    restarted before every pass — single client only, so nothing is in
    flight.
    """
    if fresh_service_per_pass and clients != 1:
        raise ValueError("service restarts need a single client")
    window = Window()
    lock = threading.Lock()
    state = {"units": [], "next": 0, "closed": False}

    def finished(now: float) -> bool:
        if max_passes is not None and window.passes >= max_passes:
            return True
        if seconds is None or not window.passes:
            return False
        elapsed = now - window.started - window.excluded_s
        return elapsed + elapsed / window.passes / 2.0 >= seconds

    def next_unit():
        with lock:
            if state["closed"]:
                return None
            if state["next"] == len(state["units"]):
                now = time.perf_counter()
                if finished(now):
                    state["closed"] = True
                    window.closed = now
                    return None
                if fresh_service_per_pass:
                    host.restart()
                    window.excluded_s += time.perf_counter() - now
                state["units"] = passes(window.passes)
                state["next"] = 0
                window.passes += 1
            unit = state["units"][state["next"]]
            state["next"] += 1
            return unit

    def client(out: list) -> None:
        while (unit := next_unit()) is not None:
            for request in unit:
                out.append(send(host.port, request))

    per_client: list[list] = [[] for _ in range(clients)]
    cpu_started = time.process_time()
    window.started = time.perf_counter()
    with ThreadPoolExecutor(clients,
                            thread_name_prefix="ledger-client") as pool:
        futures = [pool.submit(client, out) for out in per_client]
        for future in futures:
            future.result()  # a failed restart must fail the run
    window.client_cpu_s = time.process_time() - cpu_started
    window.samples = sorted((s for out in per_client for s in out),
                            key=lambda s: s.started)
    return window


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def _beta_pdf(x: float, a: float, b: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                    + (a - 1.0) * math.log(x)
                    + (b - 1.0) * math.log1p(-x))


def percentile(values: Iterable[float], q: float, *,
               min_beyond: int = MIN_BEYOND) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile.

    A pass holds only 8-60 distinct requests whose costs lie far apart,
    so the plain sample percentile jumps between two neighbouring
    requests' costs from run to run.  Harrell-Davis instead averages the
    order statistics around the percentile, weighted by the
    Beta((n+1)q, (n+1)(1-q)) mass on each one's interval (Simpson's rule
    per interval), which moves smoothly.

    Refuses — ``ValueError`` — a percentile above the median with fewer
    than ``min_beyond`` samples beyond it: such a number is one or two
    outliers, not a tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    if q > 50.0 and samples_beyond(n, q) < min_beyond:
        raise ValueError(
            f"p{q:g} needs {min_beyond} samples beyond it; {n} samples "
            f"leave {samples_beyond(n, q)}")
    a = (n + 1) * q / 100.0
    b = (n + 1) * (1.0 - q / 100.0)
    weights = []
    for i in range(n):
        low, high = i / n, (i + 1) / n
        weights.append(_beta_pdf(low, a, b)
                       + 4.0 * _beta_pdf((low + high) / 2.0, a, b)
                       + _beta_pdf(high, a, b))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total

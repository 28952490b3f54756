"""Hosting the service under test: builders, the child-process entry
point, and the two host handles the harness drives.

The server is built only through public API — ``build_aw_online`` /
``build_scale``, ``AttributeTextIndex``, ``KdapService(schema,
ServiceConfig(workers=2, queue_depth=16, backend="memory"), index=...)``
— every other setting at its default (tracing off).

End-to-end numbers use :class:`ChildHost`: the service lives in a child
process (this file run as a script), so the load generator never shares
the server's GIL.  The traced run uses :class:`LocalHost`, because the
timing wrappers must live in the server's process.

Child protocol (JSON lines on stdout, commands on stdin): the child
prints ``ready`` once the service listens; ``restart`` swaps in a fresh
``KdapService`` over the same warehouse and index and prints
``restarted``; ``stop`` (or EOF — the parent died) shuts down and prints
``stopped`` with the peak RSS.
"""

from __future__ import annotations

import gc
import json
import logging
import resource
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from client import HOST
from workloads import SCALE_FACTS, SCALE_SEED, add_src_to_path

WORKERS = 2
QUEUE_DEPTH = 16


# ----------------------------------------------------------------------
# builders (public API only)
# ----------------------------------------------------------------------
def build_warehouse(name: str):
    from repro.datasets import build_aw_online, build_scale

    if name == "aw_online":
        return build_aw_online()
    if name == "scale":
        return build_scale(num_facts=SCALE_FACTS, seed=SCALE_SEED)
    raise ValueError(f"unknown warehouse {name!r}")


def build_index(schema):
    from repro.textindex.index import AttributeTextIndex

    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    return index


def start_service(schema, index):
    from repro.service import KdapService, ServiceConfig

    service = KdapService(
        schema,
        ServiceConfig(workers=WORKERS, queue_depth=QUEUE_DEPTH,
                      backend="memory"),
        index=index)
    service.start(HOST, 0)
    return service


def data_checksum(schema) -> dict:
    """Fact row count + summed revenue: generator drift shows here."""
    fact = schema.database.table(schema.fact_table)
    revenue = 0.0
    for price, quantity in zip(fact.column_values("UnitPrice"),
                               fact.column_values("Quantity")):
        if price is not None and quantity is not None:
            revenue += price * quantity
    return {"fact_rows": len(fact), "revenue": round(revenue, 2)}


def fetch_statz(port: int) -> dict:
    with urllib.request.urlopen(f"http://{HOST}:{port}/v1/statz",
                                timeout=30) as response:
        return json.loads(response.read())


# ----------------------------------------------------------------------
# host handles
# ----------------------------------------------------------------------
class LocalHost:
    """The service inside this process: traced runs, golden updates, and
    the child process itself."""

    def __init__(self, warehouse: str):
        started = time.perf_counter()
        self.schema = build_warehouse(warehouse)
        self.datagen_s = time.perf_counter() - started
        self.checksum = data_checksum(self.schema)
        started = time.perf_counter()
        self.index = build_index(self.schema)
        self.service = start_service(self.schema, self.index)
        self.build_s = time.perf_counter() - started

    @property
    def port(self) -> int:
        return self.service.port

    def restart(self) -> None:
        """Swap in a fresh service over the same warehouse and index."""
        self.service.shutdown()
        self.service = None
        gc.collect()  # the old caches must not inflate peak RSS
        self.service = start_service(self.schema, self.index)

    def stop(self) -> dict:
        self.service.shutdown()
        return {}


class ChildHost:
    """The service in a child process (every end-to-end number)."""

    def __init__(self, warehouse: str):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), warehouse],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready = self._expect("ready")
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.import_s = ready["import_s"]
        self.datagen_s = ready["datagen_s"]
        self.build_s = ready["build_s"]
        self.checksum = ready["checksum"]

    def _expect(self, event: str) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited (code {self._proc.wait()}) before "
                f"reporting {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"server child sent {message!r}, "
                               f"expected {event!r}")
        return message

    def _command(self, command: str, event: str) -> dict:
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._expect(event)

    def restart(self) -> None:
        self.port = self._command("restart", "restarted")["port"]

    def stop(self) -> dict:
        """Graceful shutdown; returns the child's exit report."""
        try:
            report = self._command("stop", "stopped")
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
            return report
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream is not None:
                stream.close()


# ----------------------------------------------------------------------
# child entry point
# ----------------------------------------------------------------------
def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def child_main(warehouse: str) -> int:
    add_src_to_path()
    # keep slow-query warnings off the harness's stderr
    logging.getLogger("repro").setLevel(logging.ERROR)
    started = time.perf_counter()
    import repro.datasets  # noqa: F401 - timed: a deployment pays it
    import repro.service  # noqa: F401
    import repro.textindex.index  # noqa: F401
    import_s = time.perf_counter() - started

    host = LocalHost(warehouse)
    _emit("ready", port=host.port, import_s=import_s,
          datagen_s=host.datagen_s, build_s=host.build_s,
          checksum=host.checksum)
    for line in sys.stdin:
        command = line.strip()
        if command == "restart":
            host.restart()
            _emit("restarted", port=host.port)
        elif command == "stop":
            break
    host.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit("stopped", peak_rss_mb=peak_kib / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1]))

"""The ``repro serve`` subcommand: flag mapping and SIGTERM drain.

Flag mapping is tested through :func:`repro.cli._serve_config` without
binding a socket; the signal test runs the real
:func:`serve_until_signalled` loop on the main thread (signal handlers
require it) and delivers a genuine SIGTERM from a helper thread.
"""

import os
import signal
import threading

import pytest

from repro.cli import _build_parser, _serve_config
from repro.service import KdapService, ServiceConfig, serve_until_signalled

from .conftest import ServiceClient


class TestFlagMapping:
    def test_top_level_flags_become_server_ceilings(self):
        args = _build_parser().parse_args([
            "--deadline-ms", "1500", "--max-rows", "99",
            "--max-interpretations", "3", "--backend", "sqlite",
            "--resilient",
            "serve", "--pool-workers", "3", "--queue-depth", "5",
            "--enqueue-deadline-ms", "250", "--drain-deadline-s", "1.5",
            "--chaos-error-rate", "0.2", "--chaos-seed", "7",
            "--trace-dir", "traces",
        ])
        config = _serve_config(args)
        assert config.max_deadline_ms == 1500.0
        assert config.max_rows == 99
        assert config.max_interpretations == 3
        assert config.backend == "sqlite"
        assert config.resilient is True
        assert config.workers == 3
        assert config.queue_depth == 5
        assert config.enqueue_deadline_ms == 250.0
        assert config.drain_deadline_s == 1.5
        assert config.chaos_error_rate == 0.2
        assert config.chaos_seed == 7
        assert config.trace_dir == "traces"

    def test_defaults_always_give_a_finite_deadline_ceiling(self):
        args = _build_parser().parse_args(["serve"])
        config = _serve_config(args)
        assert config.max_deadline_ms == 30_000.0  # never unbounded
        assert config.workers == 4

    def test_no_intra_query_thread_flag(self):
        # sessions run serially; only the service pool is sized
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--workers", "2", "serve"])


class TestSignalDrain:
    def test_sigterm_serves_then_drains_cleanly(self, ebiz, ebiz_index):
        service = KdapService(
            ebiz, ServiceConfig(workers=1, queue_depth=4),
            index=ebiz_index)
        results = []

        def poke_then_sigterm():
            client = ServiceClient(service.port)
            results.append(client.post("/v1/explore",
                                       {"query": "Columbus"},
                                       timeout=30.0))
            os.kill(os.getpid(), signal.SIGTERM)

        timer = threading.Timer(0.2, poke_then_sigterm)
        timer.start()
        try:
            rc = serve_until_signalled(service, "127.0.0.1", 0)
        finally:
            timer.cancel()
        assert rc == 0
        assert service.state == "stopped"
        status, body, _ = results[0]
        assert status == 200
        assert body["rows"] > 0

"""EventLog: bounded ring semantics, JSONL sink, failure isolation."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.events import Event, EventLog


class TestEvent:
    def test_as_dict_envelope(self):
        event = Event(7, 123.456789, "finished",
                      {"request_id": "r000007", "status": 200})
        assert event.as_dict() == {
            "seq": 7, "ts": 123.456789, "kind": "finished",
            "request_id": "r000007", "status": 200,
        }

    def test_describe_skips_empty_fields(self):
        event = Event(1, 0.0, "shed",
                      {"reason": "queue_full", "notes": [], "op": None})
        line = event.describe()
        assert line.startswith("#1 shed")
        assert "reason=queue_full" in line
        assert "notes" not in line and "op" not in line


class TestEventLog:
    def test_emit_assigns_monotonic_seq(self):
        log = EventLog(capacity=8, clock=lambda: 1.0)
        first = log.emit("admitted", request_id="r1")
        second = log.emit("started", request_id="r1")
        assert (first.seq, second.seq) == (1, 2)
        assert log.emitted == 2

    def test_kind_is_positional_only(self):
        log = EventLog(capacity=4)
        event = log.emit("finished", op="explore")
        assert event.kind == "finished"
        assert event.fields["op"] == "explore"

    def test_ring_drops_oldest(self):
        log = EventLog(capacity=3, clock=lambda: 0.0)
        for index in range(5):
            log.emit("e", n=index)
        assert len(log) == 3
        assert log.dropped == 2
        tail = log.tail(10)
        assert [event["n"] for event in tail] == [2, 3, 4]

    def test_tail_is_newest_n_oldest_first(self):
        log = EventLog(capacity=16, clock=lambda: 0.0)
        for index in range(6):
            log.emit("e", n=index)
        assert [event["n"] for event in log.tail(3)] == [3, 4, 5]
        assert log.tail(0) == []
        with pytest.raises(ValueError):
            log.tail(-1)

    def test_select_filters_the_ring_oldest_first(self):
        log = EventLog(capacity=4, clock=lambda: 0.0)
        for index in range(6):
            log.emit("odd" if index % 2 else "even", n=index)
        # index 1 has left the ring, so only 3 and 5 remain to select
        assert [event["n"] for event in
                log.select(lambda event: event.kind == "odd")] == [3, 5]
        assert log.select(lambda event: event.fields["n"] > 9) == []

    def test_snapshot_accounting(self):
        log = EventLog(capacity=2, clock=lambda: 0.0)
        for _ in range(3):
            log.emit("e")
        assert log.snapshot() == {
            "capacity": 2, "retained": 2, "emitted": 3, "dropped": 1,
            "sink": None,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_jsonl_sink_mirrors_every_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=2, sink_path=str(path),
                       clock=lambda: 10.5)
        for index in range(4):  # ring keeps 2; the sink keeps all 4
            log.emit("e", n=index)
        log.close()
        lines = [json.loads(line) for line
                 in path.read_text().splitlines()]
        assert [line["n"] for line in lines] == [0, 1, 2, 3]
        assert all(line["kind"] == "e" and line["ts"] == 10.5
                   for line in lines)

    def test_sink_lines_are_visible_before_close(self, tmp_path):
        # a collector following the file reads each event as it is
        # emitted, not when a block buffer fills or the log closes
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, sink_path=str(path))
        log.emit("finished", request_id="r1")
        with open(path, encoding="utf-8") as follower:
            lines = follower.read().splitlines()
        log.close()
        assert [json.loads(line)["request_id"] for line in lines] == ["r1"]

    def test_sink_failure_disables_sink_not_emit(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, sink_path=str(path))
        log.emit("ok")
        log._sink.close()  # simulate the fd dying under the log
        log.emit("after-failure")  # must not raise
        assert log._sink is None
        assert len(log) == 2  # the ring kept both

    def test_unserialisable_fields_fall_back_to_str(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, sink_path=str(path))
        log.emit("e", payload=object())
        log.close()
        assert "object object" in path.read_text()

    def test_concurrent_emit_keeps_unique_seqs(self):
        log = EventLog(capacity=1000)

        def hammer():
            for _ in range(100):
                log.emit("e")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = [event["seq"] for event in log.tail(1000)]
        assert len(seqs) == 800
        assert len(set(seqs)) == 800

"""Spans must nest under the phase that caused them, across the
retry/failover ladder too.

Subspace-size previews evaluate rays inside ``preview.sizes``, and the
resilience wrapper opens ``retry.attempt`` / ``backend.failover`` spans
inline — both must parent under the originating query's span tree.
"""

from repro.core import KdapSession
from repro.datasets import build_aw_online
from repro.obs import MetricsRegistry, Tracer, metrics_scope, tracing_scope
from repro.plan import PlanCounters
from repro.relational.errors import TransientBackendError
from repro.resilience import ResilientBackend, RetryPolicy

from ..counts import resilience_counts


def _find_all(tree: list[dict], name: str) -> list[dict]:
    found: list[dict] = []

    def walk(node: dict) -> None:
        if node["name"] == name:
            found.append(node)
        for child in node.get("children", []):
            walk(child)

    for root in tree:
        walk(root)
    return found


def _span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node.get("children", []):
        names |= _span_names(child)
    return names


def _traced_preview() -> list[dict]:
    schema = build_aw_online(num_facts=2000, seed=42)
    tracer = Tracer()
    with KdapSession(schema) as session:
        with tracing_scope(tracer):
            session.differentiate("bikes australia", preview_sizes=True)
    return tracer.to_tree()


class TestPreviewSpans:
    def test_preview_spans_parent_under_the_query_span(self):
        tree = _traced_preview()
        assert [root["name"] for root in tree] == ["differentiate"]
        assert len(_find_all(tree, "preview.sizes")) == 1
        # sizing evaluates each distinct ray on the caller's thread
        assert {span["thread"] for span in _find_all(tree, "op.Filter")} \
            == {tree[0]["thread"]}

    def test_ray_evaluation_nests_under_preview_sizes(self):
        (preview,) = _find_all(_traced_preview(), "preview.sizes")
        # the rays' engine work (plan.materialize -> op.*) hangs below
        # the preview span
        assert "plan.materialize" in _span_names(preview)


class _FlakyThenGood:
    """Fails the first ``failures`` calls, then succeeds forever."""

    name = "flaky"

    def __init__(self, failures: int):
        self.counters = PlanCounters()
        self.failures = failures
        self.calls = 0

    def materialize(self, plan):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError(f"flaky call {self.calls}")
        return (1, 2, 3)

    def execute(self, plan):
        return self.materialize(plan)

    def close(self):
        pass


class _AlwaysBroken(_FlakyThenGood):
    name = "broken"

    def __init__(self):
        super().__init__(failures=10 ** 9)


class _Good(_FlakyThenGood):
    name = "good"

    def __init__(self):
        super().__init__(failures=0)


class TestRetrySpans:
    def test_each_attempt_is_a_child_span_with_error_tags(self):
        backend = ResilientBackend(_FlakyThenGood(failures=2),
                                   policy=RetryPolicy(max_attempts=3),
                                   sleep=lambda _s: None)
        tracer = Tracer()
        with tracing_scope(tracer), tracer.span("query", q="test"):
            assert backend.materialize(object()) == (1, 2, 3)
        (query,) = tracer.to_tree()
        attempts = _find_all([query], "retry.attempt")
        assert [a["tags"]["attempt"] for a in attempts] == [1, 2, 3]
        # the two failures carry error tags; the final success does not
        assert "error" in attempts[0]
        assert "error" in attempts[1]
        assert "error" not in attempts[2]
        assert attempts[0]["tags"]["backend"] == "flaky"
        assert attempts[0]["tags"]["op"] == "materialize"

    def test_failover_span_names_both_backends(self):
        backend = ResilientBackend(
            _AlwaysBroken(), fallback=_Good,
            policy=RetryPolicy(max_attempts=2),
            sleep=lambda _s: None)
        tracer = Tracer()
        with tracing_scope(tracer), tracer.span("query"):
            assert backend.materialize(object()) == (1, 2, 3)
        (query,) = tracer.to_tree()
        (failover,) = _find_all([query], "backend.failover")
        assert failover["tags"]["from_backend"] == "broken"
        assert failover["tags"]["to_backend"] == "good"
        attempts = _find_all([query], "retry.attempt")
        backends = [a["tags"]["backend"] for a in attempts]
        assert backends == ["broken", "broken", "good"]

    def test_untraced_retries_still_work(self):
        backend = ResilientBackend(_FlakyThenGood(failures=1),
                                   policy=RetryPolicy(max_attempts=2),
                                   sleep=lambda _s: None)
        with metrics_scope(MetricsRegistry()) as registry:
            assert backend.materialize(object()) == (1, 2, 3)
        assert resilience_counts(registry)["retries"] == 1

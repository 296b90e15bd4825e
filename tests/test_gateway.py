"""Gateway: mock fixtures, schema repair, tier routing, usage ledger."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from schemreview.errors import BackendUnavailable, ConfigError, SchemaViolationAfterRetries
from schemreview.gateway import (
    AgentKind,
    AgentRequest,
    AgentResponse,
    BackendConfig,
    Gateway,
    ModelTier,
    TokenUsage,
    UsageLedger,
    default_registry,
    fixture_relpath,
    repair_payload,
    resolve_model,
    route_tier,
)
from schemreview.tracing import TraceContext, Tracer


def write_fixture(root, kind: AgentKind, payload: str, seed: int, text: str) -> None:
    path = root / fixture_relpath(kind, payload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def mock_cfg(tmp_path, **kwargs) -> BackendConfig:
    return BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures"), **kwargs)


def head_request(payload: str, seed: int = 0) -> AgentRequest:
    return AgentRequest(AgentKind.HEAD_ANALYSIS, "select pages", payload,
                        "head_analysis", seed=seed)


class TestMockBackend:
    def test_fixture_lookup_returns_value_verbatim(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                      "doc-pages", 0, '{"pages": [1, 2]}')
        resp = Gateway(cfg).complete(head_request("doc-pages"))
        assert resp.value == {"pages": [1, 2]}
        assert resp.attempts == 1

    def test_missing_fixture_names_the_key(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        (tmp_path / "fixtures").mkdir()
        with pytest.raises(BackendUnavailable) as exc:
            Gateway(cfg).complete(head_request("absent"))
        assert fixture_relpath(AgentKind.HEAD_ANALYSIS, "absent", 0) in str(exc.value)

    def test_distinct_seeds_hit_distinct_fixtures(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        for seed in (0, 1):
            write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                          "p", seed, json.dumps({"pages": [seed]}))
        gw = Gateway(cfg)
        assert gw.complete(head_request("p", seed=0)).value == {"pages": [0]}
        assert gw.complete(head_request("p", seed=1)).value == {"pages": [1]}


class TestRepairLoop:
    def test_invalid_then_valid_succeeds_after_one_repair(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc-pages"
        write_fixture(root, AgentKind.HEAD_ANALYSIS, payload, 0, '{"pages": "nope"}')
        # compute the exact repair payload the gateway will send
        try:
            default_registry().validate("head_analysis", {"pages": "nope"})
        except ValueError as exc:
            error = str(exc)
        write_fixture(root, AgentKind.HEAD_ANALYSIS,
                      repair_payload(payload, error), 0, '{"pages": [0]}')
        resp = Gateway(cfg).complete(head_request(payload))
        assert resp.value == {"pages": [0]}
        assert resp.attempts == 2

    def test_gives_up_after_max_repairs(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc-pages"
        bad = "this is not json"
        current = payload
        for _ in range(3):
            write_fixture(root, AgentKind.HEAD_ANALYSIS, current, 0, bad)
            current = repair_payload(current, "invalid JSON: Expecting value at char 0")
        with pytest.raises(SchemaViolationAfterRetries) as exc:
            Gateway(cfg).complete(head_request(payload))
        assert exc.value.last_raw == bad

    def test_post_validate_feeds_repair(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc"

        def reject_page_9(value):
            if 9 in value["pages"]:
                raise ValueError("page 9 is out of range")

        write_fixture(root, AgentKind.HEAD_ANALYSIS, payload, 0, '{"pages": [9]}')
        write_fixture(root, AgentKind.HEAD_ANALYSIS,
                      repair_payload(payload, "page 9 is out of range"), 0,
                      '{"pages": [1]}')
        resp = Gateway(cfg).complete(head_request(payload), post_validate=reject_page_9)
        assert resp.value == {"pages": [1]}

    def test_unregistered_schema_is_config_error(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        req = AgentRequest(AgentKind.HEAD_ANALYSIS, "s", "p", "nonexistent-schema")
        with pytest.raises(ConfigError):
            Gateway(cfg).complete(req)


class TestTierRouting:
    def test_review_and_combination_agents_are_strong(self):
        for kind in (AgentKind.GROUP_REVIEW, AgentKind.CONSENSUS, AgentKind.SELECTION):
            assert route_tier(kind) is ModelTier.STRONG

    def test_mechanical_agents_are_weak(self):
        for kind in (AgentKind.EXTRACTION, AgentKind.HEAD_ANALYSIS, AgentKind.CRITIC):
            assert route_tier(kind) is ModelTier.WEAK

    def test_consensus_model_override(self):
        cfg = BackendConfig(strong_model="big", weak_model="small",
                            consensus_model="special", fixture_path="x")
        assert resolve_model(cfg, AgentKind.CONSENSUS) == "special"
        assert resolve_model(cfg, AgentKind.GROUP_REVIEW) == "big"
        assert resolve_model(cfg, AgentKind.EXTRACTION) == "small"

    def test_consensus_defaults_to_strong_model(self):
        cfg = BackendConfig(strong_model="big", weak_model="small", fixture_path="x")
        assert resolve_model(cfg, AgentKind.CONSENSUS) == "big"


def ledger_of(responses) -> UsageLedger:
    ledger = UsageLedger()
    for kind, resp in responses:
        ledger.add(kind, resp.usage, resp.latency)
    return ledger


class TestUsageLedger:
    def test_empty_stream_is_all_zero(self):
        ledger = UsageLedger()
        assert ledger.totals().tokens_in == 0
        assert ledger.totals().tokens_out == 0
        assert ledger.per_kind() == {}

    def test_two_responses_sum(self):
        responses = [
            (AgentKind.GROUP_REVIEW, AgentResponse({}, TokenUsage(10, 5), 0.1)),
            (AgentKind.GROUP_REVIEW, AgentResponse({}, TokenUsage(7, 3), 0.2)),
        ]
        ledger = ledger_of(responses)
        entry = ledger.per_kind()[AgentKind.GROUP_REVIEW]
        assert (entry.tokens_in, entry.tokens_out) == (17, 8)

    def test_interleaved_kinds_match_brute_force(self):
        import random
        rng = random.Random(42)
        responses = []
        for _ in range(50):
            kind = rng.choice(list(AgentKind))
            responses.append((kind, AgentResponse(
                {}, TokenUsage(rng.randint(0, 100), rng.randint(0, 100)),
                rng.random())))
        ledger = ledger_of(responses)
        for kind in AgentKind:
            expect_in = sum(r.usage.tokens_in for k, r in responses if k is kind)
            expect_out = sum(r.usage.tokens_out for k, r in responses if k is kind)
            entry = ledger.per_kind().get(kind)
            got = (entry.tokens_in, entry.tokens_out) if entry else (0, 0)
            assert got == (expect_in, expect_out)

    def test_gateway_ledger_accumulates(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                      "pp", 0, '{"pages": [0]}')
        gw = Gateway(cfg)
        gw.complete(head_request("pp"))
        gw.complete(head_request("pp"))
        entry = gw.ledger.per_kind()[AgentKind.HEAD_ANALYSIS]
        assert entry.calls == 2
        assert entry.tokens_in == 2 * (len("pp") // 4)


class TestTracing:
    def test_one_span_per_invocation_with_attempt_count(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc-pages"
        write_fixture(root, AgentKind.HEAD_ANALYSIS, payload, 0, '{"pages": "bad"}')
        try:
            default_registry().validate("head_analysis", {"pages": "bad"})
        except ValueError as exc:
            error = str(exc)
        write_fixture(root, AgentKind.HEAD_ANALYSIS,
                      repair_payload(payload, error), 0, '{"pages": [0]}')

        tracer = Tracer()
        gw = Gateway(cfg)
        gw.complete(head_request(payload), trace=TraceContext(tracer, "run"))
        events = tracer.events()
        assert len(events) == 1
        assert events[0].span_name == "head_analysis"
        assert events[0].attributes["attempt"] == 2  # repair attempts observable
        entry = gw.ledger.per_kind()[AgentKind.HEAD_ANALYSIS]
        assert events[0].attributes["tokens_in"] == entry.tokens_in

    def test_mock_miss_recorded_as_one_failed_call(self, tmp_path):
        tracer = Tracer()
        gw = Gateway(mock_cfg(tmp_path))
        with pytest.raises(BackendUnavailable):
            gw.complete(head_request("absent"), trace=TraceContext(tracer, "run"))
        entry = gw.ledger.per_kind()[AgentKind.HEAD_ANALYSIS]
        assert entry.calls == 1
        assert (entry.tokens_in, entry.tokens_out) == (0, 0)
        [event] = tracer.events()
        assert event.span_name == "head_analysis"
        assert event.attributes["error"] == "backend_unavailable"

    def test_miss_after_repair_keeps_earlier_tokens(self, tmp_path):
        payload = "doc-pages"
        bad = '{"pages": "bad"}'
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS, payload, 0, bad)
        tracer = Tracer()
        gw = Gateway(mock_cfg(tmp_path))
        with pytest.raises(BackendUnavailable):  # the repair prompt has no fixture
            gw.complete(head_request(payload), trace=TraceContext(tracer, "run"))
        entry = gw.ledger.per_kind()[AgentKind.HEAD_ANALYSIS]
        assert entry.calls == 1
        assert (entry.tokens_in, entry.tokens_out) == (len(payload) // 4, len(bad) // 4)
        [event] = tracer.events()
        assert event.attributes["attempt"] == 2
        assert event.attributes["tokens_in"] == entry.tokens_in
        assert event.attributes["error"] == "backend_unavailable"


class TestTimeout:
    def test_slow_backend_times_out(self):
        import time as _time

        class SlowHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                _time.sleep(1.0)
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        from schemreview.errors import BackendTimeout
        server = HTTPServer(("127.0.0.1", 0), SlowHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            cfg = BackendConfig(kind="live-http",
                                endpoint=f"http://127.0.0.1:{server.server_port}/",
                                timeout_s=0.1)
            tracer = Tracer()
            gw = Gateway(cfg)
            with pytest.raises(BackendTimeout):
                gw.complete(head_request("p"), trace=TraceContext(tracer, "run"))
        finally:
            server.shutdown()
        assert gw.ledger.per_kind()[AgentKind.HEAD_ANALYSIS].calls == 1
        [event] = tracer.events()
        assert event.attributes["error"] == "backend_timeout"


class _CannedHandler(BaseHTTPRequestHandler):
    captured = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).captured.append((self.path, dict(self.headers), body))
        out = json.dumps({
            "choices": [{"message": {"content": '{"pages": [2]}'}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


class TestLiveBackendRecordedExchange:
    def test_wire_format(self, monkeypatch):
        server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("SCHEMREVIEW_API_KEY", "sekrit")
            cfg = BackendConfig(
                kind="live-http",
                endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
                strong_model="big", weak_model="small",
            )
            resp = Gateway(cfg).complete(head_request("payload text", seed=3))
            assert resp.value == {"pages": [2]}
            assert resp.usage == TokenUsage(11, 7)
            path, headers, body = _CannedHandler.captured[-1]
            assert path == "/v1/chat/completions"
            assert headers["Authorization"] == "Bearer sekrit"
            assert body["model"] == "small"  # head analysis routes to the weak tier
            assert body["seed"] == 3
            assert [m["role"] for m in body["messages"]] == ["system", "user"]
            assert body["messages"][1]["content"] == "payload text"
        finally:
            server.shutdown()

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            Gateway(BackendConfig(kind="live-http"))
        with pytest.raises(ConfigError):
            Gateway(BackendConfig(kind="mock", fixture_path=None))

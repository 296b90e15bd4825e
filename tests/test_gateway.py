"""Gateway: mock fixtures, schema repair, tier routing, usage summed from spans."""

import json
from http.server import BaseHTTPRequestHandler

import pytest

from helpers import fixture_relpath, loopback_server
from schemreview import gateway
from schemreview.errors import BackendUnavailable, ConfigError, SchemaViolationAfterRetries
from schemreview.gateway import (
    AgentKind,
    AgentRequest,
    BackendConfig,
    Choice,
    Gateway,
    SchemaRegistry,
    TokenUsage,
    repair_payload,
    resolve_model,
    usage_by_kind,
)
from schemreview.tracing import UNTRACED, TraceContext, TraceEvent, Tracer


def write_fixture(root, kind: AgentKind, payload: str, seed: int, text: str) -> None:
    path = root / fixture_relpath(kind, payload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def mock_cfg(tmp_path, **kwargs) -> BackendConfig:
    return BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures"), **kwargs)


def head_request(payload: str, seed: int = 0) -> AgentRequest:
    return AgentRequest(AgentKind.HEAD_ANALYSIS, "select pages", payload, seed=seed)


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

    @pytest.mark.parametrize("miss", ["no-file", "directory", "no-kind-directory",
                                      "kind-is-a-file"])
    def test_a_miss_is_captured_and_names_the_key(self, tmp_path, miss):
        root = tmp_path / "fixtures"
        rel = fixture_relpath(AgentKind.HEAD_ANALYSIS, "absent", 0)
        (root / "head_analysis").mkdir(parents=True)
        if miss == "directory":
            (root / rel).mkdir()
        elif miss == "no-kind-directory":
            (root / "head_analysis").rmdir()
        elif miss == "kind-is-a-file":
            (root / "head_analysis").rmdir()
            (root / "head_analysis").write_text("")
        with pytest.raises(BackendUnavailable, match=f"no mock fixture for key {rel}$"):
            Gateway(mock_cfg(tmp_path)).complete(head_request("absent"))
        capture = (root / rel).with_suffix(".req")
        if miss == "kind-is-a-file":  # nowhere to put the capture
            assert not capture.exists()
        else:
            assert capture.read_text(encoding="utf-8") == "absent"

    def test_a_crlf_fixture_reads_as_text_mode_did(self, tmp_path):
        root = tmp_path / "fixtures"
        raw = b'{"pages":\r\n  [1, 2]}\r\n'
        path = root / fixture_relpath(AgentKind.HEAD_ANALYSIS, "crlf", 0)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        resp = Gateway(mock_cfg(tmp_path)).complete(head_request("crlf"))
        assert resp.value == {"pages": [1, 2]}
        text = path.read_text(encoding="utf-8")  # newlines translated
        assert len(text) == len(raw) - 2
        assert resp.usage == TokenUsage(len("crlf") // 4, len(text) // 4)

    @pytest.mark.parametrize("n", [None, 2])
    def test_a_fixture_that_is_not_utf8_fails_the_request_naming_it(self, tmp_path, n):
        # was a bare UnicodeDecodeError, and a span without "error"
        root = tmp_path / "fixtures"
        kind = AgentKind.HEAD_ANALYSIS if n is None else AgentKind.GROUP_REVIEW
        if n is not None:
            write_fixture(root, kind, "latin", 0, REVIEW)
        path = root / fixture_relpath(kind, "latin", 0 if n is None else 1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\xff")
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        req = head_request("latin") if n is None else review_request("latin", n)
        with pytest.raises(BackendUnavailable) as exc:
            gw.complete(req, trace=trace)
        assert str(exc.value).startswith(f"mock fixture {path} is not UTF-8: ")
        [event] = tracer.events()
        assert event.attributes["error"] == "BackendUnavailable"

    def test_an_n_choice_request_hashes_its_payload_once(self, tmp_path, monkeypatch):
        for seed in range(3):
            write_fixture(tmp_path / "fixtures", AgentKind.GROUP_REVIEW, "group", seed,
                          REVIEW)
        digests = []
        digest = gateway.payload_digest
        monkeypatch.setattr(gateway, "payload_digest",
                            lambda payload: digests.append(payload) or digest(payload))
        resp = Gateway(mock_cfg(tmp_path)).complete(review_request("group", 3))
        assert resp.choices == (Choice({"analyses": []}),) * 3
        assert digests == ["group"]



def review_request(payload: str, n: int) -> AgentRequest:
    return AgentRequest(AgentKind.GROUP_REVIEW, "review", payload, n=n)


REVIEW = '{"analyses": []}'


class TestChoices:
    """A request for n choices: choice i is the fixture of seed i."""

    def test_each_choice_reads_its_seed_and_a_missing_one_is_captured(self, tmp_path):
        root = tmp_path / "fixtures"
        for seed in (0, 2):
            write_fixture(root, AgentKind.GROUP_REVIEW, "group", seed, REVIEW + " " * seed)
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        resp = gw.complete(review_request("group", 3), trace=trace)
        assert resp.choices == (Choice({"analyses": []}), None, Choice({"analyses": []}))
        # the payload is sent once; every returned choice is counted
        assert resp.usage == TokenUsage(len("group") // 4,
                                        len(REVIEW) // 4 + len(REVIEW + "  ") // 4)
        assert (root / fixture_relpath(AgentKind.GROUP_REVIEW, "group", 1)).with_suffix(
            ".req").read_text() == "group"
        [event] = tracer.events()
        assert event.attributes == {"seed": 0, "choices": 3, "attempt": 1,
                                    "tokens_in": resp.usage.tokens_in,
                                    "tokens_out": resp.usage.tokens_out}

    def test_a_choice_failing_its_schema_is_returned_unrepaired(self, tmp_path):
        root = tmp_path / "fixtures"
        write_fixture(root, AgentKind.GROUP_REVIEW, "group", 0, "not json")
        write_fixture(root, AgentKind.GROUP_REVIEW, "group", 1, REVIEW)
        resp = Gateway(mock_cfg(tmp_path)).complete(review_request("group", 2))
        assert resp.choices == (Choice(failure="invalid JSON: Expecting value at char 0"),
                                Choice({"analyses": []}))
        assert resp.attempts == 1

    @pytest.mark.parametrize("text, failure", [
        (REVIEW, None),
        ('{"analyses": 1}', "analyses: 1 is not of type 'array'"),
        ("not json", "invalid JSON: Expecting value at char 0")])
    def test_equal_choice_texts_are_checked_once_and_share_one_choice(
            self, tmp_path, monkeypatch, text, failure):
        root = tmp_path / "fixtures"
        for seed in (0, 1, 3):
            write_fixture(root, AgentKind.GROUP_REVIEW, "group", seed, text)
        write_fixture(root, AgentKind.GROUP_REVIEW, "group", 4, text + " ")
        gw = Gateway(mock_cfg(tmp_path))
        checked, validated = [], []
        check = gw._check
        monkeypatch.setattr(gw, "_check", lambda kind, raw, post: (
            checked.append(raw) or check(kind, raw, post)))
        resp = gw.complete(review_request("group", 5), post_validate=validated.append)
        # the text with a trailing blank is another text, checked apart
        assert checked == [text, text + " "]
        assert validated == ([] if failure else [{"analyses": []}] * 2)
        first, second, missing, third, other = resp.choices
        assert first is second is third and missing is None
        # what checking each choice alone gives
        assert first == other == Choice(None if failure else {"analyses": []}, failure)
        assert first is not other

    def test_a_request_with_no_choice_fails_naming_every_key(self, tmp_path):
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        with pytest.raises(BackendUnavailable) as exc:
            gw.complete(review_request("absent", 2), trace=trace)
        for seed in (0, 1):
            assert fixture_relpath(AgentKind.GROUP_REVIEW, "absent", seed) in str(exc.value)
        [event] = tracer.events()
        assert event.attributes["error"] == "BackendUnavailable"
        assert (event.attributes["tokens_in"], event.attributes["tokens_out"]) == (0, 0)

    def test_the_mock_waits_once_per_request(self, tmp_path, monkeypatch):
        for seed in range(3):
            write_fixture(tmp_path / "fixtures", AgentKind.GROUP_REVIEW, "group", seed, REVIEW)
        waits = []
        monkeypatch.setattr(gateway.time, "sleep", waits.append)
        Gateway(mock_cfg(tmp_path, mock_delay_s=0.05)).complete(review_request("group", 3))
        assert waits == [0.05]

    def test_a_repair_started_elsewhere_counts_the_first_attempt(self, tmp_path):
        # the choice that failed was the run's first attempt; its repairs
        # send the prompts a one-completion run would have sent
        root = tmp_path / "fixtures"
        failure = "invalid JSON: Expecting value at char 0"
        repair = repair_payload("group", failure)
        write_fixture(root, AgentKind.GROUP_REVIEW, repair, 1, "not json")
        write_fixture(root, AgentKind.GROUP_REVIEW, repair_payload(repair, failure), 1,
                      "still not json")
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        with pytest.raises(SchemaViolationAfterRetries, match="after 3 attempts"):
            gw.complete(AgentRequest(AgentKind.GROUP_REVIEW, "review", "group", seed=1),
                        trace=trace, failure=failure)
        [event] = tracer.events()
        assert event.attributes["attempt"] == 3
        assert event.attributes["tokens_in"] == (
            len(repair) // 4 + len(repair_payload(repair, failure)) // 4)
        assert event.attributes["error"] == "SchemaViolationAfterRetries"


class TestRepairLoop:
    def test_invalid_then_valid_succeeds_after_one_repair(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc-pages"
        write_fixture(root, AgentKind.HEAD_ANALYSIS, payload, 0, '{"pages": "nope"}')
        # compute the exact repair payload the gateway will send
        try:
            SchemaRegistry().validate(AgentKind.HEAD_ANALYSIS, {"pages": "nope"})
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


class TestTierRouting:
    def test_review_and_combination_agents_are_strong(self):
        cfg = BackendConfig(strong_model="big", weak_model="small", fixture_path="x")
        for kind in (AgentKind.GROUP_REVIEW, AgentKind.CONSENSUS, AgentKind.SELECTION):
            assert resolve_model(cfg, kind) == "big"

    def test_mechanical_agents_are_weak(self):
        cfg = BackendConfig(strong_model="big", weak_model="small", fixture_path="x")
        for kind in (AgentKind.EXTRACTION, AgentKind.HEAD_ANALYSIS, AgentKind.CRITIC):
            assert resolve_model(cfg, kind) == "small"

    def test_consensus_model_override(self):
        cfg = BackendConfig(strong_model="big", weak_model="small",
                            consensus_model="special", fixture_path="x")
        assert resolve_model(cfg, AgentKind.CONSENSUS) == "special"
        assert resolve_model(cfg, AgentKind.GROUP_REVIEW) == "big"
        assert resolve_model(cfg, AgentKind.EXTRACTION) == "small"

    def test_consensus_defaults_to_strong_model(self):
        cfg = BackendConfig(strong_model="big", weak_model="small", fixture_path="x")
        assert resolve_model(cfg, AgentKind.CONSENSUS) == "big"


def agent_span(kind: AgentKind, tokens_in: int, tokens_out: int,
               duration: float) -> TraceEvent:
    return TraceEvent(kind.value, f"run/{kind.value}", 0.0, duration,
                      {"tokens_in": tokens_in, "tokens_out": tokens_out})


def traced_gateway(cfg):
    tracer = Tracer()
    return Gateway(cfg), tracer, TraceContext(tracer, "run")


class TestUsageLedger:
    """``usage_by_kind``: the run's usage, summed from its agent spans."""

    def test_empty_stream_is_all_zero(self):
        assert usage_by_kind([]) == {}

    def test_two_responses_sum(self):
        events = [
            agent_span(AgentKind.GROUP_REVIEW, 10, 5, 0.1),
            agent_span(AgentKind.GROUP_REVIEW, 7, 3, 0.2),
        ]
        entry = usage_by_kind(events)["group_review"]
        assert (entry["tokens_in"], entry["tokens_out"]) == (17, 8)
        assert entry["calls"] == 2
        assert entry["latency_s"] == pytest.approx(0.3)

    def test_interleaved_kinds_match_brute_force(self):
        import random
        rng = random.Random(42)
        events = []
        for _ in range(50):
            kind = rng.choice(list(AgentKind))
            events.append(agent_span(kind, rng.randint(0, 100), rng.randint(0, 100),
                                     rng.random()))
        events.append(TraceEvent("retrieve", "run/retrieve", 0.0, 1.0,
                                 {"cache_hit": True}))  # not an agent span
        usage = usage_by_kind(events)
        assert list(usage) == sorted(usage)
        for kind in AgentKind:
            mine = [e for e in events if e.span_name == kind.value]
            entry = usage.get(kind.value, {"tokens_in": 0, "tokens_out": 0, "calls": 0})
            assert (entry["tokens_in"], entry["tokens_out"], entry["calls"]) == (
                sum(e.attributes["tokens_in"] for e in mine),
                sum(e.attributes["tokens_out"] for e in mine), len(mine))

    def test_gateway_ledger_accumulates(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                      "pp", 0, '{"pages": [0]}')
        gw, tracer, trace = traced_gateway(cfg)
        gw.complete(head_request("pp"), trace=trace)
        gw.complete(head_request("pp"), trace=trace)
        entry = usage_by_kind(tracer.events())["head_analysis"]
        assert entry["calls"] == 2
        assert entry["tokens_in"] == 2 * (len("pp") // 4)

    def test_untraced_call_leaves_nothing_behind(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                      "pp", 0, '{"pages": [0]}')
        gw = Gateway(cfg)
        state = dict(vars(gw))
        assert gw.complete(head_request("pp")).value == {"pages": [0]}
        assert UNTRACED.tracer.events() == []
        assert (UNTRACED.path, UNTRACED.attrs) == ("run", {})
        assert vars(gw) == state  # the gateway keeps no per-call record


class TestTracing:
    def test_one_span_per_invocation_with_attempt_count(self, tmp_path):
        cfg = mock_cfg(tmp_path)
        root = tmp_path / "fixtures"
        payload = "doc-pages"
        write_fixture(root, AgentKind.HEAD_ANALYSIS, payload, 0, '{"pages": "bad"}')
        try:
            SchemaRegistry().validate(AgentKind.HEAD_ANALYSIS, {"pages": "bad"})
        except ValueError as exc:
            error = str(exc)
        write_fixture(root, AgentKind.HEAD_ANALYSIS,
                      repair_payload(payload, error), 0, '{"pages": [0]}')

        gw, tracer, trace = traced_gateway(cfg)
        resp = gw.complete(head_request(payload), trace=trace)
        events = tracer.events()
        assert len(events) == 1
        assert events[0].span_name == "head_analysis"
        assert events[0].attributes["attempt"] == 2  # repair attempts observable
        assert events[0].attributes["tokens_in"] == resp.usage.tokens_in
        assert events[0].attributes["seed"] == 0
        assert "error" not in events[0].attributes

    def test_mock_miss_recorded_as_one_failed_call(self, tmp_path):
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        with pytest.raises(BackendUnavailable):
            gw.complete(head_request("absent"), trace=trace)
        entry = usage_by_kind(tracer.events())["head_analysis"]
        assert entry["calls"] == 1
        assert (entry["tokens_in"], entry["tokens_out"]) == (0, 0)
        [event] = tracer.events()
        assert event.span_name == "head_analysis"
        assert event.attributes["error"] == "BackendUnavailable"

    def test_miss_after_repair_keeps_earlier_tokens(self, tmp_path):
        payload = "doc-pages"
        bad = '{"pages": "bad"}'
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS, payload, 0, bad)
        gw, tracer, trace = traced_gateway(mock_cfg(tmp_path))
        with pytest.raises(BackendUnavailable):  # the repair prompt has no fixture
            gw.complete(head_request(payload), trace=trace)
        entry = usage_by_kind(tracer.events())["head_analysis"]
        assert entry["calls"] == 1
        assert (entry["tokens_in"], entry["tokens_out"]) == (len(payload) // 4, len(bad) // 4)
        [event] = tracer.events()
        assert event.attributes["attempt"] == 2
        assert event.attributes["tokens_in"] == entry["tokens_in"]
        assert event.attributes["error"] == "BackendUnavailable"


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
        with loopback_server(SlowHandler) as url:
            cfg = BackendConfig(kind="live-http", endpoint=url + "/", timeout_s=0.1)
            gw, tracer, trace = traced_gateway(cfg)
            with pytest.raises(BackendTimeout):
                gw.complete(head_request("p"), trace=trace)
        assert usage_by_kind(tracer.events())["head_analysis"]["calls"] == 1
        [event] = tracer.events()
        assert event.attributes["error"] == "BackendTimeout"


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
        with loopback_server(_CannedHandler) as url:
            monkeypatch.setenv("SCHEMREVIEW_API_KEY", "sekrit")
            cfg = BackendConfig(
                kind="live-http",
                endpoint=url + "/v1/chat/completions",
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

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            Gateway(BackendConfig(kind="live-http"))
        with pytest.raises(ConfigError):
            Gateway(BackendConfig(kind="mock", fixture_path=None))


_CHOICES = [{"message": {"content": '{"pages": [2]}'}}]


@pytest.mark.parametrize("body", [
    b"<html>bad gateway</html>",  # HTTP 200, but not JSON
    json.dumps({"choices": _CHOICES, "usage": None}).encode(),
    json.dumps({"choices": _CHOICES,
                "usage": {"prompt_tokens": "many", "completion_tokens": 7}}).encode(),
    json.dumps({"choices": [{"message": {"content": None}}]}).encode(),
], ids=["not-json", "null-usage", "non-integer-tokens", "null-content"])
def test_malformed_live_reply_is_backend_unavailable(body):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with loopback_server(Handler) as url:
        gw, tracer, trace = traced_gateway(BackendConfig(kind="live-http", endpoint=url + "/"))
        with pytest.raises(BackendUnavailable, match="malformed backend response"):
            gw.complete(head_request("p"), trace=trace)
    [event] = tracer.events()
    assert event.span_name == "head_analysis"
    assert event.attributes["error"] == "BackendUnavailable"
    assert (event.attributes["tokens_in"], event.attributes["tokens_out"]) == (0, 0)

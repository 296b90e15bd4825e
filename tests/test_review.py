"""Group review runs: validation rules, defaults, fan-out tolerance."""

import gc
import json
import logging
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import BASE_SPEC_VALUE, loopback_server, regulator_page, write_fixture
from schemreview import review, workfirst
from schemreview.canonical import serialize_page_xml
from schemreview.dsmodel import spec_from_agent_value
from schemreview.errors import AllRunsFailed, BackendUnavailable, SchemReviewError
from schemreview.gateway import (
    REVIEW_TEMPERATURE,
    AgentKind,
    AgentRequest,
    BackendConfig,
    Gateway,
    LiveHttpBackend,
    MockBackend,
    SchemaRegistry,
    TokenUsage,
    repair_payload,
    usage_by_kind,
)
from schemreview.libraries import PartRef
from schemreview.review import (
    FunctionalGroup,
    GroupReviewContext,
    VerdictStatus,
    build_review_payload,
    checklist_loader,
    RunFailure,
    RunResult,
    fan_out_reviews,
    review_group_once,
)
from schemreview.tracing import TraceContext, Tracer
from schemreview.workfirst import before_wait, map_on_pool


def make_gateway(tmp_path) -> Gateway:
    return Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))


def make_ctx(page, with_spec_for=("U1",)) -> GroupReviewContext:
    group = FunctionalGroup("power stage", ("U1", "R1"))
    spec = spec_from_agent_value(BASE_SPEC_VALUE, PartRef(mpn="LM317"), "file:///u1")
    specs = {d: (spec if d in with_spec_for else None) for d in group.designators}
    return GroupReviewContext(group, serialize_page_xml(page), specs,
                              checklist_loader()("power stage"))


def swapped_pin_response() -> str:
    return json.dumps({"analyses": [
        {"designator": "U1", "verdicts": [
            {"pins": "1, 3", "status": "incorrect",
             "reasoning": "ADJ and VIN appear swapped against the datasheet pinout",
             "referenced_nets": ["ADJ_NODE", "VIN_RAW"]},
            {"pins": "2", "status": "correct", "reasoning": "output on REG_OUT",
             "referenced_nets": ["REG_OUT"]},
        ]},
    ]})


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=2) as executor:
        yield executor


def script_review(tmp_path, ctx, seed, response_text):
    write_fixture(tmp_path / "fixtures", AgentKind.GROUP_REVIEW,
                  build_review_payload(ctx), seed, response_text)


class TestReviewGroupOnce:
    def test_multi_pin_verdict_kept_as_one_key(self, tmp_path):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        script_review(tmp_path, ctx, 0, swapped_pin_response())
        result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                   make_gateway(tmp_path))
        u1 = next(a for a in result.analyses if a.designator == "U1")
        swapped = next(v for v in u1.verdicts if v.status is VerdictStatus.INCORRECT)
        assert swapped.pin_key == "1, 3"
        assert swapped.pins == ("1", "3")

    def test_missing_spec_defaults_to_unverifiable(self, tmp_path):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1",))  # R1 has no spec
        script_review(tmp_path, ctx, 0, swapped_pin_response())
        result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                   make_gateway(tmp_path))
        r1 = next(a for a in result.analyses if a.designator == "R1")
        assert len(r1.verdicts) == 1
        assert r1.verdicts[0].status is VerdictStatus.UNVERIFIABLE
        assert r1.verdicts[0].reasoning == "no datasheet"
        assert r1.verdicts[0].pin_key == "1, 2"

    def test_unknown_pin_dropped_with_warning(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "U1", "verdicts": [
                {"pins": "99", "status": "incorrect", "reasoning": "bogus"},
                {"pins": "2", "status": "correct", "reasoning": "fine"},
            ]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        assert "99" in caplog.text
        u1 = next(a for a in result.analyses if a.designator == "U1")
        assert [v.pin_key for v in u1.verdicts] == ["2"]

    def test_verdict_whose_pin_key_names_no_pins_dropped_with_warning(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "U1", "verdicts": [
                {"pins": " , ", "status": "incorrect", "reasoning": "no pins"},
                {"pins": "2", "status": "correct", "reasoning": "fine"},
            ]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        assert "U1 verdict names pin(s) <none> not on the component; dropped" in caplog.text
        u1 = next(a for a in result.analyses if a.designator == "U1")
        assert [v.pin_key for v in u1.verdicts] == ["2"]

    def test_analysis_outside_group_dropped(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "D5", "verdicts": [
                {"pins": "1", "status": "warning", "reasoning": "not in this group"}]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        assert all(a.designator != "D5" for a in result.analyses)

    def test_overlapping_pin_keys_keep_first(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "U1", "verdicts": [
                {"pins": "1, 3", "status": "incorrect", "reasoning": "swap"},
                {"pins": "3", "status": "correct", "reasoning": "conflicting claim"},
            ]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        u1 = next(a for a in result.analyses if a.designator == "U1")
        assert [v.pin_key for v in u1.verdicts] == ["1, 3"]


class TestFanOut:
    def test_k_runs_with_distinct_indices(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in range(3):
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        results, failures = fan_out_reviews(ctx, page, 3, make_gateway(tmp_path), pool)
        assert sorted(r.run_index for r in results) == [0, 1, 2]
        assert failures == []

    def test_single_failed_run_tolerated(self, tmp_path, pool, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in (0, 2):  # seed 1 has no fixture and will fail
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        with caplog.at_level(logging.WARNING):
            results, failures = fan_out_reviews(ctx, page, 3, make_gateway(tmp_path),
                                                pool)
        assert sorted(r.run_index for r in results) == [0, 2]
        assert [f.run_index for f in failures] == [1]

    def test_all_runs_failed_raises(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        with pytest.raises(AllRunsFailed):
            fan_out_reviews(ctx, page, 2, make_gateway(tmp_path), pool)

    def test_k_must_be_positive(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page)
        with pytest.raises(ValueError):
            fan_out_reviews(ctx, page, 0, make_gateway(tmp_path), pool)

    def test_task_on_one_worker_pool_gets_all_runs(self, tmp_path):
        # the only worker runs the caller, so the k runs it submits can
        # only complete if the caller takes them back
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in range(3):
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        single = ThreadPoolExecutor(max_workers=1)
        try:
            task = single.submit(fan_out_reviews, ctx, page, 3,
                                 make_gateway(tmp_path), single)
            results, failures = task.result(timeout=10)
        finally:
            # on a deadlock, cancelling the queued runs frees the worker
            single.shutdown(wait=False, cancel_futures=True)
        assert sorted(r.run_index for r in results) == [0, 1, 2]
        assert failures == []

    def test_equal_choices_share_one_reading_and_each_run_logs_its_drops(
            self, tmp_path, pool, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        unknown_pin = json.dumps({"analyses": [{"designator": "U1", "verdicts": [
            {"pins": "99", "status": "incorrect", "reasoning": "bogus"},
            {"pins": "2", "status": "correct", "reasoning": "fine"}]}]})
        outside = json.dumps({"analyses": [{"designator": "C9", "verdicts": []}]})
        for seed, answer in enumerate((unknown_pin, outside, unknown_pin, unknown_pin)):
            script_review(tmp_path, ctx, seed, answer)
        gateway = make_gateway(tmp_path)
        with caplog.at_level(logging.WARNING, logger="schemreview.review"):
            expected, _ = per_seed_fan_out(ctx, page, 4, gateway, TraceContext(Tracer(), ""))
            expected_log = [r.getMessage() for r in caplog.records]
            caplog.clear()
            results, failures = fan_out_reviews(ctx, page, 4, gateway, pool)
        assert results == expected and failures == []
        first, second, third, fourth = (r.analyses for r in results)
        assert first is third is fourth and first is not second
        assert [r.getMessage() for r in caplog.records] == expected_log == [
            "run 0: U1 verdict names pin(s) ['99'] not on the component; dropped",
            "run 1: analysis for C9 outside group 'power stage'; dropped",
            "run 2: U1 verdict names pin(s) ['99'] not on the component; dropped",
            "run 3: U1 verdict names pin(s) ['99'] not on the component; dropped"]

    def test_a_choice_that_fails_to_read_leaves_the_other_runs_made(
            self, tmp_path, pool, monkeypatch):
        # reading choice 0 raises an error no run records; choice 1 is
        # missing, and its remake is still made before that error leaves
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        script_review(tmp_path, ctx, 0, swapped_pin_response())
        gateway = make_gateway(tmp_path)
        seeds = []
        complete = gateway.complete
        monkeypatch.setattr(gateway, "complete", lambda req, **kw: (
            seeds.append(req.seed) or complete(req, **kw)))
        monkeypatch.setattr(review, "_read_answer", mock.Mock(side_effect=Boom))
        with pytest.raises(Boom):
            fan_out_reviews(ctx, page, 2, gateway, pool)
        assert seeds == [0, 1]  # the request, then run 1's remake


def per_seed_fan_out(ctx, page, k, gateway, trace):
    """The fan-out before one request asked for k choices: k one-completion
    runs of the same payload, differing only by seed, each under
    ``review:<i>``."""
    payload = build_review_payload(ctx)
    results, failures = [], []
    for run_index in range(k):
        try:
            with trace.span(f"review:{run_index}", run_index=run_index) as run_trace:
                results.append(review_group_once(ctx, payload, page, run_index, gateway,
                                                 run_trace))
        except SchemReviewError as exc:
            failures.append(RunFailure(run_index, str(exc)))
    if not results:
        raise AllRunsFailed(f"all {k} review runs failed for group {ctx.group.name!r}")
    return results, failures


def seed_answer(seed: int) -> str:
    """A valid review that differs from seed to seed."""
    return json.dumps({"analyses": [{"designator": "U1", "verdicts": [
        {"pins": "1, 3", "status": ("incorrect", "warning", "correct")[seed % 3],
         "reasoning": f"run {seed} on the ADJ/VIN pair", "referenced_nets": ["ADJ_NODE"]},
        {"pins": "2", "status": "correct", "reasoning": "output on REG_OUT"}]}]})


NOT_JSON = "no review today"
OFF_SCHEMA = json.dumps({"analyses": [{"designator": "U1"}]})


def schema_failure(raw: str) -> str:
    """The error that the gateway appends to the repair of ``raw``."""
    try:
        SchemaRegistry().validate(AgentKind.GROUP_REVIEW, json.loads(raw))
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg} at char {exc.pos}"
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{raw!r} is valid")


# the answer to run i, and the prompts beyond the k-choice request's one
# that the new path sends for it: "valid" none; "repaired" (off-schema,
# then valid) its repair; "invalid" (never JSON) its two repairs; "missing"
# (no fixture) a one-completion call, which misses at no cost; "dropped"
# (left out of the k-choice reply, served to a one-completion call) the
# payload again; "repeated" (run 0's valid answer, word for word) none
ANSWERS = ("valid", "repaired", "invalid", "missing", "dropped", "repeated")


def script_answers(root: Path, payload: str, answers) -> int:
    """Write each run's fixtures; returns the tokens the new path spends
    on prompts beyond the k-choice request's one."""
    extra = 0
    for seed, answer in enumerate(answers):
        if answer in ("valid", "dropped", "repeated"):
            write_fixture(root, AgentKind.GROUP_REVIEW, payload, seed,
                          seed_answer(0 if answer == "repeated" else seed))
            extra += len(payload) // 4 if answer == "dropped" else 0
        elif answer == "repaired":
            write_fixture(root, AgentKind.GROUP_REVIEW, payload, seed, OFF_SCHEMA)
            repair = repair_payload(payload, schema_failure(OFF_SCHEMA))
            write_fixture(root, AgentKind.GROUP_REVIEW, repair, seed, seed_answer(seed))
            extra += len(repair) // 4
        elif answer == "invalid":
            prompt = payload
            for attempt in range(3):
                write_fixture(root, AgentKind.GROUP_REVIEW, prompt, seed, NOT_JSON)
                prompt = repair_payload(prompt, schema_failure(NOT_JSON))
                extra += len(prompt) // 4 if attempt < 2 else 0
    return extra


def dropping(answers):
    """MockBackend.complete, leaving the "dropped" runs out of every
    k-choice reply as a hosted backend may; a reply left with no choice
    fails as the mock's does."""
    original = MockBackend.complete

    def complete(backend, req, payload):
        choices, usage = original(backend, req, payload)
        if req.n is None:
            return choices, usage
        dropped = sum(len(raw) // 4 for answer, raw in zip(answers, choices)
                      if answer == "dropped")
        choices = [None if answer == "dropped" else raw
                   for answer, raw in zip(answers, choices)]
        if all(raw is None for raw in choices):
            raise BackendUnavailable("no choice")
        return choices, TokenUsage(usage.tokens_in, usage.tokens_out - dropped)
    return complete


def traced_outcome(call, k: int):
    """(results, failed run indices, group_review usage, spans) of a
    fan-out; AllRunsFailed fails every run."""
    tracer = Tracer()
    try:
        results, failures = call(TraceContext(tracer, "group:power stage"))
        failed = [f.run_index for f in failures]
    except AllRunsFailed:
        results, failed = [], list(range(k))
    usage = usage_by_kind(tracer.events()).get("group_review", {})
    return results, failed, usage, tracer.events()


@settings(max_examples=80, deadline=None)
@given(answers=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.sampled_from(ANSWERS), min_size=k, max_size=k)))
def test_one_k_choice_request_matches_the_per_seed_fan_out(answers):
    k = len(answers)
    page = regulator_page()
    ctx = make_ctx(page, with_spec_for=("U1", "R1"))
    payload = build_review_payload(ctx)
    with tempfile.TemporaryDirectory() as work, ThreadPoolExecutor(max_workers=2) as pool:
        extra = script_answers(Path(work) / "fixtures", payload, answers)
        gateway = make_gateway(Path(work))
        expected, expected_failed, expected_usage, _ = traced_outcome(
            lambda trace: per_seed_fan_out(ctx, page, k, gateway, trace), k)
        with mock.patch.object(MockBackend, "complete", dropping(answers)):
            results, failed, usage, events = traced_outcome(
                lambda trace: fan_out_reviews(ctx, page, k, gateway, pool, trace), k)

    assert failed == expected_failed
    assert results == expected
    assert usage.get("tokens_out") == expected_usage.get("tokens_out")
    served = any(answer not in ("missing", "dropped") for answer in answers)
    assert usage["tokens_in"] == (len(payload) // 4 if served else 0) + extra
    # the request records directly under the group; remade runs under review:<i>
    assert [e.path for e in events if e.span_name.startswith("review:")] == [
        f"group:power stage/review:{i}" for i, answer in enumerate(answers)
        if answer not in ("valid", "repeated")]


def chat_server(reply):
    """A chat-completions handler whose reply to a request body is
    ``{"choices": reply(body)}``, and the bodies it received."""
    bodies = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            bodies.append(body)
            out = json.dumps({"choices": reply(body),
                              "usage": {"prompt_tokens": 9, "completion_tokens": 4}}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    return Handler, bodies


def choice(index, content):
    return {"index": index, "message": {"role": "assistant", "content": content}}


def live_cfg(url) -> BackendConfig:
    return BackendConfig(kind="live-http", endpoint=url + "/v1/chat/completions")


def review_answer(ctx, page, seed, answer) -> RunResult:
    """Run ``seed``'s RunResult when the mock serves ``answer`` to it."""
    with tempfile.TemporaryDirectory() as work:
        write_fixture(Path(work) / "fixtures", AgentKind.GROUP_REVIEW,
                      build_review_payload(ctx), seed, answer)
        return review_group_once(ctx, build_review_payload(ctx), page, seed,
                                 make_gateway(Path(work)))


class TestLiveChoices:
    """One ``group_review`` request for k sampled choices over the wire."""

    @pytest.mark.parametrize("kind", list(AgentKind), ids=lambda kind: kind.value)
    def test_only_a_review_asks_for_n_sampled_choices(self, kind):
        handler, bodies = chat_server(
            lambda body: [choice(i, f"answer {i}") for i in range(body.get("n", 1))])
        n = 3 if kind is AgentKind.GROUP_REVIEW else None
        with loopback_server(handler) as url:
            choices, usage = LiveHttpBackend(live_cfg(url)).complete(
                AgentRequest(kind, "prompt", "payload", seed=0, n=n), "payload")
        [body] = bodies
        if kind is AgentKind.GROUP_REVIEW:
            assert (body["n"], body["temperature"]) == (3, REVIEW_TEMPERATURE)
            assert choices == ["answer 0", "answer 1", "answer 2"]
        else:
            assert "n" not in body
            assert body["temperature"] == 0.0
            assert choices == ["answer 0"]
        assert body["seed"] == 0
        assert usage == TokenUsage(9, 4)

    def test_choices_are_placed_by_index(self):
        handler, _ = chat_server(lambda body: [choice(i, f"answer {i}") for i in (2, 0, 1)])
        with loopback_server(handler) as url:
            choices, _ = LiveHttpBackend(live_cfg(url)).complete(
                AgentRequest(AgentKind.GROUP_REVIEW, "prompt", "payload", n=3), "payload")
        assert choices == ["answer 0", "answer 1", "answer 2"]

    @pytest.mark.parametrize("reply", [
        # a backend that returns one choice, whatever n asks for
        lambda answers: [choice(0, answers[0])],
        # choices out of index order, two of them without string content
        lambda answers: [choice(2, {"text": answers[2]}), choice(0, answers[0]),
                         choice(1, None)],
    ], ids=["one-choice", "non-string-content"])
    def test_missing_choices_become_one_completion_calls(self, pool, reply):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        answers = [seed_answer(seed) for seed in range(3)]

        def respond(body):
            if "n" in body:
                return reply(answers)
            return [choice(0, answers[body["seed"]])]

        handler, bodies = chat_server(respond)
        tracer = Tracer()
        with loopback_server(handler) as url:
            results, failures = fan_out_reviews(
                ctx, page, 3, Gateway(live_cfg(url)), pool, TraceContext(tracer, "group:g"))
        assert failures == []
        # each run reads its own seed's answer, whichever call brought it
        assert results == [review_answer(ctx, page, seed, answers[seed]) for seed in range(3)]
        payload = build_review_payload(ctx)
        [request, *calls] = bodies
        assert (request["n"], request["seed"]) == (3, 0)
        assert sorted(body["seed"] for body in calls) == [1, 2]
        assert all("n" not in body and body["messages"][1]["content"] == payload
                   and body["temperature"] == REVIEW_TEMPERATURE for body in calls)
        assert [(e.path, e.attributes.get("choices")) for e in tracer.events()
                if e.span_name == "group_review"] == [
            ("group:g/group_review", 3), ("group:g/review:1/group_review", None),
            ("group:g/review:2/group_review", None)]


class TestMapOnPool:
    def test_results_come_back_in_order(self, pool):
        # later items finish first
        def slow_first(i):
            time.sleep(0.01 * (4 - i))
            return i * i

        assert map_on_pool(pool, slow_first, range(5)) == [0, 1, 4, 9, 16]

    def test_task_on_one_worker_pool_runs_queued_items_inline(self):
        single = ThreadPoolExecutor(max_workers=1)
        try:
            def task():
                caller = threading.get_ident()
                return map_on_pool(single, lambda i: (i, threading.get_ident() == caller),
                                   range(4))

            results = single.submit(task).result(timeout=10)
        finally:
            # on a deadlock, cancelling the queued items frees the worker
            single.shutdown(wait=False, cancel_futures=True)
        assert results == [(i, True) for i in range(4)]

    def test_every_item_runs_and_the_first_failure_is_raised(self):
        # item 0 hands items 1-4 to the pool, whose one worker is busy, so
        # the map takes each back and runs it; items 2 and 3 fail, and the
        # failures stop nothing
        ran = []

        def item(i):
            ran.append(i)
            if i == 0:
                before_wait()
            if i in (2, 3):
                raise ValueError(f"item {i}")
            return i

        gate = threading.Event()
        single = ThreadPoolExecutor(max_workers=1)
        try:
            single.submit(gate.wait)
            with pytest.raises(ValueError, match="item 2"):
                map_on_pool(single, item, range(5))
            assert ran == [0, 1, 2, 3, 4]
            assert workfirst._queue_of(single).pop(newest=False) is None
        finally:
            gate.set()
            single.shutdown(wait=True)

    @pytest.mark.parametrize("failing", [(), (2, 4)])
    def test_waiting_task_runs_later_queued_items_itself(self, failing):
        # item 0 hands items 1-4 to the pool, whose one worker takes item 1
        # and holds it until items 2-4 have run; only the waiting thread
        # can run them, taking them from the back, and a failure among
        # them surfaces in item order
        item1_started = threading.Event()
        release = threading.Event()
        order = []

        def item(i):
            if i == 0:
                before_wait()
                return item1_started.wait(timeout=10)
            if i == 1:
                item1_started.set()
                return release.wait(timeout=5)
            order.append((i, threading.get_ident()))
            if len(order) == 3:
                release.set()
            if i in failing:
                raise ValueError(f"item {i}")
            return i

        single = ThreadPoolExecutor(max_workers=1)
        try:
            if failing:
                with pytest.raises(ValueError, match="item 2"):
                    map_on_pool(single, item, range(5))
            else:
                # item 1 was released, not timed out
                assert map_on_pool(single, item, range(5)) == [True, True, 2, 3, 4]
        finally:
            release.set()
            single.shutdown(wait=True)
        assert order == [(i, threading.get_ident()) for i in (4, 3, 2)]

    def test_taken_over_items_do_not_keep_fn_alive(self):
        # the one worker is held until map_on_pool has returned, so each
        # item that item 0 hands over is taken back, also after item 2 has
        # failed, while the worker's call for it is still queued
        class Payload:
            pass

        def make_fn(failing):
            payload = Payload()

            def fn(i):
                if i == 0:
                    before_wait()
                if i == failing:
                    raise ValueError(f"item {i}")
                return (payload, i)[1]
            return fn, weakref.ref(payload)

        gate = threading.Event()
        single = ThreadPoolExecutor(max_workers=1)
        try:
            single.submit(gate.wait)
            fn, payload_ref = make_fn(failing=None)
            assert map_on_pool(single, fn, range(4)) == [0, 1, 2, 3]
            del fn
            gc.collect()
            assert single._work_queue.qsize() == 3
            assert payload_ref() is None

            fn, payload_ref = make_fn(failing=2)
            try:
                map_on_pool(single, fn, range(4))
            except ValueError as exc:
                assert str(exc) == "item 2"
            else:
                pytest.fail("item 2 did not raise")
            del fn
            gc.collect()
            assert single._work_queue.qsize() == 6
            assert payload_ref() is None
        finally:
            gate.set()
            single.shutdown(wait=True)


class Boom(Exception):
    pass


def _nested(depth: int, fanout: int, fails: frozenset):
    """An item function over index paths: a path longer than ``depth`` is
    a leaf, a shorter one maps the function over its ``fanout`` sub-paths
    (on ``pool`` when given); every path in ``fails`` raises Boom."""
    def fn(path, pool=None):
        if path in fails:
            raise Boom(path)
        if len(path) > depth:
            before_wait()  # hands the items not yet started to the pool
            time.sleep(0.001)  # long enough for waiting threads to take over items
            return path
        subitems = [path + (i,) for i in range(fanout)]
        if pool is None:
            return [fn(sub) for sub in subitems]
        return map_on_pool(pool, lambda sub: fn(sub, pool), subitems)
    return fn


def _outcome(call):
    try:
        return "ok", call()
    except Boom as exc:
        return "raised", exc.args[0]


@settings(max_examples=60, deadline=None)
@given(items=st.integers(0, 5), fanout=st.integers(0, 3), depth=st.integers(0, 2),
       workers=st.integers(1, 4), on_pool=st.booleans(),
       fails=st.frozensets(st.lists(st.integers(0, 2), min_size=1, max_size=3)
                           .map(tuple), max_size=4))
def test_map_on_pool_matches_the_sequential_oracle(items, fanout, depth, workers,
                                                    on_pool, fails):
    # nesting 1-3 deep, called from a task on the pool or from outside it;
    # the first failure in item order is the one raised
    fn = _nested(depth, fanout, fails)
    top = [(i,) for i in range(items)]
    expected = _outcome(lambda: [fn(item) for item in top])
    pool = ThreadPoolExecutor(max_workers=workers)
    got = []

    def call():
        if on_pool:
            return pool.submit(map_on_pool, pool, lambda x: fn(x, pool), top).result()
        return map_on_pool(pool, lambda x: fn(x, pool), top)

    caller = threading.Thread(target=lambda: got.append(_outcome(call)), daemon=True)
    try:
        caller.start()
        caller.join(timeout=20)
        assert not caller.is_alive(), "map_on_pool deadlocked"
    finally:
        pool.shutdown(wait=not caller.is_alive(), cancel_futures=True)
    assert got == [expected]


def test_map_on_pool_runs_each_item_once_under_contention():
    # three levels of four items, every leaf about to wait, on more workers
    # than cores and a short switch interval: a lost update in the run
    # queue would run a leaf twice or never
    ran = []

    def node(path, pool):
        if len(path) == 3:
            before_wait()
            ran.append(path)
            return path
        return map_on_pool(pool, lambda sub: node(sub, pool),
                           [path + (i,) for i in range(4)])

    leaves = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    expected = [[[(a, b, c) for c in range(4)] for b in range(4)] for a in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = ThreadPoolExecutor(max_workers=6)
    try:
        for _ in range(20):
            ran.clear()
            got = []
            caller = threading.Thread(
                target=lambda: got.append(pool.submit(node, (), pool).result()),
                daemon=True)
            caller.start()
            caller.join(timeout=20)
            assert not caller.is_alive(), "map_on_pool deadlocked"
            assert got == [expected]
            assert sorted(ran) == leaves
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)


def test_checklist_loading_prefers_group_kind():
    power = checklist_loader()("power stage")
    generic = checklist_loader()("anything else")
    assert "Power stage" in power
    assert "General connection" in generic


def test_checklist_from_custom_directory(tmp_path):
    (tmp_path / "io_group.txt").write_text("custom io checklist")
    assert checklist_loader(str(tmp_path))("IO Group") == "custom io checklist"
    (tmp_path / "default.txt").write_text("fallback")
    assert checklist_loader(str(tmp_path))("other") == "fallback"

"""TraceContext.span: the child it yields and the span it records; emission."""

import json

import pytest

from schemreview.tracing import UNTRACED, TraceContext, TraceEvent, Tracer, emit_traces


def test_span_yields_child_that_inherits_attributes():
    tracer = Tracer()
    page = TraceContext(tracer, "run/page:P1", {"page_id": "P1"})
    with page.span("part:LM317", part="LM317") as child:
        assert child.path == "run/page:P1/part:LM317"
        assert child.attrs == {"page_id": "P1", "part": "LM317"}
        with child.span("critic", seed=0):
            pass
    part, critic = tracer.events()
    assert (part.span_name, part.path) == ("part:LM317", "run/page:P1/part:LM317")
    assert part.attributes == {"page_id": "P1", "part": "LM317"}
    assert critic.path == "run/page:P1/part:LM317/critic"
    assert critic.attributes == {"page_id": "P1", "part": "LM317", "seed": 0}


def test_span_is_recorded_when_the_block_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with TraceContext(tracer).span("review:0", run_index=0):
            raise RuntimeError("run failed")
    (event,) = tracer.events()
    assert (event.span_name, event.path) == ("review:0", "run/review:0")
    assert event.attributes == {"run_index": 0}
    assert event.duration >= 0


def test_attributes_set_on_the_child_are_recorded():
    tracer = Tracer()
    with TraceContext(tracer).span("retrieve", part="LM317") as child:
        child.attrs["cache_hit"] = True
    with pytest.raises(RuntimeError):
        with TraceContext(tracer).span("critic", seed=1) as child:
            child.attrs.update(tokens_in=3, error="backend_unavailable")
            raise RuntimeError("call failed")
    critic, retrieve = tracer.events()
    assert retrieve.attributes == {"part": "LM317", "cache_hit": True}
    assert critic.attributes == {"seed": 1, "tokens_in": 3,
                                 "error": "backend_unavailable"}


def test_untraced_spans_are_discarded():
    with UNTRACED.span("page:P1", page_id="P1") as child:
        with child.span("selection", seed=0) as agent:
            agent.attrs["tokens_in"] = 1
    assert UNTRACED.tracer.events() == []
    assert UNTRACED.attrs == {}


def test_emit_writes_events_in_the_order_given(tmp_path):
    events = [TraceEvent("b", "run/b", 0.0, 0.1, {"z": 1, "a": 2}),
              TraceEvent("a", "run/a", 0.0, 0.1, {})]
    emit_traces(events, tmp_path / "trace.jsonl")
    lines = [json.loads(line) for line in
             (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [line["path"] for line in lines] == ["run/b", "run/a"]
    assert list(lines[0]["attributes"]) == ["a", "z"]

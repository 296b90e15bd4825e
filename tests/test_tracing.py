"""TraceContext.span: the child it yields and the span it records; emission."""

import json

import pytest

from schemreview.errors import BackendUnavailable
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
    assert event.attributes == {"run_index": 0, "error": "RuntimeError"}
    assert event.duration >= 0


def test_attributes_set_on_the_child_are_recorded():
    tracer = Tracer()
    with TraceContext(tracer).span("retrieve", part="LM317") as child:
        child.attrs["cache_hit"] = True
    with pytest.raises(BackendUnavailable):
        with TraceContext(tracer).span("critic", seed=1) as child:
            child.attrs["tokens_in"] = 3
            raise BackendUnavailable("call failed")
    critic, retrieve = tracer.events()
    assert retrieve.attributes == {"part": "LM317", "cache_hit": True}
    assert critic.attributes == {"seed": 1, "tokens_in": 3, "error": "BackendUnavailable"}


def test_every_span_an_exception_leaves_names_it():
    # a bug, not a SchemReviewError: each span it leaves records its
    # class with the attributes set before the raise; the span whose
    # block catches it, and a sibling that finished, record no error
    tracer = Tracer()
    with TraceContext(tracer, "").span("run") as root:
        with root.span("page:P1", page_id="P1") as page:
            with page.span("group:g", group="g"):
                pass
        try:
            with root.span("page:P2", page_id="P2") as page:
                with page.span("group:h", group="h") as group:
                    with group.span("review:1", run_index=1) as run:
                        run.attrs["tokens_in"] = 7
                        {}["missing"]
        except KeyError:
            root.attrs["caught"] = True
    assert {e.path: e.attributes for e in tracer.events()} == {
        "run": {"caught": True},
        "run/page:P1": {"page_id": "P1"},
        "run/page:P1/group:g": {"page_id": "P1", "group": "g"},
        "run/page:P2": {"page_id": "P2", "error": "KeyError"},
        "run/page:P2/group:h": {"page_id": "P2", "group": "h", "error": "KeyError"},
        "run/page:P2/group:h/review:1": {"page_id": "P2", "group": "h", "run_index": 1,
                                         "tokens_in": 7, "error": "KeyError"},
    }


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

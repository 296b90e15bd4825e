"""TraceContext.span: the child it yields and the span it records."""

import pytest

from schemreview.tracing import TraceContext, Tracer


def test_span_yields_child_that_inherits_attributes():
    tracer = Tracer()
    page = TraceContext(tracer, "run/page:P1", {"page_id": "P1"})
    with page.span("part:LM317", part="LM317") as child:
        assert child.path == "run/page:P1/part:LM317"
        assert child.attrs == {"page_id": "P1", "part": "LM317"}
        child.record("critic", 0.0, 0.01, seed=0)
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

"""Outside-in tracing for the benchmark's traced runs.

``Probes`` wraps the public functions that ``schemreview.pipeline`` calls
(and the gateway, backend, schema registry, datasheet cache, single-flight
and thread-pool entry points beneath them) by replacing the module and
class attributes the program looks them up through. Each wrapped call
records one span in memory: name, layer, start, end, parent span and
invocation id, plus counts taken from its arguments and result. Work a
pool runs is a ``pool.task`` span parented to the span that submitted it,
in the submitter's layer, so the span tree follows the program's fan-out
across threads and time a task spends outside wrapped calls counts as the
submitting layer's own.

``summarize`` turns one invocation's spans into the per-layer metrics:
busy time (outermost spans of a layer), self time (each span minus the
part of it its children cover), counts and ratios, and the critical path,
the longest chain of dependent agent calls.
"""

from __future__ import annotations

import concurrent.futures
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from schemreview import augment, canonical, consensus, datasheets, pipeline, review
from schemreview.dscache import CacheStore
from schemreview.gateway import Gateway, MockBackend, SchemaRegistry
from schemreview.singleflight import SingleFlight

LAYERS = ("pipeline", "ingest", "augment", "wiretrace", "canonical", "select",
          "retrieve", "dscache", "singleflight", "review", "consensus",
          "grouping", "reporting", "gateway", "backend", "tracing")
AGENT_KINDS = ("selection", "head_analysis", "extraction", "critic",
               "group_review", "consensus")
AGENT_SPAN = "gateway.complete"
ROOT_SPAN = "pipeline.run_pipeline"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    invocation: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- pure span arithmetic ---------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans) -> dict[int | None, list[Span]]:
    kids: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        kids[span.parent].append(span)
    return kids


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered([(c.start, c.end) for c in kids[s.id]],
                                       s.start, s.end)
            for s in spans}


def critical_path(spans, root: Span, is_agent) -> float:
    """Longest chain of dependent agent calls under ``root``: an agent span
    counts its duration; any other span the heaviest chain of children
    that ran one after another (each starting after the previous ended)."""
    kids = children_of(spans)

    def chain(span: Span) -> float:
        if is_agent(span):
            return span.duration
        ordered = sorted(kids[span.id], key=lambda s: s.start)
        best: list[float] = []
        for i, child in enumerate(ordered):
            before = max((best[j] for j in range(i) if ordered[j].end <= child.start),
                         default=0.0)
            best.append(before + chain(child))
        return max(best, default=0.0)

    return chain(root)


# --- recording ------------------------------------------------------------------

class Probes:
    """Installs the wrappers on ``install()`` and removes them on
    ``uninstall()``; spans accumulate in ``spans``."""

    def __init__(self, critic_threshold: float):
        self.critic_threshold = critic_threshold
        self.spans: list[Span] = []
        self.invocation = 0
        self.peak_threads: dict[int, int] = defaultdict(int)
        self.pool_wait: dict[int, float] = defaultdict(float)
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # open spans per thread; ``base`` is the span that submitted pool work
    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.base = None
        return self._local.stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self._local.base

    def open(self, name: str, layer: str | None = None) -> Span:
        """Start a span under the current one; ``layer`` defaults to the
        parent's, for code that runs on behalf of its caller."""
        parent = self.current()
        if layer is None:
            layer = parent.layer if parent is not None else "pipeline"
        with self._lock:
            span = Span(next(self._ids), name, layer,
                        parent.id if parent is not None else None,
                        self.invocation, time.perf_counter())
            self.spans.append(span)
            threads = threading.active_count()
            if threads > self.peak_threads[self.invocation]:
                self.peak_threads[self.invocation] = threads
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, layer: str, count=None) -> None:
        """Record a span around ``owner.attr``; ``count(span, args, result)``
        adds counts once the call has returned."""
        original = getattr(owner, attr)
        probes = self

        def wrapper(*args, **kwargs):
            span = probes.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.counts["errors"] = 1
                raise
            finally:
                probes.close(span)
            if count is not None:
                count(span, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def _wrap_singleflight(self) -> None:
        original = SingleFlight.run
        probes = self

        def run(flights, key, fn):
            caller = probes.current()
            span = probes.open("singleflight.run", "singleflight")
            led = []

            def leader():
                # the computation belongs to the layer that asked for it
                led.append(True)
                inner = probes.open("singleflight.leader",
                                    caller.layer if caller is not None else None)
                try:
                    return fn()
                finally:
                    probes.close(inner)

            try:
                return original(flights, key, leader)
            finally:
                probes.close(span)
                span.counts["coalesced"] = 0 if led else 1

        self._patch(SingleFlight, "run", run)

    def _wrap_submit(self) -> None:
        original = concurrent.futures.ThreadPoolExecutor.submit
        probes = self

        def submit(pool, fn, /, *args, **kwargs):
            parent, invocation = probes.current(), probes.invocation
            submitted = time.perf_counter()

            def run(*a, **k):
                waited = time.perf_counter() - submitted
                with probes._lock:
                    probes.pool_wait[invocation] += waited
                probes._stack()
                probes._local.base = parent
                task = probes.open("pool.task")
                try:
                    return fn(*a, **k)
                finally:
                    probes.close(task)
                    probes._local.base = None

            return original(pool, run, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", submit)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes are already installed")
        threshold = self.critic_threshold
        w = self.wrap

        def n_bytes(span, args, result):
            span.counts["bytes"] = len(args[0])

        def segments(span, args, result):
            span.counts["segments"] = sum(1 for a in args[0].annotations
                                          if a.kind == "wire")

        def xml_bytes(span, args, result):
            span.counts["bytes"] = len(result)

        def groups(span, args, result):
            span.counts["groups"] = len(result)

        def attempts(span, args, result):
            span.counts["attempts"] = result.attempts

        def critic(span, args, result):
            span.counts["critic_pass"] = int(result.weighted >= threshold)

        def lookup(span, args, result):
            span.counts["hit"] = int(result is not None)

        def payload(span, args, result):
            span.counts["payload_bytes"] = len(result)

        def fan_out(span, args, result):
            span.counts["runs_failed"] = len(result[1])

        def adjudication(span, args, result):
            span.counts["singles"] = len(args[1])
            span.counts["contradictions"] = len(args[2])

        def combined(span, args, result):
            candidates = {(a.designator, v.pin_set, v.status)
                          for run in args[0] for a in run.analyses for v in a.verdicts}
            span.counts["candidates"] = len(candidates)
            span.counts["kept"] = sum(len(a.findings) for a in result)

        def grouped(span, args, result):
            span.counts["groups"] = len(result)
            span.counts["findings"] = sum(len(g.findings) for g in result)

        def posted(span, args, result):
            span.counts["comments"] = len(args[1])
            span.counts["bytes"] = sum(len(c.markdown) + len(c.overlay_svg or "")
                                       for c in args[1])

        def agent(span, args, result):
            span.counts["kind"] = args[1].agent_kind.value
            span.counts["tokens_in"] = result.usage.tokens_in
            span.counts["tokens_out"] = result.usage.tokens_out
            span.counts["repairs"] = result.attempts - 1

        def emitted(span, args, result):
            span.counts["spans"] = len(args[0])

        w(pipeline, "ingest_schematic", "ingest.ingest_schematic", "ingest", n_bytes)
        w(pipeline, "augment_netlist", "augment.augment_netlist", "augment")
        w(augment, "infer_nets", "wiretrace.infer_nets", "wiretrace", segments)
        for module in (pipeline, review, canonical):
            w(module, "serialize_page_xml", "canonical.serialize_page_xml",
              "canonical", xml_bytes)
        w(pipeline, "diff_pages", "canonical.diff_pages", "canonical")
        w(canonical, "page_hash", "canonical.page_hash", "canonical")
        w(pipeline, "select_groups", "select.select_groups", "select", groups)
        w(pipeline, "retrieve_spec", "retrieve.retrieve_spec", "retrieve", attempts)
        w(datasheets, "critique", "retrieve.critique", "retrieve", critic)
        w(CacheStore, "lookup", "dscache.lookup", "dscache", lookup)
        w(CacheStore, "put", "dscache.put", "dscache")
        self._wrap_singleflight()
        w(pipeline, "fan_out_reviews", "review.fan_out_reviews", "review", fan_out)
        w(review, "build_review_payload", "review.build_review_payload", "review",
          payload)
        w(pipeline, "combine_consensus", "consensus.combine_consensus",
          "consensus", combined)
        w(consensus, "build_consensus_payload", "consensus.build_consensus_payload",
          "consensus", adjudication)
        w(pipeline, "group_errors", "grouping.group_errors", "grouping", grouped)
        w(pipeline, "render_comment", "reporting.render_comment", "reporting")
        w(pipeline, "post_comments", "reporting.post_comments", "reporting", posted)
        w(Gateway, "complete", AGENT_SPAN, "gateway", agent)
        w(MockBackend, "complete", "backend.complete", "backend")
        w(SchemaRegistry, "validate", "gateway.validate", "gateway")
        w(pipeline, "emit_traces", "tracing.emit_traces", "tracing", emitted)
        self._wrap_submit()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, invocation: int, fn, *args):
        """Call ``fn`` as the root span of one invocation."""
        self.invocation = invocation
        span = self.open(ROOT_SPAN, "pipeline")
        try:
            return fn(*args)
        finally:
            self.close(span)

    def dump(self, path) -> None:
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "layer": s.layer,
                                     "parent": s.parent, "invocation": s.invocation,
                                     "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


# --- per-invocation summary -----------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(spans, peak_threads: int = 0, pool_wait_s: float = 0.0) -> dict:
    """Per-layer metrics of one invocation's spans."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        own[s.layer] += selfs[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            busy[s.layer] += s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def seconds(name):
        return sum(s.duration for s in named(name))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = own[layer]
    m["ingest.bytes"] = total("ingest.ingest_schematic", "bytes")
    m["wiretrace.segments"] = total("wiretrace.infer_nets", "segments")
    m["canonical.calls"] = len(named("canonical.serialize_page_xml"))
    m["canonical.bytes"] = total("canonical.serialize_page_xml", "bytes")
    m["select.groups"] = total("select.select_groups", "groups")
    m["retrieve.calls"] = len(named("retrieve.retrieve_spec"))
    m["retrieve.attempts"] = total("retrieve.retrieve_spec", "attempts")
    m["retrieve.critic_pass_ratio"] = _ratio(total("retrieve.critique", "critic_pass"),
                                             len(named("retrieve.critique")))
    lookups = named("dscache.lookup")
    m["dscache.lookups"] = len(lookups)
    m["dscache.hit_ratio"] = _ratio(total("dscache.lookup", "hit"), len(lookups))
    m["dscache.puts"] = len(named("dscache.put"))
    m["singleflight.coalesced_ratio"] = _ratio(total("singleflight.run", "coalesced"),
                                               len(named("singleflight.run")))
    m["review.payload_bytes"] = total("review.build_review_payload", "payload_bytes")
    m["review.runs_failed"] = total("review.fan_out_reviews", "runs_failed")
    m["consensus.singles"] = total("consensus.build_consensus_payload", "singles")
    m["consensus.contradictions"] = total("consensus.build_consensus_payload",
                                          "contradictions")
    m["consensus.kept_ratio"] = _ratio(total("consensus.combine_consensus", "kept"),
                                       total("consensus.combine_consensus", "candidates"))
    m["grouping.findings"] = total("grouping.group_errors", "findings")
    m["grouping.groups"] = total("grouping.group_errors", "groups")
    m["reporting.render_s"] = seconds("reporting.render_comment")
    m["reporting.post_s"] = seconds("reporting.post_comments")
    m["reporting.comments"] = total("reporting.post_comments", "comments")
    m["reporting.bytes"] = total("reporting.post_comments", "bytes")

    agents = named(AGENT_SPAN)
    for kind in AGENT_KINDS:
        calls = [s for s in agents if s.counts.get("kind") == kind]
        m[f"gateway.{kind}.calls"] = len(calls)
        m[f"gateway.{kind}.tokens_in"] = sum(s.counts["tokens_in"] for s in calls)
        m[f"gateway.{kind}.tokens_out"] = sum(s.counts["tokens_out"] for s in calls)
        m[f"gateway.{kind}.busy_s"] = sum(s.duration for s in calls)
    m["gateway.backend_s"] = m.pop("backend.busy_s")
    m["gateway.validate_s"] = seconds("gateway.validate")
    m["gateway.repairs"] = sum(s.counts.get("repairs", 0) for s in agents)
    m["gateway.failed"] = sum(s.counts.get("errors", 0) for s in agents)
    m["tracing.emit_s"] = seconds("tracing.emit_traces")
    m["tracing.spans"] = total("tracing.emit_traces", "spans")

    roots = named(ROOT_SPAN)
    m["pipeline.critical_path_s"] = sum(
        critical_path(spans, root, lambda s: s.name == AGENT_SPAN) for root in roots)
    m["pipeline.pool_wait_s"] = pool_wait_s
    m["pipeline.peak_threads"] = peak_threads
    return m


def summarize_runs(probes: Probes) -> dict[str, float]:
    """Median over the recorded invocations of each per-layer metric."""
    by_invocation: dict[int, list[Span]] = defaultdict(list)
    for span in probes.spans:
        by_invocation[span.invocation].append(span)
    rows = [summarize(spans, probes.peak_threads[inv], probes.pool_wait[inv])
            for inv, spans in sorted(by_invocation.items())]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}

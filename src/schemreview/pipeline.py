"""The per-page pipeline under a time budget.

Page set: full-analysis mode takes every page; design-review mode takes
the pages whose canonical hash differs from the base plus any explicit
page override. Per page: select groups, retrieve specs (parallel across
parts), fan out k reviews per group, combine consensus, cluster errors,
render comments. Pages, parts, groups and review runs are all tasks on
the run's one pool of ``backend.max_in_flight`` threads, which bounds
its threads and its concurrent agent calls; every wait on the pool goes
through ``review.map_on_pool``. The calling thread only admits pages and
waits: pages run one after another and the time budget is checked
before each, so pages not started by the deadline are skipped and the
completed pages' comments are still posted. The run's spans are its
one record: the report's usage and cache counts and the root span's
token totals are sums over them, and the trace file is written even
when the run fails.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .augment import augment_netlist
from .canonical import diff_pages, serialize_page_xml
from .config import Mode, RunConfig
from .consensus import combine_consensus
from .datasheets import RetrievalConfig, default_fetcher, retrieve_spec
from .dscache import CacheStore
from .errors import InputError, SchemReviewError
from .gateway import Gateway, usage_by_kind
from .grouping import group_errors
from .ingest import ingest_schematic
from .libraries import PartRef
from .model import Page, Schematic
from .reporting import (
    DeliveryReport,
    PipelineStage,
    ProgressEvent,
    post_comments,
    render_comment,
)
from .review import (
    GroupReviewContext,
    fan_out_reviews,
    load_checklist,
    map_on_pool,
    select_groups,
)
from .singleflight import SingleFlight
from .tracing import TraceContext, Tracer, emit_traces

log = logging.getLogger(__name__)

class RunStatus:
    COMPLETE = "complete"
    PARTIAL = "partial"


@dataclass
class RunReport:
    status: str
    pages_analyzed: list[str]
    pages_skipped: list[str]
    comments_emitted: int
    usage: dict
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    delivery: DeliveryReport | None = None

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "pages_analyzed": self.pages_analyzed,
            "pages_skipped": self.pages_skipped,
            "comments_emitted": self.comments_emitted,
            "usage": self.usage,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _read_schematic(path) -> Schematic:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read schematic {path}: {exc}") from exc
    return augment_netlist(ingest_schematic(raw))


def select_page_set(cfg: RunConfig, head: Schematic) -> list[str]:
    """Page ids to analyze, in document order."""
    all_ids = [p.id for p in head.pages]
    if cfg.mode is Mode.FULL_ANALYSIS:
        return all_ids
    wanted: set[str] = set()
    if cfg.base_schematic:
        base = _read_schematic(cfg.base_schematic)
        wanted |= diff_pages(base, head)
    if cfg.pages_override:
        unknown = set(cfg.pages_override) - set(all_ids)
        if unknown:
            raise InputError(f"pages_override names unknown pages: {sorted(unknown)}")
        wanted |= set(cfg.pages_override)
    return [pid for pid in all_ids if pid in wanted]


def _retrieve_all_specs(page: Page, groups, cfg: RunConfig, gateway: Gateway,
                        cache: CacheStore, flights: SingleFlight,
                        pool: ThreadPoolExecutor, ctx: TraceContext) -> dict:
    """Parallel retrieval across the page's unique parts; returns
    designator -> DatasheetSpec | None."""
    retrieval_cfg = RetrievalConfig(threshold=cfg.critic_threshold,
                                    max_attempts=cfg.max_attempts)
    part_keys: dict[str, str | None] = {}  # designator -> part key
    parts: dict[str, tuple] = {}  # part key -> (PartRef, schematic_url)
    for group in groups:
        for designator in group.designators:
            comp = page.component(designator)
            key = part_keys[designator] = comp.mpn or comp.ipn
            if key and key not in parts:
                parts[key] = (PartRef(comp.mpn, comp.ipn), comp.datasheet_url or None)

    def _one(item):
        key, (part, schematic_url) = item
        try:
            with ctx.span(f"part:{key}", part=key) as part_ctx:
                return key, retrieve_spec(
                    part, cfg.libraries, retrieval_cfg, gateway=gateway,
                    cache=cache, fetcher=default_fetcher,
                    schematic_url=schematic_url, flights=flights,
                    trace=part_ctx)
        except SchemReviewError as exc:
            log.warning("datasheet retrieval failed for %s: %s", key, exc)
            return key, None

    spec_for_key = {key: result.spec
                    for key, result in map_on_pool(pool, _one, sorted(parts.items()))
                    if result is not None}
    return {designator: spec_for_key.get(key) for designator, key in part_keys.items()}


def _analyze_page(page: Page, cfg: RunConfig, gateway: Gateway, cache: CacheStore,
                  flights: SingleFlight, pool: ThreadPoolExecutor,
                  ctx: TraceContext) -> list:
    """The page's rendered comments."""
    groups = select_groups(page, gateway, trace=ctx)
    specs = _retrieve_all_specs(page, groups, cfg, gateway, cache, flights,
                                pool, ctx)

    def _review_group(group):
        review_ctx = GroupReviewContext(
            group, serialize_page_xml(page, group.designators),
            {d: specs.get(d) for d in group.designators},
            load_checklist(group.name, cfg.checklist_dir))
        with ctx.span(f"group:{group.name}", group=group.name) as gctx:
            runs, failures = fan_out_reviews(review_ctx, page, cfg.k, gateway,
                                             pool, trace=gctx)
            if failures:
                log.warning("page %s group %r: %d run(s) failed",
                            page.id, group.name, len(failures))
            return combine_consensus(runs, review_ctx, gateway, trace=gctx)

    analyses = [a for group_analyses in map_on_pool(pool, _review_group, groups)
                for a in group_analyses]

    return [render_comment(error_group, specs, page)
            for error_group in group_errors(analyses, page.nets)]


def run_pipeline(cfg: RunConfig, schematic_path) -> RunReport:
    cfg.validate()
    run_start = time.time()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_budget_s if cfg.time_budget_s is not None else None

    gateway = Gateway(cfg.backend)
    cache = CacheStore(cfg.cache_dir)
    flights = SingleFlight()
    tracer = Tracer()
    root = TraceContext(tracer, "run")

    analyzed: list[str] = []
    comments: list = []
    skipped: list[str] = []
    error: dict = {}  # the root span's ``error`` when the run fails

    try:
        head = _read_schematic(schematic_path)
        pages = [head.page(pid) for pid in select_page_set(cfg, head)]
        with ThreadPoolExecutor(max_workers=cfg.backend.max_in_flight) as pool:
            for page in pages:
                if deadline is not None and time.perf_counter() >= deadline:
                    skipped.append(page.id)
                    continue
                with root.span(f"page:{page.id}", page_id=page.id) as ctx:
                    comments += pool.submit(_analyze_page, page, cfg, gateway, cache,
                                            flights, pool, ctx).result()
                analyzed.append(page.id)

        progress = [ProgressEvent(pid, stage)
                    for pid in analyzed for stage in PipelineStage]
        delivery = post_comments(cfg.sink, comments, progress)
    except BaseException as exc:
        error["error"] = type(exc).__name__
        raise
    finally:
        usage = usage_by_kind(tracer.events())
        tracer.record("run", "run", run_start, time.perf_counter() - t0, {
            "pages_analyzed": len(analyzed),
            "pages_skipped": len(skipped),
            "tokens_in": sum(u["tokens_in"] for u in usage.values()),
            "tokens_out": sum(u["tokens_out"] for u in usage.values()),
            **error,
        })
        events = tracer.events()
        if cfg.trace_out:
            emit_traces(events, cfg.trace_out)

    cache_hit = [e.attributes.get("cache_hit") for e in events if e.span_name == "retrieve"]

    status = RunStatus.PARTIAL if skipped else RunStatus.COMPLETE
    return RunReport(
        status=status,
        pages_analyzed=analyzed,
        pages_skipped=skipped,
        comments_emitted=len(comments),
        usage=usage,
        cache_hits=cache_hit.count(True),
        cache_misses=cache_hit.count(False),
        wall_time_s=time.perf_counter() - t0,
        delivery=delivery,
    )

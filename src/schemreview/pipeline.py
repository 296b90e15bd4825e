"""The pipeline over a run's pages under a time budget.

Page set: full-analysis mode takes every page; design-review mode takes
the pages whose canonical hash differs from the base plus any explicit
page override. The head is read in full first and the base against it,
so each unchanged page (its JSON equal in both, with equal format and
sidecars) is read once, as head's page, and is not hashed. Admission:
with no time budget every page of the set forms one batch; with a
budget each page is its own batch, admitted once the page before it has
finished and only if the deadline has not passed, so pages not started
by the deadline are skipped and the completed pages' comments are still
posted. Within a batch each stage runs for all its pages together
before the next starts:

1. select groups on every page;
2. retrieve each part under every page that lists it, one page after
   another in document order (parallel across parts): the first listing
   fetches the datasheet or hits the cache, each later one hits the
   cache (or retries a retrieval that failed);
3. fan out k reviews per group and combine consensus, for every group
   of every page;
4. cluster errors and render comments page by page, in document order.

Batches, parts, groups and review runs are all tasks on the run's one
pool of ``backend.max_in_flight`` threads, which still bounds its
threads and its concurrent agent calls. The calling thread only admits
batches, submitting each to the pool and waiting for its result; every
wait inside a batch goes through ``workfirst.map_on_pool``. Its items
run on the thread that reaches them and spill to the pool only when
that thread is about to wait (``workfirst.before_wait``), so a run whose
calls never block uses one worker thread. Each page records its own
``page:<id>`` span. The run's spans are its one record: the report's
usage and cache counts and the root span's token totals are sums over
them, and the trace file is written even when the run fails.
"""

from __future__ import annotations

import logging
import time
from contextlib import ExitStack
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
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
from .reporting import DeliveryReport, post_comments, render_comment
from .review import GroupReviewContext, checklist_loader, fan_out_reviews, select_groups
from .tracing import TraceContext, Tracer, emit_traces
from .workfirst import map_on_pool

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
            "delivery": [asdict(r) for r in (self.delivery.records if self.delivery else ())],
        }


def _read_schematic(path, reuse: Schematic | None = None) -> Schematic:
    """The augmented schematic at ``path``; its pages equal to pages of
    ``reuse`` are ``reuse``'s Page objects (``ingest_schematic``)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read schematic {path}: {exc}") from exc
    return augment_netlist(ingest_schematic(raw, reuse=reuse))


def select_page_set(cfg: RunConfig, head: Schematic) -> list[str]:
    """Page ids to analyze, in document order."""
    all_ids = [p.id for p in head.pages]
    if cfg.mode is Mode.FULL_ANALYSIS:
        return all_ids
    wanted = set(cfg.pages_override or ())
    unknown = wanted - set(all_ids)
    if unknown:  # before the base is read: a bad override fails fast
        raise InputError(f"pages_override names unknown pages: {sorted(unknown)}")
    if cfg.base_schematic:
        base = _read_schematic(cfg.base_schematic, reuse=head)
        wanted |= diff_pages(base, head)
    return [pid for pid in all_ids if pid in wanted]


def _retrieve_all_specs(pages: list[tuple[Page, TraceContext]], groups: list,
                        cfg: RunConfig, gateway: Gateway, cache: CacheStore,
                        pool: ThreadPoolExecutor) -> list[dict]:
    """Per page, designator -> DatasheetSpec | None. Each part key is one
    task (ordered by the first page that lists it, then by key) that
    retrieves the part under every page that lists it, one page after
    another in document order: the first listing fetches the datasheet or
    hits the cache, each later one hits the cache as it would after the
    earlier page ran (or retries a retrieval that failed)."""
    retrieval_cfg = RetrievalConfig(threshold=cfg.critic_threshold,
                                    max_attempts=cfg.max_attempts)
    part_keys: list[dict[str, str | None]] = []  # per page: designator -> part key
    # part key -> its listings: (page index, context, (PartRef, schematic_url))
    listings: dict[str, list[tuple]] = {}
    for index, ((page, ctx), page_groups) in enumerate(zip(pages, groups)):
        keys: dict[str, str | None] = {}
        parts: dict[str, tuple] = {}
        for group in page_groups:
            for designator in group.designators:
                comp = page.component(designator)
                key = keys[designator] = comp.mpn or comp.ipn
                if key and key not in parts:
                    parts[key] = (PartRef(comp.mpn, comp.ipn), comp.datasheet_url or None)
        part_keys.append(keys)
        for key, listing in sorted(parts.items()):
            listings.setdefault(key, []).append((index, ctx, listing))

    def _one(ctx, key, part, schematic_url):
        try:
            with ctx.span(f"part:{key}", part=key) as part_ctx:
                return retrieve_spec(
                    part, cfg.libraries, retrieval_cfg, gateway=gateway,
                    cache=cache, fetcher=default_fetcher,
                    schematic_url=schematic_url, trace=part_ctx).spec
        except SchemReviewError as exc:
            log.warning("datasheet retrieval failed for %s: %s", key, exc)
            return None

    def _part(key):
        return [((index, key), _one(ctx, key, *listing))
                for index, ctx, listing in listings[key]]

    # (page index, part key) -> spec
    specs = dict(pair for pairs in map_on_pool(pool, _part, list(listings))
                 for pair in pairs)
    return [{designator: specs.get((index, key)) for designator, key in keys.items()}
            for index, keys in enumerate(part_keys)]


def _map_settled(pool: ThreadPoolExecutor, fn, items) -> list:
    """``map_on_pool`` for one stage of a batch: every item runs to its end
    even when another fails, so a failed run's trace holds the stage for
    every admitted page; the first failure in item order is then raised."""
    def settled(item):
        try:
            return fn(item), None
        except Exception as exc:
            return None, exc

    outcomes = map_on_pool(pool, settled, items)
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for value, _ in outcomes]


def _analyze_pages(pages: list[tuple[Page, TraceContext]], cfg: RunConfig,
                   gateway: Gateway, cache: CacheStore, pool: ThreadPoolExecutor,
                   checklist) -> list:
    """The batch's rendered comments, page by page in document order; each
    page's spans record under its own context. Each stage runs for every
    page of the batch together before the next starts: selection,
    retrieval (``_retrieve_all_specs``), then every page's group reviews
    and consensus; grouping and rendering follow per page. ``checklist``
    is the run's ``review.checklist_loader``."""
    groups = _map_settled(pool, lambda pc: select_groups(pc[0], gateway, trace=pc[1]),
                          pages)
    specs = _retrieve_all_specs(pages, groups, cfg, gateway, cache, pool)
    checklists = {group.name: checklist(group.name)
                  for page_groups in groups for group in page_groups}

    def _review_group(job):
        index, group = job
        page, ctx = pages[index]
        review_ctx = GroupReviewContext(
            group, serialize_page_xml(page, group.designators, payload=True),
            {d: specs[index].get(d) for d in group.designators},
            checklists[group.name])
        with ctx.span(f"group:{group.name}", group=group.name) as gctx:
            runs, failures = fan_out_reviews(review_ctx, page, cfg.k, gateway,
                                             pool, trace=gctx)
            if failures:
                log.warning("page %s group %r: %d run(s) failed",
                            page.id, group.name, len(failures))
            return combine_consensus(runs, review_ctx, gateway, trace=gctx)

    jobs = [(index, group) for index, page_groups in enumerate(groups)
            for group in page_groups]
    analyses: list[list] = [[] for _ in pages]
    for (index, _), group_analyses in zip(jobs, _map_settled(pool, _review_group, jobs)):
        analyses[index] += group_analyses

    return [render_comment(error_group, specs[index], page)
            for index, (page, _) in enumerate(pages)
            for error_group in group_errors(analyses[index], page.nets)]


def run_pipeline(cfg: RunConfig, schematic_path) -> RunReport:
    cfg.validate()
    # fresh sources hold no csv-table read by an earlier run
    cfg = replace(cfg, libraries=[replace(lib) for lib in cfg.libraries])
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_budget_s if cfg.time_budget_s is not None else None

    gateway = Gateway(cfg.backend)
    cache = CacheStore(cfg.cache_dir)
    checklist = checklist_loader(cfg.checklist_dir)
    tracer = Tracer()
    run_span = ExitStack()  # closed once the root span's attributes are set
    root = run_span.enter_context(TraceContext(tracer, "").span("run"))

    analyzed: list[str] = []
    comments: list = []
    skipped: list[str] = []

    try:
        head = _read_schematic(schematic_path)
        pages = [head.page(pid) for pid in select_page_set(cfg, head)]
        del head  # and its decoded JSON (``source``), needed only to read the base
        # with a budget each page is admitted on its own, once the page
        # before it has finished and only while the deadline has not passed
        if deadline is not None:
            batches = [[page] for page in pages]
        else:
            batches = [pages] if pages else []
        with ThreadPoolExecutor(max_workers=cfg.backend.max_in_flight) as pool:
            for batch in batches:
                if deadline is not None and time.perf_counter() >= deadline:
                    skipped += [page.id for page in batch]
                    continue
                with ExitStack() as stack:
                    traced = [(page, stack.enter_context(
                                  root.span(f"page:{page.id}", page_id=page.id)))
                              for page in batch]
                    comments += pool.submit(_analyze_pages, traced, cfg, gateway,
                                            cache, pool, checklist).result()
                analyzed += [page.id for page in batch]

        delivery = post_comments(cfg.sink, comments)
    except BaseException as exc:
        root.attrs["error"] = type(exc).__name__
        raise
    finally:
        usage = usage_by_kind(tracer.events())
        root.attrs.update(pages_analyzed=len(analyzed), pages_skipped=len(skipped),
                          tokens_in=sum(u["tokens_in"] for u in usage.values()),
                          tokens_out=sum(u["tokens_out"] for u in usage.values()))
        run_span.close()
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

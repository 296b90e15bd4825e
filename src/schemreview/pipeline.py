"""The pipeline over a run's pages under a time budget.

Page set: full-analysis mode reads and takes every page. Design-review
mode takes the pages whose canonical content differs from the base plus
any explicit page override, and reads only those (``ingest.read_design_review``):
a head page whose item text is the base's is not read, and its defects
are not reported. The head is read and traced before the base, so a
base page whose annotations equal the head page's takes its annotation
records, and with the same pin points its wiring. Each changed pair is
compared record by record, a block rendered only for records that
differ, up to the first block that differs (``canonical.diff_pages``).
Every page of the set is admitted at once, with or without a time
budget. Past a budget's deadline no page but the first in document order
starts new work (a selection, a part listing or a group review); a page
refused any work is skipped, neither rendered nor posted, and work
already started runs to its end. Each stage runs for all pages together
before the next starts:

1. select groups on every page;
2. retrieve each part under every page that lists it, one page after
   another in document order (parallel across parts): the first listing
   fetches the datasheet or hits the cache, each later one hits the
   cache (or retries a retrieval that failed). A spec that is final,
   which no critic score can displace, is released to its groups at
   once (``datasheets.retrieve_spec``); a later listing of its part
   takes it from memory as a cache hit;
3. review every group of every page and combine consensus: one
   ``group_review`` request asks for the group's k runs as k choices,
   and only a choice that is missing or fails its schema costs a
   one-completion call of its own. The critic calls and cache writes
   owed for released specs are queued behind every group review, so
   the reviews take the pool's threads first; a critic call or cache
   write that fails there leaves its spec in use and caches nothing;
4. cluster errors and render comments page by page, in document order.

The pages' analysis, parts, groups and remade review runs are all tasks
on the run's one pool of ``backend.max_in_flight`` threads, which bounds
its threads and its concurrent agent calls. The calling thread only
submits the analysis to the pool and waits for its result; every wait
inside it goes through ``workfirst.map_on_pool``. Its items run on the
thread that reaches them and spill to the pool only when that thread is
about to wait (``workfirst.before_wait``), so a run whose calls never
block uses one worker thread. A stage's items all run to their end even
when one fails; the first failure in item order then fails the run.
Each page records its own ``page:<id>`` span, which carries ``skipped``
for a skipped page. The run's spans are its one record: the report's
usage and cache counts and the root span's token totals are sums over
them, the trace file is written even when the run fails, and every span
an exception left (the root, every page, a group, a part, an agent
call) names it in its ``error``.
"""

from __future__ import annotations

import copy
import logging
import time
from contextlib import ExitStack
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from .augment import augment_netlist
from .canonical import diff_pages, serialize_page_xml
from .config import Mode, RunConfig
from .consensus import combine_consensus
from .datasheets import RetrievalConfig, default_fetcher, retrieve_spec
from .dscache import CacheStore
from .errors import InputError, MalformedInput, SchemReviewError
from .fileio import read_bytes
from .gateway import Gateway, usage_by_kind
from .grouping import group_errors
from .ingest import ingest_schematic, read_design_review
from .libraries import PartRef
from .model import Page
from .reporting import DeliveryRecord, post_comments, render_comment
from .review import GroupReviewContext, checklist_loader, fan_out_reviews, select_groups
from .tracing import TraceContext, Tracer, emit_traces
from .workfirst import map_on_pool
from .xmlutil import NOT_XML_CHAR

log = logging.getLogger(__name__)

class RunStatus:
    COMPLETE = "complete"
    PARTIAL = "partial"


class RunReport(NamedTuple):
    """What a run analyzed, emitted and spent, and how delivery went."""
    status: str
    pages_analyzed: list[str]
    pages_skipped: list[str]
    comments_emitted: int
    usage: dict
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    delivery: tuple[DeliveryRecord, ...] = ()

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "pages_analyzed": self.pages_analyzed,
            "pages_skipped": self.pages_skipped,
            "comments_emitted": self.comments_emitted,
            "usage": self.usage,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_time_s": round(self.wall_time_s, 3),
            "delivery": [r._asdict() for r in self.delivery],
        }


def _read_schematic_bytes(path) -> bytes:
    try:
        return read_bytes(path)
    except OSError as exc:
        raise InputError(f"cannot read schematic {path}: {exc}") from exc


def _check_xml_text(page: Page) -> None:
    """Reject ``page`` if a string that its XML carries holds a character
    XML 1.0 cannot carry: its payload would be XML no parser accepts, or,
    for a lone surrogate, text that cannot be encoded at all."""
    components, nets = page.components, page.nets
    pins = [pin for c in components for pin in c.pins]
    for field, texts in (
            ("id", [page.id]),
            ("component designator", [c.designator for c in components]),
            ("component mpn", [c.mpn or "" for c in components]),
            ("component ipn", [c.ipn or "" for c in components]),
            ("component datasheet_url", [c.datasheet_url or "" for c in components]),
            ("pin designator", [pin.designator for pin in pins]),
            ("pin name", [pin.name or "" for pin in pins]),
            ("net name", [net.name for net in nets]),
            ("net node", [part for net in nets for node in net.nodes for part in node]),
            ("annotation text", [annotation.text for annotation in page.annotations])):
        if NOT_XML_CHAR.search("".join(texts)):
            bad = next(text for text in texts if NOT_XML_CHAR.search(text))
            raise MalformedInput(f"page {page.id!a}: {field} {bad!a} holds a character "
                                 "XML 1.0 cannot carry")


def select_pages(cfg: RunConfig, schematic_path) -> list[Page]:
    """The head's pages to analyze, read and augmented, in document order;
    each is checked to hold only text XML 1.0 can carry."""
    raw = _read_schematic_bytes(schematic_path)
    if cfg.mode is Mode.FULL_ANALYSIS:
        pages = list(augment_netlist(ingest_schematic(raw)).pages)
    else:
        wanted = set(cfg.pages_override or ())
        base_path = cfg.base_schematic
        head, page_ids, read_base_pages = read_design_review(
            raw, (lambda: _read_schematic_bytes(base_path)) if base_path else None, wanted)
        head = augment_netlist(head)
        unknown = wanted - set(page_ids)
        if unknown:  # before any base page is read: a bad override fails fast
            raise InputError(f"pages_override names unknown pages: {sorted(unknown)}")
        if base_path:
            wanted |= diff_pages(augment_netlist(read_base_pages()), head)
        pages = [page for page in head.pages if page.id in wanted]
    for page in pages:
        _check_xml_text(page)
    return pages


class _Refusals:
    """The run's deadline and the pages refused work: once it has passed,
    no page but the first in document order starts new work, and a page
    refused any work is skipped."""

    def __init__(self, deadline: float | None):
        self.deadline, self.pages = deadline, set()  # pages: the refused indices

    def refuse(self, index: int) -> bool:
        """Whether page ``index`` may not start new work (it is then skipped)."""
        if self.deadline is None or not index or time.perf_counter() < self.deadline:
            return False
        self.pages.add(index)
        return True


def _retrieve_all_specs(pages: list[tuple[Page, TraceContext]], groups: list,
                        cfg: RunConfig, gateway: Gateway, cache: CacheStore,
                        pool: ThreadPoolExecutor, refusals: _Refusals
                        ) -> tuple[list[dict], list]:
    """Per page, designator -> DatasheetSpec | None, and the calls owed
    for released specs, in cache-key order. Each part key is one task
    (ordered by the first page that lists it, then by key) that retrieves
    the part under every page that lists it, one page after another in
    document order: the first listing fetches the datasheet or hits the
    cache, each later one hits the cache as it would after the earlier
    page ran (a released spec from memory), or retries a retrieval that
    failed. A listing ``refusals`` refuses retrieves nothing."""
    retrieval_cfg = RetrievalConfig(threshold=cfg.critic_threshold,
                                    max_attempts=cfg.max_attempts)
    released: dict = {}  # cache key -> (released spec, its owed call)
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
                    schematic_url=schematic_url, trace=part_ctx,
                    released=released).spec
        except SchemReviewError as exc:
            log.warning("datasheet retrieval failed for %s: %s", key, exc)
            return None

    def _part(key):
        return [((index, key), None if refusals.refuse(index) else _one(ctx, key, *listing))
                for index, ctx, listing in listings[key]]

    # (page index, part key) -> spec
    specs = dict(pair for pairs in map_on_pool(pool, _part, list(listings))
                 for pair in pairs)
    return ([{designator: specs.get((index, key)) for designator, key in keys.items()}
             for index, keys in enumerate(part_keys)],
            [released[key][1] for key in sorted(released)])


def _analyze_pages(pages: list[tuple[Page, TraceContext]], cfg: RunConfig,
                   gateway: Gateway, cache: CacheStore, pool: ThreadPoolExecutor,
                   checklist, refusals: _Refusals) -> list:
    """The rendered comments of the pages ``refusals`` did not refuse, in
    document order; each page's spans record under its own context. Each
    stage runs for every page together before the next starts: selection,
    retrieval (``_retrieve_all_specs``), then every page's group reviews
    and consensus, followed by the calls owed for released specs;
    grouping and rendering follow per page. ``checklist`` is the run's
    ``review.checklist_loader``."""
    groups = map_on_pool(pool, lambda i: [] if refusals.refuse(i) else select_groups(
        pages[i][0], gateway, trace=pages[i][1]), range(len(pages)))
    specs, owed = _retrieve_all_specs(pages, groups, cfg, gateway, cache, pool, refusals)
    checklists = {group.name: checklist(group.name)
                  for page_groups in groups for group in page_groups}

    def _review_group(job):
        index, group = job
        if refusals.refuse(index):
            return []
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
    # the calls owed for released specs queue behind every group review, so
    # that the reviews take the pool's threads first; no budget refuses them
    done = map_on_pool(pool, lambda job: job() if callable(job) else _review_group(job),
                       jobs + owed)
    analyses: list[list] = [[] for _ in pages]
    for (index, _), group_analyses in zip(jobs, done):
        analyses[index] += group_analyses

    return [render_comment(error_group, specs[index], page)
            for index, (page, _) in enumerate(pages) if index not in refusals.pages
            for error_group in group_errors(analyses[index], page.nets)]


def run_pipeline(cfg: RunConfig, schematic_path) -> RunReport:
    cfg.validate()
    # fresh sources hold no csv-table read by an earlier run
    cfg = copy.copy(cfg)
    cfg.libraries = [lib._replace() for lib in cfg.libraries]
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_budget_s if cfg.time_budget_s is not None else None

    gateway = Gateway(cfg.backend)
    cache = CacheStore(cfg.cache_dir)
    checklist = checklist_loader(cfg.checklist_dir)
    tracer = Tracer()

    analyzed: list[str] = []
    skipped: list[str] = []
    refusals = _Refusals(deadline)

    try:
        with TraceContext(tracer, "").span("run") as root:
            try:
                pages = select_pages(cfg, schematic_path)
                with ThreadPoolExecutor(max_workers=cfg.backend.max_in_flight) as pool, \
                        ExitStack() as stack:
                    traced = [(page, stack.enter_context(
                                  root.span(f"page:{page.id}", page_id=page.id)))
                              for page in pages]
                    comments = pool.submit(_analyze_pages, traced, cfg, gateway, cache,
                                           pool, checklist, refusals).result()
                    for index in refusals.pages:
                        traced[index][1].attrs["skipped"] = True
                for index, page in enumerate(pages):
                    (skipped if index in refusals.pages else analyzed).append(page.id)
                delivery = post_comments(cfg.sink, comments)
            finally:
                usage = usage_by_kind(tracer.events())
                root.attrs.update(pages_analyzed=len(analyzed), pages_skipped=len(skipped),
                                  tokens_in=sum(u["tokens_in"] for u in usage.values()),
                                  tokens_out=sum(u["tokens_out"] for u in usage.values()))
    finally:
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

"""Autonomous datasheet processing: fetch, page selection, extraction,
self-critique, and the scored retry loop.

``retrieve_spec`` is the entry point. A fresh cache entry for any
candidate URL short-circuits everything (zero fetches). Otherwise
candidate URLs are consumed one per attempt, up to ``max_attempts``:
fetch -> head analysis -> extraction -> critique. The loop stops at the
first score meeting the threshold; failing that, the best-scoring
attempt wins (earliest on ties). The winner is cached under
(part number, winning URL).

Concurrent retrievals of the same part number given one ``flights``
share a single in-flight computation, so the underlying fetch happens
once; a retrieval without ``flights`` runs on its own.
"""

from __future__ import annotations

import json
import logging
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import urlparse, unquote

from . import httpreq
from .dscache import CacheEntry, CacheStore
from .dsmodel import (
    CriticScore,
    DatasheetDocument,
    DatasheetSpec,
    spec_from_agent_value,
)
from .errors import AllAttemptsFailed, FetchFailed, NotADatasheet, SchemReviewError
from .fileio import read_bytes
from .gateway import AgentKind, AgentRequest, Gateway
from .libraries import LibrarySource, PartRef, locate
from .tracing import UNTRACED, TraceContext

if TYPE_CHECKING:
    from .singleflight import SingleFlight

log = logging.getLogger(__name__)

HEAD_PAGE_BUDGET = 12
DOWNLOAD_TIMEOUT_S = 60
PAGE_EXCERPT_CHARS = 240

_HEAD_PROMPT = ("Select the datasheet pages that contain pin descriptions, "
                "electrical specifications, and application circuits.")
_EXTRACT_PROMPT = ("Extract a compact specification from the given datasheet "
                   "pages: pin functions, absolute maximum ratings, recommended "
                   "operating conditions, block descriptions, application circuits.")
_CRITIC_PROMPT = ("Score this datasheet extraction from 0 to 10 on feature "
                  "completeness, pin function coverage, application information, "
                  "and typical application circuits.")


class RetrievalConfig(NamedTuple):
    threshold: float = 7.0
    max_attempts: int = 5


class RetrievalResult(NamedTuple):
    spec: DatasheetSpec
    score: CriticScore
    cache_hit: bool
    attempts: int = 0


# --- fetching -----------------------------------------------------------------

def local_file_fetcher(url: str) -> bytes:
    """Fetch a ``file://`` URL or plain path from the local filesystem."""
    parsed = urlparse(url)
    if parsed.scheme == "file":
        # imported here: urllib.request pulls http.client, ssl and email
        # into every start-up
        from urllib.request import url2pathname

        path = url2pathname(parsed.path)
    elif parsed.scheme == "":
        path = unquote(url)
    else:
        raise FetchFailed(f"local fetcher cannot handle scheme {parsed.scheme!r}")
    try:
        return read_bytes(path)
    except OSError as exc:
        raise FetchFailed(f"{url}: {exc}") from exc


def http_fetcher(url: str) -> bytes:
    try:
        resp = httpreq.send("GET", url, timeout_s=DOWNLOAD_TIMEOUT_S)
    except httpreq.RequestFailed as exc:
        raise FetchFailed(f"{url}: {exc}") from exc
    if resp.status_code != 200:
        raise FetchFailed(f"{url}: HTTP {resp.status_code}")
    return resp.content


def default_fetcher(url: str) -> bytes:
    if urlparse(url).scheme in ("http", "https"):
        return http_fetcher(url)
    return local_file_fetcher(url)


def decode_document(url: str, payload: bytes) -> DatasheetDocument:
    """Pages split on form-feed; an optional leading table of contents
    block (lines between ``%TOC%`` and ``%END%``, ``title | page`` with a
    0-based page index) is lifted out of the first page. A line of it that
    is not ``title | page``, a block without ``%END%`` and a page outside
    the document raise ``NotADatasheet``."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotADatasheet(f"{url}: payload is not UTF-8 text") from exc
    if not text.strip():
        raise NotADatasheet(f"{url}: payload is empty")
    pages = text.split("\f")
    toc = None
    first = pages[0]
    if first.lstrip().startswith("%TOC%"):
        lines = first.lstrip().splitlines()
        entries = []
        for i, line in enumerate(lines[1:], start=1):
            if line.strip() == "%END%":
                break
            entries.append(_toc_entry(url, line))
        else:
            raise NotADatasheet(f"{url}: table of contents has no %END% line")
        for title, index in entries:
            if not 0 <= index < len(pages):
                raise NotADatasheet(f"{url}: table of contents entry {title!r} names "
                                    f"page {index}, outside pages 0-{len(pages) - 1}")
        toc = tuple(entries)
        pages[0] = "\n".join(lines[i + 1:])
    return DatasheetDocument(url, tuple(pages), toc)


def _toc_entry(url: str, line: str) -> tuple[str, int]:
    title, bar, idx = line.rpartition("|")
    try:
        if bar:
            return title.strip(), int(idx)
    except ValueError:
        pass
    raise NotADatasheet(f"{url}: table of contents line {line!r} is not 'title | page'")


def fetch(url: str, fetcher=default_fetcher) -> DatasheetDocument:
    """Download and decode a datasheet."""
    return decode_document(url, fetcher(url))


# --- agent stages ---------------------------------------------------------------

def build_head_payload(doc: DatasheetDocument) -> str:
    """The head-analysis payload: the page count, the table of contents
    (null without one) and each page's first ``PAGE_EXCERPT_CHARS``
    characters. The document's URL is left out."""
    return json.dumps({
        "page_count": len(doc.pages),
        "toc": [[t, i] for t, i in doc.toc] if doc.toc else None,
        "excerpts": [p[:PAGE_EXCERPT_CHARS] for p in doc.pages],
    }, sort_keys=True)


def analyze_head(doc: DatasheetDocument, gateway: Gateway,
                 trace: TraceContext = UNTRACED) -> list[int]:
    """Pick the pages worth extracting: agent indices are deduplicated,
    out-of-range ones dropped, the rest sorted ascending and capped at
    ``HEAD_PAGE_BUDGET``. An empty selection falls back to the leading
    pages."""
    req = AgentRequest(AgentKind.HEAD_ANALYSIS, _HEAD_PROMPT,
                       build_head_payload(doc))
    resp = gateway.complete(req, trace=trace)
    valid = sorted({i for i in resp.value["pages"] if 0 <= i < len(doc.pages)})
    selected = valid[:HEAD_PAGE_BUDGET]
    if not selected:
        selected = list(range(min(len(doc.pages), HEAD_PAGE_BUDGET)))
    return selected


def build_extract_payload(doc: DatasheetDocument, selected: list[int]) -> str:
    """The extraction payload: the text of each selected page, keyed by its
    index. The document's URL is left out."""
    return json.dumps({
        "pages": {str(i): doc.pages[i] for i in selected},
    }, sort_keys=True)


def extract_spec(doc: DatasheetDocument, selected: list[int], part: PartRef,
                 gateway: Gateway, trace: TraceContext = UNTRACED) -> DatasheetSpec:
    if not selected:
        raise ValueError("extract_spec needs a non-empty page selection")

    def check_domain(value):
        spec_from_agent_value(value, part, doc.source_url)

    req = AgentRequest(AgentKind.EXTRACTION, _EXTRACT_PROMPT,
                       build_extract_payload(doc, selected))
    resp = gateway.complete(req, post_validate=check_domain, trace=trace)
    return spec_from_agent_value(resp.value, part, doc.source_url)


def critique(spec: DatasheetSpec, gateway: Gateway,
             trace: TraceContext = UNTRACED) -> CriticScore:
    req = AgentRequest(AgentKind.CRITIC, _CRITIC_PROMPT, spec.payload_xml())
    resp = gateway.complete(req, trace=trace)
    return CriticScore(**resp.value)


# --- scored retry loop -----------------------------------------------------------

def retrieve_spec(part: PartRef, libraries: list[LibrarySource],
                  cfg: RetrievalConfig, *, gateway: Gateway, cache: CacheStore,
                  fetcher=default_fetcher, schematic_url: str | None = None,
                  flights: SingleFlight | None = None,
                  trace: TraceContext = UNTRACED) -> RetrievalResult:
    def _run() -> RetrievalResult:
        candidates = locate(part, libraries, schematic_url)

        for url in candidates:
            hit = cache.lookup((part.key, url))
            if hit is not None:
                return RetrievalResult(hit[0], hit[1], cache_hit=True)

        scored: list[tuple[str, DatasheetSpec, CriticScore]] = []
        causes: list[tuple[str, Exception]] = []
        attempts = 0
        winner: tuple[str, DatasheetSpec, CriticScore] | None = None
        for url in candidates:
            if attempts >= cfg.max_attempts:
                break
            attempts += 1
            try:
                doc = fetch(url, fetcher)
                pages = analyze_head(doc, gateway, trace)
                spec = extract_spec(doc, pages, part, gateway, trace)
                score = critique(spec, gateway, trace)
            except SchemReviewError as exc:
                log.warning("retrieval attempt %d for %s via %s failed: %s",
                            attempts, part.key, url, exc)
                causes.append((url, exc))
                continue
            scored.append((url, spec, score))
            if score.weighted >= cfg.threshold:
                winner = (url, spec, score)
                break
        if not scored:
            raise AllAttemptsFailed(causes)
        if winner is None:
            winner = max(scored, key=lambda item: item[2].weighted)
        url, spec, score = winner
        cache.put(CacheEntry((part.key, url), spec, score, stored_at=cache.now()))
        return RetrievalResult(spec, score, cache_hit=False, attempts=attempts)

    with trace.span("retrieve", part=part.key) as span:
        result = _run() if flights is None else flights.run(part.key, _run)
        span.attrs.update(cache_hit=result.cache_hit, attempt=result.attempts)
        return result

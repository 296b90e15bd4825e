"""Render error groups as review comments and deliver them to a sink.

One comment per error group: per-component sections each holding a
``| Pin | Verdict | Reasoning |`` table, a datasheet link per component
that has a spec, and an SVG overlay highlighting the affected region
(when any member component carries a bounding box). Rendering is a pure
function of its inputs; delivery is sequential per sink so comment order
is preserved.

What an overlay takes from its page alone is made once per page and kept
on the (immutable) page: ``page_extents``, one fold of the page's
component and annotation boxes on plain numbers (``union_bboxes``), and
the overlay's frame, its ``<svg>`` head, style, page outline and
component outlines. A comment adds only its highlight and the closing
tag.

FileSink layout: ``comments/<group_id>.md``, ``overlays/<group_id>.svg``
and ``manifest.json``. HttpSink POSTs one JSON body per comment to
``{base_url}/comments`` with 3 attempts and exponential backoff; a 4xx
answer other than 408 and 429 is final.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

from . import httpreq
from .consensus import ConsensusFinding
from .dsmodel import DatasheetSpec
from .errors import ConfigError, SinkUnreachable, StoreIo
from .fileio import write_text
from .grouping import ErrorGroup
from .model import BBox, Page, union_bboxes
from .records import checked
from .xmlutil import fmt_num

HTTP_ATTEMPTS = 3
HTTP_TIMEOUT_S = 30
BACKOFF_BASE_S = 0.2

OVERLAY_MARGIN = 10.0
DEFAULT_PAGE_EXTENT = BBox(0, 0, 100, 100)


class ReviewComment(checked("ReviewComment", "page_id markdown error_group_id "
                                              "datasheet_links anchor_bbox overlay_svg")):
    """One rendered review comment for one error group on one page."""

    __slots__ = ()

    def __new__(cls, page_id: str, markdown: str, error_group_id: str,
                datasheet_links: tuple[str, ...] = (), anchor_bbox: BBox | None = None,
                overlay_svg: str | None = None):
        if not markdown:
            raise ValueError("comment markdown must be non-empty")
        return tuple.__new__(cls, (page_id, markdown, error_group_id, datasheet_links,
                                   anchor_bbox, overlay_svg))


class DeliveryRecord(NamedTuple):
    group_id: str
    ok: bool
    attempts: int
    error: str | None = None


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def render_comment(group: ErrorGroup, specs: dict, page: Page) -> ReviewComment:
    """specs maps designator -> DatasheetSpec | None."""
    if not group.findings:
        raise ValueError("cannot render an empty error group")
    designators = sorted({d for d, _ in group.findings})
    lines = [f"### Connection review: {group.root_cause_summary}", ""]
    links: list[str] = []
    for designator in designators:
        lines.append(f"#### {designator}")
        spec = specs.get(designator)
        if isinstance(spec, DatasheetSpec):
            lines.append(f"[Datasheet]({spec.source_url})")
            links.append(spec.source_url)
        lines.append("")
        lines.append("| Pin | Verdict | Reasoning |")
        lines.append("| --- | --- | --- |")
        findings: list[ConsensusFinding] = sorted(
            (f for d, f in group.findings if d == designator),
            key=lambda f: f.pin_key)
        for f in findings:
            verdict = f.status.value.capitalize()
            lines.append(f"| {_md_escape(f.pin_key)} | {verdict} |"
                         f" {_md_escape(f.reasoning)} |")
            if f.referenced_nets:
                lines.append(f"| | | nets: {_md_escape(', '.join(f.referenced_nets))} |")
        lines.append("")
    lines.append(f"_group `{group.group_id}`_")
    markdown = "\n".join(lines) + "\n"

    components = [page.component(d) for d in designators]
    boxes = [c.bbox for c in components if c is not None and c.bbox is not None]
    anchor = union_bboxes(boxes)
    overlay = render_overlay(page, anchor) if anchor is not None else None
    return ReviewComment(
        page_id=page.id,
        markdown=markdown,
        error_group_id=group.group_id,
        datasheet_links=tuple(links),
        anchor_bbox=anchor,
        overlay_svg=overlay,
    )


def page_extents(page: Page) -> BBox:
    """The page's components and annotations with a margin around them;
    made on first use and kept on the (immutable) page for its later
    comments."""
    extents = page.__dict__.get("_extents")
    if extents is None:
        boxes = [c.bbox for c in page.components if c.bbox is not None]
        boxes.extend(a.bbox for a in page.annotations)
        union = union_bboxes(boxes)
        extents = DEFAULT_PAGE_EXTENT if union is None else BBox(
            union.x - OVERLAY_MARGIN, union.y - OVERLAY_MARGIN,
            union.w + 2 * OVERLAY_MARGIN, union.h + 2 * OVERLAY_MARGIN)
        page._extents = extents
    return extents


def _rect(b: BBox, cls: str) -> str:
    return (f'  <rect class="{cls}" x="{fmt_num(b.x)}" y="{fmt_num(b.y)}"'
            f' width="{fmt_num(b.w)}" height="{fmt_num(b.h)}"/>')


def render_overlay(page: Page, bbox: BBox) -> str:
    """Page outline, component outlines, and a highlight rectangle for the
    given bbox (clamped to the page extents). Deterministic output."""
    highlight = bbox.clamp_to(page_extents(page))
    return f"{_overlay_frame(page)}{_rect(highlight, 'highlight')}\n</svg>\n"


def _overlay_frame(page: Page) -> str:
    """The lines every overlay of the page starts with: the ``<svg>`` head
    and style, the page outline and the component outlines in designator
    order. Made on first use and kept on the page, as ``page_extents`` is."""
    frame = page.__dict__.get("_overlay_frame")
    if frame is None:
        extents = page_extents(page)
        lines = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt_num(extents.x)} '
            f'{fmt_num(extents.y)} {fmt_num(extents.w)} {fmt_num(extents.h)}">',
            "  <style>",
            "    .page { fill: none; stroke: #888; stroke-width: 0.5; }",
            "    .component { fill: none; stroke: #333; stroke-width: 0.5; }",
            "    .highlight { fill: #ffcc00; fill-opacity: 0.35; stroke: #cc3300; }",
            "  </style>",
            _rect(extents, "page"),
        ]
        for comp in sorted(page.components, key=lambda c: c.designator):
            if comp.bbox is not None:
                lines.append(_rect(comp.bbox, "component"))
        frame = page._overlay_frame = "\n".join(lines) + "\n"
    return frame


# --- sinks ---------------------------------------------------------------------

class FileSink(NamedTuple):
    """Delivers comments as files under ``out_dir``."""
    out_dir: str


class HttpSink(NamedTuple):
    """Posts comments to ``base_url`` with a bearer token from ``token_env``."""
    base_url: str
    token_env: str = "SCHEMREVIEW_SINK_TOKEN"


def _bbox_doc(b: BBox | None):
    if b is None:
        return None
    return {"x": b.x, "y": b.y, "w": b.w, "h": b.h}


def comment_doc(comment: ReviewComment) -> dict:
    return {
        "group_id": comment.error_group_id,
        "page_id": comment.page_id,
        "markdown": comment.markdown,
        "datasheet_links": list(comment.datasheet_links),
        "anchor_bbox": _bbox_doc(comment.anchor_bbox),
        "has_overlay": comment.overlay_svg is not None,
    }


def post_comments(sink, comments: list[ReviewComment],
                  sleep=time.sleep) -> tuple[DeliveryRecord, ...]:
    """Deliver comments to the sink. Partial delivery is valid and recorded
    per comment; SinkUnreachable is raised only when nothing could be
    delivered at all."""
    if isinstance(sink, FileSink):
        return _post_to_files(sink, comments)
    if isinstance(sink, HttpSink):
        return _post_to_http(sink, comments, sleep)
    raise ConfigError(f"unknown sink type {type(sink).__name__}")


def _post_to_files(sink: FileSink, comments) -> tuple[DeliveryRecord, ...]:
    """Writes every file; a ``StoreIo`` names the path that could not be."""
    out = os.path.join(sink.out_dir, "")  # ends in a separator
    try:
        os.makedirs(f"{out}comments", exist_ok=True)
        os.makedirs(f"{out}overlays", exist_ok=True)
        entries = []
        for comment in comments:
            entry = comment_doc(comment)
            entry["markdown_path"] = f"comments/{comment.error_group_id}.md"
            write_text(out + entry["markdown_path"], entry.pop("markdown"))
            entry["overlay_path"] = None
            if comment.overlay_svg is not None:
                entry["overlay_path"] = f"overlays/{comment.error_group_id}.svg"
                write_text(out + entry["overlay_path"], comment.overlay_svg)
            entries.append(entry)
        write_text(f"{out}manifest.json", json.dumps(
            {"version": 1, "comments": entries}, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise StoreIo(f"file sink cannot write under {sink.out_dir}: {exc}") from exc
    return tuple(DeliveryRecord(c.error_group_id, True, 1) for c in comments)


def _post_to_http(sink: HttpSink, comments, sleep) -> tuple[DeliveryRecord, ...]:
    url = f"{sink.base_url.rstrip('/')}/comments"
    records = tuple(_post_one(url, sink.token_env, comment, sleep) for comment in comments)
    if comments and not any(r.ok for r in records):
        raise SinkUnreachable(
            f"no comment could be delivered to {sink.base_url}: {records[0].error}")
    return records


def _post_one(url: str, token_env: str, comment: ReviewComment, sleep) -> DeliveryRecord:
    """Up to ``HTTP_ATTEMPTS`` POSTs of one comment, with backoff between
    them; a 4xx answer other than 408 and 429 is final."""
    body = {**comment_doc(comment), "overlay_svg": comment.overlay_svg}
    for attempt in range(1, HTTP_ATTEMPTS + 1):
        try:
            resp = httpreq.send("POST", url, json=body, timeout_s=HTTP_TIMEOUT_S,
                                token_env=token_env)
        except httpreq.RequestFailed as exc:
            error = str(exc)
        else:
            if resp.status_code < 300:
                return DeliveryRecord(comment.error_group_id, True, attempt)
            error = f"HTTP {resp.status_code}"
            if 400 <= resp.status_code < 500 and resp.status_code not in (408, 429):
                return DeliveryRecord(comment.error_group_id, False, attempt, error)
        if attempt < HTTP_ATTEMPTS:
            sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
    return DeliveryRecord(comment.error_group_id, False, HTTP_ATTEMPTS, error)

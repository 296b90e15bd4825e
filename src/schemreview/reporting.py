"""Render error groups as review comments and deliver them to a sink.

One comment per error group: per-component sections each holding a
``| Pin | Verdict | Reasoning |`` table, a datasheet link per component
that has a spec, and an SVG overlay highlighting the affected region
(when any member component carries a bounding box). Rendering is a pure
function of its inputs; delivery is sequential per sink so comment order
is preserved.

FileSink layout: ``comments/<group_id>.md``, ``overlays/<group_id>.svg``
and ``manifest.json``. HttpSink POSTs one JSON body per comment to
``{base_url}/comments`` with 3 attempts and exponential backoff; a 4xx
answer other than 408 and 429 is final.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import httpreq
from .consensus import ConsensusFinding
from .dsmodel import DatasheetSpec
from .errors import ConfigError, SinkUnreachable
from .grouping import ErrorGroup
from .model import BBox, Page, union_bboxes
from .xmlutil import fmt_num

HTTP_ATTEMPTS = 3
HTTP_TIMEOUT_S = 30
BACKOFF_BASE_S = 0.2

OVERLAY_MARGIN = 10.0
DEFAULT_PAGE_EXTENT = BBox(0, 0, 100, 100)


@dataclass(frozen=True)
class ReviewComment:
    page_id: str
    markdown: str
    error_group_id: str
    datasheet_links: tuple[str, ...] = ()
    anchor_bbox: BBox | None = None
    overlay_svg: str | None = None

    def __post_init__(self):
        if not self.markdown:
            raise ValueError("comment markdown must be non-empty")


@dataclass(frozen=True)
class DeliveryRecord:
    group_id: str
    ok: bool
    attempts: int
    error: str | None = None


@dataclass(frozen=True)
class DeliveryReport:
    records: tuple[DeliveryRecord, ...]

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)


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

    boxes = [page.component(d).bbox for d in designators
             if page.component(d) is not None and page.component(d).bbox is not None]
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
    boxes = [c.bbox for c in page.components if c.bbox is not None]
    boxes.extend(a.bbox for a in page.annotations)
    union = union_bboxes(boxes)
    if union is None:
        return DEFAULT_PAGE_EXTENT
    return BBox(union.x - OVERLAY_MARGIN, union.y - OVERLAY_MARGIN,
                union.w + 2 * OVERLAY_MARGIN, union.h + 2 * OVERLAY_MARGIN)


def _rect(b: BBox, cls: str) -> str:
    return (f'  <rect class="{cls}" x="{fmt_num(b.x)}" y="{fmt_num(b.y)}"'
            f' width="{fmt_num(b.w)}" height="{fmt_num(b.h)}"/>')


def render_overlay(page: Page, bbox: BBox) -> str:
    """Page outline, component outlines, and a highlight rectangle for the
    given bbox (clamped to the page extents). Deterministic output."""
    extents = page_extents(page)
    highlight = bbox.clamp_to(extents)
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
    lines.append(_rect(highlight, "highlight"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- sinks ---------------------------------------------------------------------

@dataclass(frozen=True)
class FileSink:
    out_dir: str


@dataclass(frozen=True)
class HttpSink:
    base_url: str
    token_env: str = "SCHEMREVIEW_SINK_TOKEN"


def sink_from_config(doc: dict):
    """The sink a config entry describes; a field its kind of sink does
    not have is rejected."""
    kind = doc.get("kind")
    if kind == "file":
        sink, needed = FileSink, "out_dir"
    elif kind == "http":
        sink, needed = HttpSink, "base_url"
    else:
        raise ConfigError(f"unknown sink kind {kind!r}")
    entry = {key: value for key, value in doc.items() if key != "kind"}
    unknown = set(entry) - set(sink.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {kind} sink fields: {sorted(unknown)}")
    if needed not in entry:
        raise ConfigError(f"{kind} sink needs {needed}")
    return sink(**entry)


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
                  sleep=time.sleep) -> DeliveryReport:
    """Deliver comments to the sink. Partial delivery is valid and reported
    per comment; SinkUnreachable is raised only when nothing could be
    delivered at all."""
    if isinstance(sink, FileSink):
        return _post_to_files(sink, comments)
    if isinstance(sink, HttpSink):
        return _post_to_http(sink, comments, sleep)
    raise ConfigError(f"unknown sink type {type(sink).__name__}")


def _post_to_files(sink: FileSink, comments) -> DeliveryReport:
    out = Path(sink.out_dir)
    (out / "comments").mkdir(parents=True, exist_ok=True)
    (out / "overlays").mkdir(parents=True, exist_ok=True)
    entries = []
    for comment in comments:
        entry = comment_doc(comment)
        entry["markdown_path"] = f"comments/{comment.error_group_id}.md"
        (out / entry["markdown_path"]).write_text(entry.pop("markdown"), encoding="utf-8")
        entry["overlay_path"] = None
        if comment.overlay_svg is not None:
            entry["overlay_path"] = f"overlays/{comment.error_group_id}.svg"
            (out / entry["overlay_path"]).write_text(comment.overlay_svg, encoding="utf-8")
        entries.append(entry)
    (out / "manifest.json").write_text(
        json.dumps({"version": 1, "comments": entries}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return DeliveryReport(tuple(DeliveryRecord(c.error_group_id, True, 1) for c in comments))


def _post_to_http(sink: HttpSink, comments, sleep) -> DeliveryReport:
    url = f"{sink.base_url.rstrip('/')}/comments"
    report = DeliveryReport(tuple(_post_one(url, sink.token_env, comment, sleep)
                                  for comment in comments))
    if comments and report.delivered == 0:
        raise SinkUnreachable(
            f"no comment could be delivered to {sink.base_url}: "
            f"{report.records[0].error}")
    return report


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

"""Comment rendering, overlays, and sink delivery."""

import json
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import BASE_SPEC_VALUE, loopback_server, pairwise_union
from schemreview.config import sink_from_config
from schemreview.consensus import Confidence, ConsensusAnalysis, ConsensusFinding, Provenance
from schemreview.dsmodel import spec_from_agent_value
from schemreview.errors import SinkUnreachable, StoreIo
from schemreview.grouping import group_errors
from schemreview.libraries import PartRef
from schemreview.model import BBox, Component, GraphicalAnnotation, Page, Pin
from schemreview.reporting import (
    DEFAULT_PAGE_EXTENT,
    OVERLAY_MARGIN,
    FileSink,
    HttpSink,
    post_comments,
    render_comment,
    render_overlay,
)
from schemreview.review import VerdictStatus
from schemreview.xmlutil import fmt_num

GOLDEN_SVG = Path(__file__).parent / "data" / "golden_overlay.svg"


def finding(pins, status="incorrect", nets=("NET_A",), reasoning="swapped against pinout"):
    return ConsensusFinding(pins, VerdictStatus(status), reasoning, tuple(nets),
                            2, Confidence.HIGH, Provenance.MULTI_RUN)


def demo_page(with_bbox=True) -> Page:
    return Page("P1", components=(
        Component("U1", mpn="LM317",
                  pins=(Pin("1"), Pin("2"), Pin("3")),
                  bbox=BBox(20, 20, 30, 20) if with_bbox else None),
        Component("R5", mpn="RES-1K", pins=(Pin("1"), Pin("2")),
                  bbox=BBox(70, 25, 10, 6) if with_bbox else None),
    ))


def one_group(page):
    analyses = [
        ConsensusAnalysis("U1", (finding("1, 3", nets=("NET_A", "NET_B")),)),
        ConsensusAnalysis("R5", (finding("1", status="warning", nets=("NET_A",)),)),
    ]
    groups = group_errors(analyses, page.nets)
    assert len(groups) == 1
    return groups[0]


def specs_for(page):
    spec = spec_from_agent_value(BASE_SPEC_VALUE, PartRef(mpn="LM317"),
                                 "http://sheets/lm317.pdf")
    return {"U1": spec, "R5": None}


class TestRenderComment:
    def test_verdict_table_with_multi_pin_row(self):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        assert "| Pin | Verdict | Reasoning |" in comment.markdown
        assert "| 1, 3 | Incorrect | swapped against pinout |" in comment.markdown
        assert "#### U1" in comment.markdown and "#### R5" in comment.markdown

    def test_datasheet_link_only_where_spec_exists(self):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        assert comment.datasheet_links == ("http://sheets/lm317.pdf",)
        assert "[Datasheet](http://sheets/lm317.pdf)" in comment.markdown

    def test_anchor_is_union_of_member_bboxes(self):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        assert comment.anchor_bbox == BBox(20, 20, 60, 20)
        assert comment.overlay_svg is not None

    def test_without_bboxes_comment_is_page_level(self):
        page = demo_page(with_bbox=False)
        comment = render_comment(one_group(page), specs_for(page), page)
        assert comment.anchor_bbox is None
        assert comment.overlay_svg is None

    def test_rendering_twice_is_byte_identical(self):
        page = demo_page()
        a = render_comment(one_group(page), specs_for(page), page)
        b = render_comment(one_group(page), specs_for(page), page)
        assert a.markdown == b.markdown
        assert a.overlay_svg == b.overlay_svg

    def test_pipe_characters_escaped(self):
        page = demo_page()
        analyses = [ConsensusAnalysis("U1", (finding("1", reasoning="a | b"),))]
        group = group_errors(analyses, page.nets)[0]
        comment = render_comment(group, {}, page)
        assert "a \\| b" in comment.markdown


class TestRenderOverlay:
    def test_full_page_bbox_highlights_page_rect(self):
        page = demo_page()
        from schemreview.reporting import page_extents
        extents = page_extents(page)
        svg = render_overlay(page, extents)
        assert svg.count(f'x="{extents.x:g}"') >= 2  # page rect + highlight

    def test_bbox_partially_outside_is_clamped(self):
        page = demo_page()
        svg = render_overlay(page, BBox(-1000, 30, 5000, 10))
        from schemreview.reporting import page_extents
        extents = page_extents(page)
        assert f'class="highlight" x="{extents.x:g}"' in svg

    def test_golden_overlay_frozen(self):
        page = demo_page()
        svg = render_overlay(page, BBox(20, 20, 60, 20))
        assert svg == GOLDEN_SVG.read_text()


def reference_overlay(page: Page, bbox: BBox) -> str:
    """``render_overlay`` as it was before a page kept its overlay frame:
    the extents and every line made anew for each overlay."""
    boxes = [c.bbox for c in page.components if c.bbox is not None]
    boxes.extend(a.bbox for a in page.annotations)
    union = pairwise_union(boxes)
    extents = DEFAULT_PAGE_EXTENT if union is None else BBox(
        union.x - OVERLAY_MARGIN, union.y - OVERLAY_MARGIN,
        union.w + 2 * OVERLAY_MARGIN, union.h + 2 * OVERLAY_MARGIN)

    def rect(b, cls):
        return (f'  <rect class="{cls}" x="{fmt_num(b.x)}" y="{fmt_num(b.y)}"'
                f' width="{fmt_num(b.w)}" height="{fmt_num(b.h)}"/>')

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt_num(extents.x)} '
        f'{fmt_num(extents.y)} {fmt_num(extents.w)} {fmt_num(extents.h)}">',
        "  <style>",
        "    .page { fill: none; stroke: #888; stroke-width: 0.5; }",
        "    .component { fill: none; stroke: #333; stroke-width: 0.5; }",
        "    .highlight { fill: #ffcc00; fill-opacity: 0.35; stroke: #cc3300; }",
        "  </style>",
        rect(extents, "page"),
    ]
    for comp in sorted(page.components, key=lambda c: c.designator):
        if comp.bbox is not None:
            lines.append(rect(comp.bbox, "component"))
    lines.append(rect(bbox.clamp_to(extents), "highlight"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


COORDS = st.integers(-50, 150) | st.floats(-1e4, 1e4) | st.sampled_from([-0.0, 0.5, 2**53 + 2])
EXTENTS = st.integers(0, 60) | st.floats(0, 1e3) | st.sampled_from([-0.0, 0.0])
BOXES = st.builds(BBox, COORDS, COORDS, EXTENTS, EXTENTS)
OVERLAY_PAGES = st.builds(
    Page, st.just("P1"),
    st.lists(st.builds(Component, st.sampled_from(["U1", "R5", "C2", "D1"]),
                       bbox=st.none() | BOXES), max_size=4, unique_by=lambda c: c.designator),
    annotations=st.lists(st.builds(GraphicalAnnotation, st.just("N"), BOXES,
                                   st.sampled_from(["label", "text"])), max_size=4))


@settings(max_examples=200, deadline=None, database=None)
@given(page=OVERLAY_PAGES, first=BOXES, second=BOXES)
def test_two_overlays_on_one_page_are_the_reference_overlays(page, first, second):
    # the second overlay is made from the frame the first kept on the page
    assert render_overlay(page, first) == reference_overlay(page, first)
    assert render_overlay(page, second) == reference_overlay(page, second)


class TestFileSink:
    def test_layout_and_manifest(self, tmp_path):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        records = post_comments(FileSink(str(tmp_path / "out")), [comment])
        assert [r.ok for r in records] == [True]
        gid = comment.error_group_id
        assert (tmp_path / "out" / "comments" / f"{gid}.md").is_file()
        assert (tmp_path / "out" / "overlays" / f"{gid}.svg").is_file()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert [c["group_id"] for c in manifest["comments"]] == [gid]
        assert manifest["comments"][0]["markdown_path"] == f"comments/{gid}.md"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "comments", "manifest.json", "overlays"]

    def test_zero_comments_still_writes_manifest(self, tmp_path):
        records = post_comments(FileSink(str(tmp_path / "out")), [])
        assert records == ()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["comments"] == []

    def test_comment_without_overlay_writes_no_svg(self, tmp_path):
        page = demo_page(with_bbox=False)
        comment = render_comment(one_group(page), specs_for(page), page)
        post_comments(FileSink(str(tmp_path / "out")), [comment])
        assert list((tmp_path / "out" / "overlays").iterdir()) == []

    def test_an_out_dir_that_is_a_file_is_a_store_error_naming_it(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("not a directory")
        with pytest.raises(StoreIo) as exc:
            post_comments(FileSink(str(out)), [])
        assert str(exc.value).startswith(f"file sink cannot write under {out}: ")
        assert str(out / "comments") in str(exc.value)

    def test_a_file_that_cannot_be_written_is_a_store_error_naming_it(self, tmp_path):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        blocked = tmp_path / "out" / "comments" / f"{comment.error_group_id}.md"
        blocked.mkdir(parents=True)
        with pytest.raises(StoreIo) as exc:
            post_comments(FileSink(str(tmp_path / "out")), [comment])
        assert f"Is a directory: '{blocked}'" in str(exc.value)

    def test_the_files_are_what_text_mode_wrote(self, tmp_path):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        post_comments(FileSink(str(tmp_path / "out")), [comment])
        gid = comment.error_group_id
        assert (tmp_path / "out" / "comments" / f"{gid}.md").read_bytes() \
            == comment.markdown.encode()
        assert (tmp_path / "out" / "overlays" / f"{gid}.svg").read_bytes() \
            == comment.overlay_svg.encode()


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 1
    failure_status = 500
    bodies = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/comments" and type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).failure_status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        type(self).bodies.append((self.path, body))
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


class TestHttpSink:
    @pytest.fixture
    def server(self):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 500
        _FlakyHandler.bodies = []
        with loopback_server(_FlakyHandler) as url:
            yield url

    def test_retry_then_success_records_attempts(self, server):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        records = post_comments(HttpSink(server), [comment], sleep=lambda s: None)
        assert [r.ok for r in records] == [True]
        assert records[0].attempts == 2
        assert [p for p, _ in _FlakyHandler.bodies] == ["/comments"]

    @pytest.mark.parametrize("status, attempts", [(401, 1), (404, 1), (408, 2), (429, 2),
                                                  (503, 2)])
    def test_a_4xx_other_than_408_and_429_is_final(self, server, status, attempts):
        _FlakyHandler.failure_status = status
        page = demo_page()
        first = render_comment(one_group(page), specs_for(page), page)
        second = first._replace(error_group_id="G2")
        slept = []
        records = post_comments(HttpSink(server), [first, second], sleep=slept.append)
        assert [(r.ok, r.attempts) for r in records] == [(attempts > 1, attempts),
                                                         (True, 1)]
        assert len(slept) == attempts - 1
        if attempts == 1:
            assert records[0].error == f"HTTP {status}"

    def test_unreachable_sink_raises_after_retries(self):
        page = demo_page()
        comment = render_comment(one_group(page), specs_for(page), page)
        with pytest.raises(SinkUnreachable):
            post_comments(HttpSink("http://127.0.0.1:9"), [comment],
                          sleep=lambda s: None)


def test_sink_from_config():
    assert isinstance(sink_from_config({"kind": "file", "out_dir": "x"}), FileSink)
    sink = sink_from_config({"kind": "http", "base_url": "http://h"})
    assert isinstance(sink, HttpSink)
    from schemreview.errors import ConfigError
    with pytest.raises(ConfigError):
        sink_from_config({"kind": "smoke-signals"})

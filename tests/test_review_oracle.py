"""A design review posts, for each page it selects, what a full analysis
of its head posts for that page.

Heads are the benchmark's synthetic boards (``perfbench/boardgen.py``,
imported read-only), with embedded nets or with wire geometry, and with
errors planted on every page. Each base is derived from its head by
editing random pages: two pins swapped, a part number changed inside its
string, a wire split in two or a page's drawing moved (canonical content
changed); pages reordered, one page item written with other whitespace
and key order (text changed, canonical content not), or a page dropped.
A page override may name one page. Mock fixtures are scripted by the
benchmark's responder (``perfbench/responder.py``) while the full
analysis runs; the design review must find every fixture it needs among
them.

Properties, each checked against an oracle that does not share the
design review's read:

* the page set is the head pages whose ``page_hash`` differs from the
  base's (both documents read in full), plus the override;
* for those pages, the comment files and manifest entries equal the full
  analysis's;
* ``out/``, the usage and the trace's (span, path, attributes) sequence
  are identical at ``max_in_flight`` 1, 2 and 8.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boardgen  # noqa: E402
from helpers import span_sequence  # noqa: E402
from responder import make_responder  # noqa: E402

from schemreview.augment import augment_netlist  # noqa: E402
from schemreview.canonical import page_hash  # noqa: E402
from schemreview.config import Mode, load_config  # noqa: E402
from schemreview.demo import generate_fixtures, write_demo_workspace  # noqa: E402
from schemreview.ingest import ingest_schematic  # noqa: E402
from schemreview.pipeline import run_pipeline  # noqa: E402


# --- edits of a base page, each drawing what it needs -----------------------------------

def _page(draw, base):
    return draw(st.sampled_from(base["pages"])) if base["pages"] else None


def swap_pins(draw, base, restyled):
    """Two pins of one component trade nets: their positions in the wire
    style, their net nodes in the embedded style."""
    page = _page(draw, base)
    if page is None:
        return
    comp = draw(st.sampled_from([c for c in page["components"] if len(c["pins"]) > 1]))
    a, b = draw(st.permutations(comp["pins"]))[:2]
    if "nets" in page:
        swap = {(comp["designator"], a["designator"]): [comp["designator"], b["designator"]],
                (comp["designator"], b["designator"]): [comp["designator"], a["designator"]]}
        for net in page["nets"]:
            net["nodes"] = [swap.get(tuple(node), node) for node in net["nodes"]]
    else:
        a["x"], b["x"] = b["x"], a["x"]


def change_mpn(draw, base, restyled):
    """A part number's last character changed: the item's text keeps its
    length and differs only inside one string."""
    page = _page(draw, base)
    if page is not None:
        comp = draw(st.sampled_from(page["components"]))
        comp["mpn"] = comp["mpn"][:-1] + ("X" if comp["mpn"][-1] != "X" else "Y")


def split_wire(draw, base, restyled):
    """A wire leaving a pin drawn as two collinear halves: the same nets,
    other annotations. The embedded style moves a component's bbox."""
    page = _page(draw, base)
    if page is None:
        return
    if "annotations" not in page:
        draw(st.sampled_from(page["components"]))["bbox"]["x"] += 5
        return
    wires = [a for a in page["annotations"]
             if a["kind"] == "wire" and a["bbox"]["y"] == 0 and a["bbox"]["h"] > 0]
    wire = draw(st.sampled_from(wires))
    half = wire["bbox"]["h"] / 2
    wire["bbox"]["h"] = half
    page["annotations"].append(
        {"kind": "wire", "text": "", "bbox": {**wire["bbox"], "y": half}})


def move_drawing(draw, base, restyled):
    """Every x coordinate of one page shifted: the same nets, another
    drawing."""
    page = _page(draw, base)
    if page is None:
        return
    dx = draw(st.sampled_from([1, 2.5, 100]))
    for comp in page["components"]:
        comp["bbox"]["x"] += dx
        for pin in comp["pins"]:
            if "x" in pin:
                pin["x"] += dx
    for ann in page.get("annotations", ()):
        ann["bbox"]["x"] += dx


def reorder_pages(draw, base, restyled):
    base["pages"] = draw(st.permutations(base["pages"]))


def restyle_page(draw, base, restyled):
    page = _page(draw, base)
    if page is not None:
        restyled.add(page["id"])


def drop_page(draw, base, restyled):
    if base["pages"]:
        base["pages"].pop(draw(st.integers(0, len(base["pages"]) - 1)))


EDITS = (swap_pins, change_mpn, split_wire, move_drawing, reorder_pages, restyle_page,
         drop_page)


def document(doc, restyled=frozenset()) -> bytes:
    """The document's text, one page item after another; a restyled item
    has its keys reversed and another indentation."""
    items = [json.dumps(dict(reversed(page.items())), indent=2) if page["id"] in restyled
             else json.dumps(page, sort_keys=True, indent=1) for page in doc["pages"]]
    return ('{"version": 1, "pages": [\n' + ",\n".join(items) + "\n]}\n").encode()


@st.composite
def reviews(draw):
    """(manifest, head text, base text, page override)."""
    board = boardgen.generate_board(draw(st.integers(0, 2**16)), pages=draw(st.integers(2, 3)),
                                    blocks=len(boardgen.BLOCK_CYCLE),
                                    wires=draw(st.booleans()))
    head = board["head"]
    base = copy.deepcopy(head)
    restyled: set[str] = set()
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)):
        edit(draw, base, restyled)
    ids = [page["id"] for page in head["pages"]]
    override = draw(st.lists(st.sampled_from(ids), max_size=1))
    return board["manifest"], document(head), document(base, restyled), override


# --- the runs ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The demo workspace: datasheets and part library for every part a
    board uses, config, and a datasheet cache the runs share."""
    work = tmp_path_factory.mktemp("oracle")
    write_demo_workspace(work)
    return work


def out_files(work) -> dict:
    out = work / "out"
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def usage(report) -> dict:
    return {kind: {k: v for k, v in entry.items() if k != "latency_s"}
            for kind, entry in report.usage.items()}


def run(work, **fields):
    cfg = load_config(work / "config.json")
    for key, value in fields.items():
        setattr(cfg, key, value)
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "trace.jsonl").unlink(missing_ok=True)
    return run_pipeline(cfg, work / "head.json")


def hashed_page_set(head_raw: bytes, base_raw: bytes) -> set[str]:
    """Head pages whose page_hash differs from the base page of the same
    id, both documents read in full."""
    head = augment_netlist(ingest_schematic(head_raw))
    base = {p.id: page_hash(p) for p in augment_netlist(ingest_schematic(base_raw)).pages}
    return {p.id for p in head.pages if base.get(p.id) != page_hash(p)}


def entries_and_files(files: dict, pages) -> tuple[list, dict]:
    """The manifest entries of ``pages``' comments, and their files."""
    entries = [e for e in json.loads(files["manifest.json"])["comments"]
               if e["page_id"] in pages]
    paths = {e[key] for e in entries for key in ("markdown_path", "overlay_path") if e[key]}
    return entries, {path: data for path, data in files.items() if path in paths}


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(review=reviews())
def test_design_review_posts_what_a_full_analysis_posts_for_its_pages(work, review):
    manifest, head_raw, base_raw, override = review
    (work / "head.json").write_bytes(head_raw)
    (work / "base.json").write_bytes(base_raw)
    fixtures = work / "fixtures"
    shutil.rmtree(fixtures, ignore_errors=True)
    generate_fixtures(lambda: run(work), fixtures, responder=make_responder(manifest))
    full = out_files(work)

    selected = hashed_page_set(head_raw, base_raw) | set(override)
    head_order = [p.id for p in ingest_schematic(head_raw).pages]
    design_review = {"mode": Mode.DESIGN_REVIEW, "base_schematic": str(work / "base.json"),
                     "pages_override": override}
    outcomes = []
    for max_in_flight, delay in ((1, 0.0), (2, 0.001), (8, 0.001)):
        backend = load_config(work / "config.json").backend
        backend.max_in_flight, backend.mock_delay_s = max_in_flight, delay
        report = run(work, backend=backend, **design_review)
        assert report.pages_analyzed == [pid for pid in head_order if pid in selected]
        outcomes.append((out_files(work), usage(report), span_sequence(work / "trace.jsonl")))

    files, _, _ = outcomes[0]
    assert entries_and_files(files, selected) == entries_and_files(full, selected)
    assert set(files) == set(entries_and_files(files, selected)[1]) | {"manifest.json"}
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

"""A design review reads only the head pages it reviews.

A head page item whose text equals a base page item's (in documents with
equal version, format and sidecars) is unchanged: neither it nor that
base item is checked, decoded or traced. The other head items, the ones
the page override names and the base items with their ids are read, and
the page diff compares only those pairs, record by record, rendering a
block only for records that differ, up to the first block that differs.
The whole of both documents is still checked for what decides it: its
top-level members, each page item an object with a string id, unique
page ids.

Within a changed pair, a base item whose ``annotations`` equal those of
the head item with its id, as decoded values of the same types, takes
that head page's annotation records: they are not made records again,
they stand in as ``[]`` where the base is checked, and a base page with
the same pin points attaches its pins to the head page's wiring instead
of being traced again.

The oracle is a full read: both documents ingested and augmented in
full, then every page hashed. When it succeeds, the design review selects
the same pages. When the review fails, the full read fails too, with the
same error unless an unread item fails as well. The review may succeed
where the full read fails only when every failing item is unread.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from schemreview import augment, canonical, ingest, pipeline, wiretrace
from schemreview.augment import augment_netlist
from schemreview.canonical import diff_pages, page_hash
from schemreview.config import Mode, RunConfig
from schemreview.errors import InferenceFailed, InputError, MalformedInput
from schemreview.gateway import BackendConfig
from schemreview.ingest import _DOCUMENT_SCHEMA, ingest_schematic, read_design_review
from schemreview.model import SourceFormat
from schemreview.reporting import FileSink
from schemreview.schemacheck import shipped

PSTXNET = "NET_NAME\n'VIN'\nNODE_NAME U1 1\nNODE_NAME C1 1\n\n" \
          "NET_NAME\n'GND'\nNODE_NAME U1 2\nNODE_NAME C1 2\n"
OTHER_PSTXNET = "NET_NAME\n'VIN'\nNODE_NAME U1 1\n\n" \
                "NET_NAME\n'GND'\nNODE_NAME U1 2\nNODE_NAME C1 1\nNODE_NAME C1 2\n"


def _pin(designator, x=None):
    pin = {"designator": designator}
    if x is not None:
        pin.update(x=x, y=0)
    return pin


def _ann(kind, text, x, y, w=0, h=0):
    return {"kind": kind, "text": text, "bbox": {"x": x, "y": y, "w": w, "h": h}}


def _bbox(x):
    return {"x": x, "y": 0, "w": 1, "h": 1}


def wired_page(page_id: str, x0: int = 0) -> dict:
    """R1 and R2 in a row; a wire labelled MID joins R1.2 to R2.1 and a
    wire from R2.2 ends on the label OUT."""
    return {"id": page_id, "components": [
        {"designator": "R1", "mpn": "RES-1K", "pins": [_pin("1", x0), _pin("2", x0 + 10)],
         "bbox": _bbox(x0)},
        {"designator": "R2", "mpn": "RES-1K", "pins": [_pin("1", x0 + 20), _pin("2", x0 + 30)],
         "bbox": _bbox(x0 + 20)},
    ], "annotations": [
        _ann("wire", "", x0 + 10, 0, w=10),
        _ann("label", "MID", x0 + 15, 0),
        _ann("wire", "", x0 + 30, 0, h=10),
        _ann("label", "OUT", x0 + 30, 10),
    ]}


def netted_page(page_id: str, variant: int = 0, nets: bool = True) -> dict:
    page = {"id": page_id, "components": [
        {"designator": "U1", "mpn": f"LDO-{variant}",
         "pins": [_pin("1"), _pin("2"), _pin("3")], "bbox": _bbox(0)},
        {"designator": "C1", "pins": [_pin("1"), _pin("2")], "bbox": _bbox(1)},
    ]}
    if nets:
        page["nets"] = [{"name": "VIN", "nodes": [["U1", "1"], ["C1", "1"]]},
                        {"name": "GND", "nodes": [["U1", "2"], ["C1", "2"]]}]
    return page


def make_doc(style: str, variants: list[int]) -> dict:
    ids = [f"P{i}" for i in range(1, len(variants) + 1)]
    if style == "wires":
        return {"version": 1, "pages": [wired_page(p, 40 * v) for p, v in zip(ids, variants)]}
    if style == "nets":
        return {"version": 1, "pages": [netted_page(p, v) for p, v in zip(ids, variants)]}
    return {"version": 1, "format": "de-hdl", "sidecars": {"pstxnet": PSTXNET},
            "pages": [netted_page(p, v, nets=False) for p, v in zip(ids, variants)]}


# --- mutations of a document, each drawing what it needs ------------------------------

def _some_page(draw, doc):
    return draw(st.sampled_from(doc["pages"])) if doc["pages"] else None


def reorder(draw, doc):
    doc["pages"] = draw(st.permutations(doc["pages"]))


def move_pin(draw, doc):
    page = _some_page(draw, doc)
    components = [c for c in page["components"] if isinstance(c.get("pins"), list)
                  and c["pins"]] if page else []
    if components:
        pin = draw(st.sampled_from(draw(st.sampled_from(components))["pins"]))
        pin["x"] = pin.get("x", 0) + draw(st.sampled_from([0.5, 10, 20]))
        pin.setdefault("y", 0)


def shift_wires(draw, doc):
    page = _some_page(draw, doc)
    if page:
        dx = draw(st.sampled_from([0.0004, 5, 10]))
        for ann in page.get("annotations", ()):
            if ann["kind"] == "wire":
                ann["bbox"]["x"] += dx


def dangle(draw, doc):
    page = _some_page(draw, doc)
    if page:
        page.setdefault("annotations", []).append(_ann("wire", "", 500, 500, w=7))


def add_page(draw, doc):
    style = draw(st.sampled_from(["wires", "nets"]))
    doc["pages"].append(wired_page("P9", 7) if style == "wires" else netted_page("P9", 9))


def remove_page(draw, doc):
    if doc["pages"]:
        doc["pages"].pop(draw(st.integers(0, len(doc["pages"]) - 1)))


def duplicate_page(draw, doc):
    page = _some_page(draw, doc)
    if page:
        doc["pages"].insert(draw(st.integers(0, len(doc["pages"]))), copy.deepcopy(page))


def change_sidecars(draw, doc):
    doc["sidecars"] = draw(st.sampled_from(
        [{}, {"pstxnet": OTHER_PSTXNET}, {"pstxnet": PSTXNET, "notes": "x"}]))


def change_format(draw, doc):
    value = draw(st.sampled_from([None, "structured-pages", "de-hdl"]))
    doc.pop("format", None)
    if value is not None:
        doc["format"] = value


def retype_number(draw, doc):
    """A bbox number replaced by one equal under ``==`` but of another JSON
    type: ``true`` for ``1`` or ``false`` for ``0`` (invalid), ``1.0`` for
    ``1`` (valid)."""
    page = _some_page(draw, doc)
    if page:
        bbox = draw(st.sampled_from(page["components"]))["bbox"]
        key = draw(st.sampled_from("xywh"))
        value = bbox[key]
        bbox[key] = draw(st.sampled_from([float(value)] + (
            [bool(value)] if value in (0, 1) else [])))


def invalidate(draw, doc):
    page = _some_page(draw, doc)
    if page:
        page["components"][0][draw(st.sampled_from(["pins", "designator", "extra"]))] = 5


def drop_node(draw, doc):
    page = _some_page(draw, doc)
    if page and page.get("nets") and page["nets"][0]["nodes"]:
        page["nets"][0]["nodes"].pop()


def reorder_keys(draw, doc):
    page = _some_page(draw, doc)
    if page:
        items = list(page.items())[::-1]
        page.clear()
        page.update(items)


BASE_OPS = (reorder, move_pin, shift_wires, dangle, add_page, remove_page, duplicate_page,
            change_sidecars, change_format, retype_number, invalidate, drop_node,
            reorder_keys)
# applied to head before base is copied from it, so both documents share them
SHARED_OPS = (dangle, retype_number, move_pin, invalidate)


def swap_pins(draw, doc):
    """Two pins of one component trade places: their coordinates where they
    have them, else their designators. The page's wiring keeps its text."""
    page = _some_page(draw, doc)
    components = [c for c in page["components"] if isinstance(c.get("pins"), list)
                  and len(c["pins"]) > 1] if page else []
    if components:
        a, b = draw(st.permutations(draw(st.sampled_from(components))["pins"]))[:2]
        if "x" in a and "x" in b:
            a["x"], b["x"] = b["x"], a["x"]
        else:
            a["designator"], b["designator"] = b["designator"], a["designator"]


def change_part(draw, doc):
    """A component's part number (and with it its value) changed."""
    page = _some_page(draw, doc)
    if page:
        draw(st.sampled_from(page["components"]))["mpn"] = draw(
            st.sampled_from(["RES-2K", "LDO-7", "CAP-1U"]))


def retype_annotation(draw, doc):
    """An annotation's bbox number replaced by one equal under ``==`` but of
    another JSON type, as ``retype_number`` does to a component's: ``true``
    or ``false`` (invalid) where it can, else a float (valid)."""
    page = _some_page(draw, doc)
    if page and page.get("annotations"):
        bbox = draw(st.sampled_from(page["annotations"]))["bbox"]
        key = draw(st.sampled_from([k for k in "xywh" if bbox[k] in (0, 1)] or list("xywh")))
        bbox[key] = draw(st.sampled_from(([bool(bbox[key])] if bbox[key] in (0, 1) else [])
                                         + [float(bbox[key])]))


@st.composite
def doc_pairs(draw):
    style = draw(st.sampled_from(["wires", "nets", "de-hdl"]))
    head = make_doc(style, draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
    for op in draw(st.lists(st.sampled_from(SHARED_OPS), max_size=1)):
        op(draw, head)
    base = copy.deepcopy(head)
    for op in draw(st.lists(st.sampled_from(BASE_OPS), min_size=1, max_size=3)):
        op(draw, base)
    return head, base


def dumps(doc) -> bytes:
    return json.dumps(doc, indent=1).encode()


def item_dumps(doc, restyled: dict[int, str] | None = None) -> bytes:
    """The document's text, one page item after another, each as
    ``json.dumps(item, indent=1)`` writes it, but the item at each index
    of ``restyled`` written compactly: the whole item with its keys
    reversed (``"item"``), or only the member that ``restyled`` names."""
    restyled = restyled or {}
    def write(value, compact):
        return json.dumps(value, separators=(",", ":")) if compact else json.dumps(value,
                                                                                   indent=1)

    items = []
    for i, page in enumerate(doc["pages"]):
        style = restyled.get(i)
        if style is None:
            items.append(write(page, False))
        elif style == "item":
            items.append(write(dict(reversed(page.items())), True))
        else:
            items.append("{" + ", ".join(f"{json.dumps(key)}: {write(value, key == style)}"
                                         for key, value in page.items()) + "}")
    members = json.dumps({key: value for key, value in doc.items() if key != "pages"})
    return (members[:-1] + (", " if len(members) > 2 else "") + '"pages": ['
            + ",\n".join(items) + "]}").encode()


def outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def full_read(raw: bytes):
    return augment_netlist(ingest_schematic(raw))


def old_page_set(head_raw: bytes, base_raw: bytes) -> set[str]:
    """Both documents read in full, every page hashed."""
    head = full_read(head_raw)
    base = full_read(base_raw)
    base_hashes = {p.id: page_hash(p) for p in base.pages}
    return {p.id for p in head.pages if base_hashes.get(p.id) != page_hash(p)}


def review_cfg(directory, base="base.json", **fields) -> RunConfig:
    return RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(directory / base), **fields)


def new_page_set(directory, head_raw: bytes, base_raw: bytes) -> set[str]:
    (directory / "head.json").write_bytes(head_raw)
    (directory / "base.json").write_bytes(base_raw)
    pages = pipeline.select_pages(review_cfg(directory), directory / "head.json")
    return {page.id for page in pages}


def _members(doc) -> dict:
    return {key: json.dumps(value) for key, value in doc.items() if key != "pages"}


def failing_items(doc) -> set[int]:
    """Indices of the page items that fail a full read on their own, in a
    document with the same other members."""
    def fails(item) -> bool:
        return isinstance(outcome(lambda: full_read(dumps({**doc, "pages": [item]}))), tuple)
    return {i for i, item in enumerate(doc["pages"]) if fails(item)}


def unread_items(head, base) -> tuple[set[int], set[int]]:
    """(head, base) page item indices a design review does not read: in
    documents with equal other members, head items with a text-equal base
    item; base items without the id of another head item."""
    texts = {json.dumps(item) for item in base["pages"]}
    head_unread = {i for i, item in enumerate(head["pages"]) if json.dumps(item) in texts} \
        if _members(head) == _members(base) else set()
    read_ids = [item.get("id") for i, item in enumerate(head["pages"])
                if i not in head_unread and isinstance(item, dict)]
    return head_unread, {i for i, item in enumerate(base["pages"])
                         if not (isinstance(item, dict) and item.get("id") in read_ids)}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("page_reuse")


def assert_fails_as_full_read(head, base, new, old):
    """The design review's outcome ``new`` is the full read's, ``old``, or
    differs only where an item that the review does not read fails."""
    if isinstance(old, set):
        assert new == old
        return
    head_unread, base_unread = unread_items(head, base)
    failing_unread = (failing_items(head) & head_unread) | (failing_items(base) & base_unread)
    if isinstance(new, tuple) and not failing_unread:
        assert new == old
    elif isinstance(new, set):
        assert failing_unread, old


@settings(max_examples=300, deadline=None)
@given(pair=doc_pairs())
def test_page_set_and_failures_match_full_read_of_both(scratch, pair):
    head, base = pair
    head_raw, base_raw = dumps(head), dumps(base)
    new = outcome(lambda: new_page_set(scratch, head_raw, base_raw))
    old = outcome(lambda: old_page_set(head_raw, base_raw))
    assert_fails_as_full_read(head, base, new, old)


@st.composite
def annotation_pairs(draw):
    """(head, base, restyled): wired pages, and a base whose edits mostly
    keep a changed page's annotations (pins swapped, a part changed, a
    component made invalid) or retype one of their numbers, with some
    items or single members written in another layout (``item_dumps``)."""
    head = make_doc("wires", draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
    for op in draw(st.lists(st.sampled_from(SHARED_OPS), max_size=1)):
        op(draw, head)
    base = copy.deepcopy(head)
    edits = (swap_pins, change_part, invalidate, retype_annotation)
    draw(st.sampled_from(edits))(draw, base)
    for op in draw(st.lists(st.sampled_from(edits + BASE_OPS), max_size=2)):
        op(draw, base)
    restyled = {}
    for i in draw(st.lists(st.integers(0, len(base["pages"]) - 1), max_size=2)) \
            if base["pages"] else ():
        restyled[i] = draw(st.sampled_from(["item", *base["pages"][i]]))
    return head, base, restyled


@settings(max_examples=200, deadline=None)
@given(pair=annotation_pairs())
def test_annotations_taken_from_head_change_no_page_set_failure_or_base_page(scratch, pair):
    head, base, restyled = pair
    head_raw, base_raw = item_dumps(head), item_dumps(base, restyled)
    new = outcome(lambda: new_page_set(scratch, head_raw, base_raw))
    old = outcome(lambda: old_page_set(head_raw, base_raw))
    assert_fails_as_full_read(head, base, new, old)
    try:
        _, base_read = read_raw_pair(head_raw, base_raw)
        full_base = full_read(base_raw)
    except Exception:  # the page set's outcome above decides
        return
    # the base pages read, nets included, are the full read's
    ids = {page.id for page in base_read.pages}
    assert list(base_read.pages) == [page for page in full_base.pages if page.id in ids]


def read_raw_pair(head_raw: bytes, base_raw: bytes, wanted=()):
    """The head and base schematics a design review reads, augmented."""
    head, _, read_base = read_design_review(head_raw, lambda: base_raw, wanted)
    return augment_netlist(head), augment_netlist(read_base())


def read_pair(head_doc, base_doc, wanted=()):
    return read_raw_pair(dumps(head_doc), dumps(base_doc), wanted)


def recording_geometry(monkeypatch) -> list[str]:
    """The ids of the pages whose wire geometry is computed from here on."""
    traced = []
    geometry = wiretrace.wire_geometry
    monkeypatch.setattr(wiretrace, "wire_geometry", lambda page_id, *args: traced.append(
        page_id) or geometry(page_id, *args))
    return traced


def test_shared_annotations_are_not_checked_made_records_or_traced_for_the_base(monkeypatch):
    head_doc = make_doc("wires", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][1]["components"][1]["mpn"] = "RES-2K"  # the annotations are kept
    annotations = head_doc["pages"][1]["annotations"]
    checked, made = [], []
    schema = shipped(_DOCUMENT_SCHEMA)
    check, annotation = schema.check, ingest.GraphicalAnnotation
    monkeypatch.setattr(schema, "check", lambda doc: checked.extend(doc["pages"]) or check(doc))
    monkeypatch.setattr(ingest, "GraphicalAnnotation",
                        lambda *args: made.append(args) or annotation(*args))
    traced = recording_geometry(monkeypatch)
    # the base's P2 annotations written in another layout
    head, base = read_raw_pair(item_dumps(head_doc), item_dumps(base_doc, {1: "annotations"}))
    assert [p.id for p in head.pages] == [p.id for p in base.pages] == ["P2"]
    # the head's annotations are checked, made records and traced, the base's not
    assert [item["annotations"] for item in checked if item["id"] == "P2"] == [annotations, []]
    assert len(made) == len(annotations)
    assert traced == ["P2"]
    assert base.pages[0].annotations is head.pages[0].annotations
    assert base.pages[0] == full_read(dumps(base_doc)).page("P2")


@pytest.mark.parametrize("value", [1.0, True])
def test_annotations_equal_only_under_eq_are_read_for_the_base(monkeypatch, value):
    head_doc = make_doc("wires", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][1]["components"][1]["mpn"] = "RES-2K"
    base_doc["pages"][1]["annotations"][1]["bbox"]["h"] = value  # a label's h: 1 in the head
    head_doc["pages"][1]["annotations"][1]["bbox"]["h"] = 1
    traced = recording_geometry(monkeypatch)
    outcome_ = outcome(lambda: read_pair(head_doc, base_doc))
    if value is True:  # not a number: the base's schema error
        assert outcome_ == outcome(lambda: full_read(dumps(base_doc)))
        return
    head, base = outcome_
    assert traced == ["P2", "P2"]
    assert base.pages[0].annotations is not head.pages[0].annotations
    assert base.pages == (full_read(dumps(base_doc)).page("P2"),)


@pytest.mark.parametrize("edit, traced", [("move", ["P2", "P2"]), ("swap", ["P2"])])
def test_a_base_page_whose_pins_moved_is_traced_again(monkeypatch, edit, traced):
    head_doc = make_doc("wires", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    pins = base_doc["pages"][1]["components"][0]["pins"]
    if edit == "move":  # R1.1 onto the MID wire: another set of pin points
        pins[0]["x"] += 15
    else:  # R1's pins trade places: the same set of pin points
        pins[0]["x"], pins[1]["x"] = pins[1]["x"], pins[0]["x"]
    recorded = recording_geometry(monkeypatch)
    head, base = read_pair(head_doc, base_doc)
    assert recorded == traced
    assert base.pages[0].annotations is head.pages[0].annotations
    assert base.pages == (full_read(dumps(base_doc)).page("P2"),)
    assert base.pages[0].nets != head.pages[0].nets


def test_annotations_checked_as_empty_decide_nothing_else():
    # true only while no page member's schema depends on another member
    page = shipped(_DOCUMENT_SCHEMA).schema["$defs"]["page"]
    assert set(page) == {"type", "required", "properties", "additionalProperties"}
    assert set(page["properties"]["annotations"]) == {"type", "items"}
    assert page["properties"]["annotations"]["type"] == "array"


def rendered_by_diff(monkeypatch, base, head) -> list:
    """The (renderer, record) pairs ``diff_pages(base, head)`` renders, after
    checking that it finds P1 changed without hashing."""
    rendered = []

    def recording(name):
        render = getattr(canonical, name)
        return lambda item, *args: rendered.append((name, item)) or render(item, *args)

    for name in ("_open_tag", "_component_xml", "_net_xml", "_annotations_xml"):
        monkeypatch.setattr(canonical, name, recording(name))
    monkeypatch.setattr(canonical, "page_hash", None)  # the diff hashes nothing
    assert diff_pages(base, head) == {"P1"}
    return rendered


def test_unchanged_pages_are_not_read_and_only_the_changed_pair_is_compared(monkeypatch):
    head_doc = make_doc("wires", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][0]["pins"][0]["x"] = -5
    head, base = read_pair(head_doc, base_doc)
    assert [p.id for p in head.pages] == [p.id for p in base.pages] == ["P1"]
    assert head.pages[0] != base.pages[0]
    # the ids and strategies are equal and R1, the first component, differs
    assert rendered_by_diff(monkeypatch, base, head) == [
        ("_component_xml", base.pages[0].components[0]),
        ("_component_xml", head.pages[0].components[0])]


def test_equal_leading_components_render_nothing(monkeypatch):
    head_doc = make_doc("wires", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][1]["mpn"] = "RES-2K"
    head, base = read_pair(head_doc, base_doc)
    assert head.pages[0].components[0] == base.pages[0].components[0]
    # R1's records are equal, so only R2's pair is rendered
    assert rendered_by_diff(monkeypatch, base, head) == [
        ("_component_xml", base.pages[0].components[1]),
        ("_component_xml", head.pages[0].components[1])]


def test_unchanged_items_never_reach_decoding_checking_or_tracing(tmp_path, monkeypatch):
    head_doc = make_doc("wires", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][1]["components"][0]["mpn"] = "RES-2K"
    base_doc["pages"].reverse()
    unchanged = [head_doc["pages"][0], head_doc["pages"][2]]
    decoded, checked, traced = [], [], []
    decode, infer = ingest._decode_page, augment.infer_nets
    schema = shipped(_DOCUMENT_SCHEMA)
    check = schema.check
    monkeypatch.setattr(ingest, "_decode_page", lambda doc: decoded.append(doc) or decode(doc))
    monkeypatch.setattr(schema, "check", lambda doc: checked.extend(doc["pages"]) or check(doc))
    monkeypatch.setattr(augment, "infer_nets", lambda page: traced.append(page.id) or infer(page))
    (tmp_path / "head.json").write_bytes(dumps(head_doc))
    (tmp_path / "base.json").write_bytes(dumps(base_doc))
    pages = pipeline.select_pages(review_cfg(tmp_path), tmp_path / "head.json")
    assert [p.id for p in pages] == ["P2"]
    # the base P2's annotations are the head's: checked and decoded as []
    shared = {**base_doc["pages"][1], "annotations": []}
    assert decoded == [head_doc["pages"][1], shared]
    assert traced == ["P2", "P2"]
    assert head_doc["pages"][1] in checked and shared in checked
    assert not any(item == page for item in checked + decoded for page in unchanged)


def test_reordered_base_pages_are_not_read():
    head_doc = make_doc("nets", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"].reverse()
    head, base = read_pair(head_doc, base_doc)
    assert head.pages == base.pages == ()
    head, base = read_pair(head_doc, base_doc, wanted={"P2"})
    assert [p.id for p in head.pages] == ["P2"] and base.pages == ()


def test_only_a_changed_pages_dangling_wire_fails_the_review(tmp_path):
    head_doc = make_doc("wires", [0, 1])
    head_doc["pages"][1]["annotations"].append(_ann("wire", "", 500, 500, w=7))
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][0]["mpn"] = "RES-2K"
    with pytest.raises(InferenceFailed) as expected:
        full_read(dumps(head_doc))
    assert str(expected.value) == \
        "page P2: dangling wire endpoints at (500.0, 500.0), (507.0, 500.0)"
    (tmp_path / "head.json").write_bytes(dumps(head_doc))
    (tmp_path / "base.json").write_bytes(dumps(base_doc))
    cfg = review_cfg(tmp_path, backend=BackendConfig(kind="mock", fixture_path=str(
        tmp_path / "fx")), sink=FileSink(str(tmp_path / "out")),
        cache_dir=str(tmp_path / "cache"))
    # P2 is unchanged: not read, so its wire is not traced
    assert [p.id for p in pipeline.select_pages(cfg, tmp_path / "head.json")] == ["P1"]

    base_doc["pages"][1]["components"][0]["mpn"] = "RES-2K"  # now P2 changed too
    (tmp_path / "base.json").write_bytes(dumps(base_doc))
    with pytest.raises(InferenceFailed) as raised:
        pipeline.run_pipeline(cfg, tmp_path / "head.json")
    assert str(raised.value) == str(expected.value)


def test_missing_base_is_input_error(tmp_path):
    (tmp_path / "head.json").write_bytes(dumps(make_doc("wires", [0])))
    with pytest.raises(InputError, match="cannot read schematic"):
        pipeline.select_pages(review_cfg(tmp_path, "absent.json"), tmp_path / "head.json")


def test_base_read_as_another_format_reuses_no_page():
    # the same page items, in a base document that declares DE-HDL
    doc = dumps(make_doc("de-hdl", [0]) | {"format": "structured-pages"})
    head, _, read_base = read_design_review(doc, lambda: dumps(make_doc("de-hdl", [0])), ())
    assert [p.id for p in head.pages] == ["P1"]
    assert read_base().format is SourceFormat.DE_HDL
    assert read_design_review(doc, lambda: doc, ())[0].pages == ()


def test_de_hdl_base_with_another_sidecar_rederives_every_page():
    head_doc = make_doc("de-hdl", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    head, base = read_pair(head_doc, base_doc)
    assert head.pages == base.pages == ()

    base_doc["sidecars"]["pstxnet"] = OTHER_PSTXNET
    head, base = read_pair(head_doc, base_doc)
    assert [p.id for p in head.pages] == [p.id for p in base.pages] == ["P1", "P2"]
    assert diff_pages(base, head) == {"P1", "P2"}


def test_base_with_true_for_one_is_still_rejected_with_the_full_documents_error():
    head_doc = make_doc("nets", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][1]["components"][0]["bbox"]["w"] = True
    assert base_doc == head_doc  # equal under ==, not as JSON
    with pytest.raises(MalformedInput) as expected:
        ingest_schematic(dumps(base_doc))
    with pytest.raises(MalformedInput) as raised:
        read_pair(head_doc, base_doc)
    assert str(raised.value) == str(expected.value)
    assert "pages/1/components/0/bbox/w" in str(raised.value)


def _duplicate_id(pages):
    pages.append(copy.deepcopy(pages[1]))


def _not_an_object(pages):
    pages.insert(1, 5)


def _no_id(pages):
    pages.append({"components": []})


@pytest.mark.parametrize("defect", [_duplicate_id, _not_an_object, _no_id])
def test_a_text_matched_item_still_fails_the_whole_document_checks(defect):
    head_doc = make_doc("nets", [0, 1])
    defect(head_doc["pages"])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][0]["mpn"] = "LDO-X"
    expected = outcome(lambda: ingest_schematic(dumps(head_doc)))
    assert expected[0] is MalformedInput
    assert outcome(lambda: read_pair(head_doc, base_doc)) == expected


def test_the_error_names_the_changed_invalid_page_not_the_unchanged_one():
    head_doc = make_doc("nets", [0, 1])
    for page in head_doc["pages"]:
        page["components"][0]["pins"] = 5
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][1]["mpn"] = "CAP-1U"
    # a full read names the unchanged page, P2
    assert "pages/1/" in outcome(lambda: ingest_schematic(dumps(head_doc)))[1]
    error = outcome(lambda: read_pair(head_doc, base_doc))
    assert error == (MalformedInput, "document schema violation at "
                                     "pages/0/components/0/pins: 5 is not of type 'array'")


def test_checking_without_reused_pages_decides_the_document():
    # true only while nothing in the schema constrains pages across items
    assert shipped(_DOCUMENT_SCHEMA).schema["properties"]["pages"] == {
        "type": "array", "items": {"$ref": "#/$defs/page"}}

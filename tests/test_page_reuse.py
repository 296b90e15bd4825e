"""Reading a design review's base against its head.

Base page items whose text equals a head page item's (in documents with
equal version, format and sidecars) are head's checked, decoded and
augmented Page objects, never decoded again, and the page diff compares
only the other pairs, block by block up to the first block that differs.
The oracle is the old path: both documents ingested and augmented in
full, then every page hashed. The page set, and every failure's type and
text, must equal it.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from schemreview import canonical, pipeline
from schemreview.augment import augment_netlist
from schemreview.canonical import diff_pages, page_hash
from schemreview.config import Mode, RunConfig
from schemreview.errors import InferenceFailed, InputError, MalformedInput
from schemreview.gateway import BackendConfig
from schemreview.ingest import _DOCUMENT_SCHEMA, ingest_schematic
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
SHARED_OPS = (dangle, retype_number, move_pin)


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


def outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def old_page_set(head_raw: bytes, base_raw: bytes) -> set[str]:
    """Both documents read in full, every page hashed."""
    head = augment_netlist(ingest_schematic(head_raw))
    base = augment_netlist(ingest_schematic(base_raw))
    base_hashes = {p.id: page_hash(p) for p in base.pages}
    return {p.id for p in head.pages if base_hashes.get(p.id) != page_hash(p)}


def new_page_set(directory, head_raw: bytes, base_raw: bytes) -> set[str]:
    (directory / "head.json").write_bytes(head_raw)
    (directory / "base.json").write_bytes(base_raw)
    head = pipeline._read_schematic(directory / "head.json")
    cfg = RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(directory / "base.json"))
    return set(pipeline.select_page_set(cfg, head))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("page_reuse")


@settings(max_examples=300, deadline=None)
@given(pair=doc_pairs())
def test_page_set_and_failures_match_full_read_of_both(scratch, pair):
    head_raw, base_raw = map(dumps, pair)
    assert outcome(lambda: new_page_set(scratch, head_raw, base_raw)) == \
        outcome(lambda: old_page_set(head_raw, base_raw))


def read_pair(tmp_path, head_doc, base_doc):
    (tmp_path / "head.json").write_bytes(dumps(head_doc))
    (tmp_path / "base.json").write_bytes(dumps(base_doc))
    head = pipeline._read_schematic(tmp_path / "head.json")
    return head, pipeline._read_schematic(tmp_path / "base.json", reuse=head)


def test_reused_pages_are_heads_and_only_the_changed_pair_is_hashed(tmp_path, monkeypatch):
    head_doc = make_doc("wires", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][0]["pins"][0]["x"] = -5
    head, base = read_pair(tmp_path, head_doc, base_doc)
    assert base.pages[0] is not head.pages[0]
    assert base.pages[1:] == head.pages[1:]
    assert all(b is h for b, h in zip(base.pages[1:], head.pages[1:]))

    rendered = []

    def recording(name):
        render = getattr(canonical, name)
        return lambda item, *args: rendered.append((name, item)) or render(item, *args)

    for name in ("_open_tag", "_component_xml", "_net_xml", "_annotations_xml"):
        monkeypatch.setattr(canonical, name, recording(name))
    monkeypatch.setattr(canonical, "page_hash", None)  # the diff hashes nothing
    assert diff_pages(base, head) == {"P1"}
    # the open tags are equal and R1, the first component, differs
    assert rendered == [("_open_tag", base.pages[0]), ("_open_tag", head.pages[0]),
                        ("_component_xml", base.pages[0].components[0]),
                        ("_component_xml", head.pages[0].components[0])]
    assert all("_canonical_blocks" not in p.__dict__ for p in head.pages)


def test_reordered_base_pages_are_reused_by_id(tmp_path):
    head_doc = make_doc("nets", [0, 1, 2])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"].reverse()
    head, base = read_pair(tmp_path, head_doc, base_doc)
    assert [p.id for p in base.pages] == ["P3", "P2", "P1"]
    assert all(base.page(p.id) is p for p in head.pages)


def test_unchanged_page_with_dangling_wire_raises_the_same_text(tmp_path):
    head_doc = make_doc("wires", [0, 1])
    head_doc["pages"][1]["annotations"].append(_ann("wire", "", 500, 500, w=7))
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][0]["components"][0]["mpn"] = "RES-2K"
    with pytest.raises(InferenceFailed) as expected:
        augment_netlist(ingest_schematic(dumps(head_doc)))
    (tmp_path / "head.json").write_bytes(dumps(head_doc))
    (tmp_path / "base.json").write_bytes(dumps(base_doc))
    cfg = RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(tmp_path / "base.json"),
                    backend=BackendConfig(kind="mock", fixture_path=str(tmp_path / "fx")),
                    sink=FileSink(str(tmp_path / "out")), cache_dir=str(tmp_path / "cache"))
    with pytest.raises(InferenceFailed) as raised:
        pipeline.run_pipeline(cfg, tmp_path / "head.json")
    assert str(raised.value) == str(expected.value) == \
        "page P2: dangling wire endpoints at (500.0, 500.0), (507.0, 500.0)"


def test_missing_base_is_input_error(tmp_path):
    (tmp_path / "head.json").write_bytes(dumps(make_doc("wires", [0])))
    head = pipeline._read_schematic(tmp_path / "head.json")
    cfg = RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(tmp_path / "absent.json"))
    with pytest.raises(InputError, match="cannot read schematic"):
        pipeline.select_page_set(cfg, head)


def test_base_read_as_another_format_reuses_no_page():
    # the same page items, in a base document that declares DE-HDL
    doc = dumps(make_doc("de-hdl", [0]) | {"format": "structured-pages"})
    head = augment_netlist(ingest_schematic(doc))
    base = ingest_schematic(dumps(make_doc("de-hdl", [0])), reuse=head)
    assert base.format is not head.format
    assert base.pages[0] is not head.pages[0]
    assert ingest_schematic(doc, reuse=head).pages[0] is head.pages[0]


def test_de_hdl_base_with_another_sidecar_rederives_every_page(tmp_path):
    head_doc = make_doc("de-hdl", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    head, base = read_pair(tmp_path, head_doc, base_doc)
    assert all(b is h for b, h in zip(base.pages, head.pages))

    base_doc["sidecars"]["pstxnet"] = OTHER_PSTXNET
    head, base = read_pair(tmp_path, head_doc, base_doc)
    assert all(b is not h for b, h in zip(base.pages, head.pages))
    assert diff_pages(base, head) == {"P1", "P2"}


def test_base_with_true_for_one_is_still_rejected_with_the_full_documents_error(tmp_path):
    head_doc = make_doc("nets", [0, 1])
    base_doc = copy.deepcopy(head_doc)
    base_doc["pages"][1]["components"][0]["bbox"]["w"] = True
    assert base_doc == head_doc  # equal under ==, not as JSON
    with pytest.raises(MalformedInput) as expected:
        ingest_schematic(dumps(base_doc))
    with pytest.raises(MalformedInput) as raised:
        read_pair(tmp_path, head_doc, base_doc)
    assert str(raised.value) == str(expected.value)
    assert "pages/1/components/0/bbox/w" in str(raised.value)


def test_checking_without_reused_pages_decides_the_document():
    # true only while nothing in the schema constrains pages across items
    assert shipped(_DOCUMENT_SCHEMA).schema["properties"]["pages"] == {
        "type": "array", "items": {"$ref": "#/$defs/page"}}

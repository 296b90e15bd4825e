"""KiCad-subset parsing and connectivity recovery."""

import pytest

from schemreview.canonical import serialize_page_xml
from schemreview.config import Mode, RunConfig
from schemreview.errors import InferenceFailed, MalformedInput
from schemreview.ingest import ingest_schematic
from schemreview.kicad import parse_kicad_page, parse_sexpr
from schemreview.model import AugmentationStrategy, Net
from schemreview.pipeline import select_pages

ONE_SYMBOL_ONE_WIRE = """
(kicad_sch
  (page "P1")
  (symbol
    (property "Reference" "U1")
    (property "MPN" "LM317")
    (pin (number "1") (name "VIN") (at 10 20))
    (pin (number "2") (name "VOUT") (at 10 30)))
  (symbol
    (property "Reference" "C1")
    (pin (number "1") (at 50 20))
    (pin (number "2") (at 50 30)))
  (wire (pts (xy 10 20) (xy 50 20)))
  (label "VCC_3V3" (at 30 20))
  (wire (pts (xy 10 30) (xy 50 30)))
  (label "VOUT_RAIL" (at 30 30))
)
"""


def test_sexpr_round_structure():
    form = parse_sexpr('(a (b "c d") 1.5)')
    assert form == ["a", ["b", "c d"], "1.5"]


def test_sexpr_unclosed_paren_reports_offset():
    with pytest.raises(MalformedInput) as exc:
        parse_sexpr("(a (b)")
    assert exc.value.offset == 0


def test_sexpr_trailing_content_rejected():
    with pytest.raises(MalformedInput):
        parse_sexpr("(a) (b)")


@pytest.mark.parametrize("text, message, offset", [
    ("(a) (b)", "trailing content", 4),
    ('(kicad_sch (label "\u00e9" (at 0 0))) )', "trailing content", 34),
    ('(a "\u00e9" "b', "unclosed string literal", 8),
    ('(a "\u00e9" (b', "unclosed '\\('", 8),
    ('(a "\u00e9"', "unclosed '\\('", 0),
], ids=["trailing", "trailing-after-non-ascii", "string-after-non-ascii",
        "paren-after-non-ascii", "paren-before-non-ascii"])
def test_sexpr_error_offset_counts_utf8_bytes(text, message, offset):
    # the offset indexes the UTF-8 encoding of the text, where "\u00e9" is 2 bytes
    with pytest.raises(MalformedInput, match=message) as exc:
        parse_sexpr(text)
    assert exc.value.offset == offset


def test_symbol_and_labeled_wire_recovered():
    page = parse_kicad_page(ONE_SYMBOL_ONE_WIRE)
    assert page.id == "P1"
    assert [c.designator for c in page.components] == ["U1", "C1"]
    assert page.component("U1").mpn == "LM317"
    # hand-derived from the subset grammar: each labeled wire joins the two
    # pins sitting on its endpoints
    assert Net("VCC_3V3", (("C1", "1"), ("U1", "1"))) in page.nets
    assert Net("VOUT_RAIL", (("C1", "2"), ("U1", "2"))) in page.nets


def test_parsed_page_is_labelled_wire_trace_inference():
    # its nets were traced from wire geometry, so a page payload must not
    # call them embedded
    page = parse_kicad_page(ONE_SYMBOL_ONE_WIRE)
    assert page.strategy is AugmentationStrategy.WIRE_TRACE_INFERENCE
    assert '<page id="P1" strategy="wire-trace-inference">' in serialize_page_xml(
        page, payload=True)


def test_wire_chain_and_junction_merge():
    text = """
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 0)))
  (symbol (property "Reference" "R2") (pin (number "1") (at 20 10)))
  (wire (pts (xy 0 0) (xy 10 0)))
  (wire (pts (xy 10 0) (xy 10 10)))
  (wire (pts (xy 10 10) (xy 20 10)))
  (label "A" (at 10 0))
)
"""
    page = parse_kicad_page(text)
    assert page.nets == (Net("A", (("R1", "1"), ("R2", "1"))),)


def test_unnamed_cluster_gets_deterministic_fallback_name():
    text = """
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 0)))
  (symbol (property "Reference" "R2") (pin (number "1") (at 10 0)))
  (wire (pts (xy 0 0) (xy 10 0)))
)
"""
    page = parse_kicad_page(text)
    assert page.nets == (Net("N$1", (("R1", "1"), ("R2", "1"))),)


def test_dangling_endpoint_raises_inference_failed():
    text = """
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 0)))
  (wire (pts (xy 0 0) (xy 10 0)))
)
"""
    with pytest.raises(InferenceFailed) as exc:
        parse_kicad_page(text)
    assert (10.0, 0.0) in exc.value.points


def test_diagonal_wire_rejected_with_its_points():
    # drawn between pins at (0, 10) and (10, 0); its bbox corners (0, 0)
    # and (10, 10) lie on no drawn wire
    text = """
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 10)))
  (symbol (property "Reference" "R2") (pin (number "1") (at 10 0)))
  (wire (pts (xy 0 10) (xy 10 0)))
)
"""
    with pytest.raises(MalformedInput) as exc:
        parse_kicad_page(text)
    assert str(exc.value) == "wire from (0 10) to (10 0) is neither horizontal nor vertical"


def test_polyline_wire_splits_into_orthogonal_segments():
    text = """
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 10)))
  (symbol (property "Reference" "R2") (pin (number "1") (at 10 0)))
  (wire (pts (xy 0 10) (xy 0 0) (xy 10 0)))
)
"""
    assert parse_kicad_page(text).nets == (Net("N$1", (("R1", "1"), ("R2", "1"))),)


def test_wire_point_without_y_rejected():
    with pytest.raises(MalformedInput, match="needs x y"):
        parse_kicad_page("(kicad_sch (wire (pts (xy 1) (xy 2 3))))")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "NaN", "Infinity"])
@pytest.mark.parametrize("where", ["wire", "pin", "bbox"])
def test_non_finite_coordinate_is_malformed_input(token, where):
    forms = {
        "wire": f"(wire (pts (xy {token} 0) (xy 10 0)))",
        "pin": f'(symbol (property "Reference" "R1") (pin (number "1") (at {token} 0)))',
        "bbox": f'(symbol (property "Reference" "R1") (bbox 0 0 {token} 5))',
    }
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(f"(kicad_sch {forms[where]})".encode())
    assert "expected a number in" in str(exc.value)
    assert str(exc.value).endswith(f"got {token!r}")


@pytest.mark.parametrize("old, new, message", [
    ('(label "VCC_3V3" (at 30 20))', "(label (x) (at 10 0))",
     "text of the label at (10 0) must be a non-empty string, got ['x']"),
    ('(label "VCC_3V3" (at 30 20))', '(label "" (at 30 20))',
     "text of the label at (30 20) must be a non-empty string, got ''"),
    ('(pin (number "1") (name "VIN") (at 10 20))', '(pin (number (x)) (at 10 20))',
     "pin number of U1 must be a non-empty string, got ['x']"),
    ('(pin (number "2") (name "VOUT") (at 10 30))', '(pin (number "1") (at 10 30))',
     "symbol U1: duplicate pin '1'"),
    ('(page "P1")', "(page (x))", "page name must be a non-empty string, got ['x']"),
    ('(page "P1")', '(page "")', "page name must be a non-empty string, got ''"),
], ids=["label-form", "label-empty", "pin-number-form", "duplicate-pin", "page-form",
        "page-empty"])
def test_unkeyable_name_is_malformed_input_at_read(old, new, message):
    # each would otherwise escape as a bare TypeError or ValueError from
    # wire tracing or the model
    assert old in ONE_SYMBOL_ONE_WIRE
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(ONE_SYMBOL_ONE_WIRE.replace(old, new).encode())
    assert str(exc.value) == message


def test_symbol_without_reference_rejected():
    with pytest.raises(MalformedInput):
        parse_kicad_page('(kicad_sch (symbol (pin (number "1"))))')


def test_not_kicad_document_rejected():
    with pytest.raises(MalformedInput):
        parse_kicad_page("(something_else)")


@pytest.mark.parametrize("base, selected", [
    (ONE_SYMBOL_ONE_WIRE, []),
    # U1's VIN and VOUT pins trade places: each lands on the other's net
    (ONE_SYMBOL_ONE_WIRE.replace('"VIN") (at 10 20)', '"VIN") (at 10 30)')
     .replace('"VOUT") (at 10 30)', '"VOUT") (at 10 20)'), ["P1"]),
])
def test_design_review_of_a_kicad_head_against_a_kicad_base(tmp_path, base, selected):
    (tmp_path / "head.sch").write_text(ONE_SYMBOL_ONE_WIRE)
    (tmp_path / "base.sch").write_text(base)
    cfg = RunConfig(mode=Mode.DESIGN_REVIEW, base_schematic=str(tmp_path / "base.sch"))
    assert [page.id for page in select_pages(cfg, tmp_path / "head.sch")] == selected

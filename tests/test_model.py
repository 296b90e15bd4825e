"""Domain type invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import pairwise_union
from schemreview.model import (
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
    Schematic,
    SourceFormat,
    union_bboxes,
)


def test_pin_requires_designator():
    with pytest.raises(ValueError):
        Pin("")


def test_component_rejects_duplicate_pins():
    with pytest.raises(ValueError, match="duplicate pin"):
        Component("U1", pins=(Pin("1"), Pin("1")))


def test_page_rejects_duplicate_designators():
    with pytest.raises(ValueError, match="duplicate designator"):
        Page("P1", components=(Component("U1"), Component("U1")))


def test_schematic_rejects_duplicate_page_ids():
    with pytest.raises(ValueError, match="duplicate page id"):
        Schematic(SourceFormat.STRUCTURED_PAGES, pages=(Page("P1"), Page("P1")))


def test_net_nodes_stored_sorted_and_deduped():
    net = Net("X", (("U1", "4"), ("C1", "1"), ("U1", "4")))
    assert net.nodes == (("C1", "1"), ("U1", "4"))


def test_bbox_union_and_clamp():
    a = BBox(0, 0, 10, 10)
    b = BBox(5, 5, 10, 10)
    assert union_bboxes([a, b]) == BBox(0, 0, 15, 15)
    assert union_bboxes([b, a]) == BBox(0, 0, 15, 15)
    assert union_bboxes([a]) == a
    assert union_bboxes([]) is None
    assert BBox(-5, 2, 30, 4).clamp_to(a) == BBox(0, 2, 10, 4)


# finite floats of every size, negative coordinates, zero extents, ints
# beside whole floats, and both zeros
COORDS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
          | st.sampled_from([0, 0.0, -0.0, 1, 1.0, -2.5, 0.1, 2**53 + 2, float(2**53 + 2)]))
EXTENTS = (st.floats(0, 1e300) | st.integers(0, 10**6)
           | st.sampled_from([0, 0.0, -0.0, 1, 1.0, 0.1]))


def _bits(box):
    return None if box is None else tuple((type(v), float(v).hex()) for v in box)


@settings(max_examples=500, deadline=None, database=None)
@given(boxes=st.lists(st.builds(BBox, COORDS, COORDS, EXTENTS, EXTENTS), max_size=6))
def test_union_bboxes_is_the_pairwise_union_fold_bit_for_bit(boxes):
    assert _bits(union_bboxes(boxes)) == _bits(pairwise_union(boxes))


def test_annotation_kind_checked():
    with pytest.raises(ValueError):
        GraphicalAnnotation("x", BBox(0, 0, 1, 1), kind="squiggle")


def test_wire_must_be_horizontal_or_vertical():
    with pytest.raises(ValueError, match="neither horizontal nor vertical"):
        GraphicalAnnotation("", BBox(0, 0, 10, 10), kind="wire")
    for bbox in (BBox(0, 0, 10, 0), BBox(0, 0, 0, 10), BBox(3, 3, 0, 0)):
        assert GraphicalAnnotation("", bbox, kind="wire").bbox == bbox
    # only wires are segments; other kinds may span an area
    GraphicalAnnotation("PSU", BBox(0, 0, 5, 2), kind="label")


def test_lists_coerced_to_tuples():
    page = Page("P1", components=[Component("U1", pins=[Pin("1")])])
    assert isinstance(page.components, tuple)
    assert isinstance(page.components[0].pins, tuple)


def _scanned_component(page: Page, designator: str):
    """``Page.component`` as a scan of the components: the reference."""
    for c in page.components:
        if c.designator == designator:
            return c
    return None


_DESIGNATORS = st.sampled_from(["U1", "U2", "R1", "C10", "", "u1", "U1 "])


@settings(max_examples=200, deadline=None)
@given(designators=st.lists(_DESIGNATORS, unique=True),
       replacement=st.lists(_DESIGNATORS, unique=True),
       asked=st.lists(_DESIGNATORS, min_size=1))
def test_component_lookup_matches_a_scan(designators, replacement, asked):
    page = Page("P1", components=[Component(d, mpn="M") for d in designators])
    rebuilt = page._replace(components=[Component(d, ipn="I") for d in replacement])
    for p in (page, rebuilt, rebuilt._replace(id="P2")):
        for designator in asked:  # absent designators included
            assert p.component(designator) is _scanned_component(p, designator)
    assert page == Page("P1", components=page.components)
    assert repr(page) == repr(Page("P1", components=page.components))
    assert hash(page) == hash(Page("P1", components=page.components))
    assert "_by_designator" not in repr(page)

"""Wire-trace connectivity inference, checked by hand and against an oracle."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from schemreview.errors import InferenceFailed
from schemreview.model import BBox, Component, GraphicalAnnotation, Net, Pin
from schemreview.unionfind import UnionFind
from schemreview.wiretrace import trace_nets


# --- oracle: the all-pairs tracer, which tests every point against every
# segment (O(S^2)); the indexed tracer must agree with it exactly ---------

_GRID = 1000


def _key(x, y):
    return (round(x * _GRID), round(y * _GRID))


@dataclass
class _Segment:
    p1: tuple
    p2: tuple

    def contains(self, pt) -> bool:
        (x1, y1), (x2, y2) = self.p1, self.p2
        px, py = pt
        if not (min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)):
            return False
        return (x2 - x1) * (py - y1) == (y2 - y1) * (px - x1)


def oracle_trace_nets(page_id, components, annotations):
    segments, junctions, labels = [], [], []
    for ann in annotations:
        b = ann.bbox
        if ann.kind == "wire":
            segments.append(_Segment(_key(b.x, b.y), _key(b.x2, b.y2)))
        elif ann.kind == "junction":
            junctions.append(_key(b.x, b.y))
        elif ann.kind == "label":
            labels.append((ann.text, _key(b.x, b.y)))

    pins = []
    for comp in components:
        for pin in comp.pins:
            if pin.x is not None and pin.y is not None:
                pins.append((comp.designator, pin.designator, _key(pin.x, pin.y)))

    if not segments:
        return []

    uf = UnionFind(len(segments))
    for i, seg in enumerate(segments):
        for pt in (seg.p1, seg.p2):
            for j, other in enumerate(segments):
                if i != j and other.contains(pt):
                    uf.union(i, j)
    for pt in junctions:
        touching = [i for i, s in enumerate(segments) if s.contains(pt)]
        for i in touching[1:]:
            uf.union(touching[0], i)

    cluster_names = {}
    for name, pt in labels:
        for i, seg in enumerate(segments):
            if seg.contains(pt):
                cluster_names.setdefault(uf.find(i), set()).add(name)
                break

    cluster_nodes = {}
    pin_points = set()
    for comp_des, pin_des, pt in pins:
        for i, seg in enumerate(segments):
            if seg.contains(pt):
                cluster_nodes.setdefault(uf.find(i), set()).add((comp_des, pin_des))
                pin_points.add(pt)
                break

    label_points = {pt for _, pt in labels}
    junction_points = set(junctions)
    dangling = []
    seen_pts = set()
    for i, seg in enumerate(segments):
        for pt in (seg.p1, seg.p2):
            if pt in seen_pts:
                continue
            seen_pts.add(pt)
            if pt in pin_points or pt in label_points or pt in junction_points:
                continue
            if any(j != i and other.contains(pt) for j, other in enumerate(segments)):
                continue
            dangling.append((pt[0] / _GRID, pt[1] / _GRID))
    if dangling:
        dangling.sort()
        raise InferenceFailed(page_id, dangling)

    cluster_min = {}
    for i, seg in enumerate(segments):
        root = uf.find(i)
        low = min(seg.p1, seg.p2)
        if root not in cluster_min or low < cluster_min[root]:
            cluster_min[root] = low

    nets = []
    counter = 0
    for root in sorted(cluster_min, key=lambda r: cluster_min[r]):
        nodes = cluster_nodes.get(root, set())
        if not nodes:
            continue
        names = cluster_names.get(root)
        if names:
            name = min(names)
        else:
            counter += 1
            name = f"N${counter}"
        nets.append(Net(name, tuple(sorted(nodes))))
    return nets


# --- builders -------------------------------------------------------------

def wire(x1, y1, x2, y2):
    return GraphicalAnnotation("", BBox(min(x1, x2), min(y1, y2),
                                        abs(x2 - x1), abs(y2 - y1)), kind="wire")


def junction(x, y):
    return GraphicalAnnotation("", BBox(x, y, 0, 0), kind="junction")


def label(name, x, y):
    return GraphicalAnnotation(name, BBox(x, y, 0, 0), kind="label")


def parts(*pins):
    """One single-pin component per (designator, x, y)."""
    return tuple(Component(des, pins=(Pin("1", x=x, y=y),)) for des, x, y in pins)


def outcome(trace, components, annotations):
    try:
        return trace("P1", components, annotations)
    except InferenceFailed as exc:
        return ("dangling", exc.points, str(exc))


# --- hand-checked examples ------------------------------------------------

def test_t_joint_joins_three_pins():
    comps = parts(("R1", 0, 0), ("R2", 20, 0), ("R3", 10, 10))
    anns = (wire(0, 0, 20, 0), wire(10, 0, 10, 10))
    assert trace_nets("P1", comps, anns) == [
        Net("N$1", (("R1", "1"), ("R2", "1"), ("R3", "1")))]


def test_crossing_joins_only_with_a_junction():
    comps = parts(("R1", 0, 5), ("R2", 10, 5), ("R3", 5, 0), ("R4", 5, 10))
    anns = (wire(5, 0, 5, 10), wire(0, 5, 10, 5))
    # two nets, numbered by minimal endpoint: (0, 5) before (5, 0)
    assert trace_nets("P1", comps, anns) == [
        Net("N$1", (("R1", "1"), ("R2", "1"))),
        Net("N$2", (("R3", "1"), ("R4", "1")))]
    assert trace_nets("P1", comps, anns + (junction(5, 5),)) == [
        Net("N$1", (("R1", "1"), ("R2", "1"), ("R3", "1"), ("R4", "1")))]


def test_labels_and_pins_attach_anywhere_on_a_wire():
    comps = parts(("R1", 0, 0), ("R2", 10, 0), ("R3", 4, 0), ("R4", 4, 1))
    anns = (wire(0, 0, 10, 0), label("SIG", 7, 0), label("ABC", 3, 0),
            label("OFF", 3, 3))
    # R4 and label OFF sit off every wire and attach nowhere; of two
    # labels on one net the least name wins
    assert trace_nets("P1", comps, anns) == [
        Net("ABC", (("R1", "1"), ("R2", "1"), ("R3", "1")))]


def test_pin_at_a_crossing_attaches_to_the_first_wire_only():
    comps = parts(("R1", 0, 5), ("R2", 10, 5), ("R3", 5, 0), ("R4", 5, 10),
                  ("U1", 5, 5))
    anns = (wire(5, 0, 5, 10), wire(0, 5, 10, 5))
    assert trace_nets("P1", comps, anns) == [
        Net("N$1", (("R1", "1"), ("R2", "1"))),
        Net("N$2", (("R3", "1"), ("R4", "1"), ("U1", "1")))]


def test_label_at_a_crossing_names_the_first_wire_only():
    comps = parts(("R1", 0, 5), ("R2", 10, 5), ("R3", 5, 0), ("R4", 5, 10))
    anns = (wire(0, 5, 10, 5), wire(5, 0, 5, 10), label("X", 5, 5))
    assert trace_nets("P1", comps, anns) == [
        Net("X", (("R1", "1"), ("R2", "1"))),
        Net("N$1", (("R3", "1"), ("R4", "1")))]


def test_dangling_endpoints_are_reported_sorted():
    comps = parts(("R1", 0, 0))
    anns = (wire(0, 0, 10, 0), wire(10, 5, 10, 10), label("X", 10, 10))
    with pytest.raises(InferenceFailed) as exc:
        trace_nets("P1", comps, anns)
    assert exc.value.points == [(10.0, 0.0), (10.0, 5.0)]


def test_zero_length_and_duplicate_wires():
    # a zero-length wire on a pin is a one-node net; a duplicated wire
    # covers its own far endpoint, so that endpoint does not dangle
    comps = parts(("R1", 0, 0), ("R2", 0, 20))
    anns = (wire(0, 0, 0, 0), wire(0, 20, 10, 20), wire(0, 20, 10, 20))
    assert trace_nets("P1", comps, anns) == [
        Net("N$1", (("R1", "1"),)), Net("N$2", (("R2", "1"),))]
    with pytest.raises(InferenceFailed) as exc:
        trace_nets("P1", (), (wire(3, 3, 3, 3),))
    assert exc.value.points == [(3.0, 3.0)]


def test_clusters_without_pins_are_dropped():
    assert trace_nets("P1", (), (wire(0, 0, 10, 0), label("A", 0, 0),
                                 label("A", 10, 0))) == []
    assert trace_nets("P1", parts(("R1", 0, 0)), ()) == []


def test_coordinates_snap_to_a_thousandth():
    comps = parts(("R1", 0.0001, 0), ("R2", 2.54 * 3, 0))
    assert trace_nets("P1", comps, (wire(0, 0, 7.62, 0),)) == [
        Net("N$1", (("R1", "1"), ("R2", "1")))]


# --- property: the indexed tracer equals the oracle -----------------------

COORD = st.integers(0, 6)
NAMES = st.sampled_from(["A", "B", "C"])


@st.composite
def grids(draw):
    """Random orthogonal wires on a small grid, so that T-joints,
    crossings, zero-length and duplicate wires are common, with pins,
    labels and junctions on endpoints, mid-segment, on crossings or off
    every wire."""
    unit = draw(st.sampled_from([1, 0.5, 2.54]))
    spans = draw(st.lists(st.tuples(COORD, COORD, st.integers(0, 4), st.booleans()),
                          max_size=8))
    crossings = draw(st.lists(st.tuples(COORD, COORD), max_size=3))
    for x, y in crossings:
        # a horizontal and a vertical wire crossing mid-segment at (x, y)
        spans += [(x - 1, y, 2, True), (x, y - 1, 2, False)]
    spans = draw(st.permutations(spans))
    if not spans:
        spans = [draw(st.tuples(COORD, COORD, st.integers(0, 4), st.booleans()))]
    spans += draw(st.lists(st.sampled_from(spans), max_size=2))
    ends, on_wires, anns = [], [], []
    for x, y, length, horizontal in spans:
        x2, y2 = (x + length, y) if horizontal else (x, y + length)
        ends += [(x, y), (x2, y2)]
        on_wires += [(x + d, y) if horizontal else (x, y + d) for d in range(length + 1)]
        anns.append(wire(x * unit, y * unit, x2 * unit, y2 * unit))
    point = st.one_of(st.sampled_from(ends), st.sampled_from(on_wires),
                      st.sampled_from(crossings or ends), st.tuples(COORD, COORD))
    pin_points = draw(st.lists(point, max_size=8))
    if draw(st.booleans()):
        # cap every endpoint with a pin, so that no endpoint dangles
        pin_points += ends
    anns += [junction(x * unit, y * unit) for x, y in draw(st.lists(point, max_size=3))]
    anns += [label(name, x * unit, y * unit)
             for name, (x, y) in draw(st.lists(st.tuples(NAMES, point), max_size=4))]
    comps = [Component(f"R{i}", pins=(Pin("1", x=x * unit, y=y * unit),
                                      Pin("2", x=(x + 1) * unit, y=None)))
             for i, (x, y) in enumerate(pin_points)]
    return tuple(comps), tuple(draw(st.permutations(anns)))


@settings(max_examples=300, deadline=None)
@given(grids())
def test_indexed_tracer_matches_the_all_pairs_oracle(grid):
    comps, anns = grid
    assert outcome(trace_nets, comps, anns) == outcome(oracle_trace_nets, comps, anns)

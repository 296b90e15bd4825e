"""Connectivity inference from wire/junction/label geometry.

Wires are unioned when they share an endpoint, or when a junction lies on
both. Labels name the cluster their anchor point touches; pins whose
coordinates lie on a cluster's segments become that net's nodes. Clusters
that attach no pins are treated as decoration and dropped. Unnamed
clusters get fallback names ``N$<counter>`` in deterministic scan order
(ascending minimal endpoint).

Coordinates are snapped to a 1/1000-unit grid before comparison, so
inputs only need to agree to three decimals.

Wires are horizontal or vertical (``GraphicalAnnotation`` rejects any
other), so a point lies on a wire exactly when it sits on the wire's row
or column within its span. The tracer indexes the points it asks about
(wire endpoints, junctions, label anchors, pin coordinates) by row and
by column, bisects each wire's span on its own row or column, and
derives unions, label and pin attachment and dangling endpoints from the
resulting point -> wires incidence map. With S wires and P points that
costs O((S + P) log P + I), where I is the number of (point, wire)
incidences found, instead of testing every point against every wire.

Tracing is two steps. ``wire_geometry`` depends only on the annotations
and the set of pin points: the incidence map, the clusters, their label
names, the dangling-endpoint check and the clusters' scan order.
``attach_pins`` then makes each cluster that pins lie on a net. A design
review's base page that took a head page's annotation records and has
the same pin points (a pin swap, a part change) attaches its own pins to
the head page's geometry, which every traced page keeps (``infer_nets``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import InferenceFailed
from .model import GraphicalAnnotation, Component, Net, Page
from .unionfind import UnionFind

_GRID = 1000

Point = tuple[int, int]


def _key(x: float, y: float) -> Point:
    return (round(x * _GRID), round(y * _GRID))


def _incidence(segments: list[tuple[Point, Point]],
               points: set[Point]) -> dict[Point, list[int]]:
    """Point -> ascending indices of the segments it lies on, for every
    point of ``points`` that lies on at least one. Segment endpoints must
    be among ``points``."""
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for x, y in points:
        rows.setdefault(y, []).append(x)
        cols.setdefault(x, []).append(y)
    for line in (*rows.values(), *cols.values()):
        line.sort()
    on: dict[Point, list[int]] = {}
    for i, ((x1, y1), (x2, y2)) in enumerate(segments):
        if y1 == y2:  # horizontal, or a single point
            xs = rows[y1]
            for x in xs[bisect_left(xs, x1):bisect_right(xs, x2)]:
                on.setdefault((x, y1), []).append(i)
        else:
            ys = cols[x1]
            for y in ys[bisect_left(ys, y1):bisect_right(ys, y2)]:
                on.setdefault((x1, y), []).append(i)
    return on


class Wiring(NamedTuple):
    """A page's wire geometry for one set of pin points: the cluster (its
    root segment) that each pin point lies on, the name of each named
    cluster, and every cluster in scan order."""
    pin_points: set[Point]
    cluster_of: dict[Point, int]
    names: dict[int, str]
    order: list[int]


def _pins(components: tuple[Component, ...]) -> list[tuple[str, str, Point]]:
    return [(comp.designator, pin_designator, _key(x, y))
            for comp in components for pin_designator, _name, x, y in comp.pins
            if x is not None and y is not None]


def wire_geometry(page_id: str, annotations: tuple[GraphicalAnnotation, ...],
                  pin_points: set[Point]) -> Wiring:
    """The wiring of ``annotations`` around ``pin_points``; raises
    InferenceFailed on dangling endpoints."""
    segments: list[tuple[Point, Point]] = []
    junctions: set[Point] = set()
    labels: list[tuple[str, Point]] = []
    for text, (x, y, w, h), kind in annotations:
        if kind == "wire":
            segments.append((_key(x, y), _key(x + w, y + h)))
        elif kind == "junction":
            junctions.add(_key(x, y))
        elif kind == "label":
            labels.append((text, _key(x, y)))

    if not segments:
        return Wiring(pin_points, {}, {}, [])

    endpoints = {pt for seg in segments for pt in seg}
    label_points = {pt for _, pt in labels}
    on = _incidence(segments, endpoints | junctions | label_points | pin_points)

    # Wires connect where an endpoint of one lies anywhere on another
    # (shared endpoints and T-joints alike) and wherever a junction dot
    # touches both. Mid-segment crossings without a junction stay apart.
    joins = endpoints | junctions
    uf = UnionFind(len(segments))
    for pt, listed in on.items():
        if pt in joins:
            for i in listed[1:]:
                uf.union(listed[0], i)

    # labels and pins attach to the first segment they lie on
    cluster_names: dict[int, set[str]] = {}
    for name, pt in labels:
        if pt in on:
            cluster_names.setdefault(uf.find(on[pt][0]), set()).add(name)
    cluster_of = {pt: uf.find(on[pt][0]) for pt in pin_points if pt in on}

    terminals = pin_points | label_points | junctions
    dangling = sorted((x / _GRID, y / _GRID) for x, y in endpoints
                      if (x, y) not in terminals and len(on[(x, y)]) < 2)
    if dangling:
        raise InferenceFailed(page_id, dangling)

    # deterministic scan order: clusters sorted by their minimal endpoint
    cluster_min: dict[int, Point] = {}
    for i, seg in enumerate(segments):
        root = uf.find(i)
        low = min(seg)
        if root not in cluster_min or low < cluster_min[root]:
            cluster_min[root] = low
    return Wiring(pin_points, cluster_of,
                  {root: min(names) for root, names in cluster_names.items()},
                  sorted(cluster_min, key=lambda r: cluster_min[r]))


def attach_pins(wiring: Wiring, pins: list[tuple[str, str, Point]]) -> list[Net]:
    """The nets of the clusters that ``pins`` (designator, pin, point)
    attach to, in scan order; unnamed ones are ``N$<counter>``."""
    cluster_nodes: dict[int, set[tuple[str, str]]] = {}
    for comp_des, pin_des, pt in pins:
        root = wiring.cluster_of.get(pt)
        if root is not None:
            cluster_nodes.setdefault(root, set()).add((comp_des, pin_des))

    nets: list[Net] = []
    counter = 0
    for root in wiring.order:
        nodes = cluster_nodes.get(root)
        if not nodes:
            continue
        name = wiring.names.get(root)
        if name is None:
            counter += 1
            name = f"N${counter}"
        nets.append(Net(name, tuple(sorted(nodes))))
    return nets


def trace_nets(page_id: str, components: tuple[Component, ...],
               annotations: tuple[GraphicalAnnotation, ...]) -> list[Net]:
    """Infer nets for one page; raises InferenceFailed on dangling endpoints."""
    pins = _pins(components)
    return attach_pins(wire_geometry(page_id, annotations, {pt for *_, pt in pins}), pins)


def infer_nets(page: Page) -> list[Net]:
    """``trace_nets`` for a page, which keeps the wiring it traces as
    ``_wiring``. A page whose annotations are the records of its
    ``_annotations_of`` page (a design review's base page, ``ingest``),
    and whose pin points are that page's, attaches its pins to that page's
    wiring."""
    pins = _pins(page.components)
    points = {pt for *_, pt in pins}
    like = page.__dict__.get("_annotations_of")
    wiring = like.__dict__.get("_wiring") if like is not None \
        and like.annotations is page.annotations else None
    if wiring is None or wiring.pin_points != points:
        wiring = page.__dict__["_wiring"] = wire_geometry(page.id, page.annotations, points)
    return attach_pins(wiring, pins)

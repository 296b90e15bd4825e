"""Connectivity inference from wire/junction/label geometry.

Wires are unioned when they share an endpoint, or when a junction lies on
both. Labels name the cluster their anchor point touches; pins whose
coordinates lie on a cluster's segments become that net's nodes. Clusters
that attach no pins are treated as decoration and dropped. Unnamed
clusters get fallback names ``N$<counter>`` in deterministic scan order
(ascending minimal endpoint).

Coordinates are snapped to a 1/1000-unit grid before comparison, so
inputs only need to agree to three decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InferenceFailed
from .model import GraphicalAnnotation, Component, Net, Page
from .unionfind import UnionFind

_GRID = 1000


def _key(x: float, y: float) -> tuple[int, int]:
    return (round(x * _GRID), round(y * _GRID))


@dataclass
class _Segment:
    p1: tuple[int, int]
    p2: tuple[int, int]

    def contains(self, pt: tuple[int, int]) -> bool:
        (x1, y1), (x2, y2) = self.p1, self.p2
        px, py = pt
        if not (min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)):
            return False
        # collinearity via cross product; exact on integer grid keys
        return (x2 - x1) * (py - y1) == (y2 - y1) * (px - x1)


def trace_nets(page_id: str, components: tuple[Component, ...],
               annotations: tuple[GraphicalAnnotation, ...]) -> list[Net]:
    """Infer nets for one page; raises InferenceFailed on dangling endpoints."""
    segments: list[_Segment] = []
    junctions: list[tuple[int, int]] = []
    labels: list[tuple[str, tuple[int, int]]] = []
    for ann in annotations:
        b = ann.bbox
        if ann.kind == "wire":
            segments.append(_Segment(_key(b.x, b.y), _key(b.x2, b.y2)))
        elif ann.kind == "junction":
            junctions.append(_key(b.x, b.y))
        elif ann.kind == "label":
            labels.append((ann.text, _key(b.x, b.y)))

    pins: list[tuple[str, str, tuple[int, int]]] = []
    for comp in components:
        for pin in comp.pins:
            if pin.x is not None and pin.y is not None:
                pins.append((comp.designator, pin.designator, _key(pin.x, pin.y)))

    if not segments:
        return []

    # Wires connect where an endpoint of one lies anywhere on another
    # (shared endpoints and T-joints alike) and wherever a junction dot
    # touches both. Mid-segment crossings without a junction stay apart.
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

    cluster_names: dict[int, set[str]] = {}
    for name, pt in labels:
        for i, seg in enumerate(segments):
            if seg.contains(pt):
                cluster_names.setdefault(uf.find(i), set()).add(name)
                break

    cluster_nodes: dict[int, set[tuple[str, str]]] = {}
    pin_points = set()
    for comp_des, pin_des, pt in pins:
        for i, seg in enumerate(segments):
            if seg.contains(pt):
                cluster_nodes.setdefault(uf.find(i), set()).add((comp_des, pin_des))
                pin_points.add(pt)
                break

    label_points = {pt for _, pt in labels}
    junction_points = set(junctions)
    dangling: list[tuple[float, float]] = []
    seen_pts: set[tuple[int, int]] = set()
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

    # deterministic scan order: clusters sorted by their minimal endpoint
    cluster_min: dict[int, tuple[int, int]] = {}
    for i, seg in enumerate(segments):
        root = uf.find(i)
        low = min(seg.p1, seg.p2)
        if root not in cluster_min or low < cluster_min[root]:
            cluster_min[root] = low

    nets: list[Net] = []
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


def infer_nets(page: Page) -> list[Net]:
    return trace_nets(page.id, page.components, page.annotations)

"""Connectivity model of a schematic: pages, components, pins, nets.

Values are immutable; operations elsewhere in the package build new
instances instead of mutating. Construction enforces the structural
invariants (unique identifiers, canonical net-node order) and raises
ValueError on violation.
"""

from __future__ import annotations

import enum

from .records import checked


class SourceFormat(enum.Enum):
    STRUCTURED_PAGES = "structured-pages"
    KICAD_SUBSET = "kicad-subset"
    DE_HDL = "de-hdl"


class AugmentationStrategy(enum.Enum):
    EMBEDDED_NETS = "embedded-nets"
    PSTXNET_SIDECAR = "pstxnet-sidecar"
    WIRE_TRACE_INFERENCE = "wire-trace-inference"


class BBox(checked("BBox", "x y w h")):
    """Axis-aligned bounding box in page coordinate units."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, w: float, h: float):
        self = tuple.__new__(cls, (x, y, w, h))
        if w < 0 or h < 0:
            raise ValueError(f"bbox with negative extent: {self}")
        return self

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def clamp_to(self, outer: "BBox") -> "BBox":
        x = min(max(self.x, outer.x), outer.x2)
        y = min(max(self.y, outer.y), outer.y2)
        x2 = min(max(self.x2, outer.x), outer.x2)
        y2 = min(max(self.y2, outer.y), outer.y2)
        return BBox(x, y, x2 - x, y2 - y)


def union_bboxes(boxes: list[BBox]) -> BBox | None:
    """The smallest box holding every box of ``boxes``, None for none. The
    boxes are folded in order on plain numbers, each step the pairwise
    union: the larger far edge (``x + w``) less the smaller corner. Each
    comparison keeps the value so far unless the new one is strictly
    beyond it, as ``min(so_far, new)`` and ``max(so_far, new)`` do, so
    ties such as ``0`` and ``-0.0`` resolve alike. One ``BBox`` is built
    at the end."""
    if not boxes:
        return None
    x, y, w, h = boxes[0]
    for bx, by, bw, bh in boxes[1:]:
        x2, far = x + w, bx + bw
        if far > x2:
            x2 = far
        y2, far = y + h, by + bh
        if far > y2:
            y2 = far
        if bx < x:
            x = bx
        if by < y:
            y = by
        w, h = x2 - x, y2 - y
    return BBox(x, y, w, h)


class GraphicalAnnotation(checked("GraphicalAnnotation", "text bbox kind")):
    """Page graphics relevant to connectivity inference.

    kind "label" carries a net name in ``text``; "wire" is a horizontal or
    vertical segment whose endpoints are the bbox corners (x, y) and
    (x2, y2), so its bbox has zero width or zero height (ValueError
    otherwise); "junction" is a point (zero-extent bbox); "text" is free
    annotation.
    """

    __slots__ = ()
    _KINDS = ("label", "wire", "junction", "text")

    def __new__(cls, text: str, bbox: BBox, kind: str = "label"):
        if kind not in cls._KINDS:
            raise ValueError(f"unknown annotation kind {kind!r}")
        if kind == "wire" and bbox.w > 0 and bbox.h > 0:
            raise ValueError(f"wire {bbox} is neither horizontal nor vertical")
        return tuple.__new__(cls, (text, bbox, kind))


class Pin(checked("Pin", "designator name x y")):
    """A physical terminal of a component.

    ``x``/``y`` are optional page coordinates, used only by wire-trace
    inference; connectivity-bearing formats omit them.
    """

    __slots__ = ()

    def __new__(cls, designator: str, name: str | None = None,
                x: float | None = None, y: float | None = None):
        if not designator:
            raise ValueError("pin designator must be non-empty")
        return tuple.__new__(cls, (designator, name, x, y))


class Component(checked("Component", "designator mpn ipn datasheet_url pins bbox")):
    """A placed part: designator, part numbers, pins and bounding box."""

    __slots__ = ()

    def __new__(cls, designator: str, mpn: str | None = None, ipn: str | None = None,
                datasheet_url: str | None = None, pins: tuple[Pin, ...] = (),
                bbox: BBox | None = None):
        pins = tuple(pins)
        if not (designator or mpn or ipn):
            raise ValueError("component needs at least one of designator/mpn/ipn")
        seen = set()
        for p in pins:
            if p.designator in seen:
                raise ValueError(f"component {designator}: duplicate pin {p.designator!r}")
            seen.add(p.designator)
        return tuple.__new__(cls, (designator, mpn, ipn, datasheet_url, pins, bbox))

    def pin(self, designator: str) -> Pin | None:
        for p in self.pins:
            if p.designator == designator:
                return p
        return None


# A net node is (component designator, pin designator).
NetNode = tuple[str, str]


class Net(checked("Net", "name nodes")):
    """A named electrical connection; nodes kept in canonical sorted order."""

    __slots__ = ()

    def __new__(cls, name: str, nodes: tuple[NetNode, ...] = ()):
        nodes = tuple(sorted({(str(c), str(p)) for c, p in nodes}))
        if not name:
            raise ValueError("net name must be non-empty")
        return tuple.__new__(cls, (name, nodes))


class Page(checked("Page", "id components nets annotations strategy")):
    """One schematic page: components, nets, annotations, how its nets were
    derived. What is derived from the fields (the designator index, rendered
    blocks) is kept in the instance ``__dict__``."""

    def __new__(cls, id: str, components: tuple[Component, ...] = (),
                nets: tuple[Net, ...] = (), annotations: tuple[GraphicalAnnotation, ...] = (),
                strategy: AugmentationStrategy | None = None):
        components = tuple(components)
        self = tuple.__new__(cls, (id, components, tuple(nets), tuple(annotations), strategy))
        by_designator: dict[str, Component] = {}
        for c in components:
            if c.designator in by_designator:
                raise ValueError(f"page {id}: duplicate designator {c.designator!r}")
            by_designator[c.designator] = c
        self._by_designator = by_designator
        return self

    def component(self, designator: str) -> Component | None:
        return self._by_designator.get(designator)


class Schematic(checked("Schematic", "format pages sidecars")):
    """Pages in document order, with unique ids, and the sidecar texts
    that came with them."""

    __slots__ = ()

    def __new__(cls, format: SourceFormat, pages: tuple[Page, ...] = (),
                sidecars: dict[str, str] | None = None):
        pages = tuple(pages)
        seen = set()
        for p in pages:
            if p.id in seen:
                raise ValueError(f"duplicate page id {p.id!r}")
            seen.add(p.id)
        return tuple.__new__(cls, (format, pages, {} if sidecars is None else sidecars))

    def page(self, page_id: str) -> Page | None:
        for p in self.pages:
            if p.id == page_id:
                return p
        return None


def resolve_node(page: Page, node: NetNode) -> bool:
    """True iff the node references an existing (component, pin) on the page."""
    comp = page.component(node[0])
    return comp is not None and comp.pin(node[1]) is not None

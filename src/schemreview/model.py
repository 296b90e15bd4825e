"""Connectivity model of a schematic: pages, components, pins, nets.

Values are immutable; operations elsewhere in the package build new
instances instead of mutating. Construction enforces the structural
invariants (unique identifiers, canonical net-node order) and raises
ValueError on violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class SourceFormat(enum.Enum):
    STRUCTURED_PAGES = "structured-pages"
    KICAD_SUBSET = "kicad-subset"
    DE_HDL = "de-hdl"


class AugmentationStrategy(enum.Enum):
    EMBEDDED_NETS = "embedded-nets"
    PSTXNET_SIDECAR = "pstxnet-sidecar"
    WIRE_TRACE_INFERENCE = "wire-trace-inference"


@dataclass(frozen=True)
class BBox:
    """Axis-aligned bounding box in page coordinate units."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"bbox with negative extent: {self}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def union(self, other: "BBox") -> "BBox":
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        return BBox(x, y, max(self.x2, other.x2) - x, max(self.y2, other.y2) - y)

    def clamp_to(self, outer: "BBox") -> "BBox":
        x = min(max(self.x, outer.x), outer.x2)
        y = min(max(self.y, outer.y), outer.y2)
        x2 = min(max(self.x2, outer.x), outer.x2)
        y2 = min(max(self.y2, outer.y), outer.y2)
        return BBox(x, y, x2 - x, y2 - y)


def union_bboxes(boxes: list[BBox]) -> BBox | None:
    out: BBox | None = None
    for b in boxes:
        out = b if out is None else out.union(b)
    return out


@dataclass(frozen=True)
class GraphicalAnnotation:
    """Page graphics relevant to connectivity inference.

    kind "label" carries a net name in ``text``; "wire" is a horizontal or
    vertical segment whose endpoints are the bbox corners (x, y) and
    (x2, y2), so its bbox has zero width or zero height (ValueError
    otherwise); "junction" is a point (zero-extent bbox); "text" is free
    annotation.
    """

    text: str
    bbox: BBox
    kind: str = "label"

    _KINDS = ("label", "wire", "junction", "text")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown annotation kind {self.kind!r}")
        if self.kind == "wire" and self.bbox.w > 0 and self.bbox.h > 0:
            raise ValueError(f"wire {self.bbox} is neither horizontal nor vertical")


@dataclass(frozen=True)
class Pin:
    """A physical terminal of a component.

    ``x``/``y`` are optional page coordinates, used only by wire-trace
    inference; connectivity-bearing formats omit them.
    """

    designator: str
    name: str | None = None
    x: float | None = None
    y: float | None = None

    def __post_init__(self):
        if not self.designator:
            raise ValueError("pin designator must be non-empty")


@dataclass(frozen=True)
class Component:
    """A placed part: designator, part numbers, pins and bounding box."""
    designator: str
    mpn: str | None = None
    ipn: str | None = None
    datasheet_url: str | None = None
    pins: tuple[Pin, ...] = ()
    bbox: BBox | None = None

    def __post_init__(self):
        object.__setattr__(self, "pins", tuple(self.pins))
        if not (self.designator or self.mpn or self.ipn):
            raise ValueError("component needs at least one of designator/mpn/ipn")
        seen = set()
        for p in self.pins:
            if p.designator in seen:
                raise ValueError(
                    f"component {self.designator}: duplicate pin {p.designator!r}"
                )
            seen.add(p.designator)

    def pin(self, designator: str) -> Pin | None:
        for p in self.pins:
            if p.designator == designator:
                return p
        return None


# A net node is (component designator, pin designator).
NetNode = tuple[str, str]


@dataclass(frozen=True)
class Net:
    """A named electrical connection; nodes kept in canonical sorted order."""

    name: str
    nodes: tuple[NetNode, ...] = ()

    def __post_init__(self):
        canon = tuple(sorted({(str(c), str(p)) for c, p in self.nodes}))
        object.__setattr__(self, "nodes", canon)
        if not self.name:
            raise ValueError("net name must be non-empty")


@dataclass(frozen=True)
class Page:
    """One schematic page: components, nets, annotations, how its nets were derived."""
    id: str
    components: tuple[Component, ...] = ()
    nets: tuple[Net, ...] = ()
    annotations: tuple[GraphicalAnnotation, ...] = ()
    strategy: AugmentationStrategy | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "nets", tuple(self.nets))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        by_designator: dict[str, Component] = {}
        for c in self.components:
            if c.designator in by_designator:
                raise ValueError(f"page {self.id}: duplicate designator {c.designator!r}")
            by_designator[c.designator] = c
        # derived from components, so outside the fields (eq, hash, repr)
        object.__setattr__(self, "_by_designator", by_designator)

    def component(self, designator: str) -> Component | None:
        return self._by_designator.get(designator)


@dataclass(frozen=True)
class Schematic:
    """``source`` is the decoded structured document the schematic was
    ingested from (None for KiCad text or a schematic built in code). It
    takes no part in equality; ``ingest`` reads a second document against
    it, reusing this schematic's pages for equal pages of that document."""

    format: SourceFormat
    pages: tuple[Page, ...] = ()
    sidecars: dict[str, str] = field(default_factory=dict)
    source: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))
        seen = set()
        for p in self.pages:
            if p.id in seen:
                raise ValueError(f"duplicate page id {p.id!r}")
            seen.add(p.id)

    def page(self, page_id: str) -> Page | None:
        for p in self.pages:
            if p.id == page_id:
                return p
        return None

    def with_pages(self, pages: list[Page]) -> "Schematic":
        return replace(self, pages=tuple(pages))


def resolve_node(page: Page, node: NetNode) -> bool:
    """True iff the node references an existing (component, pin) on the page."""
    comp = page.component(node[0])
    return comp is not None and comp.pin(node[1]) is not None

"""The tree renderer that canonical page and datasheet XML used to be
built with: an ``Elem`` tree per document, rendered with sorted, escaped
attributes. Kept unchanged as the oracle the flat emitters are tested
against (``test_flat_xml.py``)."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from schemreview.dsmodel import DatasheetSpec
from schemreview.model import BBox, Component, GraphicalAnnotation, Net, Page, Schematic
from schemreview.xmlutil import esc, fmt_num


@dataclass
class Elem:
    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Elem"] = field(default_factory=list)
    text: str | None = None

    def child(self, tag: str, attrs: dict[str, str] | None = None,
              text: str | None = None) -> "Elem":
        e = Elem(tag, attrs or {}, text=text)
        self.children.append(e)
        return e


def render(root: Elem) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _render_into(root, lines, 0)
    return "\n".join(lines) + "\n"


def _render_into(e: Elem, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    attrs = "".join(f' {k}="{esc(v)}"' for k, v in sorted(e.attrs.items()))
    if not e.children and e.text is None:
        lines.append(f"{pad}<{e.tag}{attrs}/>")
        return
    if not e.children:
        lines.append(f"{pad}<{e.tag}{attrs}>{esc(e.text or '')}</{e.tag}>")
        return
    lines.append(f"{pad}<{e.tag}{attrs}>")
    if e.text:
        lines.append(f"{pad}  {esc(e.text)}")
    for c in e.children:
        _render_into(c, lines, depth + 1)
    lines.append(f"{pad}</{e.tag}>")


# --- pages (was schemreview.canonical) ---

def tree_serialize_xml(schematic: Schematic) -> str:
    root = Elem("schematic", {"format": schematic.format.value})
    for page in schematic.pages:
        root.children.append(_page_elem(page))
    return render(root)


def tree_serialize_page_xml(page: Page, members: Iterable[str] | None = None) -> str:
    """One page as a standalone canonical document (used for hashing), or,
    given ``members``, the slice of it those designators see."""
    return render(_page_elem(page, members))


def _page_elem(page: Page, members: Iterable[str] | None = None) -> Elem:
    attrs = {"id": page.id}
    if page.strategy is not None:
        attrs["strategy"] = page.strategy.value
    e = Elem("page", attrs)
    components, nets = page.components, page.nets
    if members is not None:
        members = set(members)
        components = [c for c in components if c.designator in members]
        nets = [n for n in nets if any(comp in members for comp, _pin in n.nodes)]
    comps = e.child("components")
    for comp in sorted(components, key=lambda c: c.designator):
        comps.children.append(_component_elem(comp))
    nets_elem = e.child("nets")
    for net in sorted(nets, key=lambda n: n.name):
        nets_elem.children.append(_net_elem(net))
    if page.annotations and members is None:
        anns = e.child("annotations")
        for ann in sorted(page.annotations, key=_annotation_key):
            anns.children.append(_annotation_elem(ann))
    return e


def _component_elem(comp: Component) -> Elem:
    attrs = {"designator": comp.designator}
    if comp.mpn:
        attrs["mpn"] = comp.mpn
    if comp.ipn:
        attrs["ipn"] = comp.ipn
    if comp.datasheet_url:
        attrs["datasheet_url"] = comp.datasheet_url
    e = Elem("component", attrs)
    if comp.bbox:
        e.children.append(_bbox_elem(comp.bbox))
    for pin in sorted(comp.pins, key=lambda p: p.designator):
        pin_attrs = {"designator": pin.designator}
        if pin.name:
            pin_attrs["name"] = pin.name
        if pin.x is not None:
            pin_attrs["x"] = fmt_num(pin.x)
        if pin.y is not None:
            pin_attrs["y"] = fmt_num(pin.y)
        e.child("pin", pin_attrs)
    return e


def _net_elem(net: Net) -> Elem:
    e = Elem("net", {"name": net.name})
    for comp, pin in net.nodes:
        e.child("node", {"component": comp, "pin": pin})
    return e


def _bbox_elem(bbox: BBox) -> Elem:
    return Elem("bbox", {
        "x": fmt_num(bbox.x), "y": fmt_num(bbox.y),
        "w": fmt_num(bbox.w), "h": fmt_num(bbox.h),
    })


def _annotation_key(ann: GraphicalAnnotation):
    return (ann.kind, ann.text, ann.bbox.x, ann.bbox.y, ann.bbox.w, ann.bbox.h)


def _annotation_elem(ann: GraphicalAnnotation) -> Elem:
    e = Elem("annotation", {"kind": ann.kind, "text": ann.text})
    e.children.append(_bbox_elem(ann.bbox))
    return e


# --- datasheet specs (was DatasheetSpec.to_xml) ---

def tree_spec_xml(spec: DatasheetSpec) -> str:
    attrs = {"source_url": spec.source_url}
    if spec.part.mpn:
        attrs["mpn"] = spec.part.mpn
    if spec.part.ipn:
        attrs["ipn"] = spec.part.ipn
    root = Elem("datasheet", attrs)
    pins = root.child("pins")
    for pin in sorted(spec.pins, key=lambda p: p.designator):
        e = pins.child("pin", {"designator": pin.designator, "function": pin.function})
        for key, value in sorted(pin.metadata):
            e.child("meta", {"key": key, "value": value})
    ratings = root.child("abs_max_ratings")
    for r in spec.abs_max_ratings:
        ratings.child("rating", {"limit": r.limit, "parameter": r.parameter, "unit": r.unit})
    ranges = root.child("rec_operating")
    for r in spec.rec_operating:
        attrs = {"parameter": r.parameter, "unit": r.unit}
        for bound in ("min", "typ", "max"):
            if getattr(r, bound) is not None:
                attrs[bound] = getattr(r, bound)
        ranges.child("range", attrs)
    blocks = root.child("blocks")
    for text in spec.blocks:
        blocks.child("block", text=text)
    circuits = root.child("app_circuits")
    for text in spec.app_circuits:
        circuits.child("circuit", text=text)
    return render(root)

"""Canonical XML serialization, page hashing, and page diffing.

Serialization is total on valid schematics and byte-identical across
runs: every list is emitted in canonical order (components and pins by
designator, nets by name, nodes by (component, pin), annotations by
their full value) regardless of input order. Page order itself is
meaningful and preserved. The schema ships as ``schemas/schematic.xsd``.

A page serialized for a set of member designators is that page's slice
for one functional group: the same ``<page>`` root holding only the
member components, every net with a node on a member (all of its nodes
kept), and no annotations.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from .model import BBox, Component, GraphicalAnnotation, Net, Page, Schematic
from .xmlutil import Elem, fmt_num, render


def serialize_xml(schematic: Schematic) -> str:
    root = Elem("schematic", {"format": schematic.format.value})
    for page in schematic.pages:
        root.children.append(_page_elem(page))
    return render(root)


def serialize_page_xml(page: Page, members: Iterable[str] | None = None) -> str:
    """One page as a standalone canonical document (used for hashing), or,
    given ``members``, the slice of it those designators see."""
    return render(_page_elem(page, members))


def page_hash(page: Page) -> str:
    """Hex-encoded SHA-256 of the page's canonical XML."""
    return hashlib.sha256(serialize_page_xml(page).encode("utf-8")).hexdigest()


def diff_pages(base: Schematic, head: Schematic) -> set[str]:
    """Page ids whose canonical content differs, plus pages new in head."""
    base_hashes = {p.id: page_hash(p) for p in base.pages}
    changed = set()
    for page in head.pages:
        if base_hashes.get(page.id) != page_hash(page):
            changed.add(page.id)
    return changed


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

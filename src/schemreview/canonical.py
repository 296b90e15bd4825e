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

Each element of a page (a component with its bbox and pins, a net with
its nodes, the annotations) is rendered to text once per page object, the
first time the page is serialized or hashed, and kept on the page; its
hash, its full document and every group's slice only join those blocks.
A page diff hashes only pairs of distinct page objects, so the unchanged
pages of a design review, read once and shared by base and head, are not
rendered for the diff.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from .model import BBox, Component, GraphicalAnnotation, Net, Page, Schematic
from .xmlutil import esc, fmt_num

_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


def serialize_xml(schematic: Schematic) -> str:
    fmt = esc(schematic.format.value)
    if not schematic.pages:
        return f'{_DECLARATION}\n<schematic format="{fmt}"/>\n'
    lines = [_DECLARATION, f'<schematic format="{fmt}">']
    for page in schematic.pages:
        _join_page(_render_page(page, "  "), None, lines)
    return "\n".join(lines) + "\n</schematic>\n"


def serialize_page_xml(page: Page, members: Iterable[str] | None = None) -> str:
    """One page as a standalone canonical document (used for hashing), or,
    given ``members``, the slice of it those designators see."""
    blocks = page.__dict__.get("_canonical_blocks")
    if blocks is None:  # kept on the (immutable) page for its later documents
        blocks = _render_page(page, "")
        object.__setattr__(page, "_canonical_blocks", blocks)
    lines = [_DECLARATION]
    _join_page(blocks, members, lines)
    return "\n".join(lines) + "\n"


def page_hash(page: Page) -> str:
    """Hex-encoded SHA-256 of the page's canonical XML."""
    return hashlib.sha256(serialize_page_xml(page).encode("utf-8")).hexdigest()


def diff_pages(base: Schematic, head: Schematic) -> set[str]:
    """Page ids whose canonical content differs, plus pages new in head. A
    base page that is head's page object (a base read against its head
    reuses head's equal pages) is unchanged without being hashed."""
    base_pages = {p.id: p for p in base.pages}
    changed = set()
    for page in head.pages:
        old = base_pages.get(page.id)
        if old is not page and (old is None or page_hash(old) != page_hash(page)):
            changed.add(page.id)
    return changed


def _render_page(page: Page, pad: str) -> tuple:
    """The blocks of a page element indented by ``pad``: the pad, its open
    tag, (designator, component) and (net, net element) pairs in canonical
    order, and the annotations element ("" when there are none)."""
    open_tag = f'{pad}<page id="{esc(page.id)}"'
    if page.strategy is not None:
        open_tag += f' strategy="{esc(page.strategy.value)}"'
    inner = pad + "    "
    components = tuple((c.designator, _component_xml(c, inner))
                       for c in sorted(page.components, key=lambda c: c.designator))
    nets = tuple((n, _net_xml(n, inner)) for n in sorted(page.nets, key=lambda n: n.name))
    annotations = "\n".join((
        f"{pad}  <annotations>",
        *(_annotation_xml(a, inner) for a in sorted(page.annotations, key=_annotation_key)),
        f"{pad}  </annotations>")) if page.annotations else ""
    return pad, open_tag + ">", components, nets, annotations


def _join_page(blocks: tuple, members: Iterable[str] | None, lines: list[str]) -> None:
    """Append the page element's lines: the whole page, or its slice for
    ``members``."""
    pad, open_tag, components, nets, annotations = blocks
    if members is not None:
        members = set(members)
        components = [(d, block) for d, block in components if d in members]
        nets = [(net, block) for net, block in nets
                if any(comp in members for comp, _pin in net.nodes)]
        annotations = ""
    lines.append(open_tag)
    for tag, children in (("components", components), ("nets", nets)):
        if children:
            lines.append(f"{pad}  <{tag}>")
            lines += [block for _, block in children]
            lines.append(f"{pad}  </{tag}>")
        else:
            lines.append(f"{pad}  <{tag}/>")
    if annotations:
        lines.append(annotations)
    lines.append(f"{pad}</page>")


def _component_xml(comp: Component, pad: str) -> str:
    head = f"{pad}<component"
    if comp.datasheet_url:
        head += f' datasheet_url="{esc(comp.datasheet_url)}"'
    head += f' designator="{esc(comp.designator)}"'
    if comp.ipn:
        head += f' ipn="{esc(comp.ipn)}"'
    if comp.mpn:
        head += f' mpn="{esc(comp.mpn)}"'
    lines = [head + ">"]
    if comp.bbox:
        lines.append(_bbox_xml(comp.bbox, pad + "  "))
    for pin in sorted(comp.pins, key=lambda p: p.designator):
        line = f'{pad}  <pin designator="{esc(pin.designator)}"'
        if pin.name:
            line += f' name="{esc(pin.name)}"'
        if pin.x is not None:
            line += f' x="{fmt_num(pin.x)}"'
        if pin.y is not None:
            line += f' y="{fmt_num(pin.y)}"'
        lines.append(line + "/>")
    if len(lines) == 1:
        return head + "/>"
    return "\n".join(lines) + f"\n{pad}</component>"


def _net_xml(net: Net, pad: str) -> str:
    head = f'{pad}<net name="{esc(net.name)}"'
    if not net.nodes:
        return head + "/>"
    return "\n".join((head + ">", *(f'{pad}  <node component="{esc(comp)}" pin="{esc(pin)}"/>'
                                    for comp, pin in net.nodes), f"{pad}</net>"))


def _bbox_xml(bbox: BBox, pad: str) -> str:
    return (f'{pad}<bbox h="{fmt_num(bbox.h)}" w="{fmt_num(bbox.w)}" '
            f'x="{fmt_num(bbox.x)}" y="{fmt_num(bbox.y)}"/>')


def _annotation_key(ann: GraphicalAnnotation):
    return (ann.kind, ann.text, ann.bbox.x, ann.bbox.y, ann.bbox.w, ann.bbox.h)


def _annotation_xml(ann: GraphicalAnnotation, pad: str) -> str:
    return (f'{pad}<annotation kind="{esc(ann.kind)}" text="{esc(ann.text)}">\n'
            f'{_bbox_xml(ann.bbox, pad + "  ")}\n{pad}</annotation>')

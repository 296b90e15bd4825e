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
its nodes, the annotations) is rendered to a block of text, and a page's
document or a group's slice joins those blocks. The canonical layout is
rendered on each call, since a run never hashes a page; only scripts and
tests do.
The page hash defines canonical equality. A page diff decides it without
hashing. It is given only the pages a design review read (a page item
with the same text in head and base is never read, see ``ingest``), and
it compares each pair's records first (the id and strategy, each
component, each net, then the annotations), in canonical order; a block
is rendered, and the two compared as text, only for a pair of records
that differ, up to the first pair of blocks that differs.

Agents are sent a page, or a group's slice of it, in the payload layout
(``serialize_page_xml(..., payload=True)``): connectivity without
geometry, and without the declaration, indentation and line breaks. It
has the canonical elements and attributes except every ``<bbox>``, each
pin's ``x`` and ``y``, and every wire, junction and label annotation;
free ``text`` notes are kept without their bbox, and a page without any
has no ``<annotations>``. Wire tracing has already turned the geometry
into the ``<nets>`` the payload carries, a label only repeats a net's
name, and comments are placed from the ``Page``, never from a reply. The
payload blocks are rendered the first time a page goes into a payload,
and kept on the page for its group slices, so a page that is only
hashed never pays for them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from .model import BBox, Component, GraphicalAnnotation, Net, Page, Schematic
from .xmlutil import DECLARATION, compact, esc, fmt_num


def serialize_page_xml(page: Page, members: Iterable[str] | None = None, *,
                       payload: bool = False) -> str:
    """One page as a standalone canonical document (used for hashing), or,
    given ``members``, the slice of it those designators see; with
    ``payload``, the same elements in the payload layout."""
    if payload:
        lines: list[str] = []
        _join_page(_payload_blocks(page), members, lines)
        return "".join(lines)
    lines = [DECLARATION]
    _join_page(_render_page(page), members, lines)
    return "\n".join(lines) + "\n"


def page_hash(page: Page) -> str:
    """Hex-encoded SHA-256 of the page's canonical XML."""
    return hashlib.sha256(serialize_page_xml(page).encode("utf-8")).hexdigest()


def diff_pages(base: Schematic, head: Schematic) -> set[str]:
    """Ids of head's pages whose canonical content differs from base's page
    of the same id, or that base lacks."""
    base_pages = {p.id: p for p in base.pages}
    return {page.id for page in head.pages
            if page.id not in base_pages or not _same_document(base_pages[page.id], page)}


def _same_document(a: Page, b: Page) -> bool:
    """``page_hash(a) == page_hash(b)``, decided on the records first: the
    pages' id and strategy, each pair of components in designator order,
    each pair of nets in name order, then the annotations in their
    canonical order (the same tuple when the base took the head's
    records). A pair of blocks is rendered and compared only when its
    records differ, since records that differ may still render alike
    (None and "", pin order, 1 and 1.0), while equal ones always do: a
    read page holds only strings, None, ints and floats, and equal
    numbers format alike. ``esc`` escapes every ``<`` in a value, so the
    document's elements are delimited by their tags: two documents are
    equal exactly when their sequences of blocks are, and a different
    count of components or of nets is a difference."""
    if (a.id, a.strategy) != (b.id, b.strategy) and _open_tag(a) != _open_tag(b):
        return False
    components_a, components_b = _sorted_components(a), _sorted_components(b)
    nets_a, nets_b = _sorted_nets(a), _sorted_nets(b)
    if len(components_a) != len(components_b) or len(nets_a) != len(nets_b):
        return False
    for render, pairs in ((_component_xml, zip(components_a, components_b)),
                          (_net_xml, zip(nets_a, nets_b))):
        if not all(x == y or render(x) == render(y) for x, y in pairs):
            return False
    return (a.annotations is b.annotations
            or sorted(a.annotations, key=_annotation_key)
            == sorted(b.annotations, key=_annotation_key)
            or _annotations_xml(a) == _annotations_xml(b))


def _payload_blocks(page: Page) -> tuple:
    """The page element's blocks in the payload layout, made on first use
    and kept on the (immutable) page for its later payloads."""
    blocks = page.__dict__.get("_payload_blocks")
    if blocks is None:
        blocks = page.__dict__["_payload_blocks"] = _compact_blocks(
            _render_page(page, geometry=False))
    return blocks


def _compact_blocks(blocks: tuple) -> tuple:
    """Rendered page blocks in the payload layout."""
    _inner, open_tag, components, nets, annotations, close_tag = blocks
    return ("", compact(open_tag), tuple((d, compact(block)) for d, block in components),
            tuple((net, compact(block)) for net, block in nets), compact(annotations),
            compact(close_tag))


def _render_page(page: Page, geometry: bool = True) -> tuple:
    """The blocks of a page element: the indentation of its container
    elements, its open tag, (designator, component) and (net, net element)
    pairs in canonical order, the annotations element ("" when there are
    none), and its close tag. Without ``geometry``, bboxes, pin
    coordinates and every annotation but free text are left out."""
    components = tuple((c.designator, _component_xml(c, geometry))
                       for c in _sorted_components(page))
    nets = tuple((n, _net_xml(n)) for n in _sorted_nets(page))
    return ("  ", _open_tag(page), components, nets,
            _annotations_xml(page, geometry), "</page>")


def _open_tag(page: Page) -> str:
    open_tag = f'<page id="{esc(page.id)}"'
    if page.strategy is not None:
        open_tag += f' strategy="{esc(page.strategy.value)}"'
    return open_tag + ">"


def _sorted_components(page: Page) -> list[Component]:
    return sorted(page.components, key=lambda c: c.designator)


def _sorted_nets(page: Page) -> list[Net]:
    return sorted(page.nets, key=lambda n: n.name)


def _annotations_xml(page: Page, geometry: bool = True) -> str:
    """The annotations element, "" when no annotation is kept."""
    kept = sorted((a for a in page.annotations if geometry or a.kind == "text"),
                  key=_annotation_key)
    if not kept:
        return ""
    return "\n".join(("  <annotations>",
                      *(_annotation_xml(a, geometry) for a in kept),
                      "  </annotations>"))


def _join_page(blocks: tuple, members: Iterable[str] | None, lines: list[str]) -> None:
    """Append the page element's lines: the whole page, or its slice for
    ``members``."""
    inner, open_tag, components, nets, annotations, close_tag = blocks
    if members is not None:
        members = set(members)
        components = [(d, block) for d, block in components if d in members]
        nets = [(net, block) for net, block in nets
                if any(comp in members for comp, _pin in net.nodes)]
        annotations = ""
    lines.append(open_tag)
    for tag, children in (("components", components), ("nets", nets)):
        if children:
            lines.append(f"{inner}<{tag}>")
            lines += [block for _, block in children]
            lines.append(f"{inner}</{tag}>")
        else:
            lines.append(f"{inner}<{tag}/>")
    if annotations:
        lines.append(annotations)
    lines.append(close_tag)


def _component_xml(comp: Component, geometry: bool = True) -> str:
    designator, mpn, ipn, datasheet_url, pins, bbox = comp
    head = "    <component"
    if datasheet_url:
        head += f' datasheet_url="{esc(datasheet_url)}"'
    head += f' designator="{esc(designator)}"'
    if ipn:
        head += f' ipn="{esc(ipn)}"'
    if mpn:
        head += f' mpn="{esc(mpn)}"'
    lines = [head + ">"]
    if geometry and bbox:
        lines.append(_bbox_xml(bbox))
    for pin_designator, name, x, y in sorted(pins, key=lambda p: p.designator):
        line = f'      <pin designator="{esc(pin_designator)}"'
        if name:
            line += f' name="{esc(name)}"'
        if geometry and x is not None:
            line += f' x="{fmt_num(x)}"'
        if geometry and y is not None:
            line += f' y="{fmt_num(y)}"'
        lines.append(line + "/>")
    if len(lines) == 1:
        return head + "/>"
    return "\n".join(lines) + "\n    </component>"


def _net_xml(net: Net) -> str:
    head = f'    <net name="{esc(net.name)}"'
    if not net.nodes:
        return head + "/>"
    return "\n".join((head + ">", *(f'      <node component="{esc(comp)}" pin="{esc(pin)}"/>'
                                    for comp, pin in net.nodes), "    </net>"))


def _bbox_xml(bbox: BBox) -> str:
    x, y, w, h = bbox
    return f'      <bbox h="{fmt_num(h)}" w="{fmt_num(w)}" x="{fmt_num(x)}" y="{fmt_num(y)}"/>'


def _annotation_key(ann: GraphicalAnnotation):
    text, (x, y, w, h), kind = ann
    return (kind, text, x, y, w, h)


def _annotation_xml(ann: GraphicalAnnotation, geometry: bool = True) -> str:
    text, bbox, kind = ann
    head = f'    <annotation kind="{esc(kind)}" text="{esc(text)}"'
    if not geometry:
        return head + "/>"
    return f"{head}>\n{_bbox_xml(bbox)}\n    </annotation>"

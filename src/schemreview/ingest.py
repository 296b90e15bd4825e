"""Schematic ingestion: the input's format, read from its content, and
its decoding.

Accepted inputs:

* KiCad-subset s-expression text (see ``kicad``): text whose first form
  opens with ``(kicad_sch``.
* structured-pages document — a JSON object with ``version`` 1 and
  ``pages``, schema shipped in ``schemas/structured_pages.schema.json``.
  A ``format`` of ``de-hdl`` marks a DE-HDL page set; its pstxnet text
  rides along in ``sidecars``.

Anything else is ``UnknownFormat``.

A structured document is read by one walker (``_read_json``) built on
``json``'s own scanner: the top-level object key by key, and its ``pages``
array item by item, keeping the span of each page item's text in the
document text. Whatever the walker does not accept is read again by
``_loads``, so every error is json's own.

A design review (``read_design_review``) reads only the pages it reviews. Its
base is walked against its head, and a base page item whose text equals
a head page item's (``_find`` tries the one at its index first) is not
decoded again. In documents with equal other top-level members (``version``,
``format``, ``sidecars``) such a head item is unchanged: neither it nor
its base item is checked, decoded or traced, and their defects are not
reported. The other head items, those the page override names and their
base items are read as a full read reads them, with its errors (a schema
error never names an unread item). Both documents are still checked
whole for their top-level members, page items that are objects with a
string ``id``, and unique page ids.

Within a changed pair, a base item's ``annotations`` that equal those of
the head item with its id, as decoded JSON values of the same types and
key order, are what the head's read has already checked, decoded and
traced. Where the base is checked they stand in as ``[]`` (no page
member's schema depends on another's); the base page takes the head
page's annotation records and names that page as ``_annotations_of``,
so that ``wiretrace.infer_nets`` need not trace them again. Every error
a full read of the base item gives is still raised, with its text.
"""

from __future__ import annotations

import json
import marshal
import math
from collections.abc import Callable, Collection
from json.decoder import WHITESPACE, scanstring
from typing import NamedTuple

from .errors import MalformedInput, SchemReviewError, UnknownFormat
from .model import (
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
    Schematic,
    SourceFormat,
)
from .schemacheck import error_path, shipped

_DOCUMENT_SCHEMA = "structured_pages.schema.json"


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise MalformedInput(f"invalid JSON: non-finite number {token}")
    return value


def _loads(text: str):
    """JSON whose numbers are all finite: the NaN, Infinity and -Infinity
    tokens that ``json.loads`` accepts, and floats such as ``1e400`` that
    overflow to infinity, are MalformedInput."""
    try:
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise MalformedInput.at(f"invalid JSON: {exc.msg}", text, exc.pos) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput("invalid JSON: nested too deeply") from exc


_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)
_SPACE = WHITESPACE.match


_NOTHING_KNOWN = ("", (), ())
_CHUNK = 4096  # the characters of a known text compared at a time (``_find``)


def _read_json(text: str, known=_NOTHING_KNOWN
               ) -> tuple[object, list[tuple[int, int]] | None, dict[int, int]]:
    """``(_loads(text), page item spans, matched)``. ``known`` is another
    document's (text, page item spans, page item values). For a top-level
    object whose ``pages`` is an array, the spans are the (start, end) of
    each of its items in ``text``, and ``matched`` maps the index of each
    item whose text equals a known item's text to that item's index: such
    an item is not decoded, and its value is the known one. Otherwise the
    spans are None and nothing is matched."""
    try:
        return _walk(text, known)
    except (ValueError, MalformedInput, RecursionError):  # json's errors and _finite's
        return _loads(text), None, {}


def _walk(text: str, known) -> tuple[dict, list[tuple[int, int]] | None, dict[int, int]]:
    """``_read_json`` on the text of one object, decoding each value with
    ``_DECODER`` as ``_loads`` does; ValueError for anything else."""
    pos = _SPACE(text).end()
    if not text.startswith("{", pos):
        raise ValueError("not an object")
    doc: dict = {}
    spans, matched = None, {}
    pos = _SPACE(text, pos + 1).end()
    if text.startswith("}", pos):
        pos += 1
    else:
        while True:
            if not text.startswith('"', pos):
                raise ValueError("expected a key")
            key, pos = scanstring(text, pos + 1)
            pos = _SPACE(text, pos).end()
            if not text.startswith(":", pos):
                raise ValueError("expected ':'")
            pos = _SPACE(text, pos + 1).end()
            if key != "pages":
                doc[key], pos = _DECODER.raw_decode(text, pos)
            elif spans is None and text.startswith("[", pos):
                doc[key], spans, pos = _walk_pages(text, pos, known, matched)
            else:  # a repeated key is json's last value; pages not an array
                raise ValueError("pages is not one array")
            pos = _SPACE(text, pos).end()
            if text.startswith("}", pos):
                pos += 1
                break
            if not text.startswith(",", pos):
                raise ValueError("expected ',' or '}'")
            pos = _SPACE(text, pos + 1).end()
    if _SPACE(text, pos).end() != len(text):
        raise ValueError("extra data")
    return doc, spans, matched


def _walk_pages(text: str, pos: int, known, matched: dict[int, int]
                ) -> tuple[list, list[tuple[int, int]], int]:
    """The array at ``pos``: its items, their spans, and the position after
    it; ``matched`` gets the items found in ``known``."""
    values = known[2]
    items, spans = [], []
    pos = _SPACE(text, pos + 1).end()
    if text.startswith("]", pos):
        return items, spans, pos + 1
    while True:
        found = _find(known, text, pos, len(items))
        if found is None:
            item, end = _DECODER.raw_decode(text, pos)
        else:
            matched[len(items)], end = found
            item = values[found[0]]
        spans.append((pos, end))
        items.append(item)
        pos = _SPACE(text, end).end()
        if text.startswith("]", pos):
            return items, spans, pos + 1
        if not text.startswith(",", pos):
            raise ValueError("expected ',' or ']'")
        pos = _SPACE(text, pos + 1).end()


def _find(known, text: str, pos: int, i: int) -> tuple[int, int] | None:
    """(index, end) of a ``known`` (text, spans, values) page item whose
    text starts at ``pos`` in ``text``, trying item ``i`` first and then
    every other in order; None when there is none. A known text is a whole
    JSON value, so when a ``,`` or ``]`` follows it (the caller checks),
    the item there is that text exactly. A text is compared ``_CHUNK``
    characters at a time: a comparison copies no more than its equal part
    and one chunk, however the texts differ."""
    known_text, spans, _ = known
    for j in sorted(range(len(spans)), key=lambda j: j != i):
        start, end = spans[j]
        if all(text.startswith(known_text[at:min(at + _CHUNK, end)], pos + at - start)
               for at in range(start, end, _CHUNK)):
            return j, pos + end - start
    return None


class _Document(NamedTuple):
    """A structured document as ``_read_json`` walked it."""
    text: str
    doc: dict
    spans: list[tuple[int, int]] | None
    matched: dict[int, int]


def _parse(raw: bytes, known: _Document | Schematic | None = None) -> Schematic | _Document:
    """KiCad text read into its schematic, or a structured document walked,
    its page items matched against ``known``'s; anything else is
    UnknownFormat."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput("input is not valid UTF-8", exc.start) from exc

    stripped = text.lstrip()
    if stripped.startswith("(kicad_sch"):
        from .kicad import parse_kicad_page  # imported here: only KiCad input uses it
        return Schematic(SourceFormat.KICAD_SUBSET, (parse_kicad_page(text),))
    if stripped.startswith("{"):
        against = (known.text, known.spans, known.doc["pages"]) if isinstance(
            known, _Document) and known.spans is not None else _NOTHING_KNOWN
        doc, spans, matched = _read_json(text, against)
        if isinstance(doc, dict) and doc.get("version") == 1 and "pages" in doc:
            return _Document(text, doc, spans, matched)
    raise UnknownFormat("no format signature matched")


def ingest_schematic(raw: bytes) -> Schematic:
    """Decode raw schematic bytes into a Schematic, in the format read from
    its content. Nets may be empty for DE-HDL input; run augmentation to
    populate them."""
    read = _parse(raw)
    return read if isinstance(read, Schematic) else _read_pages(read.doc)


def read_design_review(raw: bytes, read_base: Callable[[], bytes] | None,
                       wanted: Collection[str]
                       ) -> tuple[Schematic, list[str], Callable[[], Schematic]]:
    """A design review's read of its head against its base (see the module
    docstring): the head pages that have no text-equal base page item or
    that ``wanted`` names, every head page id in document order, and a
    function that reads the base pages with the ids of the first kind,
    taking the head pages' annotation records where they are equal.
    ``read_base`` returns the base's bytes (None: there is no base); a
    failure to read or walk the base is raised by that function."""
    head = _parse(raw)
    base = changed = None  # indices of head items with no text-equal base item; None: all
    if read_base is None:
        changed = set()
    else:
        try:
            base = _parse(read_base(), head)
        except SchemReviewError as exc:
            base = exc
        else:
            if isinstance(base, _Document) and base.matched and _same_members(head.doc, base.doc):
                changed = set(range(len(head.spans))).difference(base.matched.values())
    if isinstance(head, Schematic):
        schematic, ids, shared = head, [page.id for page in head.pages], {}
    else:
        pairs = _annotation_pairs(head, base, changed)  # before the head's read (``_same``)
        schematic = _read_pages(head.doc, None if changed is None else
                                lambda i, item: i in changed or _page_id(item) in wanted)
        ids = [item["id"] for item in head.doc["pages"]]
        # base item index -> the head page whose annotation records it takes
        pages = {page.id: page for page in schematic.pages}
        shared = {i: pages[page_id] for i, page_id in pairs.items()}
    read_ids = set(ids) if changed is None else {ids[i] for i in changed}

    def read_base_pages() -> Schematic:
        if isinstance(base, SchemReviewError):
            raise base
        if isinstance(base, Schematic):
            return base
        return _read_pages(base.doc, lambda i, item: _page_id(item) in read_ids, shared)

    return schematic, ids, read_base_pages


def _same(a, b) -> bool:
    """Decoded JSON values that are the same, types and key order included.
    ``==`` alone takes ``true`` for ``1`` and ``1`` for ``1.0``; their
    marshal dumps differ, and equal dumps load back to the same value. A
    dump also marks each object that is referred to more than once, so the
    values are compared before anything but the decoder refers to them:
    then equal values decoded alike dump alike."""
    return a is b or a == b and marshal.dumps(a, 4) == marshal.dumps(b, 4)


def _same_members(a: dict, b: dict) -> bool:
    """Equal top-level members but ``pages`` (``_same``)."""
    keys = a.keys() - {"pages"}
    return keys == b.keys() - {"pages"} and all(_same(a[k], b[k]) for k in keys)


def _annotation_pairs(head: _Document, base, changed: set[int] | None) -> dict[int, str]:
    """Base item index -> the id of the head item with the same non-empty
    ``annotations`` (``_same``), of the head items in ``changed`` (None:
    all of them)."""
    items = head.doc["pages"]
    if not isinstance(base, _Document) or type(items) is not list \
            or type(base.doc["pages"]) is not list:
        return {}
    annotations = {}
    for j, item in enumerate(items):
        page_id = _page_id(item)
        if page_id is not None and (changed is None or j in changed) \
                and type(item.get("annotations")) is list and item["annotations"]:
            annotations[page_id] = item["annotations"]
    return {i: page_id for i, item in enumerate(base.doc["pages"])
            if (page_id := _page_id(item)) in annotations
            and _same(item.get("annotations"), annotations[page_id])}


# a valid page that stands in for each unread page item in the document
# checked against the schema, so that every error keeps its item's index
_UNREAD = {"id": "-", "components": []}


def _page_id(item) -> str | None:
    """The id of a page item that is an object with a string ``id``."""
    if type(item) is dict and type(item.get("id")) is str:
        return item["id"]
    return None


def _read_pages(doc: dict, read: Callable[[int, object], bool] | None = None,
                shared: dict[int, Page] | None = None) -> Schematic:
    """The schematic of ``doc``'s page items for which ``read(index, item)``
    holds (every item when ``read`` is None). Of an unread item only its
    string ``id`` is checked, unique in the document; an unread item without
    one is checked against the schema like a read one. ``shared`` maps a
    read item's index to a page read from equal annotations: they stand in
    as ``[]`` where the item is checked and decoded, and the item's page
    takes that page's records and keeps it as ``_annotations_of``."""
    fmt = SourceFormat.DE_HDL if doc.get("format") == "de-hdl" else SourceFormat.STRUCTURED_PAGES
    shared = shared or {}
    items, keep, checked = doc["pages"], None, doc
    if read is not None and type(items) is list:
        keep = [read(i, item) for i, item in enumerate(items)]
        checked = {**doc, "pages": [
            _UNREAD if not k and _page_id(item) is not None
            else {**item, "annotations": []} if k and i in shared else item
            for i, (item, k) in enumerate(zip(items, keep))]}
    if not shipped(_DOCUMENT_SCHEMA).check(checked):
        # the error jsonschema.validate raises
        from jsonschema.exceptions import best_match

        error = best_match(shipped(_DOCUMENT_SCHEMA).errors(checked))
        raise MalformedInput(f"document schema violation at {error_path(error)}: "
                             f"{error.message}") from error

    try:
        pages = [_decode_page(item) if i not in shared else _sharing(item, shared[i])
                 for i, item in enumerate(checked["pages"]) if keep is None or keep[i]]
        seen = set()  # over every item: ``pages`` may hold only some
        for item in items:
            if item["id"] in seen:
                raise ValueError(f"duplicate page id {item['id']!r}")
            seen.add(item["id"])
        return Schematic(fmt, pages, dict(doc.get("sidecars", {})))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _sharing(item: dict, like: Page) -> Page:
    """The page of an item checked with ``[]`` for annotations equal to
    ``like``'s, with ``like``'s annotation records."""
    page = _decode_page(item)._replace(annotations=like.annotations)
    page.__dict__["_annotations_of"] = like
    return page


def _decode_bbox(doc: dict | None) -> BBox | None:
    if doc is None:
        return None
    return BBox(doc["x"], doc["y"], doc["w"], doc["h"])


def _decode_page(doc: dict) -> Page:
    components = tuple(
        Component(
            designator=c["designator"],
            mpn=c.get("mpn"),
            ipn=c.get("ipn"),
            datasheet_url=c.get("datasheet_url"),
            pins=tuple(
                Pin(p["designator"], p.get("name"), p.get("x"), p.get("y"))
                for p in c["pins"]
            ),
            bbox=_decode_bbox(c.get("bbox")),
        )
        for c in doc["components"]
    )
    nets = tuple(
        Net(n["name"], tuple((c, p) for c, p in n["nodes"]))
        for n in doc.get("nets", [])
    )
    annotations = []
    for i, a in enumerate(doc.get("annotations", [])):
        kind = a.get("kind", "label")
        if kind == "label" and not a["text"]:
            raise MalformedInput(f"page {doc['id']!r}: annotation {i} is a label without text")
        try:
            annotations.append(GraphicalAnnotation(a["text"], _decode_bbox(a["bbox"]), kind))
        except ValueError as exc:  # a diagonal wire, or a negative extent
            raise MalformedInput(f"page {doc['id']!r}: annotation {i}: {exc}") from exc
    return Page(id=doc["id"], components=components, nets=nets, annotations=annotations)

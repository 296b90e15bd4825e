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

A structured document can be read against a schematic already read from
another one (a design review reads its base against its head): each page
item whose text equals one of that schematic's page items (tried at the
same position first) is not decoded; in a document whose other top-level
keys (``version``, ``format``, ``sidecars``) are equal too, it is that
schematic's checked, decoded and augmented ``Page`` object, and only the
remaining pages are decoded, checked and traced. A page equal as JSON but
written differently is read in full.
"""

from __future__ import annotations

import json
import marshal
import math
from json.decoder import WHITESPACE, scanstring

from .errors import MalformedInput, UnknownFormat
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
    items, spans = [], []
    pos = _SPACE(text, pos + 1).end()
    if text.startswith("]", pos):
        return items, spans, pos + 1
    while True:
        index = _match(text, pos, len(items), known)
        if index is None:
            item, end = _DECODER.raw_decode(text, pos)
        else:
            matched[len(items)] = index
            _known_text, known_spans, values = known
            start, stop = known_spans[index]
            item, end = values[index], pos + stop - start
        spans.append((pos, end))
        items.append(item)
        pos = _SPACE(text, end).end()
        if text.startswith("]", pos):
            return items, spans, pos + 1
        if not text.startswith(",", pos):
            raise ValueError("expected ',' or ']'")
        pos = _SPACE(text, pos + 1).end()


def _match(text: str, pos: int, i: int, known) -> int | None:
    """The index of the ``known`` item whose text starts at ``pos``, trying
    item ``i`` first. A known text is a whole JSON value, so when a ``,``
    or ``]`` follows it (the caller checks), the item at ``pos`` is that
    text exactly."""
    known_text, spans, _values = known
    if i < len(spans):
        start, end = spans[i]
        if text.startswith(known_text[start:end], pos):
            return i
    for j, (start, end) in enumerate(spans):
        if j != i and text.startswith(known_text[start:end], pos):
            return j
    return None


def ingest_schematic(raw: bytes, *, reuse: Schematic | None = None) -> Schematic:
    """Decode raw schematic bytes into a Schematic, in the format read from
    its content. Nets may be empty for DE-HDL input; run augmentation to
    populate them. Page items whose text equals a page item of ``reuse``
    (see the module docstring) are ``reuse``'s Page objects."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput("input is not valid UTF-8", exc.start) from exc

    stripped = text.lstrip()
    if stripped.startswith("(kicad_sch"):
        from .kicad import parse_kicad_page  # imported here: only KiCad input uses it
        page = parse_kicad_page(text)
        return Schematic(format=SourceFormat.KICAD_SUBSET, pages=(page,))
    if stripped.startswith("{"):
        known = _NOTHING_KNOWN if reuse is None or reuse.page_spans is None else (
            reuse.source_text, reuse.page_spans, reuse.source["pages"])
        doc, spans, matched = _read_json(text, known)
        if isinstance(doc, dict) and doc.get("version") == 1 and "pages" in doc:
            return _ingest_structured(text, doc, spans, matched, reuse)
    raise UnknownFormat("no format signature matched")


def _ingest_structured(text: str, doc: dict, spans: list[tuple[int, int]] | None,
                       matched: dict[int, int], reuse: Schematic | None) -> Schematic:
    fmt = SourceFormat.STRUCTURED_PAGES
    if doc.get("format") == "de-hdl":
        fmt = SourceFormat.DE_HDL
    reused = _reused_pages(doc, matched, reuse)
    # each page item is checked on its own, and a reused page equals one
    # that passed, so checking the rest decides the whole document
    checked = doc if not reused else {
        **doc, "pages": [p for i, p in enumerate(doc["pages"]) if i not in reused]}
    if not shipped(_DOCUMENT_SCHEMA).check(checked):
        _raise_schema_violation(doc)

    try:
        pages = [reused[i] if i in reused else _decode_page(page_doc)
                 for i, page_doc in enumerate(doc["pages"])]
        schematic = Schematic(
            format=fmt,
            pages=tuple(pages),
            sidecars=dict(doc.get("sidecars", {})),
            source=doc,
            source_text=None if spans is None else text,
            page_spans=spans,
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return schematic


def _reused_pages(doc: dict, matched: dict[int, int],
                  reuse: Schematic | None) -> dict[int, Page]:
    """Index in ``doc["pages"]`` -> the page of ``reuse`` that stands in for
    that item: the item's text is ``reuse``'s item ``matched[index]``, in a
    document whose other top-level keys, and so its format, equal those
    ``reuse`` was read from. ``doc`` may still be invalid."""
    if not matched:
        return {}
    source = reuse.source
    keys = doc.keys() - {"pages"}
    if keys != source.keys() - {"pages"} or not all(
            _same_json(doc[key], source[key]) for key in keys):
        return {}
    return {i: reuse.pages[j] for i, j in matched.items()}


def _same_json(a, b) -> bool:
    """Decoded JSON values equal with the same types and key order. ``==``
    alone takes ``true`` for ``1`` and ``1`` for ``1.0``; their marshal
    dumps differ. Format 2 marks neither interned nor shared objects, so
    equal values of equal types dump alike."""
    return a == b and marshal.dumps(a, 2) == marshal.dumps(b, 2)


def _raise_schema_violation(doc) -> None:
    """Raise the error ``jsonschema.validate`` would raise for ``doc``."""
    from jsonschema.exceptions import best_match

    error = best_match(shipped(_DOCUMENT_SCHEMA).errors(doc))
    raise MalformedInput(f"document schema violation at {error_path(error)}: "
                         f"{error.message}") from error


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

"""Schematic ingestion: format detection and decoding.

Accepted inputs:

* structured-pages document — versioned JSON, schema shipped in
  ``schemas/structured_pages.schema.json``. A ``format`` of ``de-hdl``
  marks a DE-HDL page set; its pstxnet text rides along in ``sidecars``.
* KiCad-subset s-expression text (see ``kicad``).

Format is detected from the content signature unless a hint is given.

A structured document can be read against a schematic already read from
another one (a design review reads its base against its head): each page
equal to one of that schematic's pages, in a document whose other
top-level keys (``version``, ``format``, ``sidecars``) are equal too, is
that schematic's checked, decoded and augmented ``Page`` object, and only
the remaining pages are checked and decoded.
"""

from __future__ import annotations

import json
import marshal
import math

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

_HINTS = {
    "structured-pages": SourceFormat.STRUCTURED_PAGES,
    "kicad": SourceFormat.KICAD_SUBSET,
    "kicad-subset": SourceFormat.KICAD_SUBSET,
    "de-hdl": SourceFormat.DE_HDL,
}


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


def detect_format(text: str) -> tuple[SourceFormat, object]:
    """The format of ``text`` and, for a structured document, the decoded
    JSON (None for KiCad text), so that it is decoded only once."""
    stripped = text.lstrip()
    if stripped.startswith("(kicad_sch"):
        return SourceFormat.KICAD_SUBSET, None
    if stripped.startswith("{"):
        doc = _loads(text)
        if isinstance(doc, dict) and doc.get("version") == 1 and "pages" in doc:
            if doc.get("format") == "de-hdl":
                return SourceFormat.DE_HDL, doc
            return SourceFormat.STRUCTURED_PAGES, doc
    raise UnknownFormat("no format hint given and no format signature matched")


def ingest_schematic(raw: bytes, format_hint: str | SourceFormat | None = None, *,
                     reuse: Schematic | None = None) -> Schematic:
    """Decode raw schematic bytes into a Schematic. Nets may be empty for
    DE-HDL input; run augmentation to populate them. Pages equal to pages
    of ``reuse`` (see the module docstring) are ``reuse``'s Page objects."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput("input is not valid UTF-8", exc.start) from exc

    doc = None
    if format_hint is None:
        fmt, doc = detect_format(text)
    elif isinstance(format_hint, SourceFormat):
        fmt = format_hint
    else:
        try:
            fmt = _HINTS[format_hint]
        except KeyError:
            raise UnknownFormat(f"unknown format hint {format_hint!r}") from None

    if fmt is SourceFormat.KICAD_SUBSET:
        from .kicad import parse_kicad_page  # imported here: only KiCad input uses it
        page = parse_kicad_page(text)
        return Schematic(format=fmt, pages=(page,))
    return _ingest_structured(_loads(text) if doc is None else doc, fmt, reuse)


def _ingest_structured(doc, fmt: SourceFormat, reuse: Schematic | None) -> Schematic:
    if isinstance(doc, dict) and doc.get("format") == "de-hdl":
        fmt = SourceFormat.DE_HDL
    reused = _reused_pages(doc, fmt, reuse)
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
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return schematic


def _reused_pages(doc, fmt: SourceFormat, reuse: Schematic | None) -> dict[int, Page]:
    """Index in ``doc["pages"]`` -> the page of ``reuse`` that stands in for
    that item: same id and an equal document, in a document whose format
    and other top-level keys equal those ``reuse`` was read from. ``doc``
    may still be invalid."""
    source = reuse.source if reuse is not None else None
    if (source is None or reuse.format is not fmt or not isinstance(doc, dict)
            or not isinstance(doc.get("pages"), list)):
        return {}
    keys = doc.keys() - {"pages"}
    if keys != source.keys() - {"pages"} or not all(
            _same_json(doc[key], source[key]) for key in keys):
        return {}
    known = {page.id: (page_doc, page)
             for page_doc, page in zip(source["pages"], reuse.pages)
             if page_doc["id"] == page.id}
    reused = {}
    for i, page_doc in enumerate(doc["pages"]):
        page_id = page_doc.get("id") if isinstance(page_doc, dict) else None
        if type(page_id) is str and page_id in known and _same_json(
                page_doc, known[page_id][0]):
            reused[i] = known[page_id][1]
    return reused


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

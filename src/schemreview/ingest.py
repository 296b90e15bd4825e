"""Schematic ingestion: format detection and decoding.

Accepted inputs:

* structured-pages document — versioned JSON, schema shipped in
  ``schemas/structured_pages.schema.json``. A ``format`` of ``de-hdl``
  marks a DE-HDL page set; its pstxnet text rides along in ``sidecars``.
* KiCad-subset s-expression text (see ``kicad``).

Format is detected from the content signature unless a hint is given.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema

from .errors import MalformedInput, UnknownFormat
from .kicad import parse_kicad_page
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

_HINTS = {
    "structured-pages": SourceFormat.STRUCTURED_PAGES,
    "kicad": SourceFormat.KICAD_SUBSET,
    "kicad-subset": SourceFormat.KICAD_SUBSET,
    "de-hdl": SourceFormat.DE_HDL,
}


@functools.cache
def _document_validator():
    """The shipped document schema, checked on first use, as a reusable
    validator (checking it costs about as much as validating a small
    document, so it is not repeated per document)."""
    text = resources.files("schemreview.schemas").joinpath(
        "structured_pages.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def detect_format(text: str) -> SourceFormat:
    stripped = text.lstrip()
    if stripped.startswith("(kicad_sch"):
        return SourceFormat.KICAD_SUBSET
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc.msg}", exc.pos) from exc
        if isinstance(doc, dict) and doc.get("version") == 1 and "pages" in doc:
            if doc.get("format") == "de-hdl":
                return SourceFormat.DE_HDL
            return SourceFormat.STRUCTURED_PAGES
    raise UnknownFormat("no format hint given and no format signature matched")


def ingest_schematic(raw: bytes, format_hint: str | SourceFormat | None = None) -> Schematic:
    """Decode raw schematic bytes into a Schematic. Nets may be empty for
    DE-HDL input; run augmentation to populate them."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput("input is not valid UTF-8", exc.start) from exc

    if format_hint is None:
        fmt = detect_format(text)
    elif isinstance(format_hint, SourceFormat):
        fmt = format_hint
    else:
        try:
            fmt = _HINTS[format_hint]
        except KeyError:
            raise UnknownFormat(f"unknown format hint {format_hint!r}") from None

    if fmt is SourceFormat.KICAD_SUBSET:
        page = parse_kicad_page(text)
        return Schematic(format=fmt, pages=(page,))
    return _ingest_structured(text, fmt)


def _ingest_structured(text: str, fmt: SourceFormat) -> Schematic:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc.msg}", exc.pos) from exc
    # the error jsonschema.validate would raise, without re-checking the schema
    error = jsonschema.exceptions.best_match(_document_validator().iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise MalformedInput(f"document schema violation at {path}: {error.message}") from error

    declared = doc.get("format")
    if declared == "de-hdl":
        fmt = SourceFormat.DE_HDL
    pages = []
    try:
        for page_doc in doc["pages"]:
            pages.append(_decode_page(page_doc))
        schematic = Schematic(
            format=fmt,
            pages=tuple(pages),
            sidecars=dict(doc.get("sidecars", {})),
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return schematic


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
    annotations = tuple(
        GraphicalAnnotation(a["text"], _decode_bbox(a["bbox"]), a.get("kind", "label"))
        for a in doc.get("annotations", [])
    )
    return Page(id=doc["id"], components=components, nets=nets, annotations=annotations)

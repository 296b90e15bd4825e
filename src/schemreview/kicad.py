"""KiCad-style s-expression schematic subset.

Only connectivity matters here, so the subset keeps symbols, pins, wires,
junctions, labels and net names and drops all drawing fidelity. Pin
coordinates are absolute page coordinates. One file is one page.

    (kicad_sch
      (page "P1")                           ; optional, defaults to "1"
      (symbol
        (property "Reference" "U1")
        (property "MPN" "LM317")            ; optional
        (property "IPN" "REG-0042")         ; optional
        (property "Datasheet" "http://...") ; optional
        (bbox 10 10 40 30)                  ; optional x y w h
        (pin (number "1") (name "VIN") (at 10 20)))
      (wire (pts (xy 10 20) (xy 50 20)))
      (junction (at 50 20))
      (label "VCC_3V3" (at 30 20)))

Nets are traced from the wire/junction/label geometry at parse time, so
the returned page already carries its connectivity, labelled with the
wire-trace-inference strategy that augmentation keeps.
"""

from __future__ import annotations

import math

from .errors import MalformedInput
from .model import AugmentationStrategy, BBox, Component, GraphicalAnnotation, Page, Pin
from .wiretrace import trace_nets

Sexpr = list  # nested lists of str atoms


def parse_sexpr(text: str) -> Sexpr:
    """Parse one top-level s-expression; reports byte offsets on error."""
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n:
            if text[pos].isspace():
                pos += 1
            elif text[pos] == ";":
                while pos < n and text[pos] != "\n":
                    pos += 1
            else:
                return

    def read_form() -> Sexpr | str:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise MalformedInput.at("unexpected end of input", text, pos)
        ch = text[pos]
        if ch == "(":
            start = pos
            pos += 1
            items: Sexpr = []
            while True:
                skip_ws()
                if pos >= n:
                    raise MalformedInput.at("unclosed '('", text, start)
                if text[pos] == ")":
                    pos += 1
                    return items
                items.append(read_form())
        if ch == ")":
            raise MalformedInput.at("unbalanced ')'", text, pos)
        if ch == '"':
            start = pos
            pos += 1
            out = []
            while pos < n and text[pos] != '"':
                if text[pos] == "\\" and pos + 1 < n:
                    pos += 1
                out.append(text[pos])
                pos += 1
            if pos >= n:
                raise MalformedInput.at("unclosed string literal", text, start)
            pos += 1
            return "".join(out)
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] not in '()";':
            pos += 1
        return text[start:pos]

    form = read_form()
    skip_ws()
    if pos < n:
        raise MalformedInput.at("trailing content after top-level form", text, pos)
    if not isinstance(form, list):
        raise MalformedInput("expected a parenthesized form", 0)
    return form


def _forms(sexpr: Sexpr, name: str):
    for item in sexpr:
        if isinstance(item, list) and item and item[0] == name:
            yield item


def _first(sexpr: Sexpr, name: str) -> Sexpr | None:
    for item in _forms(sexpr, name):
        return item
    return None


def _num(atom, context: str) -> float:
    try:
        value = float(atom)
        if math.isfinite(value):  # float() also reads "nan", "inf" and "1e400"
            return value
    except (TypeError, ValueError):
        pass
    raise MalformedInput(f"expected a number in {context}, got {atom!r}")


def _name(atom, what: str) -> str:
    """``atom`` when it is a non-empty string; a nested form or an empty
    string names nothing that a pin or net could be keyed by."""
    if isinstance(atom, str) and atom:
        return atom
    raise MalformedInput(f"{what} must be a non-empty string, got {atom!r}")


def _at_point(form: Sexpr, context: str) -> tuple[float, float] | None:
    at = _first(form, "at")
    if at is None:
        return None
    if len(at) < 3:
        raise MalformedInput(f"(at ...) in {context} needs x y")
    return _num(at[1], context), _num(at[2], context)


def _property(symbol: Sexpr, key: str) -> str | None:
    for prop in _forms(symbol, "property"):
        if len(prop) >= 3 and prop[1] == key:
            return prop[2]
    return None


def _parse_symbol(form: Sexpr) -> Component:
    ref = _property(form, "Reference")
    if ref is None:
        raise MalformedInput("symbol without a Reference property")
    ref = _name(ref, "symbol Reference")
    pins = {}
    for pin_form in _forms(form, "pin"):
        number = _first(pin_form, "number")
        if number is None or len(number) < 2:
            raise MalformedInput(f"pin of {ref} without a number")
        designator = _name(number[1], f"pin number of {ref}")
        if designator in pins:
            raise MalformedInput(f"symbol {ref}: duplicate pin {designator!r}")
        name = _first(pin_form, "name")
        pt = _at_point(pin_form, f"pin of {ref}")
        pins[designator] = Pin(
            designator=designator,
            name=name[1] if name and len(name) >= 2 else None,
            x=pt[0] if pt else None,
            y=pt[1] if pt else None,
        )
    bbox = None
    bbox_form = _first(form, "bbox")
    if bbox_form is not None:
        if len(bbox_form) < 5:
            raise MalformedInput(f"bbox of {ref} needs x y w h")
        x, y, w, h = (_num(v, f"bbox of {ref}") for v in bbox_form[1:5])
        bbox = BBox(x, y, w, h)
    return Component(
        designator=ref,
        mpn=_property(form, "MPN"),
        ipn=_property(form, "IPN"),
        datasheet_url=_property(form, "Datasheet"),
        pins=tuple(pins.values()),
        bbox=bbox,
    )


def parse_kicad_page(text: str) -> Page:
    root = parse_sexpr(text)
    if not root or root[0] != "kicad_sch":
        raise MalformedInput("not a kicad_sch document", 0)

    page_form = _first(root, "page")
    page_id = _name(page_form[1], "page name") if page_form and len(page_form) >= 2 else "1"

    components = tuple(_parse_symbol(f) for f in _forms(root, "symbol"))

    annotations: list[GraphicalAnnotation] = []
    for wire in _forms(root, "wire"):
        pts = _first(wire, "pts")
        if pts is None:
            raise MalformedInput("wire without (pts ...)")
        xys = list(_forms(pts, "xy"))
        if len(xys) < 2:
            raise MalformedInput("wire needs at least two (xy ...) points")
        if any(len(p) < 3 for p in xys):
            raise MalformedInput("(xy ...) in wire needs x y")
        coords = [(_num(p[1], "wire"), _num(p[2], "wire")) for p in xys]
        for (x1, y1), (x2, y2) in zip(coords, coords[1:]):
            if x1 != x2 and y1 != y2:
                raise MalformedInput(f"wire from ({x1:g} {y1:g}) to ({x2:g} {y2:g}) "
                                     "is neither horizontal nor vertical")
            annotations.append(GraphicalAnnotation(
                text="",
                bbox=BBox(min(x1, x2), min(y1, y2), abs(x2 - x1), abs(y2 - y1)),
                kind="wire",
            ))
    for junction in _forms(root, "junction"):
        pt = _at_point(junction, "junction")
        if pt is None:
            raise MalformedInput("junction without (at ...)")
        annotations.append(GraphicalAnnotation("", BBox(pt[0], pt[1], 0, 0), kind="junction"))
    for label in _forms(root, "label"):
        if len(label) < 2:
            raise MalformedInput("label without text")
        pt = _at_point(label, "label")
        if pt is None:
            raise MalformedInput(f"label {label[1]!r} without (at ...)")
        net_name = _name(label[1], f"text of the label at ({pt[0]:g} {pt[1]:g})")
        annotations.append(GraphicalAnnotation(net_name, BBox(pt[0], pt[1], 0, 0), kind="label"))

    nets = trace_nets(page_id, components, tuple(annotations))
    return Page(id=page_id, components=components, nets=tuple(nets),
                annotations=tuple(annotations),
                strategy=AugmentationStrategy.WIRE_TRACE_INFERENCE)

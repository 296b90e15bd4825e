"""Datasheet documents, extracted specifications, and critic scores."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import NamedTuple

from .libraries import PartRef
from .records import checked
from .xmlutil import DECLARATION, compact, esc


class CriticScore(checked("CriticScore", "feature_completeness pin_function_coverage "
                                          "application_information typical_application_circuits")):
    """Four quality sub-scores on a 10-point scale plus their weighted total.

    ``weighted`` is always computed here from the sub-scores; an agent's own
    arithmetic is never trusted.
    """

    __slots__ = ()

    def __new__(cls, feature_completeness: float, pin_function_coverage: float,
                application_information: float, typical_application_circuits: float):
        self = tuple.__new__(cls, (feature_completeness, pin_function_coverage,
                                   application_information, typical_application_circuits))
        for name, v in zip(self._fields, self):
            if not 0 <= v <= 10:
                raise ValueError(f"{name} must be within [0, 10], got {v}")
        return self

    @property
    def weighted(self) -> float:
        # scaled integer weights keep the total exact for whole sub-scores
        return (25 * self.feature_completeness
                + 40 * self.pin_function_coverage
                + 20 * self.application_information
                + 15 * self.typical_application_circuits) / 100


class DatasheetDocument(checked("DatasheetDocument", "source_url pages toc")):
    """A fetched datasheet's page texts and table of contents."""

    __slots__ = ()

    def __new__(cls, source_url: str, pages: tuple[str, ...],
                toc: tuple[tuple[str, int], ...] | None = None):
        pages = tuple(pages)
        if toc is not None:
            toc = tuple((t, int(i)) for t, i in toc)
        if not pages:
            raise ValueError("a datasheet document needs at least one page")
        return tuple.__new__(cls, (source_url, pages, toc))


class PinFunction(NamedTuple):
    designator: str
    function: str
    metadata: tuple[tuple[str, str], ...] = ()


class Rating(NamedTuple):
    parameter: str
    limit: str
    unit: str


class OperatingRange(NamedTuple):
    parameter: str
    unit: str
    min: str | None = None
    typ: str | None = None
    max: str | None = None


class DatasheetSpec(checked("DatasheetSpec", "part source_url pins abs_max_ratings "
                                              "rec_operating blocks app_circuits")):
    """The compact specification extracted from one part's datasheet. Its
    renderings are kept in the instance ``__dict__``."""

    def __new__(cls, part: PartRef, source_url: str, pins: tuple[PinFunction, ...] = (),
                abs_max_ratings: tuple[Rating, ...] = (),
                rec_operating: tuple[OperatingRange, ...] = (),
                blocks: tuple[str, ...] = (), app_circuits: tuple[str, ...] = ()):
        seen = set()
        for pin in pins:
            if pin.designator in seen:
                raise ValueError(f"duplicate pin designator {pin.designator!r}")
            seen.add(pin.designator)
        return tuple.__new__(cls, (part, source_url, pins, abs_max_ratings, rec_operating,
                                   blocks, app_circuits))

    def to_xml(self) -> str:
        """Compact canonical XML; byte-stable for equal specs. Rendered on
        the first call and kept on the (immutable) spec for later ones."""
        if "_xml" not in self.__dict__:
            self._xml = self._render()
        return self._xml

    def payload_xml(self) -> str:
        """The spec in the payload layout agents are sent: ``to_xml``
        without ``source_url``, declaration, indentation or line breaks.
        The URL is where the document was fetched from and says nothing its
        content does not; comments still link it. Made on the first call
        and kept on the spec for later ones."""
        if "_payload_xml" not in self.__dict__:
            self._payload_xml = compact(self._render(source_url=False)[len(DECLARATION) + 1:])
        return self._payload_xml

    def _render(self, source_url: bool = True) -> str:
        """``to_xml``'s document; without ``source_url`` the datasheet
        element leaves that attribute out."""
        part = self.part
        pins = []
        for pin in sorted(self.pins, key=lambda p: p.designator):
            line = f'    <pin designator="{esc(pin.designator)}" function="{esc(pin.function)}"'
            meta = [f'      <meta key="{esc(key)}" value="{esc(value)}"/>'
                    for key, value in sorted(pin.metadata)]
            pins += [line + ">", *meta, "    </pin>"] if meta else [line + "/>"]
        ranges = ["    <range" + "".join(
            f' {name}="{esc(value)}"' for name, value in (
                ("max", r.max), ("min", r.min), ("parameter", r.parameter),
                ("typ", r.typ), ("unit", r.unit)) if value is not None) + "/>"
            for r in self.rec_operating]
        lines = [DECLARATION, "<datasheet"
                 + (f' ipn="{esc(part.ipn)}"' if part.ipn else "")
                 + (f' mpn="{esc(part.mpn)}"' if part.mpn else "")
                 + (f' source_url="{esc(self.source_url)}"' if source_url else "")
                 + ">"]
        for tag, children in (
                ("pins", pins),
                ("abs_max_ratings", [f'    <rating limit="{esc(r.limit)}" parameter='
                                     f'"{esc(r.parameter)}" unit="{esc(r.unit)}"/>'
                                     for r in self.abs_max_ratings]),
                ("rec_operating", ranges),
                ("blocks", [f"    <block>{esc(text)}</block>" for text in self.blocks]),
                ("app_circuits",
                 [f"    <circuit>{esc(text)}</circuit>" for text in self.app_circuits])):
            lines += [f"  <{tag}>", *children, f"  </{tag}>"] if children else [f"  <{tag}/>"]
        return "\n".join(lines) + "\n</datasheet>\n"

    @classmethod
    def from_xml(cls, xml_text: str) -> "DatasheetSpec":
        """The spec of a ``to_xml`` document, read in one walk over the
        root's children (each list element's own children in order)."""
        root = ET.fromstring(xml_text)
        pins, ratings, ranges, blocks, circuits = [], [], [], [], []
        for child in root:
            tag = child.tag
            if tag == "pins":
                pins += (PinFunction(p.get("designator"), p.get("function", ""), tuple(sorted(
                    (m.get("key"), m.get("value")) for m in p.findall("meta"))))
                    for p in child if p.tag == "pin")
            elif tag == "abs_max_ratings":
                ratings += (Rating(r.get("parameter"), r.get("limit"), r.get("unit"))
                            for r in child if r.tag == "rating")
            elif tag == "rec_operating":
                ranges += (OperatingRange(r.get("parameter"), r.get("unit"), r.get("min"),
                                          r.get("typ"), r.get("max"))
                           for r in child if r.tag == "range")
            elif tag == "blocks":
                blocks += (b.text or "" for b in child if b.tag == "block")
            elif tag == "app_circuits":
                circuits += (c.text or "" for c in child if c.tag == "circuit")
        return cls(PartRef(mpn=root.get("mpn"), ipn=root.get("ipn")), root.get("source_url"),
                   tuple(pins), tuple(ratings), tuple(ranges), tuple(blocks), tuple(circuits))


def spec_from_agent_value(value: dict, part: PartRef, source_url: str) -> DatasheetSpec:
    """Build a spec from schema-validated agent output.

    Raises ValueError on domain violations the JSON schema cannot express
    (duplicate pin designators), which feeds the gateway repair loop.
    """
    pins = tuple(
        PinFunction(p["designator"], p.get("function", ""),
                    tuple(sorted(p.get("metadata", {}).items())))
        for p in value["pins"]
    )
    ratings = tuple(
        Rating(r["parameter"], r["limit"], r["unit"]) for r in value["abs_max_ratings"]
    )
    ranges = tuple(
        OperatingRange(r["parameter"], r["unit"], r.get("min"), r.get("typ"), r.get("max"))
        for r in value["rec_operating"]
    )
    return DatasheetSpec(part, source_url, pins, ratings, ranges,
                         tuple(value["blocks"]), tuple(value["app_circuits"]))

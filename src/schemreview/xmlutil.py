"""Escaping, number formatting and layouts for the canonical XML emitters
(``canonical`` for pages, ``DatasheetSpec.to_xml`` for specs).

Those emitters write attributes in lexicographic order, indent by two
spaces, and escape attribute values and text with ``esc``. Numbers are
formatted with ``fmt_num``. ``esc`` writes line breaks and tabs as
character references, so every raw line break in emitted XML is layout:
``compact`` drops it, with the indentation after it, for the payload
layout agents are sent (pages are also rendered without geometry there,
and specs without ``source_url``).
"""

from __future__ import annotations

DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


def esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
        .replace("\t", "&#9;")
    )


def compact(xml: str) -> str:
    """Emitted XML (without its declaration) in the payload layout: every
    line break and the indentation after it dropped. Each emitted line
    starts with its indentation and then a tag, so nothing else goes."""
    return "".join(map(str.lstrip, xml.split("\n")))


def fmt_num(value: float | int) -> str:
    """Shortest stable decimal form: whole floats drop their fraction."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)

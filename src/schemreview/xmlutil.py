"""Escaping, number formatting and the one layout of the canonical XML
emitters (``canonical`` for pages, ``DatasheetSpec.to_xml`` for specs).

Those emitters write no declaration, indentation or line breaks: a
document is its root element, the layout agents are sent (pages are
sent without geometry, and specs without ``source_url``). Attributes are
written in lexicographic order, attribute values and text are escaped
with ``esc``, which writes line breaks and tabs as character references,
and numbers are formatted with ``fmt_num``. ``NOT_XML_CHAR`` finds the
characters XML 1.0 cannot carry even as a reference.
"""

from __future__ import annotations

import re

# C0 controls other than tab, LF and CR; lone surrogates; U+FFFE; U+FFFF
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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


def fmt_num(value: float | int) -> str:
    """Shortest stable decimal form: whole floats drop their fraction."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)

"""Escaping and number formatting for the canonical XML emitters
(``canonical`` for pages, ``DatasheetSpec.to_xml`` for specs).

Those emitters write attributes in lexicographic order, indent by two
spaces, and escape attribute values and text with ``esc``. Numbers are
formatted with ``fmt_num``.
"""

from __future__ import annotations


def esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def fmt_num(value: float | int) -> str:
    """Shortest stable decimal form: whole floats drop their fraction."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


"""Minimal canonical XML emitter.

Output is byte-identical across runs for equal inputs: attributes are
sorted lexicographically, indentation is fixed at two spaces, and text
is XML-escaped. Numbers are formatted with ``fmt_num``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def fmt_num(value: float | int) -> str:
    """Shortest stable decimal form: whole floats drop their fraction."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class Elem:
    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Elem"] = field(default_factory=list)
    text: str | None = None

    def child(self, tag: str, attrs: dict[str, str] | None = None,
              text: str | None = None) -> "Elem":
        e = Elem(tag, attrs or {}, text=text)
        self.children.append(e)
        return e


def render(root: Elem) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _render_into(root, lines, 0)
    return "\n".join(lines) + "\n"


def _render_into(e: Elem, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    attrs = "".join(f' {k}="{esc(v)}"' for k, v in sorted(e.attrs.items()))
    if not e.children and e.text is None:
        lines.append(f"{pad}<{e.tag}{attrs}/>")
        return
    if not e.children:
        lines.append(f"{pad}<{e.tag}{attrs}>{esc(e.text or '')}</{e.tag}>")
        return
    lines.append(f"{pad}<{e.tag}{attrs}>")
    if e.text:
        lines.append(f"{pad}  {esc(e.text)}")
    for c in e.children:
        _render_into(c, lines, depth + 1)
    lines.append(f"{pad}</{e.tag}>")

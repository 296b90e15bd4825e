"""Compile a shipped JSON schema once into a plain-Python validity check.

``compile_schema(schema)`` returns a predicate ``check(value) -> bool``
that agrees with ``jsonschema.Draft202012Validator(schema).is_valid`` on
JSON values, for the keywords the shipped schemas use. Any other keyword
raises ``ValueError``, so a schema edit that needs more fails at compile
time instead of going unchecked. ``shipped(filename)`` loads a schema
file under ``schemas/`` with its check, once per process; the error for
a value the check rejects is worded by jsonschema, imported on that path
alone.

Draft 2020-12 semantics kept here: ``number`` and ``integer`` exclude
``bool``, ``integer`` accepts integral floats (``1.0``), ``enum`` and
``const`` compare by JSON equality (``1 == 1.0``, ``True != 1``), and a
bound fails only when ``x < minimum`` or ``x > maximum`` (so NaN passes).
"""

from __future__ import annotations

import functools
import json
import numbers
from importlib import resources
from typing import Callable

Check = Callable[[object], bool]

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$defs"})
_DEFS = "#/$defs/"


def _is_number(v) -> bool:
    if type(v) is int or type(v) is float:  # what JSON decodes to; skips the ABC check
        return True
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES: dict[str, Check] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def json_equal(a, b) -> bool:
    """Equality of JSON values: ``1 == 1.0`` but ``True != 1``."""
    if a is b:
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def compile_schema(schema: dict | bool) -> Check:
    """The schema as a predicate; raises ValueError on an unsupported keyword."""
    return _compile(schema, schema, {})


def _compile(node, root, defs: dict) -> Check:
    if node is True or node is False:
        return lambda v: node
    unknown = set(node) - _ANNOTATIONS - _KEYWORDS
    if unknown:
        raise ValueError(f"unsupported schema keyword(s): {', '.join(sorted(unknown))}")
    checks = [make(node, root, defs) for keywords, make in _KEYWORD_GROUPS
              if not node.keys().isdisjoint(keywords)]
    if len(checks) == 1:
        return checks[0]

    def check(v) -> bool:
        for c in checks:
            if not c(v):
                return False
        return True
    return check


def _type(node, root, defs) -> Check:
    try:
        return _TYPES[node["type"]]
    except (KeyError, TypeError):  # TypeError: a list of types, unhashable
        raise ValueError(f"unsupported type {node['type']!r}") from None


def _ref(node, root, defs) -> Check:
    ref = node["$ref"]
    name = ref[len(_DEFS):]
    if not ref.startswith(_DEFS) or name not in root.get("$defs", {}):
        raise ValueError(f"unsupported $ref {ref!r}: only local #/$defs/<name>")
    if name not in defs:
        defs[name] = None  # a reference back into this definition resolves lazily
        defs[name] = _compile(root["$defs"][name], root, defs)
    return defs[name] or (lambda v: defs[name](v))


def _object(node, root, defs) -> Check:
    props = {k: _compile(s, root, defs) for k, s in node.get("properties", {}).items()}
    required = node.get("required", ())
    extra = (_compile(node["additionalProperties"], root, defs)
             if "additionalProperties" in node else None)

    def check(v) -> bool:
        if not isinstance(v, dict):
            return True
        for key in required:
            if key not in v:
                return False
        for key, item in v.items():
            c = props.get(key, extra)
            if c is not None and not c(item):
                return False
        return True
    return check


def _array(node, root, defs) -> Check:
    prefix = [_compile(s, root, defs) for s in node.get("prefixItems", ())]
    rest = _compile(node["items"], root, defs) if "items" in node else None
    low, high = node.get("minItems", 0), node.get("maxItems")

    def check(v) -> bool:
        if not isinstance(v, list):
            return True
        if len(v) < low or high is not None and len(v) > high:
            return False
        if not all(c(item) for c, item in zip(prefix, v)):
            return False
        return rest is None or all(map(rest, v[len(prefix):]))
    return check


def _min_length(node, root, defs) -> Check:
    low = node["minLength"]
    return lambda v: not isinstance(v, str) or len(v) >= low


def _bounds(node, root, defs) -> Check:
    low, high = node.get("minimum"), node.get("maximum")
    return lambda v: not _is_number(v) or not (
        low is not None and v < low or high is not None and v > high)


def _enum(node, root, defs) -> Check:
    options = node["enum"]
    strings = frozenset(o for o in options if type(o) is str)  # a str JSON-equals only a str
    return lambda v: (v in strings if type(v) is str
                      else any(json_equal(v, o) for o in options))


def _const(node, root, defs) -> Check:
    const = node["const"]
    return lambda v: json_equal(v, const)


# keywords checked together, by the function that compiles them, in this order
_KEYWORD_GROUPS = (
    (("type",), _type),
    (("$ref",), _ref),
    (("enum",), _enum),
    (("const",), _const),
    (("properties", "required", "additionalProperties"), _object),
    (("prefixItems", "items", "minItems", "maxItems"), _array),
    (("minLength",), _min_length),
    (("minimum", "maximum"), _bounds),
)
_KEYWORDS = frozenset(k for keywords, _ in _KEYWORD_GROUPS for k in keywords)


class ShippedSchema:
    """A schema file under ``schemas/`` and its compiled check."""

    def __init__(self, filename: str):
        self.filename = filename
        self.schema = json.loads(
            resources.files("schemreview.schemas").joinpath(filename).read_text())
        self.check = compile_schema(self.schema)

    def errors(self, value) -> list:
        """jsonschema's errors for a value ``check`` rejected; finding none
        is an internal error (a check stricter than jsonschema)."""
        import jsonschema

        errors = list(jsonschema.Draft202012Validator(self.schema).iter_errors(value))
        if not errors:
            raise RuntimeError(f"{self.filename}: the compiled check rejected a "
                               "value that jsonschema accepts")
        return errors


@functools.cache
def shipped(filename: str) -> ShippedSchema:
    return ShippedSchema(filename)


def error_path(error) -> str:
    """A jsonschema error's place in the value, ``/``-joined."""
    return "/".join(str(p) for p in error.absolute_path) or "<root>"

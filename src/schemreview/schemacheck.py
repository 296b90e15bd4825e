"""Compile a shipped JSON schema once into a plain-Python validity check.

``compile_schema(schema)`` returns a predicate ``check(value) -> bool``
that agrees with ``jsonschema.Draft202012Validator(schema).is_valid`` on
JSON values, for the keywords the shipped schemas use. Any other keyword
raises ``ValueError``, so a schema edit that needs more fails at compile
time instead of going unchecked. The check is a tree of closures, one
per subschema and keyword group; each tests a value's exact JSON type
(what ``json.loads`` makes) before the ``isinstance`` rules, and a group
of the subschema's own type makes its type test too. A ``$defs`` entry is
compiled when a ``$ref`` first reaches it, so a definition may refer back
to itself. ``shipped(filename)`` loads a schema file under ``schemas/``
with its check, once per process; the error for a value the check
rejects is worded by jsonschema, imported on that path alone.

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
from itertools import islice
from typing import Callable

Check = Callable[[object], bool]

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$defs"})
_DEFS = "#/$defs/"


def _valid(v) -> bool:
    return True


def _invalid(v) -> bool:
    return False


def _is_number(v) -> bool:
    if type(v) is int or type(v) is float:  # what JSON decodes to; skips the ABC check
        return True
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    if type(v) is int:
        return True
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer())


_TYPES: dict[str, Check] = {
    "object": lambda v: type(v) is dict or isinstance(v, dict),
    "array": lambda v: type(v) is list or isinstance(v, list),
    "string": lambda v: type(v) is str or isinstance(v, str),
    "number": _is_number,
    "integer": _is_integer,
    "boolean": lambda v: v is True or v is False,
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
    return _compile(schema, schema, {}) or _valid


def _compile(node, root, defs: dict) -> Check | None:
    """``node``'s check, or None when every value is valid under it."""
    if node is True:
        return None
    if node is False:
        return _invalid
    unknown = set(node) - _ANNOTATIONS - _KEYWORDS
    if unknown:
        raise ValueError(f"unsupported schema keyword(s): {', '.join(sorted(unknown))}")
    kind = node.get("type")
    if "type" in node and not (type(kind) is str and kind in _TYPES):
        raise ValueError(f"unsupported type {kind!r}")
    groups = [(types, make) for keywords, types, make in _KEYWORD_GROUPS
              if not node.keys().isdisjoint(keywords)]
    # a group of the node's own type makes the type test itself
    typed = "type" in node and not any(kind in types for types, _ in groups)
    checks = [_TYPES[kind]] if typed else []
    checks += [make(node, root, defs) for _, make in groups]
    if len(checks) <= 1:
        return checks[0] if checks else None

    def check(v) -> bool:
        for c in checks:
            if not c(v):
                return False
        return True
    return check


def _ref(node, root, defs) -> Check:
    ref = node["$ref"]
    name = ref[len(_DEFS):]
    if not ref.startswith(_DEFS) or name not in root.get("$defs", {}):
        raise ValueError(f"unsupported $ref {ref!r}: only local #/$defs/<name>")
    if name not in defs:
        defs[name] = None  # a reference back into this definition resolves lazily
        defs[name] = _compile(root["$defs"][name], root, defs) or _valid
    return defs[name] or (lambda v: defs[name](v))


def _object(node, root, defs) -> Check:
    props = node.get("properties", {})
    required = node.get("required", ())
    checks = {k: _compile(s, root, defs) for k, s in props.items()}
    # (name, check or None, required) for each property that has either
    entries = tuple((k, c, k in required) for k, c in checks.items()
                    if c is not None or k in required)
    absent = tuple(k for k in required if k not in props)  # required, no property schema
    names = frozenset(props)
    closed = node.get("additionalProperties") is False
    extra = None if closed else _compile(node.get("additionalProperties", True), root, defs)
    # a closed object as large as its required properties holds no other
    size = len(set(required)) if closed and not absent else -1
    typed = node.get("type") == "object"

    def check(v) -> bool:
        if type(v) is not dict and not isinstance(v, dict):
            return not typed
        for key in absent:
            if key not in v:
                return False
        for key, c, needed in entries:
            if key in v:
                if c is not None and not c(v[key]):
                    return False
            elif needed:
                return False
        if closed:
            return len(v) == size or v.keys() <= names
        if extra is not None:
            for key, item in v.items():
                if key not in names and not extra(item):
                    return False
        return True
    return check


def _array(node, root, defs) -> Check:
    prefix = [_compile(s, root, defs) or _valid for s in node.get("prefixItems", ())]
    rest = _compile(node["items"], root, defs) if "items" in node else None
    low, high = node.get("minItems", 0), node.get("maxItems")
    typed = node.get("type") == "array"

    def check(v) -> bool:
        if type(v) is not list and not isinstance(v, list):
            return not typed
        if len(v) < low or high is not None and len(v) > high:
            return False
        if prefix:
            for c, item in zip(prefix, v):
                if not c(item):
                    return False
            return rest is None or all(map(rest, islice(v, len(prefix), None)))
        if rest is not None:
            for item in v:
                if not rest(item):
                    return False
        return True
    return check


def _min_length(node, root, defs) -> Check:
    low = node["minLength"]
    typed = node.get("type") == "string"

    def check(v) -> bool:
        if type(v) is not str and not isinstance(v, str):
            return not typed
        return len(v) >= low
    return check


def _bounds(node, root, defs) -> Check:
    low, high = node.get("minimum"), node.get("maximum")
    typed = node.get("type") in ("number", "integer")
    is_kind = _TYPES[node["type"]] if typed else _is_number

    def check(v) -> bool:
        if not is_kind(v):
            return not typed
        return not (low is not None and v < low or high is not None and v > high)
    return check


def _enum(node, root, defs) -> Check:
    options = node["enum"]
    strings = frozenset(o for o in options if type(o) is str)  # a str JSON-equals only a str
    return lambda v: (v in strings if type(v) is str
                      else any(json_equal(v, o) for o in options))


def _const(node, root, defs) -> Check:
    const = node["const"]
    return lambda v: json_equal(v, const)


# keywords checked together, by the function that compiles them, in this
# order, and the node types whose test the group makes itself: for a value
# of another type it returns False when the node has such a type, else
# True (the keywords apply to that type alone)
_KEYWORD_GROUPS = (
    (("$ref",), (), _ref),
    (("enum",), (), _enum),
    (("const",), (), _const),
    (("properties", "required", "additionalProperties"), ("object",), _object),
    (("prefixItems", "items", "minItems", "maxItems"), ("array",), _array),
    (("minLength",), ("string",), _min_length),
    (("minimum", "maximum"), ("number", "integer"), _bounds),
)
_KEYWORDS = frozenset({"type"}).union(*(keywords for keywords, _, _ in _KEYWORD_GROUPS))


class ShippedSchema:
    """A schema file under ``schemas/`` and its compiled check."""

    def __init__(self, filename: str):
        self.filename = filename
        self.schema = json.loads(
            resources.files(f"{__package__}.schemas").joinpath(filename).read_text())
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

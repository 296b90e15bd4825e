"""The compiled schema checks, against jsonschema as the oracle.

Values are valid instances with a few mutations applied: a required key
dropped, an unknown key added, a value swapped for one of another type or
for a boundary value, a list shortened or lengthened. On every value the
compiled predicate must agree with ``Draft202012Validator.is_valid``, and
the gateway's and ingest's error texts must equal what the jsonschema-only
validation worded before the checks were compiled.
"""

import decimal
import enum
import fractions
import functools
import json
import logging
import math
import shutil
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from schemreview import schemacheck
from schemreview.config import load_config
from schemreview.demo import demo_schematic_text, generate_fixtures, write_demo_workspace
from schemreview.errors import MalformedInput, UnknownFormat
from schemreview.gateway import AgentKind, SchemaRegistry
from schemreview.ingest import ingest_schematic
from schemreview.pipeline import run_pipeline
from schemreview.schemacheck import compile_schema, json_equal

AGENT_SCHEMAS = ["selection", "head_analysis", "extraction", "critic",
                 "group_review", "consensus"]
DOCUMENT_SCHEMA = "structured_pages.schema.json"


def shipped(filename: str) -> dict:
    return json.loads(resources.files("schemreview.schemas").joinpath(filename).read_text())


# --- the validation as it was before compiled checks: the oracle texts ---------

@functools.cache
def validator(filename: str):
    schema = shipped(filename)
    return jsonschema.validators.validator_for(schema)(schema)


def gateway_text(kind: str, value) -> str | None:
    errors = sorted(validator(f"{kind}.json").iter_errors(value), key=str)
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"{where}: {errors[0].message}"


def ingest_text(doc) -> str | None:
    error = jsonschema.exceptions.best_match(validator(DOCUMENT_SCHEMA).iter_errors(doc))
    if error is None:
        return None
    path = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"document schema violation at {path}: {error.message}"


# --- valid instances ------------------------------------------------------------

@pytest.fixture(scope="module")
def agent_responses(tmp_path_factory):
    """schema id -> every distinct response the demo's scripted agents give."""
    work = tmp_path_factory.mktemp("demo")
    paths = write_demo_workspace(work)
    cfg = load_config(paths["config"])

    def run():
        shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        return run_pipeline(cfg, paths["schematic"])

    quiet = logging.getLogger("schemreview")
    level = quiet.level
    quiet.setLevel(logging.ERROR)  # the rounds before convergence warn by design
    try:
        generate_fixtures(run, paths["fixtures"])
    finally:
        quiet.setLevel(level)
    responses = {}
    for kind in AGENT_SCHEMAS:
        texts = {p.read_text() for p in (paths["fixtures"] / kind).glob("*.resp")}
        responses[kind] = [json.loads(t) for t in sorted(texts, key=lambda t: (len(t), t))]
        assert responses[kind]
    return responses


WIRED_PAGE = {
    "id": "W1",
    "components": [
        {"designator": "U1", "mpn": "LM317", "bbox": {"x": 40, "y": 30, "w": 30, "h": 24},
         "pins": [{"designator": "1", "name": "ADJ", "x": 40, "y": 40},
                  {"designator": "2", "name": "VOUT", "x": 70, "y": 40}]},
        {"designator": "R1", "ipn": "RES-0001", "datasheet_url": "file:///r.txt",
         "pins": [{"designator": "1", "x": 100.5, "y": 40}, {"designator": "2"}]},
    ],
    "annotations": [
        {"kind": "wire", "text": "", "bbox": {"x": 70, "y": 40, "w": 30.5, "h": 0}},
        {"kind": "wire", "text": "", "bbox": {"x": 85, "y": 20, "w": 0, "h": 20}},
        {"kind": "junction", "text": "", "bbox": {"x": 85, "y": 40, "w": 0, "h": 0}},
        {"kind": "label", "text": "VOUT", "bbox": {"x": 85, "y": 20, "w": 0, "h": 0}},
        {"text": "regulator", "bbox": {"x": 0, "y": 0, "w": 12, "h": 4}},
    ],
}


def document_bases() -> list:
    demo = json.loads(demo_schematic_text())
    wired = {"version": 1, "format": "structured-pages", "pages": [WIRED_PAGE]}
    de_hdl = {"version": 1, "format": "de-hdl",
              "sidecars": {"pstxnet": "NET_NAME\n'VCC'\nNODE_NAME U1 1\n"},
              "pages": [{"id": "P1", "components": [
                  {"designator": "U1", "pins": [{"designator": "1"}]}]}]}
    return [de_hdl, wired, demo]  # smallest first


DOCUMENT_BASES = document_bases()


# --- mutations --------------------------------------------------------------------

# replacement values, of every JSON type and at the shipped schemas' bounds
SWAPS = [0, 1, -1, 10, 11, 0.0, -0.0, 1.0, 0.5, -2.5, 10.0, 10.5, math.nan, math.inf,
         -math.inf, True, False, "", "x", "1", "wire", "correct", "de-hdl", None, [],
         ["U1", "1"], ["U1"], ["U1", "1", "2"], ["U1", 1], {}, {"x": 1}]


def locations(value) -> dict[tuple, list[tuple]]:
    """Paths into ``value`` grouped by schema location (a list index
    counts as any index)."""
    groups: dict[tuple, list[tuple]] = {}

    def walk(node, path, where):
        groups.setdefault(where, []).append(path)
        if isinstance(node, dict):
            for key, item in node.items():
                walk(item, path + (key,), where + (key,))
        elif isinstance(node, list):
            for index, item in enumerate(node):
                walk(item, path + (index,), where + ("*",))

    walk(value, (), ())
    return groups


def node_at(value, path):
    for key in path:
        value = value[key]
    return value


def replaced(value, path, edit):
    """``value`` with the node at ``path`` replaced by ``edit(node)``; the
    containers along the path are copied, the rest is shared."""
    if not path:
        return edit(value)
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = replaced(value[path[0]], path[1:], edit)
    return out


def edits_of(node) -> list:
    """One-step edits of a node: swapped for each SWAPS value; an object
    loses one of its keys or gains an unknown one; an array loses its last
    item or repeats its first."""
    edits = [lambda _, new=new: new for new in SWAPS]
    if isinstance(node, dict):
        edits += [lambda n, key=key: {k: v for k, v in n.items() if k != key}
                  for key in node]
        edits.append(lambda n: {**n, "extra": 1})
    if isinstance(node, list) and node:
        edits += [lambda n: n[:-1], lambda n: n + n[:1]]
    return edits


def single_edits(bases):
    """Every value one edit away from a base: each schema location is
    edited at its first instance in the first base that has it, so list
    the bases smallest first."""
    seen = set()
    for base in bases:
        for where, paths in locations(base).items():
            if where not in seen:
                seen.add(where)
                for edit in edits_of(node_at(base, paths[0])):
                    yield replaced(base, paths[0], edit)


@st.composite
def mutate(draw, value):
    """``value`` after a few edits, each at a schema location picked with
    equal weight however many instances of it the value holds."""
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(draw(st.sampled_from(list(locations(value).values())))))
        value = replaced(value, path, draw(st.sampled_from(edits_of(node_at(value, path)))))
    return value


def has_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return any(has_non_finite(item) for item in items)
    return False


# --- the predicate and the error texts against the oracle ------------------------

REGISTRY = SchemaRegistry()
CHECKS = {name: compile_schema(shipped(f"{name}.json")) for name in AGENT_SCHEMAS}
DOCUMENT_CHECK = compile_schema(shipped(DOCUMENT_SCHEMA))


def assert_agent_value_agrees(kind, value):
    expected = gateway_text(kind, value)
    assert CHECKS[kind](value) == (expected is None), value
    try:
        REGISTRY.validate(AgentKind(kind), value)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def assert_document_agrees(doc):
    expected = ingest_text(doc)
    assert DOCUMENT_CHECK(doc) == (expected is None), doc
    if has_non_finite(doc):
        return  # ingest rejects it as invalid JSON before the schema is consulted
    raw = json.dumps(doc).encode()
    if not (isinstance(doc, dict) and doc.get("version") == 1 and "pages" in doc):
        with pytest.raises(UnknownFormat):  # no structured document's signature
            ingest_schematic(raw)
        return
    try:
        ingest_schematic(raw)
    except MalformedInput as exc:
        if expected is not None or str(exc).startswith("document schema violation"):
            assert str(exc) == expected
    else:
        assert expected is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_agent_schemas_agree_with_jsonschema(agent_responses, data):
    kind = data.draw(st.sampled_from(AGENT_SCHEMAS))
    assert_agent_value_agrees(kind, data.draw(mutate(
        data.draw(st.sampled_from(agent_responses[kind])))))


@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_document_schema_agrees_with_jsonschema(data):
    assert_document_agrees(data.draw(mutate(data.draw(st.sampled_from(DOCUMENT_BASES)))))


@pytest.mark.parametrize("kind", AGENT_SCHEMAS)
def test_agent_schema_single_edits_agree_with_jsonschema(agent_responses, kind):
    for value in single_edits(agent_responses[kind]):
        assert_agent_value_agrees(kind, value)


def test_document_schema_single_edits_agree_with_jsonschema():
    # the predicate alone: wording each error takes jsonschema ~5 ms a value
    oracle = validator(DOCUMENT_SCHEMA)
    for doc in single_edits(DOCUMENT_BASES):
        assert DOCUMENT_CHECK(doc) == oracle.is_valid(doc), doc


# --- keyword semantics, case by case -------------------------------------------------

# past the exact int/float fast path: bool, an int subclass, a non-float Number
EDGE_NUMBERS = (True, False, 10**30, -10**30, -0.0, math.nan, math.inf, -math.inf,
                enum.IntEnum("Level", "HIGH").HIGH, fractions.Fraction(1, 2),
                decimal.Decimal("12"))

CASES = [
    ({"type": "number"}, v) for v in (1, 1.5, True, False, None, "1", math.nan, math.inf)
] + [
    ({"type": "integer"}, v) for v in (1, 1.0, 1.5, True, math.nan, math.inf, "1")
] + [
    ({"type": t}, v) for t in ("object", "array", "string", "boolean", "null")
    for v in ({}, [], "", True, 0, None)
] + [
    ({"const": 1}, v) for v in (1, 1.0, True, False, "1", [1], 2)
] + [
    ({"const": [1, {"a": True}]}, v) for v in ([1, {"a": True}], [1.0, {"a": True}],
                                             [True, {"a": True}], [1, {"a": 1}], [1])
] + [
    ({"enum": ["label", "wire"]}, v) for v in ("label", "wire", "Wire", None, ["wire"])
] + [
    ({"enum": [0, False, None]}, v) for v in (0, 0.0, False, None, True, 1, "")
] + [
    ({"minimum": 0, "maximum": 10}, v)
    for v in (0, 0.0, -0.0, 10, 10.0, -1, 11, -0.5, 10.5, math.nan, math.inf, True, "x")
] + [
    ({"minLength": 1}, v) for v in ("", "a", 0, None, [])
] + [
    ({"prefixItems": [{"type": "string"}, {"type": "string"}],
      "minItems": 2, "maxItems": 2}, v)
    for v in (["a", "b"], ["a", 1], [1, "b"], ["a"], ["a", "b", "c"], [], "ab", None)
] + [
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}}, v)
    for v in (["a"], ["a", 1, 2], ["a", "b"], [1], [])
] + [
    ({"type": "object", "required": ["a"], "properties": {"a": {"type": "string"}},
      "additionalProperties": False}, v)
    for v in ({"a": "x"}, {"a": 1}, {}, {"a": "x", "b": 1}, {"b": 1}, [], None)
] + [
    ({"additionalProperties": {"type": "string"}}, v)
    for v in ({}, {"a": "x"}, {"a": 1}, "not an object")
] + [
    ({"required": ["a"]}, v) for v in ({"a": None}, {}, [], "a")
] + [
    ({"items": False}, v) for v in ([], [1])
] + [
    ({"$ref": "#/$defs/node", "$defs": {"node": {
        "type": "object", "properties": {"kids": {"type": "array",
                                                  "items": {"$ref": "#/$defs/node"}}},
        "additionalProperties": False}}}, v)
    for v in ({}, {"kids": [{}, {"kids": []}]}, {"kids": [{"kids": [1]}]}, {"x": 1})
] + [
    (schema, v) for schema in ({"type": "number"}, {"type": "integer"},
                               {"minimum": 0}, {"maximum": 0}, {"minimum": -1, "maximum": 1})
    for v in EDGE_NUMBERS
] + [
    # past the str fast path of a string enum, and a mixed one
    (schema, v) for schema in ({"enum": ["label", "wire"]}, {"enum": ["1", 1, None]})
    for v in (True, False, 1, 1.0, 0, None, ["label"], ["1"], {"label": 1}, "1", "label")
]


@pytest.mark.parametrize("schema,value", CASES)
def test_keyword_semantics_match_jsonschema(schema, value):
    assert compile_schema(schema)(value) == jsonschema.Draft202012Validator(schema).is_valid(value)


# awkward names and shapes: property names holding quotes, backslashes and
# newlines, or naming a keyword or a builtin; boolean subschemas; no
# properties at all; a type that a keyword group tests next to other keywords
AWKWARD_NAMES = ["a'b", 'a"b', "a\\b", "a\nb", "'''", "\\'", '"""\n', "v", "return",
                 "__import__", "__import__('os').getcwd()", "n", "k", "x", "i", "True", ""]

EDGE_CASES = [
    ({"type": "object", "properties": {name: {"type": "string"} for name in AWKWARD_NAMES},
      "required": AWKWARD_NAMES[:4], "additionalProperties": False}, v)
    for v in ({name: "s" for name in AWKWARD_NAMES},
              {name: "s" for name in AWKWARD_NAMES[:4]},
              {name: "s" for name in AWKWARD_NAMES[1:]},
              {**{name: "s" for name in AWKWARD_NAMES}, "y": "s"},
              {**{name: "s" for name in AWKWARD_NAMES}, "v": 1},
              {**{name: "s" for name in AWKWARD_NAMES}, "": 1})
] + [
    ({"required": [name], "properties": {name: {"const": name}}}, v)
    for name in AWKWARD_NAMES for v in ({name: name}, {name: "other"}, {}, {"x": name})
] + [
    ({"properties": {"a": {"$ref": "#/$defs/" + name}}, "$defs": {name: {"type": "integer"}}}, v)
    for name in AWKWARD_NAMES for v in ({"a": 1}, {"a": "1"}, {})
] + [
    (schema, v) for schema in (True, False, {}, {"$defs": {"x": False}})
    for v in (None, 0, "", [], {}, {"a": []})
] + [
    ({"properties": {"yes": True, "no": False}}, v)
    for v in ({}, {"yes": 1}, {"no": 1}, {"no": None}, {"other": 1}, [])
] + [
    ({"properties": {"a": True}, "required": ["a", "b"], "additionalProperties": False}, v)
    for v in ({"a": 1, "b": 1}, {"a": 1}, {"b": 1}, {"a": 1, "b": 1, "c": 1})
] + [
    ({"properties": {"a": True, "b": {}, "c": False}, "additionalProperties": False}, v)
    for v in ({}, {"a": 1, "b": 1}, {"c": 1}, {"a": 1, "d": 1})
] + [
    ({"properties": {"a": {"type": "null"}}, "additionalProperties": True}, v)
    for v in ({"a": None, "b": 1}, {"a": 1})
] + [
    ({"properties": {"a": {"type": "null"}}, "additionalProperties": {"type": "integer"}}, v)
    for v in ({"a": None, "b": 1}, {"a": None, "b": "1"}, {"b": None}, {"a": 1})
] + [
    ({"prefixItems": [True, False], "items": False}, v) for v in ([], [1], [1, 2], [1, 2, 3])
] + [
    ({"prefixItems": [False]}, v) for v in ([], [None], "not an array")
] + [
    ({"items": True, "minItems": 1}, v) for v in ([], [None])
] + [
    ({"additionalProperties": False}, v) for v in ({}, {"a": 1}, {"": None}, [], "a", None)
] + [
    ({"additionalProperties": False, "required": ["a"]}, v) for v in ({}, {"a": 1})
] + [
    ({"type": "object", "additionalProperties": False}, v) for v in ({}, {"a": 1}, [])
] + [
    ({"$ref": "#/$defs/yes", "$defs": {"yes": True}}, v) for v in (None, 1)
] + [
    ({"items": {"$ref": "#/$defs/no"}, "$defs": {"no": False}}, v) for v in ([], [None])
] + [
    # equal subschemas: one with an annotation, one a definition's own
    ({"properties": {"a": {"type": "string", "title": "A"}, "b": {"type": "string"},
                     "c": {"$ref": "#/$defs/s"}},
      "$defs": {"s": {"type": "string", "description": "d"}}}, v)
    for v in ({"a": "", "b": "", "c": ""}, {"a": 1}, {"b": 1}, {"c": 1})
] + [
    (schema, v) for schema in (
        {"type": "object", "const": {"a": 1}, "properties": {"a": {"type": "integer"}}},
        {"type": "object", "$ref": "#/$defs/a", "required": ["b"],
         "$defs": {"a": {"required": ["a"]}}},
        {"type": "array", "enum": [[1], ["x"]], "items": {"type": "string"}},
        {"type": "string", "enum": ["a", "bb"], "minLength": 2},
        {"type": "integer", "const": 2, "minimum": 0},
        {"type": "number", "maximum": 1, "minLength": 1, "items": False},
    )
    for v in ({"a": 1}, {"a": 2}, {"a": 1, "b": 1}, {"b": 1}, [1], ["x"], [],
              "a", "bb", "cc", 2, 2.0, 1, 0.5, 3, -1, True, None)
]


@pytest.mark.parametrize("schema,value", EDGE_CASES)
def test_edge_cases_match_jsonschema(schema, value):
    assert compile_schema(schema)(value) == jsonschema.Draft202012Validator(schema).is_valid(value)


@pytest.mark.parametrize("a,b,equal", [
    (1, 1.0, True), (True, 1, False), (False, 0, False), (True, True, True),
    ([1, 2], [1.0, 2.0], True), ([True], [1], False), ({"a": 1}, {"a": 1.0}, True),
    ({"a": 1}, {"b": 1}, False), ("1", 1, False), (None, False, False),
])
def test_json_equal(a, b, equal):
    assert json_equal(a, b) is equal


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"}, {"oneOf": [{}]}, {"anyOf": [{}]}, {"allOf": [{}]}, {"not": {}},
    {"uniqueItems": True}, {"exclusiveMinimum": 0}, {"maxLength": 3}, {"format": "uri"},
    {"patternProperties": {}}, {"if": {}}, {"contains": {}}, {"multipleOf": 2},
    {"properties": {"a": {"maxLength": 3}}},
    {"items": {"$ref": "#/$defs/missing"}, "$defs": {}},
    {"$ref": "http://example.com/schema"}, {"$ref": "#/definitions/a"},
    {"type": "float"}, {"type": ["string", "null"]},
])
def test_unsupported_keyword_raises(schema):
    with pytest.raises(ValueError):
        compile_schema(schema)


def test_annotations_are_ignored():
    check = compile_schema({"$schema": "x", "$id": "y", "title": "t",
                            "description": "d", "$defs": {"unused": {"pattern": "a"}}})
    assert check({"anything": [1]})


@pytest.mark.parametrize("validate,filename", [
    (lambda: REGISTRY.validate(AgentKind.HEAD_ANALYSIS, {"pages": [0]}), "head_analysis.json"),
    (lambda: ingest_schematic(demo_schematic_text().encode()), DOCUMENT_SCHEMA),
], ids=["gateway", "ingest"])
def test_never_accepts_a_rejected_value(monkeypatch, validate, filename):
    # a compiled check stricter than jsonschema is an internal error, not a pass
    monkeypatch.setattr(schemacheck, "compile_schema", lambda schema: lambda v: False)
    schemacheck.shipped.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=filename):
            validate()
    finally:
        schemacheck.shipped.cache_clear()

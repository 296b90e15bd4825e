"""The run config file, case by case from the field table of each object:
every field's JSON type and null, unknown fields, and the tables kept
equal to the objects they build."""

import json

import pytest

from schemreview import config
from schemreview.cli import EXIT_FAILED, main
from schemreview.config import RunConfig, load_config
from schemreview.errors import ConfigError
from schemreview.gateway import BackendConfig
from schemreview.libraries import LibraryKind, LibrarySource
from schemreview.reporting import FileSink, HttpSink

BASE = {"version": 1,
        "backend": {"kind": "mock", "fixture_path": "fixtures"},
        "libraries": [{"kind": "csv-table", "priority": 1, "path": "parts.csv"}],
        "sink": {"kind": "file", "out_dir": "out"}}

# each object of the file: its field table, its value in a valid document,
# and where the loaded config keeps what it builds from it
OBJECTS = {
    "config": (config._CONFIG_FIELDS, BASE, None),
    "backend": (config._BACKEND_FIELDS, BASE["backend"], lambda cfg: cfg.backend),
    "library": (config._LIBRARY_FIELDS, BASE["libraries"][0],
                lambda cfg: cfg.libraries[0]),
    "file sink": (config._FILE_SINK_FIELDS, BASE["sink"], lambda cfg: cfg.sink),
    "http sink": (config._HTTP_SINK_FIELDS, {"kind": "http", "base_url": "http://h"},
                  lambda cfg: cfg.sink),
}

# the fields without which an object is rejected, even when null
NEEDED = {("config", "version"), ("library", "kind"), ("library", "priority"),
          ("library", "path"), ("file sink", "kind"), ("file sink", "out_dir"),
          ("http sink", "kind"), ("http sink", "base_url")}

ONE_OF_EACH_JSON_TYPE = ["text", 5, 2.5, True, [], {}]

FIELDS = [pytest.param(name, key, id=f"{name}.{key}")
          for name, (table, _, _) in OBJECTS.items() for key in table]

_UNSET = object()


def place(name, obj):
    """The valid document with object ``name`` replaced by ``obj``."""
    if name == "config":
        return obj
    if name == "backend":
        return {**BASE, "backend": obj}
    if name == "library":
        return {**BASE, "libraries": [obj]}
    return {**BASE, "sink": obj}


def doc_with(name, key, value=_UNSET):
    """The valid document with ``key`` of object ``name`` set to
    ``value``, or left out."""
    obj = {k: v for k, v in OBJECTS[name][1].items() if k != key}
    if value is not _UNSET:
        obj[key] = value
    return place(name, obj)


def load(tmp_path, doc) -> RunConfig:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


def json_type_accepts(kind, value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@pytest.mark.parametrize("name, key", FIELDS)
def test_a_value_of_another_json_type_is_rejected(tmp_path, name, key):
    table = OBJECTS[name][0]
    wrong = [v for v in ONE_OF_EACH_JSON_TYPE if not json_type_accepts(table[key], v)]
    assert wrong
    for value in wrong:
        with pytest.raises(ConfigError, match=key):
            load(tmp_path, doc_with(name, key, value))


@pytest.mark.parametrize("name, key", FIELDS)
def test_null_is_unset(tmp_path, name, key):
    doc = doc_with(name, key, None)
    if (name, key) in NEEDED:
        with pytest.raises(ConfigError, match=key):
            load(tmp_path, doc)
    else:
        assert load(tmp_path, doc) == load(tmp_path, doc_with(name, key))


@pytest.mark.parametrize("name", OBJECTS)
def test_an_unknown_field_is_rejected(tmp_path, name):
    with pytest.raises(ConfigError, match="no_such_field"):
        load(tmp_path, doc_with(name, "no_such_field", "x"))


@pytest.mark.parametrize("name", [n for n in OBJECTS if n != "config"])
def test_every_field_is_read(tmp_path, name):
    """Each field lands in the object built, a float field's integer as a float."""
    table, obj, built = OBJECTS[name]
    values = {key: {str: f"v-{key}", int: 7, float: 3}[kind] for key, kind in table.items()}
    if name != "backend":  # a library or sink of the valid document's kind
        values["kind"] = obj["kind"]
    loaded = built(load(tmp_path, place(name, values)))
    for key, value in values.items():
        if key == "kind" and name.endswith("sink"):
            continue  # a sink's kind is its class
        got = getattr(loaded, key)
        assert (got.value if isinstance(got, LibraryKind) else got) == value, key
        if table[key] is float:
            assert type(got) is float, key


def test_tables_match_the_objects_they_build():
    assert set(config._BACKEND_FIELDS) == set(BackendConfig._fields)
    assert set(config._LIBRARY_FIELDS) == set(LibrarySource._fields)
    assert set(config._FILE_SINK_FIELDS) == set(FileSink._fields) | {"kind"}
    assert set(config._HTTP_SINK_FIELDS) == set(HttpSink._fields) | {"kind"}
    assert set(config._LIBRARY_NEEDS) == set(LibraryKind)
    assert {kind: sink for kind, (sink, _, _) in config._SINKS.items()} == {
        "file": FileSink, "http": HttpSink}


# every top-level field, each away from its default
EVERY_FIELD = {
    "version": 1, "mode": "design-review", "k": 5, "critic_threshold": 8,
    "time_budget_secs": 30, "cache_dir": "cache", "backend": {"kind": "live-http"},
    "libraries": BASE["libraries"], "sink": {"kind": "http", "base_url": "http://h"},
    "base_schematic": "base.json", "pages_override": ["P1"], "trace_out": "trace.jsonl",
    "checklist_dir": "checklists", "max_attempts": 2}


def test_load_config_reads_every_top_level_field(tmp_path):
    assert set(EVERY_FIELD) == set(config._CONFIG_FIELDS)
    cfg, default = load(tmp_path, EVERY_FIELD), RunConfig()
    assert [name for name in RunConfig._fields
            if getattr(cfg, name) == getattr(default, name)] == []


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"version": 1, "cache_dir": "\xff"}')
    with pytest.raises(ConfigError, match=f"config {path} is not UTF-8: "):
        load_config(path)


def test_a_config_file_with_crlf_newlines_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{\r\n "version": 1,\r\n "k": 5\r\n}\r\n')
    assert load_config(path).k == 5


@pytest.mark.parametrize("write, message", [
    (None, "cannot read config "),  # the path names a directory
    ("{version: 1}", "is not valid JSON: Expecting property name"),
    ('{"version": 1, "mode": "half-analysis"}', "unknown mode 'half-analysis'"),
])
def test_a_config_that_cannot_be_read_is_a_config_error_and_the_cli_exits_1(
        tmp_path, capsys, write, message):
    path = tmp_path / "cfg.json"
    if write is None:
        path.mkdir()
    else:
        path.write_text(write)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    schematic = tmp_path / "schematic.json"
    schematic.write_text('{"version": 1, "pages": []}')
    assert main(["--schematic", str(schematic), "--config", str(path)]) == EXIT_FAILED
    assert message in capsys.readouterr().err

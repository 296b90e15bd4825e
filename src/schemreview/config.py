"""Run configuration: one versioned declarative file plus CLI overrides.

Config file (JSON, version 1):

    {
      "version": 1,
      "mode": "full-analysis" | "design-review",
      "k": 3,
      "critic_threshold": 7.0,
      "time_budget_secs": null,
      "cache_dir": ".schemreview-cache",
      "backend": {"kind": "mock", "fixture_path": "fixtures", ...},
      "libraries": [{"kind": "csv-table", "priority": 1, "path": "parts.csv"}],
      "sink": {"kind": "file", "out_dir": "out"},
      "base_schematic": null,
      "pages_override": null,
      "trace_out": null,
      "checklist_dir": null,
      "max_attempts": 5
    }

Each object of the file (the top level, ``backend``, a library, a
``file`` or an ``http`` sink) is read through one table that maps each
of its fields to its JSON type, by the same rules:

* an unknown field, or a value of another JSON type, is a ConfigError
  naming the object and the field; a float field also takes an integer,
  and no number field takes a boolean;
* a null field is unset, and keeps its default;
* each kind of library or sink needs one field (``_LIBRARY_NEEDS``,
  ``_SINKS``), and a library its ``priority``.

``RunConfig.validate`` and ``BackendConfig.validate`` hold the range and
cross-field rules, numbers being finite among them, for a loaded config,
one changed by CLI flags and one that code builds alike.
"""

from __future__ import annotations

import enum
import json
import math

from .errors import ConfigError
from .fileio import read_text
from .gateway import BackendConfig
from .libraries import LibraryKind, LibrarySource
from .records import Settings
from .reporting import FileSink, HttpSink


class Mode(enum.Enum):
    DESIGN_REVIEW = "design-review"
    FULL_ANALYSIS = "full-analysis"


class RunConfig(Settings):
    """One run's settings, as read from the config file and CLI overrides."""

    _defaults = {"mode": Mode.FULL_ANALYSIS, "k": 3, "critic_threshold": 7.0,
                 "time_budget_s": None, "cache_dir": ".schemreview-cache",
                 "base_schematic": None, "pages_override": None, "trace_out": None,
                 "checklist_dir": None, "max_attempts": 5}
    _fields = (*_defaults, "backend", "libraries", "sink")

    def __init__(self, **fields):
        super().__init__(**{"backend": BackendConfig(), "libraries": [],
                            "sink": FileSink("out"), **fields})

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError("k (review run count) must be >= 1")
        if not 0 <= self.critic_threshold <= 10:
            raise ConfigError("critic_threshold must be within [0, 10]")
        if self.time_budget_s is not None and not 0 < self.time_budget_s < math.inf:
            raise ConfigError("time_budget_secs must be finite and positive when set, "
                              f"got {self.time_budget_s!r}")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.mode is Mode.DESIGN_REVIEW and not (
                self.base_schematic or self.pages_override):
            raise ConfigError(
                "design-review mode needs base_schematic or pages_override")
        priorities = [lib.priority for lib in self.libraries]
        if len(set(priorities)) != len(priorities):
            raise ConfigError(f"library priorities must be unique, got {priorities}")
        if not isinstance(self.sink, (FileSink, HttpSink)):
            raise ConfigError(f"unknown sink {self.sink!r}")
        self.backend.validate()


# the JSON type of each field of a config object; a float field also takes
# an integer, and a null field is unset
_CONFIG_FIELDS = {
    "version": int, "mode": str, "k": int, "critic_threshold": float,
    "time_budget_secs": float, "cache_dir": str, "backend": dict, "libraries": list,
    "sink": dict, "base_schematic": str, "pages_override": list, "trace_out": str,
    "checklist_dir": str, "max_attempts": int}
_BACKEND_FIELDS = {
    "kind": str, "endpoint": str, "strong_model": str, "weak_model": str,
    "consensus_model": str, "fixture_path": str, "api_key_env": str,
    "timeout_s": float, "max_in_flight": int, "mock_delay_s": float}
_LIBRARY_FIELDS = {
    "kind": str, "priority": int, "base_url": str, "url_template": str, "path": str,
    "directory": str, "api_key_env": str}
_FILE_SINK_FIELDS = {"kind": str, "out_dir": str}
_HTTP_SINK_FIELDS = {"kind": str, "base_url": str, "token_env": str}

# the one field each kind of library or sink needs, without which a
# library would fail every lookup
_LIBRARY_NEEDS = {
    LibraryKind.HTTP_PART_API: "base_url", LibraryKind.JSON_TEMPLATE_API: "url_template",
    LibraryKind.CSV_TABLE: "path", LibraryKind.LOCAL_DIRECTORY: "directory"}
_SINKS = {"file": (FileSink, _FILE_SINK_FIELDS, "out_dir"),
          "http": (HttpSink, _HTTP_SINK_FIELDS, "base_url")}

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object", list: "an array"}


def _read(doc, table: dict, name: str) -> dict:
    """The fields of the config object ``doc`` that are not null, once
    each is in ``table`` and has its JSON type there; a float field's
    value is made a float. ``name`` names the object in a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    fields = {}
    for key, value in doc.items():
        kind = table.get(key)
        if kind is None:
            raise ConfigError(f"{name}: unknown field {key!r}")
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ConfigError(f"{name}: {key} must be {_JSON_TYPES[kind]}, got {value!r}")
        fields[key] = float(value) if kind is float else value
    return fields


def library_from_config(doc, name: str = "library") -> LibrarySource:
    """The library source a config entry describes."""
    fields = _read(doc, _LIBRARY_FIELDS, name)
    try:
        kind = LibraryKind(fields.pop("kind", None))
    except ValueError:
        raise ConfigError(f"{name}: unknown kind {doc.get('kind')!r}") from None
    for needed in ("priority", _LIBRARY_NEEDS[kind]):
        if needed not in fields:
            raise ConfigError(f"{name}: a {kind.value} library needs {needed}")
    return LibrarySource(kind=kind, **fields)


def sink_from_config(doc: dict):
    """The sink a config entry describes."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SINKS:
        raise ConfigError(f"sink: unknown kind {kind!r}")
    sink, table, needed = _SINKS[kind]
    fields = _read(doc, table, f"{kind} sink")
    del fields["kind"]
    if needed not in fields:
        raise ConfigError(f"{kind} sink needs {needed}")
    return sink(**fields)


def load_config(path) -> RunConfig:
    try:
        doc = json.loads(read_text(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    fields = _read(doc, _CONFIG_FIELDS, f"config {path}")
    version = fields.pop("version", None)
    if version != 1:
        raise ConfigError(f"config {path}: unsupported version {version!r}")
    if "mode" in fields:
        try:
            fields["mode"] = Mode(fields["mode"])
        except ValueError:
            raise ConfigError(f"unknown mode {fields['mode']!r}") from None
    if "time_budget_secs" in fields:
        fields["time_budget_s"] = fields.pop("time_budget_secs")
    if "backend" in fields:
        fields["backend"] = BackendConfig(**_read(fields["backend"], _BACKEND_FIELDS,
                                                  "backend"))
    if "libraries" in fields:
        fields["libraries"] = [library_from_config(lib, f"libraries[{i}]")
                               for i, lib in enumerate(fields["libraries"])]
    if "sink" in fields:
        fields["sink"] = sink_from_config(fields["sink"])
    pages = fields.get("pages_override", ())
    if not all(isinstance(page, str) for page in pages):
        raise ConfigError(f"config {path}: pages_override must be an array of strings, "
                          f"got {pages!r}")
    return RunConfig(**fields)


def apply_cli_overrides(cfg: RunConfig, args) -> RunConfig:
    """argparse namespace wins over the config file, flag by flag."""
    if getattr(args, "mode", None):
        cfg.mode = Mode(args.mode)
    if getattr(args, "base", None):
        cfg.base_schematic = args.base
    if getattr(args, "time_limit_secs", None) is not None:
        cfg.time_budget_s = float(args.time_limit_secs)
    if getattr(args, "runs", None) is not None:
        cfg.k = int(args.runs)
    if getattr(args, "threshold", None) is not None:
        cfg.critic_threshold = float(args.threshold)
    if getattr(args, "out", None):
        cfg.sink = FileSink(args.out)
    if getattr(args, "cache_dir", None):
        cfg.cache_dir = args.cache_dir
    if getattr(args, "trace_out", None):
        cfg.trace_out = args.trace_out
    return cfg

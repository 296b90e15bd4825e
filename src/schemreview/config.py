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

Unknown top-level keys, and values of the wrong type, are rejected with
a ConfigError naming them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .gateway import BackendConfig
from .libraries import LibrarySource, library_from_config
from .reporting import FileSink, HttpSink, sink_from_config


class Mode(enum.Enum):
    DESIGN_REVIEW = "design-review"
    FULL_ANALYSIS = "full-analysis"


@dataclass
class RunConfig:
    mode: Mode = Mode.FULL_ANALYSIS
    k: int = 3
    critic_threshold: float = 7.0
    time_budget_s: float | None = None
    backend: BackendConfig = field(default_factory=BackendConfig)
    libraries: list[LibrarySource] = field(default_factory=list)
    sink: object = field(default_factory=lambda: FileSink("out"))
    cache_dir: str = ".schemreview-cache"
    base_schematic: str | None = None
    pages_override: list[str] | None = None
    trace_out: str | None = None
    checklist_dir: str | None = None
    max_attempts: int = 5

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError("k (review run count) must be >= 1")
        if not 0 <= self.critic_threshold <= 10:
            raise ConfigError("critic_threshold must be within [0, 10]")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ConfigError("time_budget_secs must be positive when set")
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


_CONFIG_KEYS = frozenset({
    "version", "mode", "k", "critic_threshold", "time_budget_secs", "cache_dir",
    "backend", "libraries", "sink", "base_schematic", "pages_override",
    "trace_out", "checklist_dir", "max_attempts"})


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object", list: "an array"}


def _field(doc: dict, key: str, kind: type):
    """``doc[key]`` if it has the JSON type ``kind``; a float field also
    takes an integer, and no number field takes a boolean."""
    value = doc[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    return float(value) if kind is float else value


# the JSON type of each field a library or sink entry may set
_ENTRY_FIELDS = {"priority": int, "out_dir": str, "base_url": str, "token_env": str,
                 "url_template": str, "path": str, "directory": str, "api_key_env": str}


def _typed_entry(entry):
    """A library or sink entry without its null fields, which stay unset,
    once each other field of ``_ENTRY_FIELDS`` has its JSON type."""
    if isinstance(entry, dict):
        entry = {key: value for key, value in entry.items() if value is not None}
        for key, kind in _ENTRY_FIELDS.items():
            if key in entry:
                _field(entry, key, kind)
    return entry  # if not an object, rejected by the entry's own reader


def _backend_from_config(doc: dict) -> BackendConfig:
    known = {f for f in BackendConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown backend fields: {sorted(unknown)}")
    return BackendConfig(**doc)


def load_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: the top level must be a JSON object")
    if doc.get("version") != 1:
        raise ConfigError(f"config {path}: unsupported version {doc.get('version')!r}")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config {path}: unknown fields: {sorted(unknown)}")

    cfg = RunConfig()
    if "mode" in doc:
        try:
            cfg.mode = Mode(doc["mode"])
        except ValueError:
            raise ConfigError(f"unknown mode {doc['mode']!r}") from None
    for key in ("k", "max_attempts"):
        if key in doc:
            setattr(cfg, key, _field(doc, key, int))
    if "critic_threshold" in doc:
        cfg.critic_threshold = _field(doc, "critic_threshold", float)
    if doc.get("time_budget_secs") is not None:
        cfg.time_budget_s = _field(doc, "time_budget_secs", float)
    if "backend" in doc:
        cfg.backend = _backend_from_config(_field(doc, "backend", dict))
    if "libraries" in doc:
        cfg.libraries = [library_from_config(_typed_entry(lib))
                         for lib in _field(doc, "libraries", list)]
    if "sink" in doc:
        cfg.sink = sink_from_config(_typed_entry(_field(doc, "sink", dict)))
    for key in ("cache_dir", "base_schematic", "trace_out", "checklist_dir"):
        if doc.get(key) is not None:
            setattr(cfg, key, _field(doc, key, str))
    if doc.get("pages_override") is not None:
        cfg.pages_override = [str(p) for p in _field(doc, "pages_override", list)]
    return cfg


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

"""Component library chain: resolve a part reference to datasheet URLs.

Four source kinds are supported:

* ``http-part-api``  — GET {base_url}/parts/{part}/datasheet, bearer token
  from the env var named by ``api_key_env``; answers
  ``{"datasheet_url": ...}`` or ``{"datasheet_urls": [...]}``.
* ``json-template-api`` — GET the ``url_template`` with ``{part}``
  substituted; answers ``{"datasheet_url": ...}``.
* ``csv-table``       — file with header ``part_number,datasheet_url``,
  read on a source's first lookup and kept for its later ones; a run
  looks up through its own copies of the config's sources, so it reads
  each file once and sees edits made before it started.
* ``local-directory`` — files whose stem is the part number, as file:// URLs.

A source that errors (down API, missing file) contributes nothing; the
chain moves on. Candidates keep priority order with the schematic's own
datasheet URL, when present, always first.
"""

from __future__ import annotations

import csv
import enum
import logging
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from urllib.parse import quote

from . import httpreq
from .errors import ConfigError, NoCandidates

log = logging.getLogger(__name__)

LOOKUP_TIMEOUT_S = 10


@dataclass(frozen=True)
class PartRef:
    mpn: str | None = None
    ipn: str | None = None

    def __post_init__(self):
        if not (self.mpn or self.ipn):
            raise ValueError("part reference needs an mpn or an ipn")

    @property
    def key(self) -> str:
        """Cache and dedup identity: mpn when present, else ipn."""
        return self.mpn or self.ipn


class LibraryKind(enum.Enum):
    HTTP_PART_API = "http-part-api"
    JSON_TEMPLATE_API = "json-template-api"
    CSV_TABLE = "csv-table"
    LOCAL_DIRECTORY = "local-directory"


@dataclass(frozen=True)
class LibrarySource:
    kind: LibraryKind
    priority: int
    base_url: str | None = None
    url_template: str | None = None
    path: str | None = None
    directory: str | None = None
    api_key_env: str | None = None
    # a csv-table's part number -> datasheet URLs, filled by its first lookup
    _table: dict | None = field(default=None, init=False, repr=False, compare=False)
    _table_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                        repr=False, compare=False)

    def lookup(self, part: PartRef) -> list[str]:
        try:
            if self.kind is LibraryKind.CSV_TABLE:
                return self._lookup_csv(part)
            if self.kind is LibraryKind.LOCAL_DIRECTORY:
                return self._lookup_directory(part)
            return self._lookup_api(part)
        except Exception as exc:
            log.warning("library %s lookup failed for %s: %s",
                        self.kind.value, part.key, exc)
            return []

    def _lookup_csv(self, part: PartRef) -> list[str]:
        with self._table_lock:
            if self._table is None:
                table: dict[str, list[str]] = {}
                with open(self.path, newline="", encoding="utf-8") as fh:
                    for row in csv.DictReader(fh):
                        if row.get("datasheet_url"):
                            table.setdefault(row.get("part_number"), []).append(
                                row["datasheet_url"])
                object.__setattr__(self, "_table", table)
        return list(self._table.get(part.key, ()))

    def _lookup_directory(self, part: PartRef) -> list[str]:
        root = Path(self.directory)
        if not root.is_dir():
            return []
        return [p.resolve().as_uri()
                for p in sorted(root.iterdir())
                if p.is_file() and p.stem == part.key]

    def _lookup_api(self, part: PartRef) -> list[str]:
        key = quote(part.key, safe="")
        if self.kind is LibraryKind.HTTP_PART_API:
            url = f"{self.base_url.rstrip('/')}/parts/{key}/datasheet"
        else:
            url = self.url_template.replace("{part}", key)
        resp = httpreq.send("GET", url, timeout_s=LOOKUP_TIMEOUT_S, token_env=self.api_key_env)
        if resp.status_code == 404:
            return []
        resp.raise_for_status()
        doc = resp.json()
        if self.kind is LibraryKind.HTTP_PART_API and doc.get("datasheet_urls"):
            return list(doc["datasheet_urls"])
        return [doc["datasheet_url"]] if doc.get("datasheet_url") else []


# the field each kind of source reads its parts from
_SOURCE_FIELD = {LibraryKind.HTTP_PART_API: "base_url",
                 LibraryKind.JSON_TEMPLATE_API: "url_template",
                 LibraryKind.CSV_TABLE: "path",
                 LibraryKind.LOCAL_DIRECTORY: "directory"}


def library_from_config(doc: dict) -> LibrarySource:
    """The source a config entry describes. An entry with a field that no
    source has, or without the field its kind reads, is rejected here:
    its source would fail every lookup."""
    try:
        kind = LibraryKind(doc["kind"])
        priority = int(doc["priority"])
    except (KeyError, ValueError, TypeError) as exc:  # TypeError: not an object
        raise ConfigError(f"bad library config {doc!r}: {exc}") from exc
    entry = {key: value for key, value in doc.items() if key not in ("kind", "priority")}
    unknown = set(entry) - {f.name for f in fields(LibrarySource) if f.init}
    if unknown:
        raise ConfigError(f"bad library config {doc!r}: unknown fields {sorted(unknown)}")
    if _SOURCE_FIELD[kind] not in entry:
        raise ConfigError(f"bad library config {doc!r}: a {kind.value} library "
                          f"needs {_SOURCE_FIELD[kind]}")
    return LibrarySource(kind=kind, priority=priority, **entry)


def locate(part: PartRef, libraries: list[LibrarySource],
           schematic_url: str | None = None) -> list[str]:
    """Candidate datasheet URLs: schematic-embedded URL first, then library
    results in priority order, duplicates dropped (first occurrence kept)."""
    if not libraries and schematic_url is None:
        raise NoCandidates(f"no libraries configured and no schematic URL for {part.key}")
    if any(a.priority == b.priority
           for i, a in enumerate(libraries) for b in libraries[i + 1:]):
        raise ConfigError("library priorities must be unique")
    candidates: list[str] = []
    if schematic_url:
        candidates.append(schematic_url)
    for lib in sorted(libraries, key=lambda s: s.priority):
        candidates.extend(lib.lookup(part))
    deduped = list(dict.fromkeys(candidates))
    if not deduped:
        raise NoCandidates(f"no datasheet candidates for {part.key}")
    return deduped

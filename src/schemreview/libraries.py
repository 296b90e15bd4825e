"""Component library chain: resolve a part reference to datasheet URLs.

Four source kinds are supported:

* ``http-part-api``  — GET {base_url}/parts/{part}/datasheet, bearer token
  from the env var named by ``api_key_env``; answers
  ``{"datasheet_url": ...}`` or ``{"datasheet_urls": [...]}``; any other
  ``datasheet_urls`` than an array of strings is a failed lookup.
* ``json-template-api`` — GET the ``url_template`` with ``{part}``
  substituted; answers ``{"datasheet_url": ...}``.

For both API kinds, a ``datasheet_url`` that is neither a string nor
null is a failed lookup too.
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

import enum
import logging
import threading
from pathlib import Path
from urllib.parse import quote

from . import httpreq
from .errors import NoCandidates
from .records import checked

log = logging.getLogger(__name__)

LOOKUP_TIMEOUT_S = 10


class PartRef(checked("PartRef", "mpn ipn")):
    """A part as a library looks it up: manufacturer and/or internal part number."""

    __slots__ = ()

    def __new__(cls, mpn: str | None = None, ipn: str | None = None):
        if not (mpn or ipn):
            raise ValueError("part reference needs an mpn or an ipn")
        return tuple.__new__(cls, (mpn, ipn))

    @property
    def key(self) -> str:
        """Cache and dedup identity: mpn when present, else ipn."""
        return self.mpn or self.ipn


class LibraryKind(enum.Enum):
    HTTP_PART_API = "http-part-api"
    JSON_TEMPLATE_API = "json-template-api"
    CSV_TABLE = "csv-table"
    LOCAL_DIRECTORY = "local-directory"


class LibrarySource(checked("LibrarySource",
                           "kind priority base_url url_template path directory api_key_env")):
    """One part library of the lookup chain, tried in ``priority`` order. A
    csv-table's part number -> datasheet URLs is read by its first lookup
    and kept in the instance ``__dict__`` (``_table``), which a copy
    (``_replace``) starts without."""

    def __new__(cls, kind: LibraryKind, priority: int, base_url: str | None = None,
                url_template: str | None = None, path: str | None = None,
                directory: str | None = None, api_key_env: str | None = None):
        self = tuple.__new__(cls, (kind, priority, base_url, url_template, path,
                                   directory, api_key_env))
        self._table = None
        self._table_lock = threading.Lock()
        return self

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
                import csv  # imported here: only csv-table libraries use it
                table: dict[str, list[str]] = {}
                with open(self.path, newline="", encoding="utf-8") as fh:
                    for row in csv.DictReader(fh):
                        if row.get("datasheet_url"):
                            table.setdefault(row.get("part_number"), []).append(
                                row["datasheet_url"])
                self._table = table
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
        urls = doc.get("datasheet_urls") if self.kind is LibraryKind.HTTP_PART_API else None
        if urls is not None:
            if not isinstance(urls, list) or not all(isinstance(u, str) for u in urls):
                raise ValueError(f"datasheet_urls is not an array of strings: {urls!r}")
            if urls:
                return urls
        url = doc.get("datasheet_url")
        if url is not None and not isinstance(url, str):
            raise ValueError(f"datasheet_url is not a string: {url!r}")
        return [url] if url else []


def locate(part: PartRef, libraries: list[LibrarySource],
           schematic_url: str | None = None) -> list[str]:
    """Candidate datasheet URLs: schematic-embedded URL first, then library
    results in priority order, duplicates dropped (first occurrence kept)."""
    if not libraries and schematic_url is None:
        raise NoCandidates(f"no libraries configured and no schematic URL for {part.key}")
    candidates: list[str] = []
    if schematic_url:
        candidates.append(schematic_url)
    for lib in sorted(libraries, key=lambda s: s.priority):
        candidates.extend(lib.lookup(part))
    deduped = list(dict.fromkeys(candidates))
    if not deduped:
        raise NoCandidates(f"no datasheet candidates for {part.key}")
    return deduped

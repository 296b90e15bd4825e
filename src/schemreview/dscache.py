"""Persistent datasheet spec cache with TTL expiry.

One JSON file per entry under the store root, named by the SHA-256 of the
(part number, source URL) key. An entry is fresh iff its age is strictly
less than ``TTL_S`` (7 days); expired entries are deleted lazily on
lookup, and so, with a warning, are corrupt ones, such as an entry whose
``stored_at`` is not finite (it would never expire). Writes go through a
temp file + rename so concurrent readers never see a torn entry.

A store keeps each entry a lookup has read, for its lifetime (one run),
and serves that key's later lookups from memory; each still applies the
TTL to the entry's ``stored_at``, and a kept entry that has expired is
forgotten and its file looked up again (and deleted if still expired).
A written entry is kept only once a lookup has read it back: its file
is what later lookups must see.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

from .dsmodel import CriticScore, DatasheetSpec
from .errors import StoreIo
from .fileio import decode, read_bytes, write_text

log = logging.getLogger(__name__)

TTL_S = 604800  # 7 days

CacheKey = tuple[str, str]  # (part number, source URL)


class CacheEntry(NamedTuple):
    key: CacheKey
    spec: DatasheetSpec
    score: CriticScore
    stored_at: float


class CacheStore:
    def __init__(self, root, now=time.time):
        self.now = now
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise StoreIo(f"cannot create cache dir {root}: {exc}") from exc
        self._root = os.path.join(root, "")  # ends in a separator
        self._kept: dict[CacheKey, CacheEntry] = {}

    def _path(self, key: CacheKey) -> str:
        digest = hashlib.sha256(f"{key[0]}\n{key[1]}".encode("utf-8")).hexdigest()
        return f"{self._root}{digest}.json"

    def lookup(self, key: CacheKey) -> tuple[DatasheetSpec, CriticScore] | None:
        kept = self._kept.get(key)
        if kept is not None:
            if self.now() - kept.stored_at < TTL_S:
                return kept.spec, kept.score
            self._kept.pop(key, None)
        path = self._path(key)
        try:
            raw = read_bytes(path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreIo(f"cannot read cache entry {path}: {exc}") from exc
        try:
            # UnicodeDecodeError and JSONDecodeError are ValueErrors; a
            # TypeError is a field of the wrong JSON type
            doc = json.loads(decode(raw))
            stored_at = float(doc["stored_at"])
            if not math.isfinite(stored_at):  # json reads NaN and Infinity
                raise ValueError(f"stored_at is not finite: {stored_at}")
            if self.now() - stored_at >= TTL_S:
                Path(path).unlink(missing_ok=True)
                return None
            spec = DatasheetSpec.from_xml(doc["spec_xml"])
            score = CriticScore(**doc["score"])
        except (KeyError, ValueError, TypeError, ET.ParseError) as exc:
            log.warning("dropping corrupt cache entry %s: %s", path, exc)
            Path(path).unlink(missing_ok=True)
            return None
        self._kept[key] = CacheEntry(key, spec, score, stored_at)
        return spec, score

    def put(self, entry: CacheEntry) -> None:
        path = self._path(entry.key)
        doc = {
            "version": 1,
            "part_number": entry.key[0],
            "source_url": entry.key[1],
            "stored_at": entry.stored_at,
            "score": {name: getattr(entry.score, name) for name in (
                "feature_completeness", "pin_function_coverage",
                "application_information", "typical_application_circuits")},
            "spec_xml": entry.spec.to_xml(),
        }
        tmp = f"{path.removesuffix('.json')}.tmp{os.getpid()}.{threading.get_ident()}"
        try:
            write_text(tmp, json.dumps(doc, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError as exc:
            raise StoreIo(f"cannot write cache entry {path}: {exc}") from exc
        finally:
            self._kept.pop(entry.key, None)

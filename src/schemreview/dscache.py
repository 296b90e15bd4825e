"""Persistent datasheet spec cache with TTL expiry.

One JSON file per entry under the store root, named by the SHA-256 of the
(part number, source URL) key. An entry is fresh iff its age is strictly
less than ``TTL_S`` (7 days); expired entries are deleted lazily on
lookup. Writes go through a temp file + rename so concurrent readers
never see a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .dsmodel import CriticScore, DatasheetSpec
from .errors import StoreIo

log = logging.getLogger(__name__)

TTL_S = 604800  # 7 days

CacheKey = tuple[str, str]  # (part number, source URL)


@dataclass(frozen=True)
class CacheEntry:
    key: CacheKey
    spec: DatasheetSpec
    score: CriticScore
    stored_at: float


class CacheStore:
    def __init__(self, root, now=time.time):
        self.root = Path(root)
        self.now = now
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreIo(f"cannot create cache dir {root}: {exc}") from exc

    def _path(self, key: CacheKey) -> Path:
        digest = hashlib.sha256(f"{key[0]}\n{key[1]}".encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def lookup(self, key: CacheKey) -> tuple[DatasheetSpec, CriticScore] | None:
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreIo(f"cannot read cache entry {path}: {exc}") from exc
        try:
            doc = json.loads(text)
            entry_age = self.now() - float(doc["stored_at"])
            if entry_age >= TTL_S:
                path.unlink(missing_ok=True)
                return None
            spec = DatasheetSpec.from_xml(doc["spec_xml"])
            score = CriticScore(**doc["score"])
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            log.warning("dropping corrupt cache entry %s: %s", path, exc)
            path.unlink(missing_ok=True)
            return None
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
        tmp = path.with_suffix(f".tmp{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            raise StoreIo(f"cannot write cache entry {path}: {exc}") from exc

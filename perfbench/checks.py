"""Output checks: what a correct invocation must have delivered.

Every check reads what a user gets (the file sink's comments and manifest,
the run report, the fixture directory) and returns a list of problems;
an empty list means the invocation passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

# A verdict row of a rendered comment: "| <pins> | <Verdict> | <reasoning> |"
_ROW = re.compile(r"^\| (?P<pins>[^|]+?) \| (?P<verdict>[A-Z][a-z]+) \|")

# The bundled demo's planted errors: (page, designator, pins, verdict).
DEMO_ERRORS = (("P1", "U1", "1, 3", "Incorrect"),
               ("P3", "R8", "1", "Incorrect"))


def comment_findings(out_dir) -> list[tuple[str, str, set]]:
    """(page id, group id, {(designator, pins, verdict)}) per delivered comment."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    comments = []
    for entry in manifest["comments"]:
        markdown = (out / entry["markdown_path"]).read_text(encoding="utf-8")
        rows, designator = set(), None
        for line in markdown.splitlines():
            if line.startswith("#### "):
                designator = line[5:].strip()
                continue
            match = _ROW.match(line)
            if match and designator is not None and match["pins"] != "Pin":
                rows.add((designator, match["pins"], match["verdict"]))
        comments.append((entry["page_id"], entry["group_id"], rows))
    return comments


def check_reported(out_dir, expected) -> list[str]:
    """Each expected (page, designator, pins, verdict) appears in exactly one
    comment, that is, in exactly one error group."""
    comments = comment_findings(out_dir)
    problems = []
    for page, designator, pins, verdict in expected:
        hits = [group for page_id, group, rows in comments
                if page_id == page and (designator, pins, verdict) in rows]
        if len(hits) != 1:
            problems.append(f"{page} {designator} pins {pins} ({verdict}) is in "
                            f"{len(hits)} error groups, expected 1")
    return problems


def planted(manifest: dict) -> list[tuple[str, str, str, str]]:
    return [(e["page"], e["designator"], e["pins"], e["status"].capitalize())
            for e in manifest["errors"]]


def check_pages(analyzed, expected) -> list[str]:
    if list(analyzed) != list(expected):
        return [f"pages analyzed {list(analyzed)}, expected {list(expected)}"]
    return []


def check_status(report) -> list[str]:
    if report.status != "complete":
        return [f"run status {report.status!r}, expected 'complete'"]
    return []


def missing_fixtures(fixture_dir) -> list[str]:
    """Mock misses: request captures that no fixture answers."""
    root = Path(fixture_dir)
    return [str(p.relative_to(root)) for p in sorted(root.rglob("*.req"))
            if not p.with_suffix(".resp").exists()]


def output_digest(out_dir) -> str:
    """SHA-256 over the delivered comments, overlays and manifest."""
    out = Path(out_dir)
    digest = hashlib.sha256()
    files = [out / "manifest.json"]
    for sub in ("comments", "overlays"):
        if (out / sub).is_dir():
            files.extend(sorted((out / sub).iterdir()))
    for path in files:
        digest.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()

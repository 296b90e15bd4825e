"""A fixed reference task that tracks how fast the host runs Python now.

On a shared host the speed available to one process drifts by up to a
factor of two over minutes, far more than the changes the benchmark must
resolve. ``reference_task`` is a fixed mix of the kinds of work the
pipeline does — JSON validation against a schema, encoding and hashing,
loops over small objects, XML parsing — written only with the standard
library and ``jsonschema``, so that no change to the program under test
changes it. Timing it next to each invocation measures the host's current
speed, and ``adjusted`` rescales a measured time to the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import xml.etree.ElementTree as ET

import jsonschema

# How long reference_task takes on the reference host: adjusted times are
# seconds on a host that runs it in 15 ms.
REFERENCE_S = 0.015

_SCHEMA = {
    "type": "object",
    "required": ["items"],
    "properties": {"items": {"type": "array", "items": {
        "type": "object",
        "required": ["name", "box"],
        "properties": {
            "name": {"type": "string", "minLength": 1},
            "kind": {"enum": ["a", "b", "c"]},
            "box": {"type": "object", "required": ["x", "y"],
                    "properties": {"x": {"type": "number"},
                                   "y": {"type": "number"}}},
        }}}},
}


class _Seg:
    def __init__(self, x1, y1, x2, y2):
        self.p1, self.p2 = (x1, y1), (x2, y2)

    def contains(self, pt) -> bool:
        (x1, y1), (x2, y2) = self.p1, self.p2
        px, py = pt
        return min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)


def _inputs():
    rng = random.Random(0)
    doc = {"items": [{"name": f"n{i}", "kind": "abc"[i % 3],
                      "box": {"x": rng.randrange(1000), "y": rng.randrange(1000)}}
                     for i in range(120)]}
    segs = [_Seg(rng.randrange(100), rng.randrange(100),
                 rng.randrange(100), rng.randrange(100)) for i in range(90)]
    xml = "<r>" + "".join(f'<c d="{i}"><p d="{j}"/></c>' for i in range(60)
                          for j in range(4)) + "</r>"
    return doc, segs, xml


_DOC, _SEGS, _XML = _inputs()
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def reference_task() -> float:
    """Seconds the fixed task took now."""
    t0 = time.perf_counter()
    _VALIDATOR.validate(_DOC)
    text = json.dumps(_DOC, sort_keys=True)
    hashlib.sha256(json.dumps(json.loads(text)).encode("utf-8")).hexdigest()
    hits = 0
    for seg in _SEGS:
        for other in _SEGS:
            hits += other.contains(seg.p1)
    ET.fromstring(_XML)
    return time.perf_counter() - t0


def adjusted(wall: float, busy: float, reference_s: float) -> float:
    """``wall`` with its host-bound part ``busy`` rescaled to the reference
    host speed; the rest (waiting on the mock backend's delay) is kept as
    measured. ``reference_s`` is how long ``reference_task`` took around
    this measurement."""
    speed = REFERENCE_S / reference_s
    return wall - min(busy, wall) * (1.0 - speed)

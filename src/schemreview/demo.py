"""Self-contained demo workspace and scripted mock responses.

``write_demo_workspace`` lays out everything an offline end-to-end run
needs: the bundled three-page schematic (with an intentionally swapped
pin pair on U1 and a mis-railed pull-up on R8), a base variant differing
only on page P2, synthetic datasheet files, a CSV part library, and a
run config pointing at a mock backend.

``demo_responder`` answers every agent call deterministically from the
payload alone, and ``generate_fixtures`` runs a run function once with
every mock fixture it misses scripted on the spot: the mock backend
drops its ``.req`` capture, the responder's answer is written beside it
as the ``.resp`` and served, so an empty directory ends up holding
exactly what that run read.
"""

from __future__ import annotations

import json
import re
import threading
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

from .fileio import write_text
from .gateway import MockBackend
from .unionfind import UnionFind

POWER_NET = re.compile(r"^(GND|VCC.*|VDD.*|[+-]?[0-9]+V.*)$")

DEMO_PART_PINS = {
    "LM317": [("1", "ADJ", "output voltage adjust"),
              ("2", "VOUT", "regulated output"),
              ("3", "VIN", "supply input")],
    "RES-1K": [("1", "", "terminal"), ("2", "", "terminal")],
    "RES-120": [("1", "", "terminal"), ("2", "", "terminal")],
    "RES-4K7": [("1", "", "terminal"), ("2", "", "terminal")],
    "CAP-10U": [("1", "+", "positive terminal"), ("2", "-", "negative terminal")],
    "CAP-100N": [("1", "", "terminal"), ("2", "", "terminal")],
    "XCVR-485": [("1", "A", "bus line A"), ("2", "B", "bus line B"),
                 ("3", "VCC", "supply"), ("4", "GND", "ground")],
    "SENSE-TMP": [("1", "SDA", "i2c data"), ("2", "SCL", "i2c clock"),
                  ("3", "VDD", "supply"), ("4", "GND", "ground")],
}


def demo_schematic_text() -> str:
    return resources.files(f"{__package__}.data").joinpath("demo_schematic.json").read_text()


_BUS_B = '{"name": "BUS_B", "nodes": [["U2", "2"], ["R7", "2"]]}'


def demo_base_text() -> str:
    """The base variant: the bundled text except on page P2, where the
    termination resistor is not yet on BUS_B. Pages P1 and P3 keep the
    head's text, so a design review reads only P2."""
    text = demo_schematic_text()
    assert text.count(_BUS_B) == 1
    return text.replace(_BUS_B, '{"name": "BUS_B", "nodes": [["U2", "2"]]}')


def datasheet_text(mpn: str) -> str:
    pins = DEMO_PART_PINS[mpn]
    pin_lines = "\n".join(f"PIN {d} {name or '-'} {function}"
                          for d, name, function in pins)
    return (
        f"{mpn} DATASHEET\nGENERAL DESCRIPTION\n"
        f"A demo component with {len(pins)} pins.\n"
        "\f"
        f"PIN DESCRIPTIONS\n{pin_lines}\n"
        "\f"
        "ABSOLUTE MAXIMUM RATINGS\n"
        "RATING supply-voltage 40 V\n"
        "RECOMMENDED OPERATING\n"
        "RANGE supply-voltage 3 37 V\n"
        "\f"
        "TYPICAL APPLICATION\n"
        f"CIRCUIT reference circuit for {mpn}\n"
        "BLOCK internal protection block\n"
    )


def write_demo_workspace(workdir) -> dict:
    """Create the demo workspace; returns the important paths."""
    root = Path(workdir)
    (root / "datasheets").mkdir(parents=True, exist_ok=True)
    (root / "fixtures").mkdir(exist_ok=True)

    schematic = root / "schematic.json"
    schematic.write_text(demo_schematic_text(), encoding="utf-8")
    base = root / "base_schematic.json"
    base.write_text(demo_base_text(), encoding="utf-8")

    rows = ["part_number,datasheet_url"]
    for mpn in sorted(DEMO_PART_PINS):
        sheet = root / "datasheets" / f"{mpn}.txt"
        sheet.write_text(datasheet_text(mpn), encoding="utf-8")
        rows.append(f"{mpn},{sheet.resolve().as_uri()}")
    library_csv = root / "parts.csv"
    library_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")

    config = {
        "version": 1,
        "mode": "full-analysis",
        "k": 3,
        "critic_threshold": 7.0,
        "cache_dir": str(root / "cache"),
        "backend": {"kind": "mock", "fixture_path": str(root / "fixtures")},
        "libraries": [{"kind": "csv-table", "priority": 1,
                       "path": str(library_csv)}],
        "sink": {"kind": "file", "out_dir": str(root / "out")},
        "trace_out": str(root / "trace.jsonl"),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {
        "schematic": schematic,
        "base": base,
        "config": config_path,
        "fixtures": root / "fixtures",
        "out": root / "out",
        "trace": root / "trace.jsonl",
    }


# --- scripted responses -------------------------------------------------------

def _respond_selection(payload: str) -> str:
    """Connected components over non-power nets, named after their lead
    component (the first U-designator when one exists)."""
    page = ET.fromstring(payload)
    designators = sorted({c.get("designator") for c in page.iter("component")})
    index = {d: i for i, d in enumerate(designators)}
    components = UnionFind(len(designators))
    for net in page.iter("net"):
        if not POWER_NET.match(net.get("name")):
            members = sorted({node.get("component") for node in net.iter("node")})
            for a, b in zip(members, members[1:]):
                components.union(index[a], index[b])
    clusters: dict[int, list[str]] = {}
    for i, designator in enumerate(designators):
        clusters.setdefault(components.find(i), []).append(designator)
    groups = []
    for cluster in clusters.values():
        lead = next((d for d in cluster if d.startswith("U")), cluster[0])
        groups.append({"name": f"{lead} network", "designators": cluster})
    groups.sort(key=lambda g: g["name"])
    return json.dumps({"groups": groups})


def _respond_head(payload: str) -> str:
    doc = json.loads(payload)
    markers = ("PIN", "RATING", "APPLICATION")
    pages = [i for i, text in enumerate(doc["excerpts"])
             if any(marker in text.upper() for marker in markers)]
    return json.dumps({"pages": pages or [0]})


def _respond_extraction(payload: str) -> str:
    doc = json.loads(payload)
    pins, ratings, ranges, blocks, circuits = [], [], [], [], []
    for _index, text in sorted(doc["pages"].items(), key=lambda kv: int(kv[0])):
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "PIN" and len(parts) >= 4:
                pins.append({"designator": parts[1],
                             "function": " ".join(parts[3:]),
                             "metadata": ({"name": parts[2]}
                                          if parts[2] != "-" else {})})
            elif parts[0] == "RATING" and len(parts) >= 4:
                ratings.append({"parameter": parts[1], "limit": parts[2],
                                "unit": parts[3]})
            elif parts[0] == "RANGE" and len(parts) >= 5:
                ranges.append({"parameter": parts[1], "min": parts[2],
                               "max": parts[3], "unit": parts[4]})
            elif parts[0] == "BLOCK":
                blocks.append(" ".join(parts[1:]))
            elif parts[0] == "CIRCUIT":
                circuits.append(" ".join(parts[1:]))
    return json.dumps({"pins": pins, "abs_max_ratings": ratings,
                       "rec_operating": ranges, "blocks": blocks,
                       "app_circuits": circuits})


def _respond_critic(payload: str) -> str:
    root = ET.fromstring(payload)
    pin_count = len(root.findall("./pins/pin"))
    has_blocks = bool(root.findall("./blocks/block"))
    has_circuits = bool(root.findall("./app_circuits/circuit"))
    return json.dumps({
        "feature_completeness": 8 if has_blocks else 6,
        "pin_function_coverage": min(10, 7 + pin_count),
        "application_information": 8 if has_circuits else 5,
        "typical_application_circuits": 8 if has_circuits else 5,
    })


def _respond_review(payload: str, seed: int) -> str:
    doc = json.loads(payload)
    page_id = ET.fromstring(doc["netlist_xml"]).get("id")
    members = list(doc["group"]["designators"])
    pins_of = {}
    for comp in ET.fromstring(doc["netlist_xml"]).iter("component"):
        pins_of[comp.get("designator")] = [p.get("designator")
                                           for p in comp.findall("pin")]

    analyses: dict[str, list[dict]] = {}
    covered: dict[str, set[str]] = {}

    def add(designator, pins, status, reasoning, nets=()):
        if designator not in members:
            return
        analyses.setdefault(designator, []).append({
            "pins": pins, "status": status, "reasoning": reasoning,
            "referenced_nets": list(nets)})
        covered.setdefault(designator, set()).update(
            p.strip() for p in pins.split(","))

    if page_id == "P1":
        add("U1", "1, 3", "incorrect",
            "ADJ and VIN are swapped relative to the datasheet pinout",
            ["NET_A", "VIN_RAW"])
        add("R5", "1", "warning",
            "feedback resistor ties to the swapped adjust node", ["NET_A"])
    if page_id == "P3":
        add("R8", "1", "incorrect",
            "pull-up connects SDA to the wrong rail", ["I2C_SDA"])
        add("U3", "2", "incorrect" if seed == 2 else "correct",
            "SCL connection check", ["I2C_SCL"])
        if seed == 1:
            add("C5", "1", "warning",
                "verify decoupling capacitor voltage rating margin",
                ["VDD_SENSOR"])

    silent = {"C5"} if page_id == "P3" else set()
    for designator in members:
        if designator in silent:
            continue
        remaining = [p for p in pins_of.get(designator, [])
                     if p not in covered.get(designator, set())]
        if remaining:
            add(designator, ", ".join(sorted(remaining)), "correct",
                "connections match the datasheet")

    return json.dumps({"analyses": [
        {"designator": d, "verdicts": v} for d, v in sorted(analyses.items())]})


def _respond_consensus(payload: str) -> str:
    from collections import Counter

    doc = json.loads(payload)
    verifications = [{"designator": s["designator"], "pins": s["pins"],
                      "keep": True} for s in doc["singles"]]
    resolutions = []
    for contradiction in doc["contradictions"]:
        counts = Counter(v["status"] for v in contradiction["verdicts"])
        top = max(counts.values())
        status = sorted(s for s, n in counts.items() if n == top)[0]
        resolutions.append({
            "designator": contradiction["designator"],
            "pins": contradiction["pins"],
            "status": status,
            "reasoning": "re-examined against full context; majority stands",
            "referenced_nets": sorted({n for v in contradiction["verdicts"]
                                       for n in v["referenced_nets"]}),
        })
    return json.dumps({"verifications": verifications, "resolutions": resolutions})


def demo_responder(kind_name: str, payload: str, seed: int = 0) -> str:
    if kind_name == "selection":
        return _respond_selection(payload)
    if kind_name == "head_analysis":
        return _respond_head(payload)
    if kind_name == "extraction":
        return _respond_extraction(payload)
    if kind_name == "critic":
        return _respond_critic(payload)
    if kind_name == "group_review":
        return _respond_review(payload, seed)
    if kind_name == "consensus":
        return _respond_consensus(payload)
    raise ValueError(f"no scripted response for agent kind {kind_name!r}")


# --- fixture generation ----------------------------------------------------------

def generate_fixtures(run_fn, fixture_root, responder=demo_responder):
    """Run ``run_fn`` once against the mock fixture directory
    ``fixture_root``, scripting each fixture it misses: the miss leaves
    its ``.req`` capture, the responder's answer is written beside it as
    the ``.resp`` and served from there. One lock covers every read, so
    the responder is never entered by two threads at once. Returns
    ``run_fn``'s result; its exception propagates."""
    Path(fixture_root).mkdir(parents=True, exist_ok=True)
    original = MockBackend._read
    lock = threading.Lock()

    def read(backend, rel, payload):
        with lock:
            raw = original(backend, rel, payload)
            if raw is None:
                kind, name = rel.split("/")
                seed = int(name.removesuffix(".resp").rsplit("-", 1)[1])
                write_text(backend.root + rel, responder(kind, payload, seed))
                raw = original(backend, rel, payload)
            return raw

    MockBackend._read = read
    try:
        return run_fn()
    finally:
        MockBackend._read = original

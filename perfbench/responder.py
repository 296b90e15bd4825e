"""Scripted agent answers for the benchmark's mock fixtures.

``make_responder(manifest)`` returns a responder for
``schemreview.demo.generate_fixtures``: a pure function of (agent kind,
payload, seed) plus the board manifest. Group reviews of a synthetic board
report the manifest's planted errors, varied by the run seed according to
each error's mode (see ``boardgen.MODES``), and call every other pin
correct. Every other agent kind, and every call when there is no manifest
(the bundled demo), is answered by ``schemreview.demo.demo_responder``.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from schemreview.demo import POWER_NET, demo_responder

CORRECT_REASONING = "connections match the datasheet"


def split_pins(pins: str) -> list[str]:
    return [p.strip() for p in pins.split(",") if p.strip()]


def _planted_verdict(error: dict, seed: int) -> tuple[str, str] | None:
    """(status, reasoning) that run ``seed`` gives a planted error, or None
    when that run stays silent on its pins."""
    mode = error["mode"]
    if mode == "multi":
        return error["status"], error["reasoning"]
    if mode == "single":
        return (error["status"], error["reasoning"]) if seed == error["run"] else None
    if mode == "contradiction":
        if seed == error["run"]:
            return "correct", CORRECT_REASONING
        return error["status"], error["reasoning"]
    raise ValueError(f"unknown planted-error mode {mode!r}")


def _review(payload: str, seed: int, planted: dict) -> str:
    doc = json.loads(payload)
    page = ET.fromstring(doc["netlist_xml"])
    page_id = page.get("id")
    pins_of = {c.get("designator"): [p.get("designator") for p in c.findall("pin")]
               for c in page.iter("component")}
    signal_nets: dict[tuple[str, str], str] = {}
    for net in page.iter("net"):
        if POWER_NET.match(net.get("name")):
            continue
        for node in net.iter("node"):
            signal_nets[(node.get("component"), node.get("pin"))] = net.get("name")

    def nets_for(designator, pins):
        return sorted({signal_nets[(designator, p)] for p in pins
                       if (designator, p) in signal_nets})

    analyses = []
    for designator in sorted(doc["group"]["designators"]):
        verdicts, covered = [], set()
        for error in planted.get((page_id, designator), ()):
            pins = split_pins(error["pins"])
            covered.update(pins)
            answer = _planted_verdict(error, seed)
            if answer is not None:
                verdicts.append({"pins": error["pins"], "status": answer[0],
                                 "reasoning": answer[1],
                                 "referenced_nets": nets_for(designator, pins)})
        remaining = [p for p in pins_of.get(designator, []) if p not in covered]
        if remaining:
            verdicts.append({"pins": ", ".join(sorted(remaining)), "status": "correct",
                             "reasoning": CORRECT_REASONING, "referenced_nets": []})
        if verdicts:
            analyses.append({"designator": designator, "verdicts": verdicts})
    return json.dumps({"analyses": analyses})


def make_responder(manifest: dict | None):
    if manifest is None:
        return demo_responder
    planted: dict[tuple[str, str], list[dict]] = {}
    for error in manifest["errors"]:
        planted.setdefault((error["page"], error["designator"]), []).append(error)

    def respond(kind_name: str, payload: str, seed: int = 0) -> str:
        if kind_name == "group_review":
            return _review(payload, seed, planted)
        return demo_responder(kind_name, payload, seed)

    return respond

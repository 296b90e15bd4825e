"""The review and consensus payload builders as they were when ``specs``
was keyed by designator: every member carried its own copy of its spec's
XML (``null`` where retrieval failed or the member had no part key).
Kept unchanged as the oracle the part-keyed payloads are tested against
(``test_spec_payload.py``)."""

from __future__ import annotations

import json

from schemreview.review import GroupReviewContext, canonical_pin_key


def designator_spec_xml(ctx: GroupReviewContext) -> dict:
    return {d: spec.to_xml() if spec is not None else None
            for d, spec in ctx.specs.items()}


def designator_review_payload(ctx: GroupReviewContext) -> str:
    return json.dumps({
        "group": {"name": ctx.group.name, "designators": list(ctx.group.designators)},
        "netlist_xml": ctx.netlist_xml,
        "specs": designator_spec_xml(ctx),
        "checklist": ctx.checklist,
    }, sort_keys=True)


def designator_consensus_payload(ctx: GroupReviewContext, singles, clusters) -> str:
    return json.dumps({
        "group": {"name": ctx.group.name, "designators": list(ctx.group.designators)},
        "netlist_xml": ctx.netlist_xml,
        "specs": designator_spec_xml(ctx),
        "checklist": ctx.checklist,
        "singles": [
            {"designator": designator,
             "pins": canonical_pin_key(verdict.pins),
             "status": verdict.status.value,
             "reasoning": verdict.reasoning,
             "referenced_nets": sorted(verdict.referenced_nets),
             "run_index": run_index}
            for designator, verdict, run_index in singles
        ],
        "contradictions": [
            {"designator": cluster.designator,
             "pins": canonical_pin_key(cluster.pins),
             "verdicts": [
                 {"run_index": run_index,
                  "pins": canonical_pin_key(v.pins),
                  "status": v.status.value,
                  "reasoning": v.reasoning,
                  "referenced_nets": sorted(v.referenced_nets)}
                 for run_index, v in cluster.verdicts]}
            for cluster in clusters
        ],
    }, sort_keys=True)

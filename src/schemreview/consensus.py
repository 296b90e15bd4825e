"""Multi-run consensus: reconcile k review runs into one finding set.

Findings are matched across runs by (designator, pin set, status).

* Matched in two or more runs: retained as MultiRun, confidence High on
  a strict majority of runs, else Medium.
* Present in a single run: adjudicated keep/drop by the consensus agent
  (dedicated model) against the context the review runs saw: the group's
  slice of the netlist and its members' datasheet specs; kept findings
  carry SingleRunVerified / Low.
* Same (designator, pin) with conflicting statuses across runs: the
  touched verdicts are pulled into a contradiction cluster which the
  consensus agent re-examines, emitting exactly one ContradictionResolved
  finding per cluster.

Singles and contradictions for a group travel in one batched agent call;
when neither exists the stage is purely local. Output never contains two
findings for the same (designator, pin): resolutions take precedence,
then multi-run findings by support, then verified singles.
"""

from __future__ import annotations

import enum
import json
import logging
from typing import NamedTuple

from .gateway import AgentKind, AgentRequest, Gateway
from .review import (
    GroupReviewContext,
    PinVerdict,
    RunResult,
    VerdictStatus,
    canonical_pin_key,
    payload_specs,
    split_pin_key,
)
from .records import checked
from .tracing import UNTRACED, TraceContext
from .unionfind import UnionFind

log = logging.getLogger(__name__)

CONSENSUS_PROMPT = (
    "Adjudicate review findings against the schematic and datasheets: decide "
    "keep/drop for each single-run finding, and emit exactly one resolved "
    "finding per contradiction cluster.")


class Confidence(enum.Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class Provenance(enum.Enum):
    MULTI_RUN = "multi-run"
    SINGLE_RUN_VERIFIED = "single-run-verified"
    CONTRADICTION_RESOLVED = "contradiction-resolved"


class ConsensusFinding(checked("ConsensusFinding", "pin_key status reasoning referenced_nets "
                                                    "support_count confidence provenance")):
    """``pins`` (in key order) is derived from ``pin_key``, and kept in the
    instance ``__dict__``."""

    def __new__(cls, pin_key: str, status: VerdictStatus, reasoning: str,
                referenced_nets: tuple[str, ...], support_count: int,
                confidence: Confidence, provenance: Provenance):
        self = tuple.__new__(cls, (pin_key, status, reasoning, tuple(referenced_nets),
                                   support_count, confidence, provenance))
        if support_count >= 2 and provenance is not Provenance.MULTI_RUN:
            raise ValueError("support from multiple runs implies multi-run provenance")
        if support_count < 1:
            raise ValueError("support_count must be at least 1")
        self.pins = split_pin_key(pin_key)
        return self


class ConsensusAnalysis(checked("ConsensusAnalysis", "designator findings")):
    """The consensus findings on one component, no pin in two findings."""

    __slots__ = ()

    def __new__(cls, designator: str, findings: tuple[ConsensusFinding, ...]):
        findings = tuple(findings)
        seen: set[str] = set()
        for finding in findings:
            overlap = seen & set(finding.pins)
            if overlap:
                raise ValueError(
                    f"{designator}: duplicate findings for pin(s) {sorted(overlap)}")
            seen |= set(finding.pins)
        return tuple.__new__(cls, (designator, findings))


# matching key across runs
_Key = tuple[str, frozenset, VerdictStatus]


class _Cluster(NamedTuple):
    designator: str
    pins: frozenset
    verdicts: tuple[tuple[int, PinVerdict], ...]  # (run_index, verdict)


def _collect(results: list[RunResult]):
    occurrences: dict[_Key, list[tuple[int, PinVerdict]]] = {}
    pin_statuses: dict[tuple[str, str], set[VerdictStatus]] = {}
    for run in results:
        for analysis in run.analyses:
            for verdict in analysis.verdicts:
                key = (analysis.designator, verdict.pin_set, verdict.status)
                occurrences.setdefault(key, []).append((run.run_index, verdict))
                for pin in verdict.pins:
                    pin_statuses.setdefault((analysis.designator, pin), set()).add(
                        verdict.status)
    return occurrences, pin_statuses


def _contested_clusters(occurrences, contradicted: set[tuple[str, str]]) -> list[_Cluster]:
    """Group contradicted verdict keys per designator by shared pins.

    Clusters are ordered by designator, then by their first contested key
    in ``occurrences`` order."""
    keys = sorted((key for key in occurrences
                   if any((key[0], pin) in contradicted for pin in key[1])),
                  key=lambda key: key[0])
    uf = UnionFind(len(keys))
    first_with_pin: dict[tuple[str, str], int] = {}
    for i, (designator, pins, _status) in enumerate(keys):
        for pin in pins:
            uf.union(first_with_pin.setdefault((designator, pin), i), i)
    members: dict[int, list[int]] = {}
    for i in range(len(keys)):
        members.setdefault(uf.find(i), []).append(i)

    clusters: list[_Cluster] = []
    for indices in members.values():
        verdicts = sorted(
            (hit for i in indices for hit in occurrences[keys[i]]),
            key=lambda item: (item[0], canonical_pin_key(item[1].pins),
                              item[1].status.value))
        pins = frozenset().union(*(keys[i][1] for i in indices))
        clusters.append(_Cluster(keys[indices[0]][0], pins, tuple(verdicts)))
    return clusters


def build_consensus_payload(ctx: GroupReviewContext,
                            singles: list[tuple[str, PinVerdict, int]],
                            clusters: list[_Cluster]) -> str:
    """Deterministic payload for the batched adjudication call."""
    return json.dumps({
        "group": {"name": ctx.group.name, "designators": list(ctx.group.designators)},
        "netlist_xml": ctx.netlist_xml,
        "specs": payload_specs(ctx),
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


def combine_consensus(results: list[RunResult], ctx: GroupReviewContext,
                      gateway: Gateway,
                      trace: TraceContext = UNTRACED) -> list[ConsensusAnalysis]:
    if not results:
        raise ValueError("consensus needs at least one run result")
    k = len(results)
    occurrences, pin_statuses = _collect(results)
    contradicted = {pin for pin, statuses in pin_statuses.items() if len(statuses) > 1}
    clusters = _contested_clusters(occurrences, contradicted) if contradicted else []

    contested_key_set: set[_Key] = set()
    for cluster in clusters:
        for run_index, verdict in cluster.verdicts:
            contested_key_set.add((cluster.designator, verdict.pin_set, verdict.status))

    multi: list[tuple[str, ConsensusFinding]] = []
    singles: list[tuple[str, PinVerdict, int]] = []
    for key, hits in occurrences.items():
        if key in contested_key_set:
            continue
        designator = key[0]
        support = len(hits)
        if support >= 2:
            run_index, representative = min(hits, key=lambda item: item[0])
            nets = sorted({net for _, v in hits for net in v.referenced_nets})
            multi.append((designator, ConsensusFinding(
                pin_key=canonical_pin_key(representative.pins),
                status=representative.status,
                reasoning=representative.reasoning,
                referenced_nets=tuple(nets),
                support_count=support,
                confidence=Confidence.HIGH if support > k / 2 else Confidence.MEDIUM,
                provenance=Provenance.MULTI_RUN,
            )))
        else:
            run_index, verdict = hits[0]
            singles.append((designator, verdict, run_index))

    singles.sort(key=lambda item: (item[0], canonical_pin_key(item[1].pins),
                                   item[1].status.value))

    verified: list[tuple[str, ConsensusFinding]] = []
    resolved: list[tuple[str, ConsensusFinding]] = []
    if singles or clusters:
        req = AgentRequest(AgentKind.CONSENSUS, CONSENSUS_PROMPT,
                           build_consensus_payload(ctx, singles, clusters))
        decision = gateway.complete(req, trace=trace).value
        keep_map = {(v["designator"], v["pins"]): v["keep"]
                    for v in decision["verifications"]}
        for designator, verdict, _run_index in singles:
            pins = canonical_pin_key(verdict.pins)
            keep = keep_map.get((designator, pins))
            if keep is None:
                log.warning("consensus gave no verdict for single-run finding "
                            "%s %s; dropped", designator, pins)
                continue
            if keep:
                verified.append((designator, ConsensusFinding(
                    pin_key=pins,
                    status=verdict.status,
                    reasoning=verdict.reasoning,
                    referenced_nets=tuple(sorted(verdict.referenced_nets)),
                    support_count=1,
                    confidence=Confidence.LOW,
                    provenance=Provenance.SINGLE_RUN_VERIFIED,
                )))
        resolution_map = {(r["designator"], r["pins"]): r
                          for r in decision["resolutions"]}
        for cluster in clusters:
            pins = canonical_pin_key(cluster.pins)
            resolution = resolution_map.get((cluster.designator, pins))
            if resolution is None:
                log.warning("consensus left contradiction %s %s unresolved; dropped",
                            cluster.designator, pins)
                continue
            resolved.append((cluster.designator, ConsensusFinding(
                pin_key=pins,
                status=VerdictStatus(resolution["status"]),
                reasoning=resolution["reasoning"],
                referenced_nets=tuple(sorted(resolution.get("referenced_nets", []))),
                support_count=1,
                confidence=Confidence.MEDIUM,
                provenance=Provenance.CONTRADICTION_RESOLVED,
            )))

    # precedence merge; never two findings for the same (designator, pin)
    multi.sort(key=lambda item: (-item[1].support_count, item[0], item[1].pin_key))
    claimed: dict[str, set[str]] = {}
    by_designator: dict[str, list[ConsensusFinding]] = {}
    for designator, finding in resolved + multi + verified:
        pins = set(finding.pins)
        taken = claimed.setdefault(designator, set())
        if taken & pins:
            log.warning("finding for %s %s overlaps an already retained finding; dropped",
                        designator, finding.pin_key)
            continue
        taken |= pins
        by_designator.setdefault(designator, []).append(finding)

    return [
        ConsensusAnalysis(designator, tuple(sorted(
            findings, key=lambda f: (f.pin_key, f.status.value))))
        for designator, findings in sorted(by_designator.items())
    ]

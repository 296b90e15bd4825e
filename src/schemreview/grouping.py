"""Cluster review findings into error groups with deterministic ids.

A swapped pin pair on an IC shows up on the IC's own pins and on every
downstream component hanging off the affected nets; those belong in one
group. Two findings share a group iff they reference a common net or sit
on the same component. Only Incorrect and Warning findings participate.

The group id is a pure function of the members: the first 12 hex chars
of the SHA-256 over the canonically sorted (designator, pin key,
referenced nets) triples. Input order can never change it.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .consensus import ConsensusAnalysis, ConsensusFinding
from .model import Net
from .review import VerdictStatus, canonical_pin_key
from .unionfind import UnionFind

GROUPABLE = (VerdictStatus.INCORRECT, VerdictStatus.WARNING)


class ErrorGroup(NamedTuple):
    group_id: str
    findings: tuple[tuple[str, ConsensusFinding], ...]
    root_cause_summary: str


def _finding_nets(designator: str, finding: ConsensusFinding,
                  nets: tuple[Net, ...]) -> frozenset[str]:
    """Nets a finding touches: the ones it references, else the nets its
    pins actually sit on (from the page netlist)."""
    if finding.referenced_nets:
        return frozenset(finding.referenced_nets)
    touched = set()
    for net in nets:
        for comp, pin in net.nodes:
            if comp == designator and pin in finding.pins:
                touched.add(net.name)
    return frozenset(touched)


def _member_triple(designator: str, finding: ConsensusFinding,
                   nets: frozenset[str]) -> str:
    return f"{designator}|{canonical_pin_key(finding.pins)}|{','.join(sorted(nets))}"


def group_errors(analyses: list[ConsensusAnalysis],
                 nets: tuple[Net, ...] = ()) -> list[ErrorGroup]:
    members: list[tuple[str, ConsensusFinding, frozenset[str]]] = []
    for analysis in analyses:
        for finding in analysis.findings:
            if finding.status in GROUPABLE:
                members.append((analysis.designator, finding,
                                _finding_nets(analysis.designator, finding, nets)))
    if not members:
        return []

    # canonical processing order makes cluster discovery order-insensitive
    members.sort(key=lambda m: _member_triple(m[0], m[1], m[2]))

    uf = UnionFind(len(members))
    by_designator: dict[str, list[int]] = {}
    by_net: dict[str, list[int]] = {}
    for i, (designator, _finding, nets_touched) in enumerate(members):
        by_designator.setdefault(designator, []).append(i)
        for net in nets_touched:
            by_net.setdefault(net, []).append(i)
    for bucket in list(by_designator.values()) + list(by_net.values()):
        for i in bucket[1:]:
            uf.union(bucket[0], i)

    clusters: dict[int, list[int]] = {}
    for i in range(len(members)):
        clusters.setdefault(uf.find(i), []).append(i)

    groups = []
    for indices in clusters.values():
        triples = sorted(_member_triple(*members[i]) for i in indices)
        digest = hashlib.sha256("\n".join(triples).encode("utf-8")).hexdigest()[:12]
        findings = tuple((members[i][0], members[i][1]) for i in sorted(
            indices, key=lambda i: _member_triple(*members[i])))
        designators = sorted({d for d, _f in findings})
        shared = sorted(set.union(*(set(members[i][2]) for i in indices)))
        summary = (f"{len(findings)} finding(s) across {', '.join(designators)}"
                   + (f" sharing net(s) {', '.join(shared)}" if shared else ""))
        groups.append(ErrorGroup(digest, findings, summary))
    groups.sort(key=lambda g: g.group_id)
    return groups

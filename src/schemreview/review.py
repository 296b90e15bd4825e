"""Functional grouping and per-group pin review.

The selection agent partitions a page's components into functional
groups; its output is repaired deterministically (ghost designators
dropped, duplicate members kept in their first group, uncovered
components collected into a residual "ungrouped" group). Each group is
then reviewed by k runs: the k choices of one ``group_review`` request,
sampled independently. A choice that is missing or fails its schema is
remade as a one-completion call seeded with its run index; individual
run failures are tolerated while at least one run succeeds.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import os
from concurrent.futures import Executor
from typing import NamedTuple

from .canonical import serialize_page_xml
from .dsmodel import DatasheetSpec
from .errors import AllRunsFailed, BadChecklist, SchemReviewError
from .fileio import read_text
from .gateway import AgentKind, AgentRequest, Gateway
from .model import Page
from .records import checked
from .tracing import UNTRACED, TraceContext
from .workfirst import map_on_pool

log = logging.getLogger(__name__)

UNGROUPED = "ungrouped"

SELECTION_PROMPT = (
    "Partition the page's components into functional groups (for example a "
    "regulator with its feedback network, an MCU with its bypassing). Every "
    "designator must come from the page.")
REVIEW_PROMPT = (
    "Review each component's pin connections against its datasheet "
    "specification and the checklist. Report per-pin verdicts; key pins "
    "sharing one root cause together (e.g. \"1, 3\").")


class VerdictStatus(enum.Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    WARNING = "warning"
    UNVERIFIABLE = "unverifiable"


_STATUSES = {status.value: status for status in VerdictStatus}


def split_pin_key(pin_key: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in pin_key.split(",") if p.strip())


def canonical_pin_key(pins) -> str:
    return ", ".join(sorted(pins))


class PinVerdict(checked("PinVerdict", "pin_key status reasoning referenced_nets")):
    """A verdict on the pins ``pin_key`` names; ``pins`` (in key order)
    and ``pin_set`` are derived from it, and kept in the instance
    ``__dict__``."""

    def __new__(cls, pin_key: str, status: VerdictStatus, reasoning: str,
                referenced_nets: tuple[str, ...] = ()):
        self = tuple.__new__(cls, (pin_key, status, reasoning, tuple(referenced_nets)))
        pins = split_pin_key(pin_key)
        if not pins:
            raise ValueError(f"pin key {pin_key!r} names no pins")
        self.pins = pins
        self.pin_set = frozenset(pins)
        return self


class ComponentAnalysis(checked("ComponentAnalysis", "designator verdicts")):
    """One run's verdicts on one component, no pin in two pin keys."""

    __slots__ = ()

    def __new__(cls, designator: str, verdicts: tuple[PinVerdict, ...]):
        verdicts = tuple(verdicts)
        seen: set[str] = set()
        for verdict in verdicts:
            overlap = seen & verdict.pin_set
            if overlap:
                raise ValueError(
                    f"{designator}: pin(s) {sorted(overlap)} appear in two pin keys")
            seen |= verdict.pin_set
        return tuple.__new__(cls, (designator, verdicts))


class RunResult(checked("RunResult", "run_index analyses")):
    """The component analyses of one review run."""

    __slots__ = ()

    def __new__(cls, run_index: int, analyses: tuple[ComponentAnalysis, ...]):
        return tuple.__new__(cls, (run_index, tuple(analyses)))


class RunFailure(NamedTuple):
    run_index: int
    error: str


class FunctionalGroup(checked("FunctionalGroup", "name designators")):
    """A named, non-empty set of designators reviewed together."""

    __slots__ = ()

    def __new__(cls, name: str, designators: tuple[str, ...]):
        designators = tuple(designators)
        if not designators:
            raise ValueError(f"group {name!r} has no members")
        return tuple.__new__(cls, (name, designators))


class GroupReviewContext(NamedTuple):
    """Everything one group review needs: the group, its slice of the page
    netlist in the payload layout (``serialize_page_xml(page, members,
    payload=True)``: the members with their pins and every net touching a
    member; connectivity only, without bboxes, pin coordinates or
    annotations), per-designator specs (None where retrieval failed; sent
    without their ``source_url``), and the checklist."""

    group: FunctionalGroup
    netlist_xml: str
    specs: dict
    checklist: str


def payload_specs(ctx: GroupReviewContext) -> dict[str, str]:
    """The ``specs`` of the review and consensus payloads: part key -> that
    spec's payload XML, so each spec is sent once however many members
    share its part. Specs are retrieved per part key, so a spec's
    ``part.key`` is its member's ``mpn or ipn``, which the member's entry
    in ``netlist_xml`` carries. Members sharing a part key must hold equal
    specs, ``source_url`` included, though the payload XML leaves it out."""
    specs: dict[str, DatasheetSpec] = {}
    for spec in ctx.specs.values():
        if spec is not None and specs.setdefault(spec.part.key, spec) != spec:
            raise ValueError(f"members sharing part {spec.part.key!r} carry different specs")
    return {key: spec.payload_xml() for key, spec in specs.items()}


# --- selection ----------------------------------------------------------------

def select_groups(page: Page, gateway: Gateway,
                  trace: TraceContext = UNTRACED) -> list[FunctionalGroup]:
    if not page.components:
        return []
    req = AgentRequest(AgentKind.SELECTION, SELECTION_PROMPT,
                       serialize_page_xml(page, payload=True))
    resp = gateway.complete(req, trace=trace)

    known = {c.designator for c in page.components}
    claimed: set[str] = set()
    # name -> members, in selection order; a name given twice is one group,
    # so that every group has its own span path
    groups: dict[str, list[str]] = {}
    for group_doc in resp.value["groups"]:
        name = group_doc["name"]
        members: list[str] = []
        for designator in group_doc["designators"]:
            if designator not in known:
                log.warning("page %s: selection named unknown designator %s; dropped",
                            page.id, designator)
                continue
            if designator in claimed:
                log.warning("page %s: %s already claimed by an earlier group; dropped",
                            page.id, designator)
                continue
            claimed.add(designator)
            members.append(designator)
        if not members:
            log.warning("page %s: group %r had no valid members; dropped", page.id, name)
            continue
        if name in groups:
            log.warning("page %s: group %r named again; members merged into the first",
                        page.id, name)
        groups.setdefault(name, []).extend(members)
    residual = [c.designator for c in page.components if c.designator not in claimed]
    if residual:
        if UNGROUPED in groups:
            log.warning("page %s: selection named a group %r; the unclaimed components"
                        " join it", page.id, UNGROUPED)
        groups.setdefault(UNGROUPED, []).extend(residual)
    return [FunctionalGroup(name, members) for name, members in groups.items()]


# --- group review ----------------------------------------------------------------

def build_review_payload(ctx: GroupReviewContext) -> str:
    """The review payload; sent once for all k runs, which are its k choices."""
    return json.dumps({
        "group": {"name": ctx.group.name, "designators": list(ctx.group.designators)},
        "netlist_xml": ctx.netlist_xml,
        "specs": payload_specs(ctx),
        "checklist": ctx.checklist,
    }, sort_keys=True)


def review_group_once(ctx: GroupReviewContext, payload: str, page: Page,
                      run_index: int, gateway: Gateway,
                      trace: TraceContext = UNTRACED,
                      failure: str | None = None) -> RunResult:
    """One review run of ``payload`` (``build_review_payload(ctx)``) as a
    one-completion call seeded ``run_index``; with ``failure``, the run's
    first answer (a choice) failed its schema so, and the call starts with
    its repair (``Gateway.complete``). The answer is read by
    ``_run_result``."""
    req = AgentRequest(AgentKind.GROUP_REVIEW, REVIEW_PROMPT, payload, seed=run_index)
    resp = gateway.complete(req, trace=trace, failure=failure)
    return _run_result(ctx, page, run_index, resp.value)


def _run_result(ctx: GroupReviewContext, page: Page, run_index: int,
                value) -> RunResult:
    """Run ``run_index``'s validated answer as a RunResult: analyses for
    components outside the group and verdicts naming pins the component
    does not have are dropped with a warning; components with no
    datasheet spec and no agent verdicts default to a single Unverifiable
    verdict."""
    members = set(ctx.group.designators)
    verdicts_by_designator: dict[str, list[PinVerdict]] = {}
    claimed_pins: dict[str, set[str]] = {}
    for analysis_doc in value["analyses"]:
        designator = analysis_doc["designator"]
        if designator not in members:
            log.warning("run %d: analysis for %s outside group %r; dropped",
                        run_index, designator, ctx.group.name)
            continue
        comp = page.component(designator)
        valid_pins = {p.designator for p in comp.pins}
        for verdict_doc in analysis_doc["verdicts"]:
            try:
                verdict = PinVerdict(
                    pin_key=verdict_doc["pins"],
                    status=_STATUSES[verdict_doc["status"]],
                    reasoning=verdict_doc["reasoning"],
                    referenced_nets=tuple(verdict_doc.get("referenced_nets", ())),
                )
            except ValueError:  # the key names no pins
                verdict = None
            unknown = [p for p in verdict.pins if p not in valid_pins] if verdict else []
            if unknown or verdict is None:
                log.warning("run %d: %s verdict names pin(s) %s not on the component; dropped",
                            run_index, designator, unknown or "<none>")
                continue
            already = claimed_pins.setdefault(designator, set())
            if not already.isdisjoint(verdict.pin_set):
                log.warning("run %d: %s pins %s appear in two pin keys; later verdict dropped",
                            run_index, designator, sorted(already & verdict.pin_set))
                continue
            already |= verdict.pin_set
            verdicts_by_designator.setdefault(designator, []).append(verdict)

    for designator in ctx.group.designators:
        if ctx.specs.get(designator) is None and designator not in verdicts_by_designator:
            comp = page.component(designator)
            if comp.pins:
                verdicts_by_designator[designator] = [PinVerdict(
                    pin_key=canonical_pin_key(p.designator for p in comp.pins),
                    status=VerdictStatus.UNVERIFIABLE,
                    reasoning="no datasheet",
                )]

    analyses = tuple(
        ComponentAnalysis(designator, tuple(verdicts))
        for designator, verdicts in sorted(verdicts_by_designator.items())
    )
    return RunResult(run_index, analyses)


def fan_out_reviews(ctx: GroupReviewContext, page: Page, k: int, gateway: Gateway,
                    pool: Executor, trace: TraceContext = UNTRACED
                    ) -> tuple[list[RunResult], list[RunFailure]]:
    """k review runs as the k choices of one ``group_review`` request
    (``AgentRequest.n``), whose span records under ``trace``. A choice
    that is missing, or every choice when the request fails, is remade
    as ``review_group_once``; one that fails its schema as its repair,
    seeded with its run index as well. Those calls record under
    ``review:<i>`` and are tasks on ``pool`` next to the run's pages,
    parts and groups (``map_on_pool``): they run in order on this
    thread, and those not yet started spill to the pool when a call is
    about to wait. Failed runs are recorded; consensus proceeds over the
    successes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    payload = build_review_payload(ctx)
    req = AgentRequest(AgentKind.GROUP_REVIEW, REVIEW_PROMPT, payload, n=k)
    try:
        choices = gateway.complete(req, trace=trace).choices
    except SchemReviewError as exc:
        log.warning("review request for group %r failed: %s", ctx.group.name, exc)
        choices = (None,) * k

    def _one_run(run_index: int) -> RunResult | RunFailure:
        choice = choices[run_index]
        try:
            if choice is not None and choice.failure is None:
                return _run_result(ctx, page, run_index, choice.value)
            with trace.span(f"review:{run_index}", run_index=run_index) as run_trace:
                return review_group_once(ctx, payload, page, run_index, gateway, run_trace,
                                         failure=None if choice is None else choice.failure)
        except SchemReviewError as exc:
            log.warning("review run %d for group %r failed: %s",
                        run_index, ctx.group.name, exc)
            return RunFailure(run_index, str(exc))

    runs = map_on_pool(pool, _one_run, range(k))
    results = [r for r in runs if isinstance(r, RunResult)]
    failures = [r for r in runs if isinstance(r, RunFailure)]
    if not results:
        raise AllRunsFailed(
            f"all {k} review runs failed for group {ctx.group.name!r}")
    return results, failures


# --- checklists ------------------------------------------------------------------

def checklist_loader(directory: str | None = None):
    """The checklists for one run: group name -> checklist, which is
    <slug>.txt in ``directory`` (the bundled set when None), else its
    default.txt, else empty. The directory is listed once, and each file
    present is read at most once, when a group first needs it; a file that
    cannot be read or is not UTF-8 is a ``BadChecklist``. Content is
    configuration, not code."""
    if directory is None:
        directory = os.path.join(os.path.dirname(__file__), "checklists")
    try:
        with os.scandir(directory) as listing:
            files = {entry.name: entry.path for entry in listing if entry.is_file()}
    except (FileNotFoundError, NotADirectoryError):
        files = {}
    except OSError as exc:
        raise BadChecklist(f"cannot list checklist directory {directory}: {exc}") from exc

    @functools.cache
    def read(name: str) -> str:
        try:
            return read_text(files[name])
        except (OSError, UnicodeDecodeError) as exc:
            raise BadChecklist(f"checklist {files[name]}: {exc}") from exc

    def load(group_name: str) -> str:
        slug = "".join(ch if ch.isalnum() else "_" for ch in group_name.lower())
        for name in (f"{slug}.txt", "default.txt"):
            if name in files:
                return read(name)
        return ""
    return load

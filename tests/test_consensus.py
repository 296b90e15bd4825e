"""Consensus: multi-run retention, single-run verification, contradictions."""

import copy
import itertools
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from helpers import consensus_responder, generate_fixtures
from schemreview.consensus import (
    Confidence,
    ConsensusFinding,
    Provenance,
    _Cluster,
    _collect,
    _contested_clusters,
    combine_consensus,
)
from schemreview.gateway import BackendConfig, Gateway
from schemreview.review import (
    ComponentAnalysis,
    FunctionalGroup,
    GroupReviewContext,
    PinVerdict,
    RunResult,
    VerdictStatus,
    canonical_pin_key,
)


def make_ctx() -> GroupReviewContext:
    group = FunctionalGroup("power stage", ("U1", "R1"))
    return GroupReviewContext(group, "<page id=\"P1\"/>", {"U1": None, "R1": None},
                              "checklist text")


def run_result(idx: int, verdicts_by_designator: dict) -> RunResult:
    analyses = []
    for designator, verdicts in sorted(verdicts_by_designator.items()):
        analyses.append(ComponentAnalysis(designator, tuple(
            PinVerdict(pins, VerdictStatus(status), f"run {idx} wording", tuple(nets))
            for pins, status, nets in verdicts)))
    return RunResult(idx, tuple(analyses))


def combine(tmp_path, results, responder=None):
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fx")))
    ctx = make_ctx()
    if responder is None:
        return combine_consensus(results, ctx, gateway)
    return generate_fixtures(lambda: combine_consensus(results, ctx, gateway),
                             tmp_path / "fx", responder)


def all_findings(analyses) -> list[tuple[str, ConsensusFinding]]:
    return [(a.designator, f) for a in analyses for f in a.findings]


SWAP = ("1, 3", "incorrect", ("ADJ_NODE", "VIN_RAW"))


class TestMultiRunRetention:
    def test_finding_in_two_of_three_runs_retained(self, tmp_path):
        results = [
            run_result(0, {"U1": [SWAP]}),
            run_result(1, {"U1": [("3, 1", "incorrect", ("VIN_RAW",))]}),
            run_result(2, {}),
        ]
        analyses = combine(tmp_path, results)  # no agent call expected
        (designator, finding), = all_findings(analyses)
        assert designator == "U1"
        assert finding.provenance is Provenance.MULTI_RUN
        assert finding.support_count == 2
        assert finding.confidence is Confidence.HIGH  # majority of 3
        assert finding.pin_key == "1, 3"
        # nets pooled across the matched occurrences
        assert finding.referenced_nets == ("ADJ_NODE", "VIN_RAW")

    def test_match_key_ignores_reasoning_text(self, tmp_path):
        results = [run_result(i, {"U1": [SWAP]}) for i in range(3)]
        analyses = combine(tmp_path, results)
        (_, finding), = all_findings(analyses)
        assert finding.support_count == 3

    def test_status_is_part_of_the_match_key(self, tmp_path):
        # same pins, different status: that's a contradiction, not a match
        results = [
            run_result(0, {"U1": [("2", "correct", ())]}),
            run_result(1, {"U1": [("2", "incorrect", ())]}),
            run_result(2, {"U1": [("2", "incorrect", ())]}),
        ]
        analyses = combine(tmp_path, results, consensus_responder())
        (_, finding), = all_findings(analyses)
        assert finding.provenance is Provenance.CONTRADICTION_RESOLVED


class TestSingleRunVerification:
    def test_dropped_when_verifier_says_drop(self, tmp_path):
        results = [
            run_result(0, {"U1": [SWAP], "R1": [("1", "warning", ("GND",))]}),
            run_result(1, {"U1": [SWAP]}),
            run_result(2, {"U1": [SWAP]}),
        ]
        analyses = combine(tmp_path, results,
                           consensus_responder(keep=lambda s: False))
        found = all_findings(analyses)
        assert len(found) == 1
        assert found[0][0] == "U1"

    def test_kept_finding_is_low_confidence(self, tmp_path):
        results = [
            run_result(0, {"R1": [("1", "warning", ("GND",))]}),
            run_result(1, {}),
            run_result(2, {}),
        ]
        analyses = combine(tmp_path, results, consensus_responder())
        (designator, finding), = all_findings(analyses)
        assert designator == "R1"
        assert finding.provenance is Provenance.SINGLE_RUN_VERIFIED
        assert finding.confidence is Confidence.LOW
        assert finding.support_count == 1


class TestContradictions:
    def test_resolver_picks_majority_status(self, tmp_path):
        results = [
            run_result(0, {"U1": [("2", "correct", ("REG_OUT",))]}),
            run_result(1, {"U1": [("2", "incorrect", ("REG_OUT",))]}),
            run_result(2, {"U1": [("2", "incorrect", ())]}),
        ]
        analyses = combine(tmp_path, results, consensus_responder())
        (_, finding), = all_findings(analyses)
        assert finding.status is VerdictStatus.INCORRECT
        assert finding.provenance is Provenance.CONTRADICTION_RESOLVED
        assert finding.confidence is Confidence.MEDIUM

    def test_overlapping_keys_fold_into_one_cluster(self, tmp_path):
        results = [
            run_result(0, {"U1": [("1, 3", "incorrect", ())]}),
            run_result(1, {"U1": [("1", "correct", ()), ("3", "incorrect", ())]}),
            run_result(2, {"U1": [("1, 3", "incorrect", ())]}),
        ]
        analyses = combine(tmp_path, results, consensus_responder())
        found = all_findings(analyses)
        # exactly one finding covering the contested pins; no duplicates
        pins = [p for _, f in found for p in f.pins]
        assert len(pins) == len(set(pins))
        assert any(f.provenance is Provenance.CONTRADICTION_RESOLVED for _, f in found)


def test_a_single_and_a_contradiction_the_reply_leaves_out_are_dropped(tmp_path, caplog):
    results = [
        run_result(0, {"R1": [("1", "warning", ("GND",))], "U1": [("2", "correct", ())]}),
        run_result(1, {"U1": [("2", "incorrect", ())]}),
        run_result(2, {}),
    ]
    analyses = combine(tmp_path, results,
                       lambda *_: json.dumps({"verifications": [], "resolutions": []}))
    assert all_findings(analyses) == []
    assert "consensus gave no verdict for single-run finding R1 1; dropped" in caplog.text
    assert "consensus left contradiction U1 2 unresolved; dropped" in caplog.text


def fixpoint_clusters(occurrences, contradicted) -> list[_Cluster]:
    """Reference: the quadratic fixpoint union that clustering used before
    it moved onto the shared union-find."""
    contested = [key for key in occurrences
                 if any((key[0], pin) in contradicted for pin in key[1])]
    by_designator: dict = {}
    for key in contested:
        by_designator.setdefault(key[0], []).append(key)

    clusters = []
    for designator, keys in sorted(by_designator.items()):
        remaining = list(keys)
        while remaining:
            pins = set(remaining[0][1])
            members = [remaining.pop(0)]
            changed = True
            while changed:
                changed = False
                for key in list(remaining):
                    if pins & key[1]:
                        pins |= key[1]
                        members.append(key)
                        remaining.remove(key)
                        changed = True
            verdicts = []
            for key in members:
                verdicts.extend(occurrences[key])
            verdicts.sort(key=lambda item: (item[0], canonical_pin_key(item[1].pins),
                                            item[1].status.value))
            clusters.append(_Cluster(designator, frozenset(pins), tuple(verdicts)))
    return clusters


PINS = ("1", "2", "3", "4", "5")


@st.composite
def review_runs(draw) -> list[RunResult]:
    """k runs over a few designators; each run splits a random subset of
    the pins into disjoint keys, so keys overlap and chain across runs."""
    results = []
    for run_index in range(draw(st.integers(1, 4))):
        analyses = []
        for designator in draw(st.lists(st.sampled_from(("U1", "U2", "R1")),
                                        unique=True, max_size=3)):
            labels = draw(st.lists(st.sampled_from((None, 0, 1, 2)),
                                   min_size=len(PINS), max_size=len(PINS)))
            keys: dict = {}
            for pin, label in zip(PINS, labels):
                if label is not None:
                    keys.setdefault(label, []).append(pin)
            verdicts = tuple(
                PinVerdict(", ".join(draw(st.permutations(pins))),
                           draw(st.sampled_from(list(VerdictStatus))), "r")
                for _label, pins in sorted(keys.items()))
            if verdicts:
                analyses.append(ComponentAnalysis(designator, verdicts))
        results.append(RunResult(run_index, tuple(analyses)))
    return results


CHAIN = [  # U1 keys 1-2, 2-3, 3-4 chain into one cluster; R1 stays apart
    run_result(0, {"U1": [("1, 2", "incorrect", ())], "R1": [("1", "correct", ())]}),
    run_result(1, {"U1": [("2, 3", "correct", ())], "R1": [("1", "warning", ())]}),
    run_result(2, {"U1": [("3, 4", "warning", ()), ("5", "correct", ())]}),
]


@given(review_runs())
@example(CHAIN)
def test_contested_clusters_match_fixpoint_oracle(results):
    occurrences, pin_statuses = _collect(results)
    contradicted = {pin for pin, statuses in pin_statuses.items() if len(statuses) > 1}
    assert (_contested_clusters(occurrences, contradicted)
            == fixpoint_clusters(occurrences, contradicted))


class RecordingGateway:
    """Answers consensus calls as ``consensus_responder()`` does and keeps
    each payload it was sent."""

    def __init__(self):
        self.payloads = []

    def complete(self, req, trace=None):
        self.payloads.append(req.user_payload)
        return SimpleNamespace(value=json.loads(
            consensus_responder()("consensus", req.user_payload)))


@st.composite
def shared_runs(draw) -> list[RunResult]:
    """``review_runs()``, each run after the first holding its own
    analyses or the very object an earlier run holds, as the runs of equal
    review answers do."""
    runs = draw(review_runs())
    return [RunResult(run.run_index,
                      runs[draw(st.integers(0, position))].analyses)
            for position, run in enumerate(runs)]


@given(shared_runs())
def test_shared_analyses_combine_as_unshared_copies(results):
    copies = [copy.deepcopy(run) for run in results]  # one at a time: nothing shared
    assert all(a.analyses is not b.analyses or not a.analyses
               for a, b in itertools.combinations(copies, 2))
    shared, unshared = RecordingGateway(), RecordingGateway()
    assert (combine_consensus(results, make_ctx(), shared)
            == combine_consensus(copies, make_ctx(), unshared))
    assert shared.payloads == unshared.payloads


def test_chained_keys_form_one_cluster():
    occurrences, pin_statuses = _collect(CHAIN)
    contradicted = {pin for pin, statuses in pin_statuses.items() if len(statuses) > 1}
    clusters = _contested_clusters(occurrences, contradicted)
    assert [(c.designator, sorted(c.pins)) for c in clusters] == [
        ("R1", ["1"]), ("U1", ["1", "2", "3", "4"])]


class TestDegenerateAndInvariants:
    def test_k1_output_is_subset_of_input(self, tmp_path):
        results = [run_result(0, {"U1": [SWAP, ("2", "correct", ())],
                                  "R1": [("1", "warning", ())]})]
        analyses = combine(tmp_path, results,
                           consensus_responder(keep=lambda s: s["designator"] == "U1"))
        input_keys = {("U1", frozenset(("1", "3")), "incorrect"),
                      ("U1", frozenset(("2",)), "correct"),
                      ("R1", frozenset(("1",)), "warning")}
        for designator, finding in all_findings(analyses):
            key = (designator, frozenset(finding.pins), finding.status.value)
            assert key in input_keys
            assert finding.support_count == 1

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            combine(tmp_path, [])

    def test_invariant_multi_support_implies_multirun(self):
        with pytest.raises(ValueError):
            ConsensusFinding("1", VerdictStatus.CORRECT, "x", (), 2,
                             Confidence.LOW, Provenance.SINGLE_RUN_VERIFIED)

    def test_randomized_triples_recount(self, tmp_path_factory):
        statuses = ["correct", "incorrect", "warning", "unverifiable"]
        rng = random.Random(20240817)
        for case in range(40):
            tmp_path = tmp_path_factory.mktemp(f"case{case}")
            results = []
            for idx in range(3):
                verdicts = {}
                for designator, pins in (("U1", ["1", "2", "3", "4"]),
                                         ("R1", ["1", "2"])):
                    chosen = [p for p in pins if rng.random() < 0.6]
                    rng.shuffle(chosen)
                    entries = []
                    while chosen:
                        take = rng.randint(1, len(chosen))
                        group, chosen = chosen[:take], chosen[take:]
                        entries.append((", ".join(sorted(group)),
                                        rng.choice(statuses), ()))
                    if entries:
                        verdicts[designator] = entries
                results.append(run_result(idx, verdicts))
            analyses = combine(tmp_path, results, consensus_responder())

            # independent recount: a MultiRun finding must match >= 2 runs
            for analysis in analyses:
                seen_pins = set()
                for finding in analysis.findings:
                    for pin in finding.pins:
                        assert (analysis.designator, pin) not in seen_pins
                        seen_pins.add((analysis.designator, pin))
                    if finding.provenance is Provenance.MULTI_RUN:
                        count = 0
                        for run in results:
                            for a in run.analyses:
                                if a.designator != analysis.designator:
                                    continue
                                for v in a.verdicts:
                                    if (v.pin_set == frozenset(finding.pins)
                                            and v.status is finding.status):
                                        count += 1
                        assert count == finding.support_count >= 2


def test_pins_are_parsed_once_and_stay_out_of_equality_and_hashing():
    verdicts = [PinVerdict("3, 1", VerdictStatus.INCORRECT, "swapped") for _ in range(2)]
    findings = [ConsensusFinding("3, 1", VerdictStatus.INCORRECT, "swapped", (), 2,
                                 Confidence.HIGH, Provenance.MULTI_RUN) for _ in range(2)]
    assert verdicts[0].pin_set == {"1", "3"}
    assert verdicts[0].pins == findings[0].pins == ("3", "1")
    for used, fresh in (verdicts, findings):
        assert used.pins is used.pins
        assert "pins" in used.__dict__ and "pins" not in repr(used)
        assert used == fresh and hash(used) == hash(fresh)

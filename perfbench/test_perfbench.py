"""Tests of the benchmark's own pieces: the board generator, the
responder, the output checks and the span arithmetic."""

import json
import shutil

import pytest

import boardgen
import checks
from calibrate import REFERENCE_S, adjusted, reference_task
from probes import Probes, Span, covered, critical_path, self_times, summarize
from responder import make_responder
from schemreview import pipeline
from schemreview.augment import augment_netlist
from schemreview.canonical import diff_pages
from schemreview.config import load_config
from schemreview.demo import demo_responder, generate_fixtures, write_demo_workspace
from schemreview.gateway import Gateway
from schemreview.ingest import ingest_schematic


# --- generator ---------------------------------------------------------------------

@pytest.mark.parametrize("wires, diff", [(False, False), (True, False), (True, True)])
def test_generator_is_deterministic(wires, diff):
    first = boardgen.board_files(boardgen.generate_board(7, 2, 4, wires, diff))
    again = boardgen.board_files(boardgen.generate_board(7, 2, 4, wires, diff))
    other = boardgen.board_files(boardgen.generate_board(8, 2, 4, wires, diff))
    assert first == again
    assert first != other


def test_generator_size_does_not_depend_on_seed():
    sizes = {len(boardgen.board_files(boardgen.generate_board(s, 2, 6))["schematic.json"])
             for s in range(5)}
    assert max(sizes) - min(sizes) < 0.01 * max(sizes)


def test_planted_errors_cover_every_consensus_path():
    manifest = boardgen.generate_board(3, 4, 8)["manifest"]
    assert {e["mode"] for e in manifest["errors"]} == set(boardgen.MODES)
    keys = [(e["page"], e["designator"]) for e in manifest["errors"]]
    assert len(keys) == len(set(keys))


def _node_sets(nets):
    return sorted(tuple(sorted(tuple(n) for n in nodes)) for nodes in nets)


def test_wire_geometry_traces_to_the_drawn_netlist():
    board = boardgen.generate_board(5, 2, 4, wires=True, diff=True)
    head = augment_netlist(ingest_schematic(boardgen.dumps(board["head"])))
    for page in head.pages:
        drawn = board["netlists"][page.id]
        assert _node_sets(n.nodes for n in page.nets) == _node_sets(drawn.values())
        named = {n.name for n in page.nets if not n.name.startswith("N$")}
        assert named <= set(drawn)
        assert any(n.name.startswith("N$") for n in page.nets)
        kinds = {a.kind for a in page.annotations}
        assert {"wire", "junction", "label"} <= kinds


def test_diff_base_differs_on_the_changed_page_only():
    board = boardgen.generate_board(5, 3, 4, wires=True, diff=True)
    head = augment_netlist(ingest_schematic(boardgen.dumps(board["head"])))
    base = augment_netlist(ingest_schematic(boardgen.dumps(board["base"])))
    changed = board["manifest"]["changed_page"]
    assert diff_pages(base, head) == {changed}
    assert {e["page"] for e in board["manifest"]["errors"]} == {changed}


# --- responder -----------------------------------------------------------------------

def _review_payload(board, page_id, designators):
    from schemreview.canonical import serialize_page_xml

    page = augment_netlist(ingest_schematic(boardgen.dumps(board["head"]))).page(page_id)
    return json.dumps({"group": {"name": "g", "designators": designators},
                       "netlist_xml": serialize_page_xml(page), "specs": {},
                       "checklist": ""}, sort_keys=True)


def test_responder_is_pure_and_plants_by_mode():
    board = boardgen.generate_board(3, 2, 4)
    by_mode = {e["mode"]: e for e in board["manifest"]["errors"]}
    respond = make_responder(board["manifest"])
    for mode, error in by_mode.items():
        payload = _review_payload(board, error["page"], [error["designator"]])
        answers = [respond("group_review", payload, seed) for seed in range(3)]
        assert answers == [make_responder(board["manifest"])("group_review", payload, s)
                           for s in range(3)]
        statuses = []
        for answer in answers:
            verdicts = json.loads(answer)["analyses"][0]["verdicts"]
            statuses.append(next((v["status"] for v in verdicts
                                  if v["pins"] == error["pins"]), None))
        if mode == "multi":
            assert statuses == [error["status"]] * 3
        elif mode == "single":
            assert statuses.count(error["status"]) == 1 and statuses.count(None) == 2
        else:
            assert statuses.count("correct") == 1
            assert statuses.count(error["status"]) == 2


def test_responder_defers_to_the_demo_responder():
    payload = json.dumps({"excerpts": ["PIN 1 ADJ", "nothing"]})
    assert make_responder(None) is demo_responder
    board_responder = make_responder(boardgen.generate_board(1, 1, 3)["manifest"])
    assert board_responder("head_analysis", payload) == demo_responder("head_analysis",
                                                                       payload)


# --- output checks ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("demo")
    paths = write_demo_workspace(work)
    cfg = load_config(paths["config"])

    def run():
        shutil.rmtree(work / "cache", ignore_errors=True)
        return pipeline.run_pipeline(cfg, paths["schematic"])

    report = generate_fixtures(run, paths["fixtures"])
    return paths, report


def test_checks_pass_on_the_demo_output(demo_run):
    paths, report = demo_run
    assert checks.check_reported(paths["out"], checks.DEMO_ERRORS) == []
    assert checks.check_status(report) == []
    assert checks.check_pages(report.pages_analyzed, ["P1", "P2", "P3"]) == []
    assert checks.missing_fixtures(paths["fixtures"]) == []


def test_checks_fail_on_a_doctored_output(demo_run, tmp_path):
    paths, _report = demo_run
    out = tmp_path / "out"
    shutil.copytree(paths["out"], out)
    digest = checks.output_digest(out)
    page_id, group_id, _rows = next(c for c in checks.comment_findings(out)
                                    if c[0] == "P1")
    comment = out / "comments" / f"{group_id}.md"
    text = comment.read_text()
    assert "| 1, 3 | Incorrect |" in text
    comment.write_text(text.replace("| 1, 3 | Incorrect |", "| 1, 3 | Correct |"))
    problems = checks.check_reported(out, checks.DEMO_ERRORS)
    assert len(problems) == 1 and "U1" in problems[0]
    assert checks.output_digest(out) != digest

    # the same finding in two error groups is a failure too
    comment.write_text(text)
    (out / "comments" / "duplicate.md").write_text(text)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["comments"].append({"group_id": "duplicate", "page_id": page_id,
                                 "markdown_path": "comments/duplicate.md"})
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert len(checks.check_reported(out, checks.DEMO_ERRORS)) == 1


def test_checks_flag_wrong_pages_status_and_mock_misses(tmp_path):
    assert checks.check_pages(["P1", "P2"], ["P2"])
    assert checks.check_status(pipeline.RunReport("partial", [], ["P1"], 0, {}, 0, 0, 0.1))
    (tmp_path / "group_review").mkdir()
    (tmp_path / "group_review" / "abc-0.req").write_text("payload")
    assert checks.missing_fixtures(tmp_path) == ["group_review/abc-0.req"]
    (tmp_path / "group_review" / "abc-0.resp").write_text("{}")
    assert checks.missing_fixtures(tmp_path) == []


# --- spans ---------------------------------------------------------------------------------

def _span(id, name, parent, start, end, layer=None):
    return Span(id, name, layer or name.split(".")[0], parent, 0, start, end)


def test_covered_merges_overlapping_intervals_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, "pipeline.run_pipeline", None, 0.0, 10.0),
        _span(2, "ingest.ingest_schematic", 1, 0.0, 2.0),
        _span(3, "review.fan_out_reviews", 1, 3.0, 9.0),
        # two parallel runs under the fan-out, overlapping on [5, 6]
        _span(4, "gateway.complete", 3, 4.0, 6.0),
        _span(5, "gateway.complete", 3, 5.0, 8.0),
        _span(6, "backend.complete", 5, 5.5, 7.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 1.0, 6: 2.0})
    m = summarize(spans)
    assert m["pipeline.self_s"] == pytest.approx(2.0)
    assert m["gateway.self_s"] == pytest.approx(3.0)
    assert m["gateway.busy_s"] == pytest.approx(5.0)
    assert m["gateway.backend_s"] == pytest.approx(2.0)


def test_busy_time_counts_nested_spans_of_a_layer_once():
    spans = [
        _span(1, "pipeline.run_pipeline", None, 0.0, 10.0),
        _span(2, "canonical.diff_pages", 1, 1.0, 5.0),
        _span(3, "canonical.page_hash", 2, 1.0, 3.0),
        _span(4, "canonical.serialize_page_xml", 3, 1.0, 2.0),
    ]
    m = summarize(spans)
    assert m["canonical.busy_s"] == pytest.approx(4.0)
    assert m["canonical.self_s"] == pytest.approx(4.0)
    assert m["canonical.calls"] == 1


def test_critical_path_chains_sequential_calls_and_takes_the_longest_branch():
    spans = [
        _span(1, "pipeline.run_pipeline", None, 0.0, 10.0),
        _span(2, "gateway.complete", 1, 0.0, 1.0),          # selection
        _span(3, "retrieve.retrieve_spec", 1, 1.0, 4.0),    # two parts in parallel
        _span(4, "retrieve.retrieve_spec", 1, 1.0, 3.0),
        _span(5, "gateway.complete", 3, 1.0, 2.5),
        _span(6, "gateway.complete", 3, 2.5, 4.0),
        _span(7, "gateway.complete", 4, 1.0, 3.0),
        _span(8, "gateway.complete", 1, 4.0, 6.0),          # review
    ]
    root = spans[0]
    assert critical_path(spans, root, lambda s: s.name == "gateway.complete") \
        == pytest.approx(1.0 + 3.0 + 2.0)


def test_probes_restore_what_they_wrap():
    originals = (pipeline.ingest_schematic, Gateway.complete, pipeline.run_pipeline)
    probes = Probes(critic_threshold=7.0)
    probes.install()
    try:
        assert pipeline.ingest_schematic is not originals[0]
        assert Gateway.__dict__["complete"] is not originals[1]
    finally:
        probes.uninstall()
    assert (pipeline.ingest_schematic, Gateway.complete, pipeline.run_pipeline) \
        == originals


# --- host-speed adjustment ----------------------------------------------------------------

def test_adjustment_rescales_only_the_cpu_part():
    # a host at half speed runs the reference task in twice the time
    assert adjusted(1.0, 1.0, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert adjusted(1.0, 0.2, 2 * REFERENCE_S) == pytest.approx(0.9)
    # at reference speed nothing changes; CPU time beyond the wall is clamped
    assert adjusted(1.0, 1.3, REFERENCE_S) == pytest.approx(1.0)
    assert adjusted(1.0, 1.3, REFERENCE_S / 2) == pytest.approx(2.0)


def test_reference_task_takes_time():
    assert 0 < reference_task() < 5

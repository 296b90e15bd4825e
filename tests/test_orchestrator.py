"""Config handling, mode page sets, time budget, traces, CLI exit codes."""

import json
import math
import shutil
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from helpers import WIRE_AND_EMPTY_LABEL, run_or_fail, span_sequence
from schemreview import ingest, libraries, review
from schemreview.cli import main
from schemreview.config import Mode, RunConfig, apply_cli_overrides, load_config
from schemreview.demo import (demo_responder, demo_schematic_text, generate_fixtures,
                              write_demo_workspace)
from schemreview.errors import BackendUnavailable, ConfigError, InputError
from schemreview.gateway import (AgentKind, BackendConfig, MockBackend, TokenUsage,
                                 fixture_relpaths)
from schemreview.ingest import ingest_schematic
from schemreview.pipeline import RunStatus, run_pipeline
from schemreview.reporting import FileSink
from schemreview.review import checklist_loader


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A demo workspace whose mock fixtures are fully generated."""
    work = tmp_path_factory.mktemp("demo")
    paths = write_demo_workspace(work)
    cfg = load_config(paths["config"])

    def run():
        shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        return run_pipeline(cfg, paths["schematic"])

    generate_fixtures(run, paths["fixtures"])
    return work, paths


def fresh_cfg(work, **overrides) -> RunConfig:
    cfg = load_config(work / "config.json")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def clean_run_dirs(work):
    shutil.rmtree(work / "cache", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)


def read_spans(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def copy_fixtures(paths, tmp_path):
    """A private copy of the demo's fixtures, safe to delete from."""
    root = tmp_path / "fixtures"
    shutil.copytree(paths["fixtures"], root)
    return root


def assert_ledger_matches_trace(report, spans):
    agent_spans = [s for s in spans
                   if s["span"] in report.usage and "tokens_in" in s["attributes"]]
    for kind, entry in report.usage.items():
        kind_spans = [s for s in agent_spans if s["span"] == kind]
        assert len(kind_spans) == entry["calls"]
        assert sum(s["attributes"]["tokens_in"] for s in kind_spans) == entry["tokens_in"]
        assert sum(s["attributes"]["tokens_out"] for s in kind_spans) == entry["tokens_out"]


_MALFORMED_CONFIGS = [  # each turns the demo's config document into a bad one
    pytest.param(lambda doc: {**doc, "k": "abc"}, id="k"),
    pytest.param(lambda doc: {**doc, "k": 2.7}, id="k-fraction"),
    pytest.param(lambda doc: {**doc, "k": True}, id="k-boolean"),
    pytest.param(lambda doc: {**doc, "critic_threshold": "high"}, id="critic_threshold"),
    pytest.param(lambda doc: {**doc, "time_budget_secs": "soon"}, id="time_budget_secs"),
    pytest.param(lambda doc: [1], id="top-level-array"),
    pytest.param(lambda doc: {**doc, "sink": "out"}, id="sink"),
    pytest.param(lambda doc: {**doc, "libraries": ["parts.csv"]}, id="library-entry"),
    pytest.param(lambda doc: {**doc, "libraries": doc["libraries"] * 2},
                 id="library-priorities"),
    # entry fields of the wrong type, which a run would spend its agent calls on
    *(pytest.param(lambda doc, value=value: {
        **doc, "libraries": [{**doc["libraries"][0], "priority": value}]},
        id=f"library-priority-{value}") for value in (1.7, True)),
    pytest.param(lambda doc: {**doc, "libraries": [{**doc["libraries"][0], "path": 5}]},
                 id="library-path"),
    # entries whose source would fail every lookup, leaving each part Unverifiable
    pytest.param(lambda doc: {**doc, "libraries": [{**doc["libraries"][0], "pth": "x.csv"}]},
                 id="library-unknown-field"),
    pytest.param(lambda doc: {**doc, "libraries": [{
        "kind": "json-template-api", "priority": 1,
        "url_templat": "http://parts.example/{part}"}]}, id="library-url_templat"),
    pytest.param(lambda doc: {**doc, "libraries": [{
        "kind": "local-directory", "priority": 1, "dir": "datasheets"}]},
        id="library-dir"),
    *(pytest.param(lambda doc, kind=kind: {**doc, "libraries": [{"kind": kind, "priority": 1}]},
                   id=f"library-{kind}-without-source")
      for kind in ("http-part-api", "json-template-api", "csv-table", "local-directory")),
    pytest.param(lambda doc: {**doc, "sink": {**doc["sink"], "outdir": "out"}},
                 id="sink-unknown-field"),
    pytest.param(lambda doc: {**doc, "sink": {"kind": "http", "base_url": "http://h",
                                              "out_dir": "out"}},
                 id="http-sink-out_dir"),
    pytest.param(lambda doc: {**doc, "sink": {**doc["sink"], "out_dir": 5}}, id="out_dir"),
    pytest.param(lambda doc: {**doc, "sink": {**doc["sink"], "out_dir": None}},
                 id="out_dir-null"),
    pytest.param(lambda doc: {**doc, "cache_dir": 5}, id="cache_dir"),
    pytest.param(lambda doc: {**doc, "pages_override": [{"id": "P1"}]},
                 id="pages_override-element"),
    pytest.param(lambda doc: {**doc, "backend": {**doc["backend"], "max_in_flight": "8"}},
                 id="max_in_flight"),
    pytest.param(lambda doc: {**doc, "backend": {**doc["backend"], "mock_delay_s": "x"}},
                 id="mock_delay_s"),
    pytest.param(lambda doc: {**doc, "max_attempts": 0}, id="max_attempts"),
    *(pytest.param(lambda doc, name=name: {**doc, "backend": {**doc["backend"], name: True}},
                   id=f"{name}-boolean")
      for name in ("max_in_flight", "timeout_s", "mock_delay_s")),
    *(pytest.param(lambda doc, name=name: {**doc, "backend": {**doc["backend"], name: 5}},
                   id=name)
      for name in ("kind", "endpoint", "strong_model", "weak_model", "consensus_model",
                   "fixture_path", "api_key_env")),
    # numbers that json.loads reads from NaN and Infinity
    *(pytest.param(lambda doc, name=name, value=value: {
        **doc, "backend": {**doc["backend"], name: value}}, id=f"{name}-{value}")
      for name in ("timeout_s", "mock_delay_s") for value in (math.nan, math.inf)),
    *(pytest.param(lambda doc, value=value: {**doc, "time_budget_secs": value},
                   id=f"time_budget_secs-{value}") for value in (math.nan, math.inf)),
]


def write_malformed_config(work, tmp_path, malform):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(malform(json.loads((work / "config.json").read_text()))))
    return path


class TestConfig:
    def test_null_library_fields_are_unset(self, demo, tmp_path):
        work, _ = demo
        cfg = load_config(write_malformed_config(work, tmp_path, lambda doc: {
            **doc, "libraries": [{**doc["libraries"][0], "api_key_env": None}]}))
        assert cfg.libraries[0].api_key_env is None

    def test_load_round_trip(self, demo):
        work, _ = demo
        cfg = load_config(work / "config.json")
        assert cfg.mode is Mode.FULL_ANALYSIS
        assert cfg.k == 3
        assert cfg.critic_threshold == 7.0
        assert isinstance(cfg.sink, FileSink)
        assert cfg.backend.kind == "mock"

    def test_validation_rules(self):
        cfg = RunConfig(backend=BackendConfig(kind="mock", fixture_path="x"))
        cfg.k = 0
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg.k = 3
        cfg.critic_threshold = 11
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg.critic_threshold = 7
        cfg.mode = Mode.DESIGN_REVIEW
        with pytest.raises(ConfigError):
            cfg.validate()  # needs base or override
        cfg.pages_override = ["P1"]
        cfg.validate()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"version": 2}')
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("time_budget_sec", 0.1),  # typo of time_budget_secs
        ("page_parallelism", 2),  # removed option
    ])
    def test_unknown_top_level_key_rejected(self, demo, tmp_path, key, value):
        work, _ = demo
        doc = json.loads((work / "config.json").read_text())
        doc[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("malform", _MALFORMED_CONFIGS)
    def test_malformed_value_is_config_error(self, demo, tmp_path, malform):
        work, _ = demo
        with pytest.raises(ConfigError):
            load_config(write_malformed_config(work, tmp_path, malform)).validate()

    def test_cli_overrides_win(self, demo):
        work, _ = demo
        cfg = load_config(work / "config.json")

        class Args:
            mode = "design-review"
            base = str(work / "base_schematic.json")
            time_limit_secs = 12.5
            runs = 5
            threshold = 8.5
            out = str(work / "other-out")
            cache_dir = None
            trace_out = None

        cfg = apply_cli_overrides(cfg, Args())
        assert cfg.mode is Mode.DESIGN_REVIEW
        assert cfg.k == 5
        assert cfg.critic_threshold == 8.5
        assert cfg.time_budget_s == 12.5
        assert cfg.sink == FileSink(str(work / "other-out"))


class TestPageSets:
    def test_full_analysis_takes_all_pages(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work), paths["schematic"])
        assert report.status == RunStatus.COMPLETE
        assert report.pages_analyzed == ["P1", "P2", "P3"]

    def test_design_review_analyzes_only_changed_page(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work, mode=Mode.DESIGN_REVIEW,
                        base_schematic=str(paths["base"]))
        report = run_pipeline(cfg, paths["schematic"])
        assert report.pages_analyzed == ["P2"]
        assert report.status == RunStatus.COMPLETE

    def test_pages_override_unioned_with_diff(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work, mode=Mode.DESIGN_REVIEW,
                        base_schematic=str(paths["base"]),
                        pages_override=["P3"])
        report = run_pipeline(cfg, paths["schematic"])
        assert report.pages_analyzed == ["P2", "P3"]

    def test_unknown_override_page_is_input_error(self, demo):
        work, paths = demo
        cfg = fresh_cfg(work, mode=Mode.DESIGN_REVIEW, pages_override=["P9"])
        with pytest.raises(InputError):
            run_pipeline(cfg, paths["schematic"])

    def test_unknown_override_page_fails_before_the_base_is_read(self, demo, tmp_path,
                                                                 monkeypatch):
        work, paths = demo
        decoded = []
        decode = ingest._decode_page
        monkeypatch.setattr(ingest, "_decode_page",
                            lambda doc: decoded.append(doc["id"]) or decode(doc))
        for base in (paths["base"], tmp_path / "missing.json"):
            cfg = fresh_cfg(work, mode=Mode.DESIGN_REVIEW, pages_override=["P9"],
                            base_schematic=str(base))
            with pytest.raises(InputError,
                               match=r"pages_override names unknown pages: \['P9'\]"):
                run_pipeline(cfg, paths["schematic"])
        # with the demo base only P2, whose text differs, is read from the
        # head; with no base every head page is; no base page is read
        assert decoded == ["P2", "P1", "P2", "P3"]


class TestTimeBudget:
    def test_budget_yields_partial_with_completed_pages_posted(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        # at 0.05 s a call the part listings start after one call and the
        # group reviews after three: the deadline falls between, so page 1
        # alone blows the budget
        cfg = fresh_cfg(work, time_budget_s=0.1)
        cfg.backend.mock_delay_s = 0.05
        report = run_pipeline(cfg, paths["schematic"])
        assert report.status == RunStatus.PARTIAL
        assert report.pages_analyzed == ["P1"]
        assert report.pages_skipped == ["P2", "P3"]
        manifest = json.loads((work / "out" / "manifest.json").read_text())
        pages_in_manifest = {c["page_id"] for c in manifest["comments"]}
        assert pages_in_manifest == {"P1"}

    def test_spent_budget_posts_only_the_first_page(self, demo):
        # the deadline passes before the first page starts: the first page
        # in document order still runs to its end, the others start nothing
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work, time_budget_s=1e-4), paths["schematic"])
        assert report.status == RunStatus.PARTIAL
        assert report.pages_analyzed == ["P1"]
        assert report.pages_skipped == ["P2", "P3"]
        manifest = json.loads((work / "out" / "manifest.json").read_text())
        assert manifest["comments"]
        assert {c["page_id"] for c in manifest["comments"]} == {"P1"}
        spans = read_spans(work / "trace.jsonl")
        agent_spans = [s for s in spans if s["span"] in {k.value for k in AgentKind}]
        assert agent_spans
        assert all(s["path"].startswith("run/page:P1/") for s in agent_spans)
        pages = {s["path"]: s["attributes"] for s in spans if s["span"].startswith("page:")}
        assert pages == {"run/page:P1": {"page_id": "P1"},
                         "run/page:P2": {"page_id": "P2", "skipped": True},
                         "run/page:P3": {"page_id": "P3", "skipped": True}}
        assert set(report.usage) == {s["span"] for s in agent_spans}
        assert_ledger_matches_trace(report, spans)

    def test_no_budget_never_partial(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work), paths["schematic"])
        assert report.status == RunStatus.COMPLETE
        assert report.pages_skipped == []


class TestReleasedSpecs:
    """Every demo part has one candidate URL, so each spec is final once
    extracted: it is released to its groups, and its critic call and cache
    write are owed to the review stage."""

    def test_group_reviews_start_before_the_last_critic_call_ends(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work)
        cfg.backend.mock_delay_s = 0.05
        report = run_pipeline(cfg, paths["schematic"])
        assert (report.cache_hits, report.cache_misses) == (1, 8)
        spans = read_spans(work / "trace.jsonl")
        critics = [s for s in spans if s["span"] == "critic"]
        assert len(critics) == len(list((work / "cache").glob("*.json"))) == 8
        assert min(s["start"] for s in spans if s["span"] == "group_review") < max(
            s["start"] + s["duration"] for s in critics)

    def test_a_failed_critic_call_leaves_the_released_spec_in_use(self, demo, tmp_path,
                                                                  caplog):
        work, paths = demo
        clean_run_dirs(work)
        run_pipeline(fresh_cfg(work), paths["schematic"])
        fixtures = copy_fixtures(paths, tmp_path)
        shutil.rmtree(fixtures / "critic")
        cfg = fresh_cfg(work, cache_dir=str(tmp_path / "cache"),
                        sink=FileSink(str(tmp_path / "out")),
                        trace_out=str(tmp_path / "trace.jsonl"))
        cfg.backend.fixture_path = str(fixtures)
        report = run_pipeline(cfg, paths["schematic"])
        assert report.status == RunStatus.COMPLETE
        spans = read_spans(tmp_path / "trace.jsonl")
        assert {s["span"] for s in spans if "error" in s["attributes"]} == {"critic"}
        # nothing is cached, so the next run retries; the comments are the
        # fault-free run's, each part reviewed with its spec
        assert not list((tmp_path / "cache").glob("*.json"))
        assert "is not cached" in caplog.text
        written = sorted(p.relative_to(work / "out") for p in (work / "out").rglob("*"))
        assert written == sorted(p.relative_to(tmp_path / "out")
                                 for p in (tmp_path / "out").rglob("*"))
        for rel in written:
            if rel.suffix in (".md", ".svg"):
                assert (tmp_path / "out" / rel).read_bytes() == (
                    work / "out" / rel).read_bytes()


class TestTraces:
    def test_trace_file_spans(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work), paths["schematic"])
        lines = (work / "trace.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        assert any(s["path"] == "run" for s in spans)
        for span in spans:
            assert span["duration"] >= 0
            # parent path must exist (valid nesting)
            parent = span["path"].rsplit("/", 1)[0]
            if parent != span["path"]:
                assert any(s["path"] == parent for s in spans)

    def test_trace_attributes_and_cache_entries_hold_no_arrays(self, demo):
        # a NamedTuple record that reached json.dumps would come out as an array
        work, paths = demo
        clean_run_dirs(work)
        run_pipeline(fresh_cfg(work), paths["schematic"])
        for span in read_spans(work / "trace.jsonl"):
            assert not any(isinstance(v, (list, dict)) for v in span["attributes"].values())
        entries = [json.loads(p.read_text()) for p in (work / "cache").glob("*.json")]
        assert len(entries) == 8
        for entry in entries:
            assert not any(isinstance(v, list) for v in [*entry.values(), *entry["score"].values()])

    def test_cache_hit_rate_derivable(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work), paths["schematic"])
        spans = [json.loads(line) for line
                 in (work / "trace.jsonl").read_text().splitlines()]
        hits = sum(1 for s in spans if s["attributes"].get("cache_hit") is True)
        misses = sum(1 for s in spans if s["attributes"].get("cache_hit") is False)
        assert hits == report.cache_hits == 1
        assert misses == report.cache_misses == 8

    def test_ledger_matches_trace_token_sums(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        report = run_pipeline(fresh_cfg(work), paths["schematic"])
        assert_ledger_matches_trace(report, read_spans(work / "trace.jsonl"))

    def test_ledger_matches_trace_with_a_failed_call(self, demo, tmp_path):
        work, paths = demo
        clean_run_dirs(work)
        fixtures = copy_fixtures(paths, tmp_path)
        # drop P1's "U1 network" review fixture for seed 1
        dropped = 0
        for req in (fixtures / "group_review").glob("*-1.req"):
            group = json.loads(req.read_text())["group"]
            if group["name"] == "U1 network":
                req.with_suffix(".resp").unlink()
                dropped += 1
        assert dropped
        cfg = fresh_cfg(work, trace_out=str(tmp_path / "trace.jsonl"))
        cfg.backend.fixture_path = str(fixtures)
        report = run_pipeline(cfg, paths["schematic"])
        assert report.status == RunStatus.COMPLETE
        spans = read_spans(tmp_path / "trace.jsonl")
        failed = [s for s in spans if "error" in s["attributes"]]
        # the remade run's call, and the review:1 span it left
        assert [(s["span"], s["attributes"]["error"], s["attributes"]["run_index"])
                for s in failed] == [("review:1", "BackendUnavailable", 1),
                                     ("group_review", "BackendUnavailable", 1)]
        assert_ledger_matches_trace(report, spans)

    def test_failed_run_still_writes_trace(self, demo, tmp_path):
        work, paths = demo
        clean_run_dirs(work)
        fixtures = copy_fixtures(paths, tmp_path)
        for resp in (fixtures / "selection").glob("*.resp"):
            resp.unlink()
        cfg = fresh_cfg(work, trace_out=str(tmp_path / "trace.jsonl"))
        cfg.backend.fixture_path = str(fixtures)
        with pytest.raises(BackendUnavailable):
            run_pipeline(cfg, paths["schematic"])
        spans = read_spans(tmp_path / "trace.jsonl")
        [root] = [s for s in spans if s["path"] == "run"]
        assert root["attributes"]["error"] == "BackendUnavailable"
        # the admitted pages are selected together, so each one's selection fails
        assert [(s["path"], s["attributes"]["error"])
                for s in spans if s["span"] == "selection"] == [
            (f"run/page:{pid}/selection", "BackendUnavailable")
            for pid in ("P1", "P2", "P3")]
        # the run failed as a whole, so every page span names the error
        assert [(s["path"], s["attributes"]["error"])
                for s in spans if s["span"].startswith("page:")] == [
            (f"run/page:{pid}", "BackendUnavailable") for pid in ("P1", "P2", "P3")]

    def test_failed_retrieval_records_one_span(self, tmp_path):
        paths = write_demo_workspace(tmp_path)
        cfg = fresh_cfg(tmp_path, trace_out=str(tmp_path / "trace.jsonl"))

        def responder(kind_name, payload, seed):
            if kind_name == "head_analysis" and "CAP-100N DATASHEET" in payload:
                return json.dumps({"pages": "none"})  # fails its schema every attempt
            return demo_responder(kind_name, payload, seed)

        def run():
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        report = generate_fixtures(run, paths["fixtures"], responder=responder)
        assert report.status == RunStatus.COMPLETE
        spans = read_spans(tmp_path / "trace.jsonl")
        failed = [s for s in spans if "error" in s["attributes"]]
        assert {s["span"] for s in failed} == {"head_analysis", "part:CAP-100N", "retrieve"}
        [part, retrieve] = [s for s in failed if s["span"] != "head_analysis"]
        assert part["path"] == "run/page:P2/part:CAP-100N"
        assert retrieve["path"] == "run/page:P2/part:CAP-100N/retrieve"
        assert part["attributes"] == retrieve["attributes"] == {
            "error": "AllAttemptsFailed", "page_id": "P2", "part": "CAP-100N"}
        assert_ledger_matches_trace(report, spans)

    def test_malformed_datasheet_toc_fails_only_that_parts_retrieval(self, tmp_path):
        paths = write_demo_workspace(tmp_path)
        sheet = tmp_path / "datasheets" / "CAP-100N.txt"  # the part's only candidate
        sheet.write_text("%TOC%\nPins | x\n%END%\n" + sheet.read_text())
        cfg = fresh_cfg(tmp_path, trace_out=str(tmp_path / "trace.jsonl"))

        def run():
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        report = generate_fixtures(run, paths["fixtures"])
        assert report.status == RunStatus.COMPLETE
        spans = read_spans(tmp_path / "trace.jsonl")
        assert [(s["span"], s["path"], s["attributes"]["error"]) for s in spans
                if "error" in s["attributes"]] == [
            ("part:CAP-100N", "run/page:P2/part:CAP-100N", "AllAttemptsFailed"),
            ("retrieve", "run/page:P2/part:CAP-100N/retrieve", "AllAttemptsFailed")]
        # the part's members are reviewed with a None spec: no payload sends one
        reviews = [json.loads(p.read_text(encoding="utf-8"))
                   for p in paths["fixtures"].glob("group_review/*.req")]
        assert any(comp.get("mpn") == "CAP-100N" for doc in reviews
                   for comp in ET.fromstring(doc["netlist_xml"]).iter("component"))
        assert all("CAP-100N" not in doc["specs"] for doc in reviews)

    def test_repeated_group_names_give_each_span_its_own_path(self, tmp_path):
        # a selection reply that names every group "power": merged into one
        # group per page, no two spans share a path, so the trace's order
        # cannot depend on which thread finished first
        paths = write_demo_workspace(tmp_path)
        cfg = fresh_cfg(tmp_path, trace_out=str(tmp_path / "trace.jsonl"))

        def responder(kind_name, payload, seed):
            answer = demo_responder(kind_name, payload, seed)
            if kind_name == "selection":
                answer = json.dumps({"groups": [{**g, "name": "power"}
                                                for g in json.loads(answer)["groups"]]})
            return answer

        def run():
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        assert generate_fixtures(run, paths["fixtures"], responder=responder).status \
            == RunStatus.COMPLETE
        spans = read_spans(tmp_path / "trace.jsonl")
        keys = [(s["span"], s["path"]) for s in spans]
        assert len(keys) == len(set(keys))
        assert [s["path"] for s in spans if s["span"].startswith("group:")] == [
            f"run/page:{pid}/group:power" for pid in ("P1", "P2", "P3")]

    def test_agent_spans_inherit_part_and_run_index(self, demo):
        work, paths = demo
        clean_run_dirs(work)
        run_pipeline(fresh_cfg(work), paths["schematic"])
        spans = [json.loads(line) for line
                 in (work / "trace.jsonl").read_text().splitlines()]
        retrieval = [s for s in spans
                     if s["span"] in ("head_analysis", "extraction", "critic")]
        reviews = [s for s in spans if s["span"] == "group_review"]
        assert retrieval and reviews
        for span in retrieval:
            assert f"/part:{span['attributes']['part']}/" in span["path"]
        # each group's k runs are the choices of one request, recorded
        # directly under the group; a run remade alone records under review:<i>
        for span in reviews:
            assert span["path"].endswith(f"/group:{span['attributes']['group']}/group_review")
            assert span["attributes"]["choices"] == 3
            assert "run_index" not in span["attributes"]

    def test_empty_run_has_only_root_span(self, demo, tmp_path):
        work, _ = demo
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1, "pages": []}')
        cfg = fresh_cfg(work, trace_out=str(tmp_path / "trace.jsonl"))
        run_pipeline(cfg, empty)
        spans = [json.loads(line) for line
                 in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert [s["path"] for s in spans] == ["run"]


def out_bytes(work) -> dict:
    out = work / "out"
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestReviewPayloads:
    def test_group_payloads_name_only_the_groups_components(self, demo):
        _, paths = demo
        head = ingest_schematic(paths["schematic"].read_bytes())
        captures = sorted(paths["fixtures"].glob("group_review/*.req")) + sorted(
            paths["fixtures"].glob("consensus/*.req"))
        assert {p.parent.name for p in captures} == {"group_review", "consensus"}
        for path in captures:
            doc = json.loads(path.read_text(encoding="utf-8"))
            members = set(doc["group"]["designators"])
            scoped = ET.fromstring(doc["netlist_xml"])
            nets = {n.name: n.nodes for n in head.page(scoped.get("id")).nets
                    if any(comp in members for comp, _pin in n.nodes)}
            assert {c.get("designator") for c in scoped.iter("component")} == members
            assert {net.get("name"): tuple((n.get("component"), n.get("pin"))
                                           for n in net)
                    for net in scoped.iter("net")} == nets
            assert scoped.find("annotations") is None

    def test_group_payloads_send_each_spec_once(self, demo):
        _, paths = demo
        captures = sorted(paths["fixtures"].glob("group_review/*.req")) + sorted(
            paths["fixtures"].glob("consensus/*.req"))
        shared = 0
        for path in captures:
            payload = path.read_text(encoding="utf-8")
            doc = json.loads(payload)
            assert "parts" not in doc
            # each member's spec is found by the mpn or ipn in its slice entry
            keys = [comp.get("mpn") or comp.get("ipn")
                    for comp in ET.fromstring(doc["netlist_xml"]).iter("component")]
            assert set(doc["specs"]) == set(filter(None, keys))
            shared += len(keys) - len(set(keys))
            for key, xml in doc["specs"].items():
                spec = ET.fromstring(xml)
                assert (spec.get("mpn") or spec.get("ipn")) == key
                assert payload.count(json.dumps(xml)) == 1
        assert shared  # the demo's groups do share parts

    def test_payloads_carry_no_xml_declaration_or_line_break(self, demo):
        _, paths = demo
        captures = sorted(paths["fixtures"].glob("*/*.req"))
        assert {p.parent.name for p in captures} >= {"selection", "critic",
                                                     "group_review", "consensus"}
        for path in captures:
            payload = path.read_text(encoding="utf-8")
            assert "<?xml" not in payload
            kind = path.parent.name
            if kind in ("selection", "critic"):
                documents = [payload]
            elif kind in ("group_review", "consensus"):
                doc = json.loads(payload)
                documents = [doc["netlist_xml"], *doc["specs"].values()]
            else:
                continue
            for xml in documents:
                assert "\n" not in xml and "\r" not in xml
                ET.fromstring(xml)

    def test_csv_library_is_read_once_per_run(self, demo, monkeypatch):
        work, paths = demo
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(libraries, "open", counted, raising=False)
        cfg = fresh_cfg(work)
        for run in (1, 2):  # one config object, two runs: one read each
            clean_run_dirs(work)
            report = run_pipeline(cfg, paths["schematic"])
            assert report.cache_hits + report.cache_misses > 1
            assert opened == ["parts.csv"] * run


    def test_checklist_dir_files_are_read_once_per_run(self, demo, tmp_path, monkeypatch):
        work, paths = demo
        checklists = tmp_path / "checklists"
        checklists.mkdir()
        (checklists / "default.txt").write_text("default checklist", encoding="utf-8")
        (checklists / "power_stage.txt").write_text("power checklist", encoding="utf-8")
        reads, payloads = [], []
        read_text = review.read_text

        def counted(path):
            if Path(path).parent == checklists:
                reads.append(Path(path).name)
            return read_text(path)

        def recorded(self, req, payload):
            if req.agent_kind.value == "group_review":
                payloads.append(json.loads(payload))
            choices = [demo_responder(req.agent_kind.value, payload, req.seed + i)
                       for i in range(req.n or 1)]
            return choices, TokenUsage(len(payload) // 4,
                                       sum(len(raw) // 4 for raw in choices))

        monkeypatch.setattr(review, "read_text", counted)
        monkeypatch.setattr(MockBackend, "complete", recorded)
        clean_run_dirs(work)
        run_pipeline(fresh_cfg(work, checklist_dir=str(checklists)), paths["schematic"])
        groups = {doc["group"]["name"] for doc in payloads}
        assert len(groups) > len(set(reads)) == len(reads) > 0
        checklist = checklist_loader(str(checklists))
        for doc in payloads:
            assert doc["checklist"] == checklist(doc["group"]["name"])


def usage_counts(report) -> dict:
    """The report's calls and tokens per agent kind, without latencies."""
    return {kind: {k: v for k, v in entry.items() if k != "latency_s"}
            for kind, entry in report.usage.items()}


@pytest.fixture(scope="module")
def failing_shared_part(tmp_path_factory):
    """The demo with a CAP-10U member added to P2, and fixtures in which
    no CAP-10U extraction parses: the part, listed on P1, P2 and P3,
    fails under P1 and is retried under P2 and under P3."""
    work = tmp_path_factory.mktemp("failing-shared-part")
    paths = write_demo_workspace(work)
    doc = json.loads(paths["schematic"].read_text(encoding="utf-8"))
    [p2] = [page for page in doc["pages"] if page["id"] == "P2"]
    p2["components"].append({"designator": "C9", "mpn": "CAP-10U",
                             "pins": [{"designator": "1"}, {"designator": "2"}],
                             "bbox": {"x": 20, "y": 60, "w": 8, "h": 12}})
    for net in p2["nets"]:
        if net["name"] in ("VCC_3V3", "GND"):
            net["nodes"].append(["C9", "1" if net["name"] == "VCC_3V3" else "2"])
    paths["schematic"].write_text(json.dumps(doc, indent=2), encoding="utf-8")
    cfg = fresh_cfg(work)

    def responder(kind_name, payload, seed):
        if kind_name == "extraction" and "CAP-10U" in payload:
            return "not json"
        return demo_responder(kind_name, payload, seed)

    def run():
        clean_run_dirs(work)
        return run_pipeline(cfg, paths["schematic"])

    generate_fixtures(run, paths["fixtures"], responder=responder)
    return work, paths


class TestWorkerPool:
    @pytest.mark.parametrize("case", ["full-analysis", "design-review",
                                      "failing-shared-part"])
    @pytest.mark.parametrize("max_in_flight", [1, 2, 8])
    def test_pool_size_does_not_change_results(self, request, monkeypatch, case,
                                               max_in_flight):
        # the reference run's calls never wait, so it runs on one thread;
        # the compared run's calls wait, so its items spill to the pool
        work, paths = request.getfixturevalue(
            "failing_shared_part" if case == "failing-shared-part" else "demo")
        overrides = ({"mode": Mode.DESIGN_REVIEW, "base_schematic": str(paths["base"])}
                     if case == "design-review" else {})
        clean_run_dirs(work)
        report = run_or_fail(fresh_cfg(work, **overrides), paths["schematic"],
                             monkeypatch)
        expected = (out_bytes(work), span_sequence(work / "trace.jsonl"),
                    usage_counts(report))

        clean_run_dirs(work)
        cfg = fresh_cfg(work, **overrides)
        cfg.backend.max_in_flight = max_in_flight
        cfg.backend.mock_delay_s = 0.01
        report = run_or_fail(cfg, paths["schematic"], monkeypatch)
        assert (out_bytes(work), span_sequence(work / "trace.jsonl"),
                usage_counts(report)) == expected

    def test_max_in_flight_bounds_calls_and_threads(self, demo, monkeypatch):
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work)
        cfg.backend.mock_delay_s = 0.02
        cfg.backend.max_in_flight = 2
        lock = threading.Lock()
        in_flight = peak = peak_threads = 0
        original = MockBackend.complete

        def counted(self, req, payload):
            nonlocal in_flight, peak, peak_threads
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
                peak_threads = max(peak_threads, threading.active_count())
            try:
                return original(self, req, payload)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(MockBackend, "complete", counted)
        threads_before = threading.active_count()
        run_pipeline(cfg, paths["schematic"])
        assert peak == 2
        assert peak_threads <= threads_before + 2

    @pytest.mark.parametrize("max_in_flight", [None, 1, 2])
    def test_no_agent_call_runs_on_the_calling_thread(self, demo, monkeypatch,
                                                      max_in_flight):
        # the calling thread only admits pages and waits; an agent call on
        # it would be a worker beyond max_in_flight
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work)
        if max_in_flight is not None:
            cfg.backend.max_in_flight = max_in_flight
        caller = threading.get_ident()
        on_caller = []
        original = MockBackend.complete

        def recorded(self, req, payload):
            if threading.get_ident() == caller:
                on_caller.append(req.agent_kind.value)
            return original(self, req, payload)

        monkeypatch.setattr(MockBackend, "complete", recorded)
        run_pipeline(cfg, paths["schematic"])
        assert on_caller == []


class TestWorkFirst:
    """Items run on the thread that reaches them and spill to the pool
    only when a call is about to wait."""

    @staticmethod
    def count_calls(monkeypatch) -> dict:
        """Counts MockBackend calls: the peak in flight and the threads
        that made them."""
        lock = threading.Lock()
        seen = {"in_flight": 0, "peak": 0, "threads": set()}
        original = MockBackend.complete

        def counted(self, req, payload):
            with lock:
                seen["in_flight"] += 1
                seen["peak"] = max(seen["peak"], seen["in_flight"])
                seen["threads"].add(threading.get_ident())
            try:
                return original(self, req, payload)
            finally:
                with lock:
                    seen["in_flight"] -= 1

        monkeypatch.setattr(MockBackend, "complete", counted)
        return seen

    def test_calls_that_never_wait_run_on_one_thread(self, demo, monkeypatch):
        # at mock delay 0 no call blocks, so nothing spills to the pool
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work)
        cfg.backend.mock_delay_s = 0
        cfg.backend.max_in_flight = 8
        seen = self.count_calls(monkeypatch)
        run_pipeline(cfg, paths["schematic"])
        assert len(seen["threads"]) == 1
        assert seen["peak"] == 1

    def test_calls_that_wait_overlap_up_to_max_in_flight(self, demo, monkeypatch):
        # the demo's widest stages have more than 8 calls ready at once;
        # once they wait, the pool fills as a pool given every item at
        # once did
        work, paths = demo
        clean_run_dirs(work)
        cfg = fresh_cfg(work)
        cfg.backend.mock_delay_s = 0.02
        cfg.backend.max_in_flight = 8
        seen = self.count_calls(monkeypatch)
        run_pipeline(cfg, paths["schematic"])
        assert seen["peak"] == 8


class TestPageBatch:
    @pytest.mark.parametrize("max_in_flight", [1, 2, 8])
    def test_shared_part_is_retrieved_under_its_first_page(self, demo, max_in_flight):
        # CAP-10U is listed on P1 and P3, which are analyzed together
        work, paths = demo
        cfg = fresh_cfg(work)
        cfg.backend.max_in_flight = max_in_flight
        cfg.backend.mock_delay_s = 0.002
        first = None
        for _ in range(10):
            clean_run_dirs(work)
            run_pipeline(cfg, paths["schematic"])
            spans = span_sequence(work / "trace.jsonl")
            agent_paths = [path for span, path, _ in spans
                           if span in ("head_analysis", "extraction", "critic")
                           and "/part:CAP-10U/" in path]
            assert len(agent_paths) == 3
            assert all(path.startswith("run/page:P1/") for path in agent_paths)
            [p3_retrieve] = [attrs for span, path, attrs in spans
                             if path == "run/page:P3/part:CAP-10U/retrieve"]
            assert p3_retrieve["cache_hit"] is True
            first = first or spans
            assert spans == first


class TestFixtureGeneration:
    def test_a_fresh_run_reads_every_fixture_and_misses_none(self, tmp_path, monkeypatch):
        paths = write_demo_workspace(tmp_path)
        cfg = fresh_cfg(tmp_path)

        def run():
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        generate_fixtures(run, paths["fixtures"])
        read = set()
        original = MockBackend.complete

        def recorded(self, req, payload):
            choices, usage = original(self, req, payload)
            read.update(rel for rel, raw in zip(fixture_relpaths(req, payload), choices)
                        if raw is not None)
            return choices, usage

        monkeypatch.setattr(MockBackend, "complete", recorded)
        run()
        fixtures = paths["fixtures"]
        responses = {p.relative_to(fixtures).as_posix() for p in fixtures.rglob("*.resp")}
        captures = {p.relative_to(fixtures).as_posix() for p in fixtures.rglob("*.req")}
        assert responses == read
        assert captures == {r.removesuffix(".resp") + ".req" for r in responses}
        # one review choice per group and seed: five groups, k = 3
        assert len(list((fixtures / "group_review").glob("*.resp"))) == 15

    def test_the_run_is_called_once(self, tmp_path):
        paths = write_demo_workspace(tmp_path)
        cfg = fresh_cfg(tmp_path)
        calls = []

        def run():
            calls.append(1)
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        assert generate_fixtures(run, paths["fixtures"]).status == RunStatus.COMPLETE
        assert len(calls) == 1

    def test_the_responder_is_never_entered_twice_at_once(self, tmp_path):
        paths = write_demo_workspace(tmp_path)
        cfg = fresh_cfg(tmp_path)
        cfg.backend.mock_delay_s = 0.01
        cfg.backend.max_in_flight = 8
        lock = threading.Lock()
        inside = peak = 0
        threads = set()

        def responder(kind_name, payload, seed):
            nonlocal inside, peak
            with lock:
                inside += 1
                peak = max(peak, inside)
                threads.add(threading.get_ident())
            try:
                time.sleep(0.002)  # widens the window in which a second caller would enter
                return demo_responder(kind_name, payload, seed)
            finally:
                with lock:
                    inside -= 1

        def run():
            clean_run_dirs(tmp_path)
            return run_pipeline(cfg, paths["schematic"])

        assert generate_fixtures(run, paths["fixtures"], responder=responder).status \
            == RunStatus.COMPLETE
        assert len(threads) > 1  # the misses did come from several threads
        assert peak == 1

    def test_the_mock_read_is_restored_after_a_failed_run(self, tmp_path):
        original = MockBackend._read

        def run():
            assert MockBackend._read is not original
            raise KeyError("boom")

        with pytest.raises(KeyError, match="boom"):
            generate_fixtures(run, tmp_path / "fixtures")
        assert MockBackend._read is original


    def test_payloads_do_not_depend_on_the_workspace_path(self, tmp_path):
        # datasheets live under the workspace, so their file:// URLs differ
        # in length; no payload may carry them
        seen = []
        for work in (tmp_path / "a", tmp_path / ("a" * 60)):
            paths = write_demo_workspace(work)
            cfg = fresh_cfg(work)

            def run():
                clean_run_dirs(work)
                return run_pipeline(cfg, paths["schematic"])

            report = generate_fixtures(run, paths["fixtures"])
            usage = usage_counts(report)
            names = sorted(p.relative_to(paths["fixtures"]).as_posix()
                           for p in paths["fixtures"].rglob("*") if p.is_file())
            seen.append((usage, names))
        assert seen[0] == seen[1]


class TestCli:
    def test_complete_run_exits_zero(self, demo, capsys):
        work, paths = demo
        clean_run_dirs(work)
        code = main(["--schematic", str(paths["schematic"]),
                     "--config", str(paths["config"])])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "complete"
        assert report["comments_emitted"] == 3
        assert report["cache"] == {"hits": 1, "misses": 8}
        manifest = json.loads((work / "out" / "manifest.json").read_text())
        assert report["delivery"] == [
            {"group_id": c["group_id"], "ok": True, "attempts": 1, "error": None}
            for c in manifest["comments"]]

    def test_partial_run_exits_three(self, demo, capsys):
        work, paths = demo
        clean_run_dirs(work)
        code = main(["--schematic", str(paths["schematic"]),
                     "--config", str(paths["config"]),
                     "--time-limit-secs", "0.0001"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "partial"

    def test_failure_exits_one(self, demo, capsys):
        work, paths = demo
        code = main(["--schematic", str(work / "nonexistent.json"),
                     "--config", str(paths["config"])])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_label_without_text_exits_one_with_an_error_line(self, demo, tmp_path, capsys):
        work, paths = demo
        schematic = tmp_path / "empty_label.json"
        schematic.write_text(json.dumps(WIRE_AND_EMPTY_LABEL), encoding="utf-8")
        code = main(["--schematic", str(schematic), "--config", str(paths["config"])])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: page 'P1': annotation 1 is a label without text"

    @pytest.mark.parametrize("name, text, message", [
        # a lone surrogate, which no payload could even encode
        ("schematic.json", demo_schematic_text().replace('"U1"', '"U1\\ud800"'),
         "page 'P1': component designator 'U1\\ud800'"),
        ("schematic.json", demo_schematic_text().replace('"REG_OUT"', '"REG\\u0001OUT"'),
         "page 'P1': net name 'REG\\x01OUT'"),
        # the label names the net that wire tracing finds
        ("page.kicad_sch", '(kicad_sch (page "P1")'
                           ' (symbol (property "Reference" "R1") (pin (number "1") (at 0 0)))'
                           ' (symbol (property "Reference" "R2") (pin (number "1") (at 20 0)))'
                           ' (wire (pts (xy 0 0) (xy 20 0))) (label "VCC\x1b3V3" (at 10 0)))',
         "page 'P1': net name 'VCC\\x1b3V3'"),
    ], ids=["surrogate-designator", "control-in-net-name", "kicad-label"])
    def test_text_xml_cannot_carry_exits_one_with_an_error_line(self, demo, tmp_path, capsys,
                                                                name, text, message):
        # rejected before any agent call: the mock backend reads an empty
        # fixture directory, where any call leaves a .req capture
        work, paths = demo
        fixtures = tmp_path / "fixtures"
        config = write_malformed_config(work, tmp_path, lambda doc: {
            **doc, "backend": {**doc["backend"], "fixture_path": str(fixtures)}})
        schematic = tmp_path / name
        schematic.write_text(text, encoding="utf-8")
        code = main(["--schematic", str(schematic), "--config", str(config)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {message} holds a character XML 1.0 cannot carry"
        assert list(fixtures.rglob("*.req")) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_time_limit_exits_one(self, demo, capsys, value):
        work, paths = demo
        code = main(["--schematic", str(paths["schematic"]),
                     "--config", str(paths["config"]),
                     "--time-limit-secs", value])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: time_budget_secs must be finite")

    @pytest.mark.parametrize("malform", _MALFORMED_CONFIGS)
    def test_malformed_config_exits_one_with_an_error_line(self, demo, tmp_path, capsys,
                                                           malform):
        # the config's line, not a later failure of the run: its mock backend
        # reads an empty fixture directory, where any agent call leaves a
        # .req capture
        work, paths = demo
        fixtures = tmp_path / "fixtures"
        config = write_malformed_config(work, tmp_path, lambda doc: malform(
            {**doc, "backend": {**doc["backend"], "fixture_path": str(fixtures)}}))
        with pytest.raises(ConfigError) as expected:
            load_config(config).validate()
        code = main(["--schematic", str(paths["schematic"]), "--config", str(config)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {expected.value}"
        assert list(fixtures.rglob("*.req")) == []

    def test_a_checklist_that_is_not_utf8_exits_one_with_an_error_line(self, demo, tmp_path,
                                                                       capsys):
        work, paths = demo
        clean_run_dirs(work)
        (tmp_path / "checklists").mkdir()
        default = tmp_path / "checklists" / "default.txt"
        default.write_bytes(b"\xff\xfe")
        config = write_malformed_config(work, tmp_path, lambda doc: {
            **doc, "checklist_dir": str(tmp_path / "checklists")})
        code = main(["--schematic", str(paths["schematic"]), "--config", str(config)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: checklist {default}: 'utf-8' codec can't decode")

    def test_a_mock_fixture_that_is_not_utf8_exits_one_with_an_error_line(self, demo,
                                                                         tmp_path, capsys):
        work, paths = demo
        clean_run_dirs(work)
        fixtures = tmp_path / "fixtures"
        shutil.copytree(paths["fixtures"], fixtures)
        selection = sorted((fixtures / "selection").glob("*.resp"))
        for path in selection:
            path.write_bytes(b"\xff")
        config = write_malformed_config(work, tmp_path, lambda doc: {
            **doc, "backend": {**doc["backend"], "fixture_path": str(fixtures)}})
        code = main(["--schematic", str(paths["schematic"]), "--config", str(config)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: mock fixture ")
        assert any(line.startswith(f"error: mock fixture {path} is not UTF-8: ")
                   for path in selection)

    def test_a_file_sink_that_cannot_write_exits_one_with_an_error_line(self, demo,
                                                                       tmp_path, capsys):
        work, paths = demo
        clean_run_dirs(work)
        out = tmp_path / "out"
        out.write_text("a file, not a directory")
        code = main(["--schematic", str(paths["schematic"]),
                     "--config", str(paths["config"]), "--out", str(out)])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: file sink cannot write under {out}: ")

    def test_design_review_flags(self, demo, capsys):
        work, paths = demo
        clean_run_dirs(work)
        code = main(["--schematic", str(paths["schematic"]),
                     "--config", str(paths["config"]),
                     "--mode", "design-review",
                     "--base", str(paths["base"])])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pages_analyzed"] == ["P2"]

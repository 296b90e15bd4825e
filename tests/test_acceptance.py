"""Acceptance criteria, one test per criterion.

Everything runs against the deterministic mock backend. Each criterion
prints one PASS line on success (run with ``pytest -s`` to see them);
pytest itself reports any failure. Production-scale claims (live-model
review quality, wall-clock on hosted models, fleet behavior) are not
reproducible at desk scale and are replaced by criteria 1-8; criterion 9
records that explicitly.
"""

import hashlib
import json
import random
import shutil
import time
from pathlib import Path

import pytest

from helpers import (
    consensus_responder,
    make_candidate_files,
    quad_for,
    script_retrieval_attempt,
    serialize_xml,
)
from schemreview.augment import augment_netlist
from schemreview.config import Mode, load_config
from schemreview.consensus import Provenance, combine_consensus
from schemreview.datasheets import RetrievalConfig, local_file_fetcher, retrieve_spec
from schemreview.demo import generate_fixtures, write_demo_workspace
from schemreview.dscache import CacheStore
from schemreview.dsmodel import CriticScore
from schemreview.gateway import BackendConfig, Gateway
from schemreview.grouping import group_errors
from schemreview.ingest import ingest_schematic
from schemreview.libraries import LibraryKind, LibrarySource, PartRef
from schemreview.model import BBox, Component, Net, Page, Pin
from schemreview.pipeline import RunStatus, run_pipeline
from schemreview.pstxnet import parse_pstxnet, render_pstxnet
from schemreview.reporting import render_comment
from schemreview.review import (
    ComponentAnalysis,
    FunctionalGroup,
    GroupReviewContext,
    PinVerdict,
    RunResult,
    VerdictStatus,
)
from schemreview.singleflight import SingleFlight

PART = PartRef(mpn="LM317")


def announce(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


# --- criterion 1: critic weighting ----------------------------------------------

def test_criterion_01_critic_weighting():
    rng = random.Random(1)
    t0 = time.perf_counter()
    for _ in range(1000):
        quad = [rng.randint(0, 10) for _ in range(4)]
        score = CriticScore(*quad)
        oracle = 0.25 * quad[0] + 0.40 * quad[1] + 0.20 * quad[2] + 0.15 * quad[3]
        assert abs(score.weighted - oracle) <= 1e-9
        assert 0 <= score.weighted <= 10
    assert CriticScore(8, 6, 10, 4).weighted == 7.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"1000 quadruples match the (0.25, 0.40, 0.20, 0.15) dot product "
                f"within 1e-9; (8,6,10,4) -> 7.0 exactly; {elapsed:.3f}s")


# --- criterion 2: retry loop -----------------------------------------------------

def _scripted_retrieval(tmp_path, scores, threshold):
    urls = make_candidate_files(tmp_path, len(scores))
    fixtures = tmp_path / "fixtures"
    for url, target in zip(urls, scores):
        doc_bytes = (tmp_path / url.rsplit("/", 1)[1]).read_bytes()
        script_retrieval_attempt(fixtures, url, doc_bytes, PART, quad_for(target))
    csv = tmp_path / "lib.csv"
    csv.write_text("part_number,datasheet_url\n" +
                   "".join(f"{PART.key},{u}\n" for u in urls))
    library = LibrarySource(LibraryKind.CSV_TABLE, priority=1, path=str(csv))
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(fixtures)))
    cache = CacheStore(tmp_path / "cache")

    calls = {"n": 0}

    def counting(url):
        calls["n"] += 1
        return local_file_fetcher(url)

    result = retrieve_spec(PART, [library], RetrievalConfig(threshold=threshold),
                           gateway=gateway, cache=cache, fetcher=counting)
    return result, calls["n"], urls


def test_criterion_02_retry_loop(tmp_path_factory):
    rng = random.Random(2)
    for case in range(200):
        tmp_path = tmp_path_factory.mktemp(f"retry{case}")
        scores = [float(rng.randint(0, 10)) for _ in range(rng.randint(1, 8))]
        threshold = float(rng.randint(0, 10))
        result, fetches, urls = _scripted_retrieval(tmp_path, scores, threshold)

        assert fetches <= 5
        consumed = scores[:5]
        reaching = [i for i, s in enumerate(consumed) if s >= threshold]
        if reaching:
            expect = reaching[0]
            assert fetches == expect + 1  # stopped at the first score >= threshold
        else:
            best = max(consumed)
            expect = consumed.index(best)  # argmax, earliest on ties
            assert fetches == min(len(scores), 5)
        assert result.spec.source_url == urls[expect]
        assert result.score.weighted == consumed[expect]
    announce(2, "200 scripted critic sequences: <= 5 attempts, first-threshold "
                "stop, argmax fallback with earliest tie-break")


# --- criterion 3: cache TTL boundary ---------------------------------------------

def test_criterion_03_cache_ttl_boundary(tmp_path):
    clock = {"t": 1_000_000.0}
    urls = make_candidate_files(tmp_path, 1)
    fixtures = tmp_path / "fixtures"
    script_retrieval_attempt(fixtures, urls[0],
                             (tmp_path / "sheet0.txt").read_bytes(), PART,
                             quad_for(8.0))
    csv = tmp_path / "lib.csv"
    csv.write_text(f"part_number,datasheet_url\n{PART.key},{urls[0]}\n")
    library = LibrarySource(LibraryKind.CSV_TABLE, priority=1, path=str(csv))
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(fixtures)))
    cache = CacheStore(tmp_path / "cache", now=lambda: clock["t"])
    cfg = RetrievalConfig()

    calls = {"n": 0}

    def counting(url):
        calls["n"] += 1
        return local_file_fetcher(url)

    first = retrieve_spec(PART, [library], cfg, gateway=gateway, cache=cache,
                          fetcher=counting)
    assert not first.cache_hit and calls["n"] == 1

    clock["t"] = 1_000_000.0 + 604_799  # one second inside the TTL
    hit = retrieve_spec(PART, [library], cfg, gateway=gateway, cache=cache,
                        fetcher=counting)
    assert hit.cache_hit
    assert calls["n"] == 1  # zero fetches on a cache hit
    assert hit.spec.to_xml() == first.spec.to_xml()

    clock["t"] = 1_000_000.0 + 604_801  # past the TTL
    miss = retrieve_spec(PART, [library], cfg, gateway=gateway, cache=cache,
                         fetcher=counting)
    assert not miss.cache_hit
    assert calls["n"] == 2
    announce(3, "age 604799s hits, 604801s misses, and the hit bypassed the "
                "pipeline with zero fetches")


# --- criterion 4: in-flight dedup -------------------------------------------------

def test_criterion_04_inflight_dedup(tmp_path):
    import threading

    urls = make_candidate_files(tmp_path, 1)
    fixtures = tmp_path / "fixtures"
    script_retrieval_attempt(fixtures, urls[0],
                             (tmp_path / "sheet0.txt").read_bytes(), PART,
                             quad_for(8.0))
    csv = tmp_path / "lib.csv"
    csv.write_text(f"part_number,datasheet_url\n{PART.key},{urls[0]}\n")
    library = LibrarySource(LibraryKind.CSV_TABLE, priority=1, path=str(csv))
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(fixtures)))
    cache = CacheStore(tmp_path / "cache")
    flights = SingleFlight()

    started = threading.Event()
    release = threading.Event()
    calls = {"n": 0}
    lock = threading.Lock()

    def gated(url):
        started.set()
        release.wait(timeout=10)
        with lock:
            calls["n"] += 1
        return local_file_fetcher(url)

    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        r = retrieve_spec(PART, [library], RetrievalConfig(), gateway=gateway,
                          cache=cache, fetcher=gated, flights=flights)
        with lock:
            results.append(r)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    assert started.wait(timeout=10)
    time.sleep(0.3)  # let all eight join the in-flight computation
    release.set()
    for t in threads:
        t.join()

    assert calls["n"] == 1
    assert len(results) == 8
    assert len({r.spec.to_xml() for r in results}) == 1
    announce(4, "8 concurrent cold-cache retrievals shared exactly 1 fetch and "
                "one document")


# --- criterion 5: consensus properties ---------------------------------------------

STATUSES = ["correct", "incorrect", "warning", "unverifiable"]


def _random_run(rng, idx) -> RunResult:
    analyses = []
    for designator, pins in (("U1", ["1", "2", "3", "4"]), ("R1", ["1", "2"])):
        chosen = [p for p in pins if rng.random() < 0.6]
        rng.shuffle(chosen)
        verdicts = []
        while chosen:
            take = rng.randint(1, len(chosen))
            group, chosen = chosen[:take], chosen[take:]
            verdicts.append(PinVerdict(", ".join(sorted(group)),
                                       VerdictStatus(rng.choice(STATUSES)),
                                       f"run {idx} text", ()))
        if verdicts:
            analyses.append(ComponentAnalysis(designator, tuple(verdicts)))
    return RunResult(idx, tuple(analyses))


def _consensus_ctx() -> GroupReviewContext:
    group = FunctionalGroup("g", ("U1", "R1"))
    return GroupReviewContext(group, "<page id=\"PX\"/>", {"U1": None, "R1": None}, "")


def _recount(results, designator, pin_set, status) -> int:
    count = 0
    for run in results:
        for analysis in run.analyses:
            if analysis.designator != designator:
                continue
            for v in analysis.verdicts:
                if v.pin_set == pin_set and v.status is status:
                    count += 1
    return count


def test_criterion_05_consensus_properties(tmp_path_factory):
    rng = random.Random(5)
    responder = consensus_responder()
    for case in range(500):
        tmp_path = tmp_path_factory.mktemp(f"cons{case}")
        results = [_random_run(rng, i) for i in range(3)]
        gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path)))
        analyses = generate_fixtures(
            lambda: combine_consensus(results, _consensus_ctx(), gateway),
            tmp_path, responder)
        for analysis in analyses:
            seen_pins = set()
            for finding in analysis.findings:
                for pin in finding.pins:
                    assert (analysis.designator, pin) not in seen_pins
                    seen_pins.add((analysis.designator, pin))
                if finding.provenance is Provenance.MULTI_RUN:
                    support = _recount(results, analysis.designator,
                                       frozenset(finding.pins), finding.status)
                    assert support == finding.support_count >= 2

    # degenerate k=1: verification can drop or annotate, never invent
    for case in range(100):
        tmp_path = tmp_path_factory.mktemp(f"cons1_{case}")
        results = [_random_run(rng, 0)]
        gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path)))
        keep_some = consensus_responder(keep=lambda s: rng.random() < 0.7)
        analyses = generate_fixtures(
            lambda: combine_consensus(results, _consensus_ctx(), gateway),
            tmp_path, keep_some)
        input_keys = {(a.designator, v.pin_set, v.status)
                      for a in results[0].analyses for v in a.verdicts}
        for analysis in analyses:
            for finding in analysis.findings:
                assert (analysis.designator, frozenset(finding.pins),
                        finding.status) in input_keys
    announce(5, "500 randomized triples: multi-run retention verified by "
                "independent recount, no duplicate pins; 100 k=1 cases stay "
                "subsets of their input")


# --- criterion 6: error grouping ----------------------------------------------------

def _bfs_components(n, edges):
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.add(node)
            stack.extend(adjacency[node] - seen)
        comps.append(frozenset(comp))
    return set(comps)


def _finding(pins, status="incorrect", nets=()):
    from schemreview.consensus import Confidence, ConsensusFinding
    return ConsensusFinding(pins, VerdictStatus(status), "r", tuple(nets), 2,
                            Confidence.HIGH, Provenance.MULTI_RUN)


def _analyses(members):
    by_designator = {}
    for designator, finding in members:
        by_designator.setdefault(designator, []).append(finding)
    from schemreview.consensus import ConsensusAnalysis
    return [ConsensusAnalysis(d, tuple(fs)) for d, fs in sorted(by_designator.items())]


def test_criterion_06_error_grouping():
    rng = random.Random(6)
    designator_pool = [f"U{i}" for i in range(1, 9)] + [f"R{i}" for i in range(1, 9)]
    net_pool = [f"N{i}" for i in range(10)]
    for _case in range(200):
        members = []
        used = set()
        for _ in range(rng.randint(1, 30)):
            designator = rng.choice(designator_pool)
            pin = str(rng.randint(1, 9))
            if (designator, pin) in used:
                continue
            used.add((designator, pin))
            nets = tuple(sorted(rng.sample(net_pool, rng.randint(0, 2))))
            members.append((designator, _finding(pin, nets=nets)))
        if not members:
            continue
        groups = group_errors(_analyses(members))
        edges = []
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                di, fi = members[i]
                dj, fj = members[j]
                if di == dj or set(fi.referenced_nets) & set(fj.referenced_nets):
                    edges.append((i, j))
        expected = _bfs_components(len(members), edges)
        index = {(d, f.pin_key): i for i, (d, f) in enumerate(members)}
        got = {frozenset(index[(d, f.pin_key)] for d, f in g.findings)
               for g in groups}
        assert got == expected

        # permutation invariance of group ids
        shuffled = list(members)
        rng.shuffle(shuffled)
        ids_a = sorted(g.group_id for g in groups)
        ids_b = sorted(g.group_id for g in group_errors(_analyses(shuffled)))
        assert ids_a == ids_b

    # the swapped-pin scenario: U1 pins "1, 3" plus downstream R5 -> one
    # group, one comment
    page = Page("P1", components=(
        Component("U1", mpn="LM317", pins=(Pin("1"), Pin("2"), Pin("3")),
                  bbox=BBox(10, 10, 20, 20)),
        Component("R5", mpn="RES-1K", pins=(Pin("1"), Pin("2")),
                  bbox=BBox(50, 10, 8, 16)),
    ))
    analyses = _analyses([
        ("U1", _finding("1, 3", nets=("NET_A", "NET_B"))),
        ("R5", _finding("1", status="warning", nets=("NET_A",))),
    ])
    groups = group_errors(analyses, page.nets)
    assert len(groups) == 1
    comments = [render_comment(g, {}, page) for g in groups]
    assert len(comments) == 1
    assert "| 1, 3 |" in comments[0].markdown
    announce(6, "200 random graphs match the independent union-find oracle; "
                "ids permutation-invariant; swapped-pin scenario yields one "
                "group and one comment")


# --- criterion 7: end-to-end determinism ----------------------------------------------

@pytest.fixture(scope="module")
def demo_workspace(tmp_path_factory):
    work = tmp_path_factory.mktemp("accept_demo")
    paths = write_demo_workspace(work)
    cfg = load_config(paths["config"])

    def run():
        shutil.rmtree(work / "cache", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        return run_pipeline(cfg, paths["schematic"])

    generate_fixtures(run, paths["fixtures"])
    return work, paths


def _fresh_demo_run(work, paths, **overrides):
    cfg = load_config(paths["config"])
    for key, value in overrides.items():
        setattr(cfg, key, value)
    shutil.rmtree(work / "cache", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    report = run_pipeline(cfg, paths["schematic"])
    digests = {}
    out = work / "out"
    for p in sorted(out.rglob("*")):
        if p.is_file():
            digests[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    span_tree = []
    for line in Path(cfg.trace_out).read_text().splitlines():
        doc = json.loads(line)
        span_tree.append((doc["span"], doc["path"],
                          json.dumps(doc["attributes"], sort_keys=True)))
    return report, digests, span_tree


def test_criterion_07_end_to_end_determinism(demo_workspace):
    work, paths = demo_workspace

    t0 = time.perf_counter()
    report1, files1, spans1 = _fresh_demo_run(work, paths)
    elapsed = time.perf_counter() - t0
    report2, files2, spans2 = _fresh_demo_run(work, paths)

    assert report1.status == RunStatus.COMPLETE
    assert files1 == files2, "manifests, comments, overlays must be byte-identical"
    assert spans1 == spans2, "span trees (timestamps excluded) must be identical"
    assert report1.comments_emitted == report2.comments_emitted == 3
    assert elapsed < 10.0

    # design review mode: base differs only on P2
    report_dr, _, _ = _fresh_demo_run(work, paths, mode=Mode.DESIGN_REVIEW,
                                      base_schematic=str(paths["base"]))
    assert report_dr.pages_analyzed == ["P2"]

    # one-page time budget on the three-page fixture: at 0.05 s a call, the
    # part listings start after one call (selection) and the group reviews
    # after three (head analysis, extraction); the deadline falls between
    cfg = load_config(paths["config"])
    cfg.time_budget_s = 0.1
    cfg.backend.mock_delay_s = 0.05
    shutil.rmtree(work / "cache", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    report_partial = run_pipeline(cfg, paths["schematic"])
    assert report_partial.status == RunStatus.PARTIAL
    assert report_partial.pages_analyzed == ["P1"]
    assert report_partial.pages_skipped == ["P2", "P3"]
    manifest = json.loads((work / "out" / "manifest.json").read_text())
    assert {c["page_id"] for c in manifest["comments"]} == {"P1"}
    announce(7, f"two fresh runs byte-identical ({len(files1)} files, "
                f"{len(spans1)} spans); design-review analyzed only P2; "
                f"budget run posted only P1; full run {elapsed:.2f}s < 10s")


# --- criterion 8: parser round-trips ---------------------------------------------------

def test_criterion_08_parser_round_trips():
    rng = random.Random(8)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"

    def rand_name():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))

    for _case in range(100):
        names = {rand_name() for _ in range(rng.randint(1, 10))}
        nets = []
        for name in sorted(names):
            nodes = {(rand_name(), str(rng.randint(1, 99)))
                     for _ in range(rng.randint(1, 6))}
            nets.append(Net(name, tuple(nodes)))
        assert parse_pstxnet(render_pstxnet(nets)) == nets

    # augment idempotence and canonical XML byte-stability on the bundled fixture
    from schemreview.demo import demo_schematic_text
    schematic = ingest_schematic(demo_schematic_text().encode())
    once = augment_netlist(schematic)
    assert augment_netlist(once) == once
    assert serialize_xml(once) == serialize_xml(augment_netlist(once))
    assert serialize_xml(once) == serialize_xml(
        augment_netlist(ingest_schematic(demo_schematic_text().encode())))
    announce(8, "100 random pstxnet netlists render->parse to a fixpoint; "
                "augmentation idempotent; canonical XML byte-stable")


# --- criterion 9: explicitly not reproducible at desk scale -----------------------------

def test_criterion_09_production_claims_replaced():
    announce(9, "production claims (live-model review quality, <20min wall "
                "clock on hosted models, fleet behavior) are not reproducible "
                "at desk scale; replaced by criteria 1-8")

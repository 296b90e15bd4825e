"""The scored retry loop: threshold cutoff, argmax fallback, cache bypass."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_candidate_files, quad_for, script_retrieval_attempt
from schemreview.datasheets import RetrievalConfig, retrieve_spec
from schemreview.dscache import CacheStore
from schemreview.errors import AllAttemptsFailed, NoCandidates
from schemreview.gateway import BackendConfig, Gateway
from schemreview.libraries import LibraryKind, LibrarySource, PartRef
from schemreview.singleflight import SingleFlight
from schemreview.tracing import TraceContext, Tracer

PART = PartRef(mpn="LM317")


class CountingLocalFetcher:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url):
        from schemreview.datasheets import local_file_fetcher
        with self._lock:
            self.calls += 1
        return local_file_fetcher(url)


def csv_library(tmp_path, urls) -> LibrarySource:
    path = tmp_path / "lib.csv"
    path.write_text("part_number,datasheet_url\n" +
                    "".join(f"{PART.key},{u}\n" for u in urls))
    return LibrarySource(LibraryKind.CSV_TABLE, priority=1, path=str(path))


def setup_run(tmp_path, scores, threshold=7.0, n_urls=None):
    """Script one fixture chain per candidate URL with the given weighted
    scores; returns (gateway, library, cache, fetcher, urls)."""
    urls = make_candidate_files(tmp_path, n_urls or len(scores))
    fixture_root = tmp_path / "fixtures"
    for url, target in zip(urls, scores):
        doc_bytes = (tmp_path / url.rsplit("/", 1)[1]).read_bytes()
        script_retrieval_attempt(fixture_root, url, doc_bytes, PART, quad_for(target))
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(fixture_root)))
    cache = CacheStore(tmp_path / "cache")
    return gateway, csv_library(tmp_path, urls), cache, CountingLocalFetcher(), urls


def run(tmp_path, scores, threshold=7.0, **kwargs):
    gateway, lib, cache, fetcher, urls = setup_run(tmp_path, scores, threshold)
    cfg = RetrievalConfig(threshold=threshold)
    result = retrieve_spec(PART, [lib], cfg, gateway=gateway, cache=cache,
                           fetcher=fetcher, **kwargs)
    return result, fetcher, cache, urls


def test_stops_at_first_score_meeting_threshold(tmp_path):
    result, fetcher, _, urls = run(tmp_path, [6.0, 7.5], threshold=7.0)
    assert result.score.weighted == 7.5
    assert result.spec.source_url == urls[1]
    assert fetcher.calls == 2
    assert not result.cache_hit


def test_five_attempt_cap_returns_best(tmp_path):
    result, fetcher, _, urls = run(tmp_path, [5, 4, 6, 3, 2], threshold=7.0)
    assert fetcher.calls == 5
    assert result.score.weighted == 6.0
    assert result.spec.source_url == urls[2]


def test_cap_respected_with_more_candidates(tmp_path):
    gateway, lib, cache, fetcher, urls = setup_run(
        tmp_path, [5, 4, 6, 3, 2, 9, 9], threshold=7.0)
    result = retrieve_spec(PART, [lib], RetrievalConfig(threshold=7.0),
                           gateway=gateway, cache=cache, fetcher=fetcher)
    assert fetcher.calls == 5  # candidates 6 and 7 never consumed
    assert result.score.weighted == 6.0


def test_tie_on_best_score_goes_to_earliest(tmp_path):
    result, _, _, urls = run(tmp_path, [6.0, 6.0, 5.0], threshold=9.0)
    assert result.spec.source_url == urls[0]


def test_winner_is_cached_under_winning_url(tmp_path):
    result, fetcher, cache, urls = run(tmp_path, [6.0, 7.5])
    assert cache.lookup((PART.key, urls[1])) is not None
    assert cache.lookup((PART.key, urls[0])) is None


def test_cache_hit_bypasses_pipeline(tmp_path):
    gateway, lib, cache, fetcher, urls = setup_run(tmp_path, [8.0])
    cfg = RetrievalConfig()
    first = retrieve_spec(PART, [lib], cfg, gateway=gateway, cache=cache, fetcher=fetcher)
    assert fetcher.calls == 1
    second = retrieve_spec(PART, [lib], cfg, gateway=gateway, cache=cache, fetcher=fetcher)
    assert second.cache_hit
    assert fetcher.calls == 1  # zero additional fetches
    assert second.spec.to_xml() == first.spec.to_xml()


def test_failed_fetch_consumes_an_attempt(tmp_path):
    urls = make_candidate_files(tmp_path, 2)
    script_retrieval_attempt(tmp_path / "fixtures", urls[1],
                             (tmp_path / "sheet1.txt").read_bytes(), PART, quad_for(9.0))
    (tmp_path / "sheet0.txt").unlink()  # first candidate's fetch will fail
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))
    cache = CacheStore(tmp_path / "cache")
    result = retrieve_spec(PART, [csv_library(tmp_path, urls)], RetrievalConfig(),
                           gateway=gateway, cache=cache)
    assert result.attempts == 2
    assert result.score.weighted == 9.0


def test_malformed_toc_consumes_an_attempt(tmp_path):
    urls = make_candidate_files(tmp_path, 2)
    script_retrieval_attempt(tmp_path / "fixtures", urls[1],
                             (tmp_path / "sheet1.txt").read_bytes(), PART, quad_for(9.0))
    (tmp_path / "sheet0.txt").write_text("%TOC%\nPins | x\n%END%\npin table")
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))
    fetcher = CountingLocalFetcher()
    result = retrieve_spec(PART, [csv_library(tmp_path, urls)], RetrievalConfig(),
                           gateway=gateway, cache=CacheStore(tmp_path / "cache"),
                           fetcher=fetcher)
    assert (result.attempts, fetcher.calls) == (2, 2)
    assert result.spec.source_url == urls[1]
    assert result.score.weighted == 9.0


def test_all_attempts_failed_collects_causes(tmp_path):
    urls = make_candidate_files(tmp_path, 2)
    for i in range(2):
        (tmp_path / f"sheet{i}.txt").unlink()
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fx")))
    (tmp_path / "fx").mkdir()
    cache = CacheStore(tmp_path / "cache")
    with pytest.raises(AllAttemptsFailed) as exc:
        retrieve_spec(PART, [csv_library(tmp_path, urls)], RetrievalConfig(),
                      gateway=gateway, cache=cache)
    assert len(exc.value.causes) == 2


def test_failed_retrieval_records_its_span(tmp_path):
    urls = make_candidate_files(tmp_path, 2)
    for i in range(2):
        (tmp_path / f"sheet{i}.txt").unlink()
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fx")))
    (tmp_path / "fx").mkdir()
    tracer = Tracer()
    with pytest.raises(AllAttemptsFailed):
        retrieve_spec(PART, [csv_library(tmp_path, urls)], RetrievalConfig(),
                      gateway=gateway, cache=CacheStore(tmp_path / "cache"),
                      trace=TraceContext(tracer, "run"))
    [span] = tracer.events()
    assert (span.span_name, span.path) == ("retrieve", "run/retrieve")
    assert span.attributes == {"part": PART.key, "error": "AllAttemptsFailed"}


def test_no_candidates_propagates(tmp_path):
    gateway = Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fx")))
    (tmp_path / "fx").mkdir()
    cache = CacheStore(tmp_path / "cache")
    with pytest.raises(NoCandidates):
        retrieve_spec(PART, [csv_library(tmp_path, [])], RetrievalConfig(),
                      gateway=gateway, cache=cache)


def test_concurrent_retrievals_share_everything(tmp_path):
    gateway, lib, cache, _, urls = setup_run(tmp_path, [8.0])
    started = threading.Event()
    release = threading.Event()
    counter = CountingLocalFetcher()

    def gated(url):
        started.set()
        release.wait(timeout=10)
        return counter(url)

    flights = SingleFlight()
    results = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        r = retrieve_spec(PART, [lib], RetrievalConfig(), gateway=gateway,
                          cache=cache, fetcher=gated, flights=flights)
        with lock:
            results.append(r)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    assert started.wait(timeout=10)
    import time
    time.sleep(0.3)
    release.set()
    for t in threads:
        t.join()
    assert counter.calls == 1
    assert len({r.spec.to_xml() for r in results}) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=10))
def test_retry_loop_properties(tmp_path_factory, scores, threshold):
    """<= 5 attempts; stop at first score >= threshold; else argmax (earliest)."""
    tmp_path = tmp_path_factory.mktemp("prop")
    floats = [float(s) for s in scores]
    gateway, lib, cache, fetcher, urls = setup_run(tmp_path, floats,
                                                   threshold=float(threshold))
    result = retrieve_spec(PART, [lib], RetrievalConfig(threshold=float(threshold)),
                           gateway=gateway, cache=cache, fetcher=fetcher)
    assert fetcher.calls <= 5
    consumed = floats[:5]
    reaching = [i for i, s in enumerate(consumed) if s >= threshold]
    if reaching:
        expect_idx = reaching[0]
        assert fetcher.calls == expect_idx + 1
    else:
        best = max(consumed)
        expect_idx = consumed.index(best)
    assert result.spec.source_url == urls[expect_idx]
    assert result.score.weighted == consumed[expect_idx]

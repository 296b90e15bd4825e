"""Releasing a final spec before its critic call, against an oracle that
states the scored retry loop's rule.

The pipeline's retrieval (``pipeline._retrieve_all_specs``) runs on
drawn parts, each with one to three candidate URLs and listed on one to
three pages, at a drawn ``max_attempts``, with critic scores around the
threshold and drawn critic and cache-write failures; then the calls owed
for released specs run, as the review stage runs them. The spec each
listing receives, whether its retrieval hit the cache, the cache entries
written and the calls per agent kind must be the oracle's. The oracle is
the loop's rule: candidates are tried in order up to ``max_attempts``,
the first score meeting the threshold wins, else the earliest best; the
winner is cached, and a later listing hits the cache (a failed critic
call or cache write leaves the listing without a spec, and the next
listing retries). Its one exception is the documented one: a spec tried
last after no scored attempt is released, so every listing of the run
keeps it even when its critic call or cache write fails.
"""

import json
import re
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from helpers import BASE_SPEC_VALUE, quad_for
from schemreview.config import RunConfig
from schemreview.dscache import CacheStore
from schemreview.errors import BackendUnavailable, StoreIo
from schemreview.gateway import AgentKind
from schemreview.libraries import LibraryKind, LibrarySource
from schemreview.model import Component, Page
from schemreview.pipeline import _Refusals, _retrieve_all_specs
from schemreview.tracing import TraceContext, Tracer

THRESHOLD = 7.0
PAGE_COUNT = 3
SHEET = re.compile(r"sheet-\d+-\d+")

CANDIDATE = st.builds(SimpleNamespace, score=st.sampled_from([6.5, 7.0, 7.5]),
                      critic_fails=st.sampled_from([False, False, True]),
                      put_fails=st.sampled_from([False, False, True]))
PART = st.tuples(st.lists(CANDIDATE, min_size=1, max_size=3),
                 st.sets(st.integers(0, PAGE_COUNT - 1), min_size=1))


def oracle(candidates, listings: int, max_attempts: int):
    """Per listing, (the index of the candidate whose spec it receives, or
    None; whether it hit the cache), the cache entries as {index: score},
    and the calls per agent kind."""
    tried = candidates[:max_attempts]
    got, cached, calls = [], {}, Counter()
    held = None  # a released candidate: every later listing takes it
    for _ in range(listings):
        if held is not None or cached:
            got.append((held if held is not None else next(iter(cached)), True))
            continue
        scored = []
        for index, cand in enumerate(tried):
            calls.update(("head_analysis", "extraction", "critic"))
            if not cand.critic_fails:
                scored.append(index)
                if cand.score >= THRESHOLD:
                    break
        if all(cand.critic_fails for cand in tried[:-1]):  # released
            held = len(tried) - 1
            winner, stored = held, not (tried[held].critic_fails or tried[held].put_fails)
        elif scored:
            winner = next((i for i in scored if tried[i].score >= THRESHOLD),
                          max(scored, key=lambda i: (tried[i].score, -i)))
            stored = not tried[winner].put_fails
        else:
            winner = stored = None
        if stored:
            cached[winner] = tried[winner].score
        got.append((winner if stored or held is not None else None, False))
    return got, cached, calls


class ScriptedGateway:
    """Answers every retrieval call from the drawn candidates: the sheet
    named in the payload picks the candidate."""

    def __init__(self, parts):
        self.parts, self.calls, self.lock = parts, Counter(), threading.Lock()

    def complete(self, req, post_validate=None, trace=None):
        with self.lock:
            self.calls[req.agent_kind.value] += 1
        sheet = SHEET.search(req.user_payload)
        if req.agent_kind is AgentKind.HEAD_ANALYSIS:
            return SimpleNamespace(value={"pages": [0]})
        if req.agent_kind is AgentKind.EXTRACTION:
            return SimpleNamespace(value={**BASE_SPEC_VALUE, "blocks": [sheet.group()]})
        part, index = map(int, sheet.group().split("-")[1:])
        cand = self.parts[part][0][index]
        if cand.critic_fails:
            raise BackendUnavailable("scripted critic failure")
        return SimpleNamespace(value=quad_for(cand.score))


class ScriptedStore(CacheStore):
    def __init__(self, root, failing):
        super().__init__(root)
        self.failing = failing

    def put(self, entry):
        if entry.key in self.failing:
            raise StoreIo("scripted cache write failure")
        super().put(entry)


@settings(max_examples=80, deadline=None, database=None)
@given(parts=st.lists(PART, min_size=1, max_size=3), max_attempts=st.integers(1, 3))
def test_released_specs_match_the_retry_loop_oracle(parts, max_attempts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        urls, rows = {}, ["part_number,datasheet_url"]
        for p, (candidates, _) in enumerate(parts):
            for c in range(len(candidates)):
                sheet = root / f"sheet-{p}-{c}.txt"
                sheet.write_text(f"sheet-{p}-{c}\npin table")
                urls[p, c] = sheet.as_uri()
                rows.append(f"PART-{p},{urls[p, c]}")
        (root / "parts.csv").write_text("\n".join(rows) + "\n")
        cfg = RunConfig(critic_threshold=THRESHOLD, max_attempts=max_attempts,
                        libraries=[LibrarySource(LibraryKind.CSV_TABLE, priority=1,
                                                 path=str(root / "parts.csv"))])
        tracer = Tracer()
        pages, groups = [], []
        for i in range(PAGE_COUNT):
            listed = [p for p, (_, on) in enumerate(parts) if i in on]
            pages.append((Page(f"P{i}", [Component(f"U{p}", mpn=f"PART-{p}")
                                         for p in listed]),
                          TraceContext(tracer, f"run/page:P{i}")))
            groups.append([SimpleNamespace(designators=tuple(f"U{p}" for p in listed))]
                          if listed else [])
        gateway = ScriptedGateway(parts)
        cache = ScriptedStore(root / "cache", {
            (f"PART-{p}", urls[p, c]) for p, (candidates, _) in enumerate(parts)
            for c, cand in enumerate(candidates) if cand.put_fails})

        with ThreadPoolExecutor(max_workers=2) as pool:
            specs, owed = _retrieve_all_specs(pages, groups, cfg, gateway, cache, pool,
                                              _Refusals(None))
        for call in owed:  # as the review stage runs them, after every group
            call()

        hits = {e.path: e.attributes.get("cache_hit", False) for e in tracer.events()
                if e.span_name == "retrieve"}
        expected_calls, expected_cache = Counter(), {}
        for p, (candidates, on) in enumerate(parts):
            got, cached, calls = oracle(candidates, len(on), max_attempts)
            expected_calls += calls
            expected_cache.update({(f"PART-{p}", urls[p, c]): score
                                   for c, score in cached.items()})
            for i, (index, hit) in zip(sorted(on), got):
                spec = specs[i][f"U{p}"]
                assert (spec.source_url if spec else None) == (
                    None if index is None else urls[p, index])
                assert hits[f"run/page:P{i}/part:PART-{p}/retrieve"] is hit
        entries = {}
        for path in (root / "cache").glob("*.json"):
            doc = json.loads(path.read_text())
            assert f'source_url="{doc["source_url"]}"' in doc["spec_xml"]
            entries[doc["part_number"], doc["source_url"]] = doc["score"]
        assert entries == {key: quad_for(score) for key, score in expected_cache.items()}
        assert gateway.calls == expected_calls

"""Group review runs: validation rules, defaults, fan-out tolerance."""

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import BASE_SPEC_VALUE, regulator_page, write_fixture
from schemreview.canonical import serialize_page_xml
from schemreview.dsmodel import spec_from_agent_value
from schemreview.errors import AllRunsFailed
from schemreview.gateway import AgentKind, BackendConfig, Gateway
from schemreview.libraries import PartRef
from schemreview.review import (
    FunctionalGroup,
    GroupReviewContext,
    VerdictStatus,
    build_review_payload,
    fan_out_reviews,
    load_checklist,
    map_on_pool,
    review_group_once,
)


def make_gateway(tmp_path) -> Gateway:
    return Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))


def make_ctx(page, with_spec_for=("U1",)) -> GroupReviewContext:
    group = FunctionalGroup("power stage", ("U1", "R1"))
    spec = spec_from_agent_value(BASE_SPEC_VALUE, PartRef(mpn="LM317"), "file:///u1")
    specs = {d: (spec if d in with_spec_for else None) for d in group.designators}
    return GroupReviewContext(group, serialize_page_xml(page), specs,
                              load_checklist("power stage"))


def swapped_pin_response() -> str:
    return json.dumps({"analyses": [
        {"designator": "U1", "verdicts": [
            {"pins": "1, 3", "status": "incorrect",
             "reasoning": "ADJ and VIN appear swapped against the datasheet pinout",
             "referenced_nets": ["ADJ_NODE", "VIN_RAW"]},
            {"pins": "2", "status": "correct", "reasoning": "output on REG_OUT",
             "referenced_nets": ["REG_OUT"]},
        ]},
    ]})


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=2) as executor:
        yield executor


def script_review(tmp_path, ctx, seed, response_text):
    write_fixture(tmp_path / "fixtures", AgentKind.GROUP_REVIEW,
                  build_review_payload(ctx), seed, response_text)


class TestReviewGroupOnce:
    def test_multi_pin_verdict_kept_as_one_key(self, tmp_path):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        script_review(tmp_path, ctx, 0, swapped_pin_response())
        result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                   make_gateway(tmp_path))
        u1 = next(a for a in result.analyses if a.designator == "U1")
        swapped = next(v for v in u1.verdicts if v.status is VerdictStatus.INCORRECT)
        assert swapped.pin_key == "1, 3"
        assert swapped.pins == ("1", "3")

    def test_missing_spec_defaults_to_unverifiable(self, tmp_path):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1",))  # R1 has no spec
        script_review(tmp_path, ctx, 0, swapped_pin_response())
        result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                   make_gateway(tmp_path))
        r1 = next(a for a in result.analyses if a.designator == "R1")
        assert len(r1.verdicts) == 1
        assert r1.verdicts[0].status is VerdictStatus.UNVERIFIABLE
        assert r1.verdicts[0].reasoning == "no datasheet"
        assert r1.verdicts[0].pin_key == "1, 2"

    def test_unknown_pin_dropped_with_warning(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "U1", "verdicts": [
                {"pins": "99", "status": "incorrect", "reasoning": "bogus"},
                {"pins": "2", "status": "correct", "reasoning": "fine"},
            ]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        assert "99" in caplog.text
        u1 = next(a for a in result.analyses if a.designator == "U1")
        assert [v.pin_key for v in u1.verdicts] == ["2"]

    def test_analysis_outside_group_dropped(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "D5", "verdicts": [
                {"pins": "1", "status": "warning", "reasoning": "not in this group"}]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        assert all(a.designator != "D5" for a in result.analyses)

    def test_overlapping_pin_keys_keep_first(self, tmp_path, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        response = json.dumps({"analyses": [
            {"designator": "U1", "verdicts": [
                {"pins": "1, 3", "status": "incorrect", "reasoning": "swap"},
                {"pins": "3", "status": "correct", "reasoning": "conflicting claim"},
            ]},
        ]})
        script_review(tmp_path, ctx, 0, response)
        with caplog.at_level(logging.WARNING):
            result = review_group_once(ctx, build_review_payload(ctx), page, 0,
                                       make_gateway(tmp_path))
        u1 = next(a for a in result.analyses if a.designator == "U1")
        assert [v.pin_key for v in u1.verdicts] == ["1, 3"]


class TestFanOut:
    def test_k_runs_with_distinct_indices(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in range(3):
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        results, failures = fan_out_reviews(ctx, page, 3, make_gateway(tmp_path), pool)
        assert sorted(r.run_index for r in results) == [0, 1, 2]
        assert failures == []

    def test_single_failed_run_tolerated(self, tmp_path, pool, caplog):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in (0, 2):  # seed 1 has no fixture and will fail
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        with caplog.at_level(logging.WARNING):
            results, failures = fan_out_reviews(ctx, page, 3, make_gateway(tmp_path),
                                                pool)
        assert sorted(r.run_index for r in results) == [0, 2]
        assert [f.run_index for f in failures] == [1]

    def test_all_runs_failed_raises(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        with pytest.raises(AllRunsFailed):
            fan_out_reviews(ctx, page, 2, make_gateway(tmp_path), pool)

    def test_k_must_be_positive(self, tmp_path, pool):
        page = regulator_page()
        ctx = make_ctx(page)
        with pytest.raises(ValueError):
            fan_out_reviews(ctx, page, 0, make_gateway(tmp_path), pool)

    def test_task_on_one_worker_pool_gets_all_runs(self, tmp_path):
        # the only worker runs the caller, so the k runs it submits can
        # only complete if the caller takes them back
        page = regulator_page()
        ctx = make_ctx(page, with_spec_for=("U1", "R1"))
        for seed in range(3):
            script_review(tmp_path, ctx, seed, swapped_pin_response())
        single = ThreadPoolExecutor(max_workers=1)
        try:
            task = single.submit(fan_out_reviews, ctx, page, 3,
                                 make_gateway(tmp_path), single)
            results, failures = task.result(timeout=10)
        finally:
            # on a deadlock, cancelling the queued runs frees the worker
            single.shutdown(wait=False, cancel_futures=True)
        assert sorted(r.run_index for r in results) == [0, 1, 2]
        assert failures == []


class TestMapOnPool:
    def test_results_come_back_in_order(self, pool):
        # later items finish first
        def slow_first(i):
            time.sleep(0.01 * (4 - i))
            return i * i

        assert map_on_pool(pool, slow_first, range(5)) == [0, 1, 4, 9, 16]

    def test_task_on_one_worker_pool_runs_queued_items_inline(self):
        single = ThreadPoolExecutor(max_workers=1)
        try:
            def task():
                caller = threading.get_ident()
                return map_on_pool(single, lambda i: (i, threading.get_ident() == caller),
                                   range(4))

            results = single.submit(task).result(timeout=10)
        finally:
            # on a deadlock, cancelling the queued items frees the worker
            single.shutdown(wait=False, cancel_futures=True)
        assert results == [(i, True) for i in range(4)]

    def test_first_exception_cancels_items_not_started(self):
        ran = []

        def fail_on_two(i):
            ran.append(i)
            if i == 2:
                raise ValueError("item 2")
            return i

        gate = threading.Event()
        single = ThreadPoolExecutor(max_workers=1)
        try:
            single.submit(gate.wait)  # the worker stays busy: every item queues
            with pytest.raises(ValueError, match="item 2"):
                map_on_pool(single, fail_on_two, range(5))
            assert ran == [0, 1, 2]
        finally:
            gate.set()
            single.shutdown(wait=True)
        assert ran == [0, 1, 2]  # items 3 and 4 were cancelled, not run


def test_checklist_loading_prefers_group_kind():
    power = load_checklist("power stage")
    generic = load_checklist("anything else")
    assert "Power stage" in power
    assert "General connection" in generic


def test_checklist_from_custom_directory(tmp_path):
    (tmp_path / "io_group.txt").write_text("custom io checklist")
    assert load_checklist("IO Group", str(tmp_path)) == "custom io checklist"
    (tmp_path / "default.txt").write_text("fallback")
    assert load_checklist("other", str(tmp_path)) == "fallback"

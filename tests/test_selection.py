"""Selection: grouping validation, residual group, ghost designators, and the
parts that retrieval takes from each group's members."""

import json
import logging

from helpers import (
    connected_components_excluding_power,
    generate_fixtures,
    regulator_page,
    write_fixture,
)
from schemreview import pipeline
from schemreview.canonical import serialize_page_xml
from schemreview.config import RunConfig
from schemreview.demo import demo_responder
from schemreview.errors import NoCandidates
from schemreview.gateway import AgentKind, BackendConfig, Gateway
from schemreview.libraries import PartRef
from schemreview.model import Page
from schemreview.pipeline import run_pipeline
from schemreview.reporting import FileSink
from schemreview.review import UNGROUPED, select_groups


def make_gateway(tmp_path) -> Gateway:
    return Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))


def script_selection(tmp_path, page, groups):
    write_fixture(tmp_path / "fixtures", AgentKind.SELECTION,
                  serialize_page_xml(page, payload=True), 0,
                  json.dumps({"groups": groups}))


def test_empty_page_no_agent_call(tmp_path):
    # no fixture exists; an agent call would raise BackendUnavailable
    assert select_groups(Page("P1"), make_gateway(tmp_path)) == []


def test_heuristic_grouping_fixture(tmp_path):
    page = regulator_page()
    # the fixture content comes from an independent heuristic: connected
    # components over non-power nets
    expected = connected_components_excluding_power(page)
    assert ["C1", "R1", "R2", "U1"] in expected and ["D5"] in expected
    script_selection(tmp_path, page, [
        {"name": "power stage", "designators": ["U1", "R1", "R2", "C1"]},
        {"name": "clamp", "designators": ["D5"]},
    ])
    groups = select_groups(page, make_gateway(tmp_path))
    assert [g.name for g in groups] == ["power stage", "clamp"]
    assert sorted(groups[0].designators) == ["C1", "R1", "R2", "U1"]


def test_retrieval_takes_part_and_url_from_first_listed_member(tmp_path, monkeypatch):
    # R1 and R2 share an MPN but differ in IPN and datasheet URL; selection
    # lists R2 first, so R2 decides the part that is retrieved and its URL
    def resistor(designator, ipn):
        return {"designator": designator, "mpn": "RES-1K", "ipn": ipn,
                "datasheet_url": f"file:///{designator}.pdf",
                "pins": [{"designator": "1"}, {"designator": "2"}]}

    doc = {"version": 1, "pages": [{
        "id": "P1",
        "components": [resistor("R1", "IPN-A"), resistor("R2", "IPN-B")],
        "nets": [{"name": "MID", "nodes": [["R1", "2"], ["R2", "1"]]}],
    }]}
    schematic = tmp_path / "schematic.json"
    schematic.write_text(json.dumps(doc))
    cfg = RunConfig(backend=BackendConfig(kind="mock",
                                          fixture_path=str(tmp_path / "fixtures")),
                    sink=FileSink(str(tmp_path / "out")),
                    cache_dir=str(tmp_path / "cache"))
    calls = []

    def recording_retrieve(part, libraries, retrieval_cfg, *, schematic_url=None,
                           **kwargs):
        calls.append((part, schematic_url))
        raise NoCandidates(f"recorded {part.key}")

    def responder(kind_name, payload, seed=0):
        if kind_name == "selection":
            return json.dumps({"groups": [{"name": "divider",
                                           "designators": ["R2", "R1"]}]})
        return demo_responder(kind_name, payload, seed)

    def run():
        calls.clear()
        return run_pipeline(cfg, schematic)

    monkeypatch.setattr(pipeline, "retrieve_spec", recording_retrieve)
    generate_fixtures(run, tmp_path / "fixtures", responder)
    assert calls == [(PartRef(mpn="RES-1K", ipn="IPN-B"), "file:///R2.pdf")]


def test_ghost_designator_dropped_with_warning(tmp_path, caplog):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "power stage", "designators": ["U1", "U9"]},
    ])
    with caplog.at_level(logging.WARNING):
        groups = select_groups(page, make_gateway(tmp_path))
    assert "U9" in caplog.text
    assert groups[0].designators == ("U1",)


def test_duplicate_membership_first_group_wins(tmp_path, caplog):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "a", "designators": ["U1", "R1"]},
        {"name": "b", "designators": ["R1", "R2"]},
    ])
    with caplog.at_level(logging.WARNING):
        groups = select_groups(page, make_gateway(tmp_path))
    assert groups[0].designators == ("U1", "R1")
    assert groups[1].designators == ("R2",)


def test_group_of_only_unknown_or_claimed_members_dropped(tmp_path, caplog):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "a", "designators": ["U1", "R1"]},
        {"name": "ghosts", "designators": ["U9", "R1"]},
    ])
    with caplog.at_level(logging.WARNING):
        groups = select_groups(page, make_gateway(tmp_path))
    assert [g.name for g in groups] == ["a", UNGROUPED]
    assert "group 'ghosts' had no valid members; dropped" in caplog.text


def test_repeated_group_name_merged_into_first_group(tmp_path, caplog):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "a", "designators": ["U1", "R1"]},
        {"name": "b", "designators": ["R2"]},
        {"name": "a", "designators": ["C1"]},
    ])
    with caplog.at_level(logging.WARNING):
        groups = select_groups(page, make_gateway(tmp_path))
    assert [(g.name, g.designators) for g in groups] == [
        ("a", ("U1", "R1", "C1")), ("b", ("R2",)), (UNGROUPED, ("D5",))]
    assert "'a' named again" in caplog.text


def test_group_named_ungrouped_takes_the_unclaimed_components(tmp_path, caplog):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": UNGROUPED, "designators": ["R2"]},
        {"name": "power stage", "designators": ["U1"]},
    ])
    with caplog.at_level(logging.WARNING):
        groups = select_groups(page, make_gateway(tmp_path))
    assert [(g.name, g.designators) for g in groups] == [
        (UNGROUPED, ("R2", "R1", "C1", "D5")), ("power stage", ("U1",))]
    assert UNGROUPED in caplog.text


def test_uncovered_components_collected_into_residual(tmp_path):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "power stage", "designators": ["U1"]},
    ])
    groups = select_groups(page, make_gateway(tmp_path))
    residual = groups[-1]
    assert residual.name == UNGROUPED
    assert sorted(residual.designators) == ["C1", "D5", "R1", "R2"]


def test_groups_on_page_are_disjoint(tmp_path):
    page = regulator_page()
    script_selection(tmp_path, page, [
        {"name": "a", "designators": ["U1", "R1", "C1"]},
        {"name": "b", "designators": ["C1", "R2", "D5"]},
    ])
    groups = select_groups(page, make_gateway(tmp_path))
    seen = set()
    for g in groups:
        assert not (seen & set(g.designators))
        seen |= set(g.designators)
    assert seen == {c.designator for c in page.components}

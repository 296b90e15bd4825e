"""The shipped schema files: present, versioned, and well-formed."""

import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import schemreview
from schemreview.gateway import AgentKind
from schemreview.schemacheck import compile_schema

AGENT_SCHEMAS = [kind.value for kind in AgentKind]  # each kind's response schema
JSON_SCHEMA_FILES = [f"{name}.json" for name in AGENT_SCHEMAS] + [
    "structured_pages.schema.json"]


def shipped(filename: str) -> dict:
    return json.loads(resources.files("schemreview.schemas").joinpath(filename).read_text())


@pytest.mark.parametrize("name", AGENT_SCHEMAS)
def test_agent_schema_shipped_and_versioned(name):
    text = resources.files("schemreview.schemas").joinpath(f"{name}.json").read_text()
    schema = json.loads(text)
    assert schema["$id"].endswith(":1")
    assert schema["type"] == "object"


def test_input_document_schema_shipped():
    text = resources.files("schemreview.schemas").joinpath(
        "structured_pages.schema.json").read_text()
    schema = json.loads(text)
    assert schema["$id"] == "schemreview:structured-pages:1"


def test_canonical_xml_schema_shipped_and_parses():
    text = resources.files("schemreview.schemas").joinpath("schematic.xsd").read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("schema")
    declared = {e.get("name") for e in root
                if e.tag.endswith("element") and e.get("name")}
    assert {"schematic", "page", "component", "net", "annotation", "bbox"} <= declared


def test_bundled_checklists_shipped():
    files = resources.files("schemreview.checklists")
    assert files.joinpath("default.txt").is_file()


def test_bundled_demo_schematic_is_valid_input():
    from schemreview.demo import demo_schematic_text
    from schemreview.ingest import ingest_schematic

    schematic = ingest_schematic(demo_schematic_text().encode())
    assert [p.id for p in schematic.pages] == ["P1", "P2", "P3"]


@pytest.mark.parametrize("filename", JSON_SCHEMA_FILES)
def test_json_schema_is_valid_against_its_metaschema_and_compiles(filename):
    schema = shipped(filename)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    assert callable(compile_schema(schema))


def test_startup_does_not_import_jsonschema(tmp_path):
    # jsonschema is needed only to word the error for a rejected value
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "backend": {
        "kind": "mock", "fixture_path": str(tmp_path / "fixtures")}}))
    code = ("import sys\n"
            "import schemreview.cli\n"
            "from schemreview.config import load_config\n"
            "from schemreview.gateway import Gateway\n"
            "Gateway(load_config(sys.argv[1]).backend)\n"
            "print('jsonschema' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(schemreview.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(config)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_startup_does_not_import_the_http_stack():
    # urllib.request is needed only to resolve a file:// datasheet URL
    code = ("import sys\n"
            "import schemreview.cli\n"
            "print(sorted(m for m in ('http.client', 'ssl') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(schemreview.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_a_renamed_copy_of_the_package_reads_its_own_files(tmp_path):
    # a copy imported under another name (as a before/after benchmark loads
    # an old checkout beside this one) finds its schemas, checklists and
    # demo data in its own package, not in ``schemreview``
    copy = tmp_path / "schemreview_copy"
    shutil.copytree(Path(schemreview.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "checklists" / "default.txt").write_text("copied checklist")
    critic = json.loads((copy / "schemas" / "critic.json").read_text())
    (copy / "schemas" / "critic.json").write_text(json.dumps({**critic, "title": "copied"}))
    (copy / "data" / "demo_schematic.json").write_text('{"copied": true}')
    code = ("from schemreview_copy import demo, review, schemacheck\n"
            "print(review.checklist_loader()('any group'))\n"
            "print(schemacheck.shipped('critic.json').schema['title'])\n"
            "print(demo.demo_schematic_text())\n")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}  # no schemreview to fall back on
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["copied checklist", "copied", '{"copied": true}']

"""Library chain: per-kind lookup and candidate ordering."""

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from unittest import mock

import pytest
import requests
from hypothesis import given, settings, strategies as st

from helpers import loopback_server
from schemreview import httpreq
from schemreview.config import RunConfig, library_from_config
from schemreview.errors import ConfigError, NoCandidates
from schemreview.gateway import BackendConfig
from schemreview.libraries import LibraryKind, LibrarySource, PartRef, locate
from schemreview.workfirst import map_on_pool


def test_part_ref_needs_identity():
    with pytest.raises(ValueError):
        PartRef()


def test_part_key_prefers_mpn():
    assert PartRef(mpn="LM317", ipn="X-1").key == "LM317"
    assert PartRef(ipn="X-1").key == "X-1"


def csv_library(tmp_path, rows, priority=1, name="parts.csv") -> LibrarySource:
    path = tmp_path / name
    path.write_text("part_number,datasheet_url\n" +
                    "".join(f"{p},{u}\n" for p, u in rows))
    return LibrarySource(LibraryKind.CSV_TABLE, priority=priority, path=str(path))


def dir_library(tmp_path, files, priority=2) -> LibrarySource:
    root = tmp_path / "sheets"
    root.mkdir(exist_ok=True)
    for name in files:
        (root / name).write_text("datasheet text")
    return LibrarySource(LibraryKind.LOCAL_DIRECTORY, priority=priority,
                         directory=str(root))


def test_csv_lookup_matches_part_key(tmp_path):
    lib = csv_library(tmp_path, [("LM317", "http://x/u1.pdf"), ("NE555", "http://x/u2.pdf")])
    assert lib.lookup(PartRef(mpn="LM317")) == ["http://x/u1.pdf"]
    assert lib.lookup(PartRef(mpn="UNKNOWN")) == []


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


CSV_PIECES = st.sampled_from([b"part_number", b"datasheet_url", b"LM317", b"http://x/u1.pdf",
                              b",", b"\n", b"\r\n", b'"', b"\xff", b"\x00", b" ", b"", b"a"])


@settings(max_examples=150, deadline=None, database=None)
@given(raw=st.lists(CSV_PIECES, max_size=16).map(b"".join) | st.binary(max_size=24),
       header=st.booleans())
def test_a_csv_table_lookup_gives_a_list_of_strings_for_any_bytes(csv_dir, raw, header):
    path = csv_dir / "parts.csv"
    path.write_bytes(b"part_number,datasheet_url\n" + raw if header else raw)
    lib = LibrarySource(LibraryKind.CSV_TABLE, priority=1, path=str(path))
    urls = lib.lookup(PartRef(mpn="LM317"))
    assert isinstance(urls, list) and all(isinstance(url, str) for url in urls)


def test_csv_table_is_read_once_per_run(tmp_path):
    lib = csv_library(tmp_path, [("LM317", "http://x/u1.pdf")])
    first = lib._replace()  # as run_pipeline copies its sources
    assert first == lib and first is not lib
    assert first.lookup(PartRef(mpn="LM317")) == ["http://x/u1.pdf"]
    csv_library(tmp_path, [("LM317", "http://x/u2.pdf")])
    assert first.lookup(PartRef(mpn="LM317")) == ["http://x/u1.pdf"]
    assert lib._replace().lookup(PartRef(mpn="LM317")) == ["http://x/u2.pdf"]


def test_local_directory_matches_stem(tmp_path):
    lib = dir_library(tmp_path, ["LM317.pdf", "NE555.txt"])
    urls = lib.lookup(PartRef(mpn="LM317"))
    assert len(urls) == 1
    assert urls[0].startswith("file://")
    assert urls[0].endswith("LM317.pdf")


def test_broken_source_contributes_nothing(tmp_path):
    lib = LibrarySource(LibraryKind.CSV_TABLE, priority=1,
                        path=str(tmp_path / "missing.csv"))
    assert lib.lookup(PartRef(mpn="LM317")) == []


def test_schematic_url_passthrough():
    assert locate(PartRef(mpn="X"), [], schematic_url="http://s/x.pdf") == ["http://s/x.pdf"]


def test_priority_order_and_dedup(tmp_path):
    lib1 = csv_library(tmp_path, [("X", "http://a.pdf")], priority=1, name="a.csv")
    lib2 = csv_library(tmp_path, [("X", "http://b.pdf"), ("X", "http://a.pdf")],
                       priority=2, name="b.csv")
    # listed out of priority order on purpose
    urls = locate(PartRef(mpn="X"), [lib2, lib1])
    assert urls == ["http://a.pdf", "http://b.pdf"]


def test_csv_and_directory_dedup_after_normalization(tmp_path):
    target = (tmp_path / "sheets")
    target.mkdir()
    (target / "X.pdf").write_text("d")
    url = (target / "X.pdf").resolve().as_uri()
    lib1 = csv_library(tmp_path, [("X", url)], priority=1)
    lib2 = LibrarySource(LibraryKind.LOCAL_DIRECTORY, priority=2, directory=str(target))
    assert locate(PartRef(mpn="X"), [lib1, lib2]) == [url]


def test_no_candidates_raised(tmp_path):
    lib = csv_library(tmp_path, [])
    with pytest.raises(NoCandidates):
        locate(PartRef(mpn="X"), [lib])
    with pytest.raises(NoCandidates):
        locate(PartRef(mpn="X"), [])


def test_duplicate_priorities_rejected(tmp_path):
    lib1 = csv_library(tmp_path, [], priority=1, name="a.csv")
    lib2 = csv_library(tmp_path, [], priority=1, name="b.csv")
    cfg = RunConfig(backend=BackendConfig(fixture_path="fx"), libraries=[lib1, lib2])
    with pytest.raises(ConfigError, match="priorities"):
        cfg.validate()


class _PartApiHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/parts/LM317/datasheet":
            out = json.dumps({"datasheet_url": "http://api/lm317.pdf"}).encode()
            self.send_response(200)
        elif self.path == "/tpl/LM317":
            out = json.dumps({"datasheet_url": "http://tpl/lm317.pdf"}).encode()
            self.send_response(200)
        else:
            out = b"{}"
            self.send_response(404)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def part_api_server():
    with loopback_server(_PartApiHandler) as url:
        yield url


def test_http_part_api(part_api_server):
    lib = LibrarySource(LibraryKind.HTTP_PART_API, priority=1, base_url=part_api_server)
    assert lib.lookup(PartRef(mpn="LM317")) == ["http://api/lm317.pdf"]
    assert lib.lookup(PartRef(mpn="NOPE")) == []


@pytest.mark.parametrize("urls", ["http://x/a.pdf", [1], {}, 0, ""],
                         ids=["string", "number", "empty-object", "zero", "empty-string"])
def test_http_part_api_malformed_urls_give_no_candidates(urls, caplog):
    # a string would otherwise give one candidate per character
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            out = json.dumps({"datasheet_urls": urls}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    with loopback_server(Handler) as url:
        lib = LibrarySource(LibraryKind.HTTP_PART_API, priority=1, base_url=url)
        with caplog.at_level(logging.WARNING, logger="schemreview.libraries"):
            assert lib.lookup(PartRef(mpn="LM317")) == []
    assert "datasheet_urls" in caplog.text


API_KINDS = [LibraryKind.HTTP_PART_API, LibraryKind.JSON_TEMPLATE_API]


def api_library(kind: LibraryKind) -> LibrarySource:
    return LibrarySource(kind, priority=1, base_url="http://lib",
                         url_template="http://lib/{part}")


def replying(body: bytes):
    """``httpreq.send`` stubbed to answer every request 200 with ``body``."""
    reply = requests.Response()
    reply.status_code = 200
    reply._content = body
    return mock.patch.object(httpreq, "send", lambda *args, **kwargs: reply)


@pytest.mark.parametrize("url", [5, {"a": 1}, ["http://x/a.pdf"], True],
                         ids=["number", "object", "array", "boolean"])
@pytest.mark.parametrize("kind", API_KINDS, ids=lambda kind: kind.value)
def test_a_part_api_url_that_is_not_a_string_gives_no_candidates(kind, url, caplog):
    # a number escaped retrieval as an AttributeError, an object as a
    # TypeError from locate's dedup
    with replying(json.dumps({"datasheet_url": url}).encode()):
        with caplog.at_level(logging.WARNING, logger="schemreview.libraries"):
            assert api_library(kind).lookup(PartRef(mpn="LM317")) == []
        with pytest.raises(NoCandidates):
            locate(PartRef(mpn="LM317"), [api_library(kind)])
    assert "datasheet_url is not a string" in caplog.text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["datasheet_url", "datasheet_urls", "x"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None, database=None)
@given(kind=st.sampled_from(API_KINDS),
       body=JSON_VALUES.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=16))
def test_a_part_api_lookup_gives_a_list_of_strings_for_any_reply(kind, body):
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warnings.append
    logger = logging.getLogger("schemreview.libraries")
    logger.addHandler(handler)
    try:
        with replying(body):
            urls = api_library(kind).lookup(PartRef(mpn="LM317"))
    finally:
        logger.removeHandler(handler)
    assert isinstance(urls, list) and all(isinstance(url, str) for url in urls)
    assert not (warnings and urls)


def test_json_template_api(part_api_server):
    lib = LibrarySource(LibraryKind.JSON_TEMPLATE_API, priority=1,
                        url_template=part_api_server + "/tpl/{part}")
    assert lib.lookup(PartRef(mpn="LM317")) == ["http://tpl/lm317.pdf"]


def test_api_lookups_wait_together_under_map_on_pool():
    """Each lookup spills the run's queued items before it blocks, so n
    lookups on a pool of n are all in flight at once: the server answers
    none of them until all n have arrived."""
    n = 4
    barrier = threading.Barrier(n, timeout=5)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            barrier.wait()
            part = self.path.split("/")[2]
            out = json.dumps({"datasheet_url": f"http://api/{part}.pdf"}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    parts = [PartRef(mpn=f"P{i}") for i in range(n)]
    with loopback_server(Handler) as url, ThreadPoolExecutor(n) as pool:
        lib = LibrarySource(LibraryKind.HTTP_PART_API, priority=1, base_url=url)
        found = map_on_pool(pool, lib.lookup, parts)
    assert found == [[f"http://api/P{i}.pdf"] for i in range(n)]


def test_library_from_config_roundtrip():
    lib = library_from_config({"kind": "csv-table", "priority": 3, "path": "x.csv"})
    assert lib.kind is LibraryKind.CSV_TABLE
    assert lib.priority == 3
    with pytest.raises(ConfigError):
        library_from_config({"kind": "warehouse", "priority": 1})

"""Cache store: TTL boundary, lazy expiry, round-trip fidelity."""

import json

import pytest

from schemreview.dscache import TTL_S, CacheEntry, CacheStore
from schemreview.dsmodel import CriticScore, DatasheetSpec, PinFunction
from schemreview.errors import StoreIo
from schemreview.libraries import PartRef


class FakeClock:
    def __init__(self, t=1_000_000.0):
        self.t = t

    def __call__(self):
        return self.t


def sample_spec() -> DatasheetSpec:
    return DatasheetSpec(
        part=PartRef(mpn="LM317"),
        source_url="http://x/u1.pdf",
        pins=(PinFunction("1", "adjust"), PinFunction("2", "output")),
    )


def sample_score() -> CriticScore:
    return CriticScore(8, 6, 10, 4)


def put_entry(store: CacheStore, clock: FakeClock, key=("LM317", "http://x/u1.pdf")):
    store.put(CacheEntry(key, sample_spec(), sample_score(), stored_at=clock.t))


def test_ttl_is_seven_days():
    assert TTL_S == 604800


def test_entry_one_second_inside_ttl_hits(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    clock.t += 604799
    assert store.lookup(("LM317", "http://x/u1.pdf")) is not None


def test_entry_past_ttl_misses_and_is_removed(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    clock.t += 604801
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert list((tmp_path / "cache").glob("*.json")) == []


def test_exact_ttl_boundary_is_a_miss(tmp_path):
    # freshness is age strictly less than the TTL
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    clock.t += TTL_S
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None


def test_roundtrip_preserves_spec_bytes(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    spec, score = store.lookup(("LM317", "http://x/u1.pdf"))
    assert spec.to_xml() == sample_spec().to_xml()
    assert score.weighted == sample_score().weighted


def test_put_overwrites(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    better = CacheEntry(("LM317", "http://x/u1.pdf"), sample_spec(),
                        CriticScore(10, 10, 10, 10), stored_at=clock.t)
    store.put(better)
    _, score = store.lookup(("LM317", "http://x/u1.pdf"))
    assert score.weighted == 10.0


def test_corrupt_entry_dropped(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    path = next((tmp_path / "cache").glob("*.json"))
    path.write_text("{not json")
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert not path.exists()


def test_entry_with_malformed_spec_xml_dropped(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    path = next((tmp_path / "cache").glob("*.json"))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "spec_xml": doc["spec_xml"][:-20]}))
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert not path.exists()


def test_distinct_urls_are_distinct_keys(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    assert store.lookup(("LM317", "http://elsewhere.pdf")) is None


def test_entry_file_schema(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    doc = json.loads(next((tmp_path / "cache").glob("*.json")).read_text())
    assert doc["version"] == 1
    assert doc["part_number"] == "LM317"
    assert doc["source_url"] == "http://x/u1.pdf"
    assert doc["stored_at"] == clock.t
    assert set(doc["score"]) == {"feature_completeness", "pin_function_coverage",
                                 "application_information", "typical_application_circuits"}
    assert doc["spec_xml"].startswith("<?xml")


# --- entries kept for the store's lifetime ------------------------------------------

KEY = ("LM317", "http://x/u1.pdf")


def test_an_entry_read_once_is_served_from_memory(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    first = store.lookup(KEY)
    next((tmp_path / "cache").glob("*.json")).unlink()
    spec, score = store.lookup(KEY)
    assert spec is first[0] and score is first[1]
    # a new store (a new run) reads the file, which is gone
    assert CacheStore(tmp_path / "cache", now=clock).lookup(KEY) is None


def test_a_kept_entry_expires_at_the_ttl_and_its_file_is_removed(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    assert store.lookup(KEY) is not None
    clock.t += TTL_S - 1
    assert store.lookup(KEY) is not None
    clock.t += 1
    assert store.lookup(KEY) is None
    assert list((tmp_path / "cache").glob("*.json")) == []


def test_a_write_replaces_the_kept_entry(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    assert store.lookup(KEY)[1].weighted == sample_score().weighted
    store.put(CacheEntry(KEY, sample_spec(), CriticScore(10, 10, 10, 10), stored_at=clock.t))
    assert store.lookup(KEY)[1].weighted == 10.0


@pytest.mark.parametrize("raw", [b"\xff\xfe", b"[]", b'{"stored_at": "soon"}',
                                 b'{"stored_at": 1000000, "spec_xml": 5}'],
                         ids=["not-utf8", "not-an-object", "bad-stored-at", "bad-spec-xml"])
def test_a_corrupt_entry_is_logged_dropped_and_missed(tmp_path, caplog, raw):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    path = next((tmp_path / "cache").glob("*.json"))
    path.write_bytes(raw)
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert not path.exists()
    assert f"dropping corrupt cache entry {path}" in caplog.text


@pytest.mark.parametrize("stored_at", ["NaN", "Infinity", '"nan"', '"inf"'],
                         ids=["NaN", "Infinity", "string-nan", "string-inf"])
def test_an_entry_whose_stored_at_is_not_finite_is_corrupt(tmp_path, caplog, stored_at):
    # json reads NaN and Infinity, and float() keeps them: such an entry
    # would be served however old it is
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    path = next((tmp_path / "cache").glob("*.json"))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc).replace(json.dumps(doc["stored_at"]), stored_at))
    clock.t += 10 * TTL_S
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert not path.exists()
    assert f"dropping corrupt cache entry {path}" in caplog.text


def test_an_entry_that_cannot_be_read_is_a_store_error(tmp_path):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    put_entry(store, clock)
    path = next((tmp_path / "cache").glob("*.json"))
    path.unlink()
    path.mkdir()
    with pytest.raises(StoreIo, match=f"cannot read cache entry {path}: "):
        store.lookup(("LM317", "http://x/u1.pdf"))

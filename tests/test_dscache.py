"""Cache store: TTL boundary, lazy expiry, round-trip fidelity."""

import json

import pytest

from schemreview.dscache import TTL_S, CacheEntry, CacheStore
from schemreview.dsmodel import (CriticScore, DatasheetSpec, OperatingRange, PinFunction,
                                 Rating)
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


@pytest.mark.parametrize("drop", ['designator="1" ', 'function="adjust"',
                                  'parameter="Vin-Vout" ', 'limit="40" ', ' unit="V"',
                                  'parameter="Iout" ', ' unit="A"', 'key="name" ',
                                  ' value="ADJ"'])
def test_an_entry_lacking_an_attribute_to_xml_writes_is_corrupt(tmp_path, caplog, drop):
    clock = FakeClock()
    store = CacheStore(tmp_path / "cache", now=clock)
    spec = sample_spec()._replace(
        pins=(PinFunction("1", "adjust", (("name", "ADJ"),)), PinFunction("2", "output")),
        abs_max_ratings=(Rating("Vin-Vout", "40", "V"),),
        rec_operating=(OperatingRange("Iout", "A", max="1.5"),))
    store.put(CacheEntry(("LM317", "http://x/u1.pdf"), spec, sample_score(), clock.t))
    path = next((tmp_path / "cache").glob("*.json"))
    doc = json.loads(path.read_text())
    assert drop in doc["spec_xml"]
    path.write_text(json.dumps({**doc, "spec_xml": doc["spec_xml"].replace(drop, "", 1)}))
    assert store.lookup(("LM317", "http://x/u1.pdf")) is None
    assert not path.exists()
    assert f"dropping corrupt cache entry {path}" in caplog.text


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
    assert doc["spec_xml"] == sample_spec().to_xml()
    assert doc["spec_xml"].startswith("<datasheet ")


# an entry written before specs were stored in the payload layout: with the
# XML declaration, two-space indentation and a line break after each element
INDENTED_SPEC_XML = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<datasheet ipn="IPN-7" mpn="LM317" source_url="http://x/u1.pdf">\n'
    '  <pins>\n'
    '    <pin designator="1" function="adjust">\n'
    '      <meta key="type" value="analog"/>\n'
    '    </pin>\n'
    '    <pin designator="2" function="output"/>\n'
    '  </pins>\n'
    '  <abs_max_ratings>\n'
    '    <rating limit="40" parameter="Vin-Vout" unit="V"/>\n'
    '  </abs_max_ratings>\n'
    '  <rec_operating>\n'
    '    <range max="1.5" min="0.01" parameter="Iout" unit="A"/>\n'
    '  </rec_operating>\n'
    '  <blocks>\n'
    '    <block>bandgap &amp;amp; reference</block>\n'
    '  </blocks>\n'
    '  <app_circuits>\n'
    '    <circuit>adjustable&#10;regulator</circuit>\n'
    '  </app_circuits>\n'
    '</datasheet>\n')


def test_an_entry_in_the_indented_layout_reads_back_as_an_equal_spec(tmp_path):
    clock, key = FakeClock(), ("LM317", "http://x/u1.pdf")
    spec = DatasheetSpec(
        PartRef(mpn="LM317", ipn="IPN-7"), "http://x/u1.pdf",
        (PinFunction("1", "adjust", (("type", "analog"),)), PinFunction("2", "output")),
        (Rating("Vin-Vout", "40", "V"),), (OperatingRange("Iout", "A", "0.01", None, "1.5"),),
        ("bandgap &amp; reference",), ("adjustable\nregulator",))
    CacheStore(tmp_path / "cache", now=clock).put(
        CacheEntry(key, spec, sample_score(), stored_at=clock.t))
    [path] = (tmp_path / "cache").glob("*.json")
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "spec_xml": INDENTED_SPEC_XML}))
    read, _score = CacheStore(tmp_path / "cache", now=clock).lookup(key)
    assert read == spec
    assert read.to_xml() == spec.to_xml()
    assert read.payload_xml() == spec.payload_xml() == (
        '<datasheet ipn="IPN-7" mpn="LM317"><pins><pin designator="1" function="adjust">'
        '<meta key="type" value="analog"/></pin><pin designator="2" function="output"/>'
        '</pins><abs_max_ratings><rating limit="40" parameter="Vin-Vout" unit="V"/>'
        '</abs_max_ratings><rec_operating><range max="1.5" min="0.01" parameter="Iout" '
        'unit="A"/></rec_operating><blocks><block>bandgap &amp;amp; reference</block>'
        '</blocks><app_circuits><circuit>adjustable&#10;regulator</circuit></app_circuits>'
        '</datasheet>')


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

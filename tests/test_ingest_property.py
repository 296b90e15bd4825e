"""Reading an untrusted schematic fails with one typed error.

Whatever bytes arrive as a schematic or its base, reading them as the
pipeline does (``ingest_schematic``, or a design review's
``read_design_review`` against a seed as base or head, then ``augment_netlist``)
returns a schematic or raises a ``SchemReviewError``, never a bare
``ValueError``, ``TypeError`` or ``KeyError`` from a record's checks or
the decoders.
The inputs are mutations of the demo schematic, a wired structured page
and a one-symbol KiCad page: edits of the decoded JSON tree, and edits of
the text itself.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from schemreview.augment import augment_netlist
from schemreview.demo import demo_schematic_text
from schemreview.errors import SchemReviewError
from schemreview.ingest import ingest_schematic, read_design_review
from test_kicad import ONE_SYMBOL_ONE_WIRE
from test_page_reuse import wired_page

DEMO = json.loads(demo_schematic_text())
WIRED = {"version": 1, "pages": [wired_page("P1"), wired_page("P2", 40)]}
SEEDS = {"demo": DEMO, "wired": WIRED}
SEED_TEXTS = {name: json.dumps(doc).encode() for name, doc in SEEDS.items()}

LEAVES = st.sampled_from([None, True, False, 0, 1, -1, 2.5, -0.5, 1e6, "", " ", "x", "1",
                          "P1", "R1", "U1", "wire", "label", "junction", "text", "de-hdl"])
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "designator", "kind", "text", "x", "y", "w", "h", "pins",
                         "nodes", "bbox"]), inner, max_size=3),
    max_leaves=5)
# text edits: s-expression and JSON punctuation, numbers and names
TOKENS = st.sampled_from(["(", ")", '"', " ", ",", "[", "]", "{", "}", ":", "0", "-1",
                          "1e9", "nan", "x", "(xy 1 2)", '(at 10 20)', '(number "1")'])

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def read(raw: bytes, seed: bytes | None = None) -> None:
    """Read ``raw`` as the pipeline does, and with a ``seed`` also as a
    design review's base against it and as its head (every page wanted)
    against it; a typed error is a valid outcome."""
    def review(head: bytes, base: bytes) -> None:
        head, _, read_base = read_design_review(head, lambda: base, {"P1", "P2"})
        augment_netlist(head)
        augment_netlist(read_base())

    reads = [lambda: augment_netlist(ingest_schematic(raw))]
    if seed is not None:
        reads += [lambda: review(seed, raw), lambda: review(raw, seed)]
    for one in reads:
        try:
            one()
        except SchemReviewError:
            pass


def _slots(value):
    """Every (container, key) of a decoded JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def mutated_documents(draw):
    """A seed's JSON tree with one to three edits, and the seed's name: a
    leaf replaced by another (twice as likely as the rest), or any slot
    replaced by a JSON tree, deleted or repeated."""
    name = draw(st.sampled_from(sorted(SEEDS)))
    doc = copy.deepcopy(SEEDS[name])
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        leaves = [(c, k) for c, k in slots if not isinstance(c[k], (dict, list))]
        action = draw(st.sampled_from(["leaf", "leaf", "tree", "delete", "repeat"]))
        if not (leaves if action == "leaf" else slots):
            break
        container, key = draw(st.sampled_from(leaves if action == "leaf" else slots))
        if action in ("leaf", "tree"):
            container[key] = draw(LEAVES if action == "leaf" else JSON_VALUES)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
    return name, doc


@st.composite
def edited_text(draw, text: str):
    """``text`` with one to three spans deleted, replaced or inserted."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(st.just("") | TOKENS) + text[end:]
    return text


@SETTINGS
@given(mutated_documents(), st.booleans())
def test_a_mutated_document_reads_or_fails_typed(mutated, reuse):
    name, doc = mutated
    read(json.dumps(doc).encode(), SEED_TEXTS[name] if reuse else None)


@SETTINGS
@given(st.sampled_from(sorted(SEEDS)), st.data(), st.booleans())
def test_an_edited_document_text_reads_or_fails_typed(name, data, reuse):
    text = data.draw(edited_text(json.dumps(SEEDS[name])))
    read(text.encode(), SEED_TEXTS[name] if reuse else None)


@SETTINGS
@given(st.data())
def test_edited_kicad_text_reads_or_fails_typed(data):
    read(data.draw(edited_text(ONE_SYMBOL_ONE_WIRE)).encode())

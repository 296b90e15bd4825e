"""Seeded synthetic boards for the benchmark.

A board is ``pages`` pages of ``blocks`` functional blocks. Every block is
one IC from ``schemreview.demo.DEMO_PART_PINS`` with its passives, wired so
that the demo selection responder sees exactly one group per block: the
block's signal nets are local to it and only ``GND`` and ``VCC_3V3`` are
shared across the page.

Connectivity comes in one of two styles:

* embedded nets: each page carries its netlist;
* wire geometry: each page carries only wires, junctions and labels, and
  the program infers the nets. Every pin drops to its net's rail in three
  collinear pieces (shared endpoints), rail pieces meet the drops at
  T-joints, a labelled net with three or more pins has its middle pin cross
  the rail with a junction dot on the crossing, and some block nets carry
  no label (the program names them ``N$<n>``).

The block mix of a page is fixed, so every seed gives a board of the same
size; the seed chooses block order, planted errors and their consensus
paths, the labelled nets and, in the diff style, the changed page.

``generate_board`` returns the head document, the design-review base (or
None) and a manifest of the planted errors. The same arguments give
byte-identical output from ``board_files``.
"""

from __future__ import annotations

import json
import random

from schemreview.demo import DEMO_PART_PINS

# Per planted error, how the k review runs report it:
#   multi          every run reports it            -> multi-run finding
#   single         one run reports it, the rest    -> single-run finding
#                  stay silent on those pins          kept by the consensus agent
#   contradiction  one run calls the pins correct, -> contradiction resolved
#                  the rest report the error          to the majority
MODES = ("multi", "single", "contradiction")

# Block templates: parts as (designator prefix, part number), nets as
# (local name, [(part index, pin)]). GND and VCC_3V3 are page-wide rails.
TEMPLATES = {
    "LM317": {
        "parts": [("U", "LM317"), ("R", "RES-1K"), ("R", "RES-1K"),
                  ("C", "CAP-10U"), ("C", "CAP-10U")],
        "nets": [("ADJ", [(0, "1"), (1, "1"), (2, "1")]),
                 ("VIN", [(0, "3"), (3, "1")]),
                 ("VOUT", [(0, "2"), (1, "2"), (4, "1")]),
                 ("GND", [(2, "2"), (3, "2"), (4, "2")])],
        "errors": [(0, "1, 3", "incorrect", "ADJ and VIN are swapped relative to "
                    "the datasheet pinout"),
                   (2, "1", "warning", "lower feedback resistor ratio sets the "
                    "output above the rated range")],
    },
    "XCVR-485": {
        "parts": [("U", "XCVR-485"), ("R", "RES-120"), ("C", "CAP-100N")],
        "nets": [("BUS_A", [(0, "1"), (1, "1")]),
                 ("BUS_B", [(0, "2"), (1, "2")]),
                 ("RAIL", [(0, "3"), (2, "1")]),
                 ("GND", [(0, "4"), (2, "2")])],
        "errors": [(0, "1, 2", "incorrect", "bus lines A and B are crossed "
                    "against the connector pinout"),
                   (1, "2", "warning", "termination resistor sits on the stub "
                    "side of the bus")],
    },
    "SENSE-TMP": {
        "parts": [("U", "SENSE-TMP"), ("R", "RES-4K7"), ("R", "RES-4K7"),
                  ("C", "CAP-10U")],
        "nets": [("SDA", [(0, "1"), (1, "1")]),
                 ("SCL", [(0, "2"), (2, "1")]),
                 ("RAIL", [(0, "3"), (3, "1")]),
                 ("VCC_3V3", [(1, "2"), (2, "2")]),
                 ("GND", [(0, "4"), (3, "2")])],
        "errors": [(1, "1", "incorrect", "pull-up connects SDA to the wrong rail"),
                   (0, "1, 2", "incorrect", "SDA and SCL are swapped at the "
                    "sensor")],
    },
}

# Fixed block mix, repeated to fill a page; the seed only permutes it.
BLOCK_CYCLE = ("LM317", "XCVR-485", "SENSE-TMP")
SHARED_NETS = ("GND", "VCC_3V3")

PIN_PITCH = 10
DROP_SPLITS_Y = (30, 60)
RAIL_Y0 = 100
RAIL_PITCH = 10


def _plan_page(rng: random.Random, page_no: int, blocks: int) -> list[dict]:
    """Blocks of one page with page-unique designators and net names."""
    kinds = [BLOCK_CYCLE[i % len(BLOCK_CYCLE)] for i in range(blocks)]
    rng.shuffle(kinds)
    counters = {"U": 0, "R": 0, "C": 0}
    plan = []
    for index, kind in enumerate(kinds):
        template = TEMPLATES[kind]
        designators = []
        for prefix, _mpn in template["parts"]:
            counters[prefix] += 1
            designators.append(f"{prefix}{page_no * 100 + counters[prefix]}")
        plan.append({"kind": kind, "index": index, "designators": designators})
    return plan


def _page_nets(page_id: str, plan: list[dict]) -> dict[str, list[tuple[str, str]]]:
    """Net name -> nodes, in a deterministic order."""
    nets: dict[str, list[tuple[str, str]]] = {}
    for block in plan:
        template = TEMPLATES[block["kind"]]
        for local, nodes in template["nets"]:
            name = local if local in SHARED_NETS else (
                f"{page_id}B{block['index'] + 1:02d}_{local}")
            nets.setdefault(name, []).extend(
                (block["designators"][part], pin) for part, pin in nodes)
    return nets


def _components(plan: list[dict], with_coords: bool) -> list[dict]:
    """Components on one row; every pin gets its own x slot."""
    components = []
    slot = 0
    for block in plan:
        template = TEMPLATES[block["kind"]]
        for (_prefix, mpn), designator in zip(template["parts"], block["designators"]):
            pins = []
            first = slot
            for pin_no, name, _function in DEMO_PART_PINS[mpn]:
                pin = {"designator": pin_no}
                if name:
                    pin["name"] = name
                if with_coords:
                    pin["x"] = slot * PIN_PITCH
                    pin["y"] = 0
                pins.append(pin)
                slot += 1
            components.append({
                "designator": designator,
                "mpn": mpn,
                "pins": pins,
                "bbox": {"x": first * PIN_PITCH - 4, "y": -20,
                         "w": (slot - 1 - first) * PIN_PITCH + 8, "h": 20},
            })
    return components


def _wire(x1, y1, x2, y2) -> dict:
    x, y = min(x1, x2), min(y1, y2)
    return {"kind": "wire", "text": "",
            "bbox": {"x": x, "y": y, "w": abs(x2 - x1), "h": abs(y2 - y1)}}


def _point(kind: str, text: str, x, y) -> dict:
    return {"kind": kind, "text": text, "bbox": {"x": x, "y": y, "w": 0, "h": 0}}


def _drop(x, y_to) -> list[dict]:
    """A vertical wire from a pin at y=0 down to ``y_to``, in collinear
    pieces that meet at shared endpoints above the rails."""
    ys = (0, *DROP_SPLITS_Y, y_to)
    return [_wire(x, a, x, b) for a, b in zip(ys, ys[1:])]


def _route_net(name: str, labelled: bool, xs: list[int], level: int) -> list[dict]:
    """Wires for one net whose pins sit at ``xs`` on the component row."""
    xs = sorted(xs)
    if len(xs) < 2:
        raise ValueError(f"net {name} needs at least two pins to route")
    rail_y = RAIL_Y0 + level * RAIL_PITCH
    crossing = xs[len(xs) // 2] if labelled and len(xs) >= 3 else None
    tees = [x for x in xs if x != crossing]
    shapes = []
    for x in tees:
        shapes.extend(_drop(x, rail_y))
    for a, b in zip(tees, tees[1:]):
        shapes.append(_wire(a, rail_y, b, rail_y))
    if crossing is not None:
        # the middle pin runs through the rail to its label; the junction
        # dot is what joins it to the rail
        label_y = rail_y + RAIL_PITCH // 2
        shapes.extend(_drop(crossing, label_y))
        shapes.append(_point("junction", "", crossing, rail_y))
        shapes.append(_point("label", name, crossing, label_y))
    elif labelled:
        shapes.append(_point("label", name, tees[0], rail_y))
    return shapes


def _annotations(rng: random.Random, components: list[dict],
                 nets: dict[str, list[tuple[str, str]]]) -> list[dict]:
    pin_x = {(c["designator"], p["designator"]): p["x"]
             for c in components for p in c["pins"]}
    # shared rails are always named; a third of the block nets are not
    block_nets = [name for name in sorted(nets) if name not in SHARED_NETS]
    unnamed = set(rng.sample(block_nets, len(block_nets) // 3))
    shapes = []
    for level, (name, nodes) in enumerate(sorted(nets.items())):
        shapes.extend(_route_net(name, name not in unnamed,
                                 [pin_x[n] for n in nodes], level))
    return shapes


def _swap_pins(component: dict, nets: dict, a: str, b: str) -> None:
    """Swap where two pins sit, wiring each to the other's net."""
    pins = {p["designator"]: p for p in component["pins"]}
    pins[a]["x"], pins[b]["x"] = pins[b]["x"], pins[a]["x"]
    swap = {(component["designator"], a): (component["designator"], b),
            (component["designator"], b): (component["designator"], a)}
    for name, nodes in nets.items():
        nets[name] = [swap.get(node, node) for node in nodes]


def _plant(rng: random.Random, page_id: str, plan: list[dict],
           modes: list[str], forced: dict | None = None) -> list[dict]:
    """Planted errors on distinct blocks of one page. ``forced`` fixes the
    first error's block and candidate."""
    order = list(range(len(plan)))
    rng.shuffle(order)
    if forced is not None:
        order.remove(forced["block"])
        order.insert(0, forced["block"])
    errors = []
    for mode, block_index in zip(modes, order):
        block = plan[block_index]
        candidates = TEMPLATES[block["kind"]]["errors"]
        if forced is not None and block_index == forced["block"]:
            part, pins, status, reasoning = candidates[forced["candidate"]]
        else:
            part, pins, status, reasoning = rng.choice(candidates)
        if mode == "single":
            status = "warning"
        errors.append({
            "page": page_id,
            "designator": block["designators"][part],
            "pins": pins,
            "status": status,
            "mode": mode,
            "run": rng.randrange(3),
            "reasoning": reasoning,
        })
    return errors


def generate_board(seed: int, pages: int, blocks: int, wires: bool = False,
                   diff: bool = False) -> dict:
    """Returns ``{"head": doc, "base": doc | None, "manifest": {...},
    "netlists": {page id: {net name: nodes}}}``; ``netlists`` is the
    connectivity the head is drawn to have, which wire tracing must find.

    ``diff`` (wire style only) makes a base that differs from the head on
    exactly one page: on that page the head swaps pins 1 and 3 of one
    LM317, which is also that page's first planted error. Only the changed
    page carries planted errors, since it is the only page reviewed.
    """
    if diff and not wires:
        raise ValueError("the diff style needs wire geometry")
    if blocks < len(BLOCK_CYCLE) or pages < 1:
        raise ValueError(f"a board needs pages >= 1 and blocks >= {len(BLOCK_CYCLE)}")
    rng = random.Random(seed)
    changed = f"P{rng.randrange(pages) + 1}" if diff else None
    head_pages, base_pages, errors, netlists = [], [], [], {}
    for page_no in range(1, pages + 1):
        page_id = f"P{page_no}"
        plan = _plan_page(rng, page_no, blocks)
        nets = _page_nets(page_id, plan)
        netlists[page_id] = nets
        components = _components(plan, with_coords=wires)
        page = {"id": page_id, "components": components}
        if wires:
            page["annotations"] = _annotations(rng, components, nets)
        else:
            page["nets"] = [{"name": name, "nodes": [list(n) for n in nodes]}
                            for name, nodes in sorted(nets.items())]

        if not diff:
            # a fixed mode mix per page keeps every seed's consensus load equal
            modes = ["multi", MODES[1 + page_no % 2]]
            errors.extend(_plant(rng, page_id, plan, modes))
        elif page_id == changed:
            regulator = next(b for b in plan if b["kind"] == "LM317")
            base_pages.append(json.loads(json.dumps(page)))
            swapped = next(c for c in components
                           if c["designator"] == regulator["designators"][0])
            _swap_pins(swapped, nets, "1", "3")
            errors.extend(_plant(rng, page_id, plan, ["multi", "contradiction"],
                                 forced={"block": regulator["index"], "candidate": 0}))
            head_pages.append(page)
            continue
        head_pages.append(page)
        base_pages.append(page)

    head = {"version": 1, "pages": head_pages}
    base = {"version": 1, "pages": base_pages} if diff else None
    manifest = {"seed": seed, "pages": pages, "blocks": blocks,
                "style": "wires" if wires else "nets",
                "changed_page": changed, "errors": errors}
    return {"head": head, "base": base, "manifest": manifest, "netlists": netlists}


def dumps(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def board_files(board: dict) -> dict[str, bytes]:
    """File name -> bytes for everything a board consists of."""
    files = {"schematic.json": dumps(board["head"]),
             "manifest.json": dumps(board["manifest"])}
    if board["base"] is not None:
        files["base_schematic.json"] = dumps(board["base"])
    return files

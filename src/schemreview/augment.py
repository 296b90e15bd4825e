"""Netlist augmentation: populate page connectivity before analysis.

The strategy is selected per page from the source format and available
data: a page that arrives with one keeps it (a KiCad page, whose nets
were traced from its wires when it was read); pages that already carry
nets keep them (embedded); DE-HDL pages take theirs from the pstxnet
sidecar; anything else falls back to wire-trace inference over
annotation geometry. Augmenting an already augmented schematic is a
no-op.
"""

from __future__ import annotations

import logging

from .errors import MissingSidecar
from .model import AugmentationStrategy, Net, Page, Schematic, SourceFormat, resolve_node
from .wiretrace import infer_nets

log = logging.getLogger(__name__)

PSTXNET_SIDECAR_KIND = "pstxnet"


def augment_netlist(schematic: Schematic) -> Schematic:
    sidecar_nets: list[Net] | None = None
    pages: list[Page] = []
    for page in schematic.pages:
        if page.strategy is not None:
            pages.append(page)
            continue
        if page.nets:
            pages.append(_with_embedded(page))
        elif schematic.format is SourceFormat.DE_HDL:
            if sidecar_nets is None:
                text = schematic.sidecars.get(PSTXNET_SIDECAR_KIND)
                if text is None:
                    raise MissingSidecar(
                        f"DE-HDL schematic has no {PSTXNET_SIDECAR_KIND!r} sidecar")
                from .pstxnet import parse_pstxnet  # imported here: only DE-HDL uses it
                sidecar_nets = parse_pstxnet(text)
            pages.append(_from_sidecar(page, sidecar_nets))
        else:
            nets = infer_nets(page)
            pages.append(page._replace(
                nets=tuple(nets), strategy=AugmentationStrategy.WIRE_TRACE_INFERENCE))
    return schematic._replace(pages=pages)


def _with_embedded(page: Page) -> Page:
    kept = []
    for net in page.nets:
        resolved = tuple(n for n in net.nodes if resolve_node(page, n))
        dropped = set(net.nodes) - set(resolved)
        for node in sorted(dropped):
            log.warning("page %s net %s: dropping unresolved node %s.%s",
                        page.id, net.name, node[0], node[1])
        kept.append(net if not dropped else net._replace(nodes=resolved))
    return page._replace(nets=tuple(kept), strategy=AugmentationStrategy.EMBEDDED_NETS)


def _from_sidecar(page: Page, nets: list[Net]) -> Page:
    """Keep, per net, only the nodes that resolve on this page."""
    page_nets = []
    for net in nets:
        nodes = tuple(n for n in net.nodes if resolve_node(page, n))
        if nodes:
            page_nets.append(Net(net.name, nodes))
    return page._replace(nets=tuple(page_nets), strategy=AugmentationStrategy.PSTXNET_SIDECAR)

"""Network topology: which link model connects two machines.

The three-tier rule reproduces Table 1's connectivity classes:

* same machine                      -> loopback
* same site, same subnet            -> local Ethernet
* same site, different subnets      -> campus path through gateways
* different sites                   -> the Internet

A :class:`Topology` also carries an explicit ``networkx`` graph of
subnets and sites, so richer routing (extra gateways, cut links) can be
modelled; :meth:`classify` is the fast path used by the transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple
from zlib import crc32

import networkx as nx

from ..machines.host import Machine
from .link import CAMPUS_GATEWAYS, ETHERNET, INTERNET_1993, LOOPBACK, LinkModel

__all__ = ["Topology", "NetworkError", "host_tag"]


class NetworkError(Exception):
    """A routing failure: unreachable host, partitioned network."""


def host_tag(hostname: str) -> int:
    """A host's tag in the packed message header: crc32 of its name."""
    return crc32(hostname.encode())


@dataclass
class Topology:
    """Maps machine pairs to link models."""

    ethernet: LinkModel = ETHERNET
    campus: LinkModel = CAMPUS_GATEWAYS
    internet: LinkModel = INTERNET_1993
    loopback: LinkModel = LOOPBACK
    # explicit overrides for specific (src_host, dst_host) pairs
    _overrides: Dict[Tuple[str, str], LinkModel] = field(default_factory=dict)
    _graph: nx.Graph = field(default_factory=nx.Graph)
    _partitioned: set = field(default_factory=set)
    # sites whose campus gateways are down: same-site cross-subnet
    # traffic fails while the site's Ethernets keep working
    _dead_gateways: set = field(default_factory=set)
    # memo of :meth:`path` by (src, dst) host name.  Every mutator clears
    # it, including the ones no memoised entry depends on today (heal and
    # gateway_restore only make unmemoised unreachable pairs reachable;
    # register changes no classification)
    _paths: Dict[Tuple[str, str], Tuple[LinkModel, int, int]] = field(
        default_factory=dict, repr=False
    )

    def register(self, machine: Machine) -> None:
        """Add a machine to the explicit graph (optional but lets tests
        reason about the network as a graph)."""
        self._paths.clear()
        subnet_node = ("subnet", machine.site, machine.subnet)
        site_node = ("site", machine.site)
        self._graph.add_edge(("host", machine.hostname), subnet_node, link=self.ethernet)
        self._graph.add_edge(subnet_node, site_node, link=self.campus)
        self._graph.add_edge(site_node, ("backbone",), link=self.internet)

    def set_override(self, src: Machine, dst: Machine, link: LinkModel) -> None:
        """Force a specific link model for a machine pair (both ways).
        Partitions and gateway outages still cut an overridden pair."""
        self._paths.clear()
        self._overrides[(src.hostname, dst.hostname)] = link
        self._overrides[(dst.hostname, src.hostname)] = link

    def partition(self, site_a: str, site_b: str) -> None:
        """Cut connectivity between two sites (failure injection)."""
        self._paths.clear()
        self._partitioned.add(frozenset((site_a, site_b)))

    def heal(self, site_a: str, site_b: str) -> None:
        self._paths.clear()
        self._partitioned.discard(frozenset((site_a, site_b)))

    def gateway_down(self, site: str) -> None:
        """Take a site's campus gateways out: machines on different
        subnets of ``site`` can no longer reach each other (failure
        injection for the Table-1 'multiple gateways' tier)."""
        self._paths.clear()
        self._dead_gateways.add(site)

    def gateway_restore(self, site: str) -> None:
        self._paths.clear()
        self._dead_gateways.discard(site)

    def classify(self, src: Machine, dst: Machine) -> LinkModel:
        """The link model connecting ``src`` to ``dst``.

        Reachability comes first: a partition between the two sites or
        a gateway outage between two subnets of one site raises
        :class:`NetworkError` whatever link an override names."""
        if src.site != dst.site:
            if frozenset((src.site, dst.site)) in self._partitioned:
                raise NetworkError(
                    f"network partition between {src.site} and {dst.site}"
                )
        elif src.subnet != dst.subnet and src.site in self._dead_gateways:
            raise NetworkError(
                f"gateway outage at {src.site}: "
                f"{src.subnet} cannot reach {dst.subnet}"
            )
        override = self._overrides.get((src.hostname, dst.hostname))
        if override is not None:
            return override
        if src.hostname == dst.hostname:
            return self.loopback
        if src.site == dst.site:
            return self.ethernet if src.subnet == dst.subnet else self.campus
        return self.internet

    def path(self, src: Machine, dst: Machine) -> Tuple[LinkModel, int, int]:
        """``(link, src host tag, dst host tag)`` for a message from
        ``src`` to ``dst``: :meth:`classify` and the two header tags,
        memoised per host-name pair until the topology next changes.
        An unreachable pair raises :class:`NetworkError` and is not
        memoised."""
        key = (src.hostname, dst.hostname)
        hit = self._paths.get(key)
        if hit is None:
            hit = self._paths[key] = (
                self.classify(src, dst), host_tag(src.hostname), host_tag(dst.hostname)
            )
        return hit

    def transfer_seconds(self, src: Machine, dst: Machine, nbytes: int) -> float:
        """One-way delivery time for ``nbytes`` from ``src`` to ``dst``."""
        return self.classify(src, dst).transfer_seconds(nbytes)

    def route(self, src: Machine, dst: Machine, seed: int = 0) -> Tuple[LinkModel, ...]:
        """The sequence of link models a message traverses between two
        registered hosts, following the explicit graph.

        When several shortest paths exist (multi-gateway campuses), the
        choice among them is made by a PRNG seeded with ``seed`` over the
        *sorted* candidate list, so a fixed seed always yields the same
        route — routing decisions never consult wall-clock randomness.
        """
        a, b = ("host", src.hostname), ("host", dst.hostname)
        if a == b:
            return (self.loopback,)
        try:
            paths = sorted(
                nx.all_shortest_paths(self._graph, a, b), key=lambda p: [str(n) for n in p]
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NetworkError(str(exc)) from exc
        path = paths[random.Random(seed).randrange(len(paths))]
        return tuple(
            self._graph.edges[u, v]["link"] for u, v in zip(path, path[1:])
        )

    def route_transfer_seconds(
        self, src: Machine, dst: Machine, nbytes: int, seed: int = 0
    ) -> float:
        """Store-and-forward delivery over an explicit route: each hop is
        charged its full :meth:`LinkModel.transfer_seconds`, so the total
        is *additive* over the hops of the route."""
        return sum(link.transfer_seconds(nbytes) for link in self.route(src, dst, seed))

    def graph_path_hops(self, src: Machine, dst: Machine) -> int:
        """Number of graph edges between two registered hosts (sanity
        checks in tests: Ethernet=2 via the shared subnet node, etc.)."""
        try:
            return nx.shortest_path_length(
                self._graph, ("host", src.hostname), ("host", dst.hostname)
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NetworkError(str(exc)) from exc

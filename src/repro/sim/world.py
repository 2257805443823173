"""Convenience bundle wiring engine + network + rng + metrics together.

Nearly every example, test and benchmark starts by building the same four
objects; :class:`World` packages them and offers topology helpers for the
two canonical setups of the paper's Figure 1: a co-located site (one LAN)
and a set of geographically distributed sites (WAN between, LAN within).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.failures import FailureInjector
from repro.sim.network import LAN_LINK, WAN_LINK, Network, Node
from repro.sim.rng import SeededRng


class World:
    """One simulated deployment: engine, network, rng, metrics, failures."""

    def __init__(self, seed: int = 0) -> None:
        self.engine = Engine()
        self.rng = SeededRng(seed)
        self.metrics = MetricsRegistry()
        self.network = Network(self.engine, rng=self.rng.fork("network"), metrics=self.metrics)
        self.failures = FailureInjector(self.network, rng=self.rng.fork("failures"))

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    def add_site(self, site: str, node_names: list[str]) -> list[Node]:
        """Add a LAN-connected group of nodes belonging to one site."""
        return [self.network.add_node(name, site=site) for name in node_names]

    def colocated(self, count: int, prefix: str = "ws") -> list[Node]:
        """Build the 'same place' quadrant: *count* workstations, one room."""
        names = [f"{prefix}{i}" for i in range(1, count + 1)]
        return self.add_site("meeting-room", names)

    def distributed(self, sites: dict[str, int], prefix: str = "ws") -> dict[str, list[Node]]:
        """Build the 'different places' quadrant.

        *sites* maps site name -> workstation count.  Intra-site links are
        LAN, inter-site links WAN (the network defaults already do this).
        """
        result: dict[str, list[Node]] = {}
        for site, count in sites.items():
            names = [f"{site}-{prefix}{i}" for i in range(1, count + 1)]
            result[site] = self.add_site(site, names)
        return result

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the event queue; return events executed."""
        return self.engine.run(max_events=max_events)

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Advance simulated time by *duration* seconds."""
        return self.engine.run_for(duration, max_events=max_events)


__all__ = ["World", "LAN_LINK", "WAN_LINK"]

"""Routing tables mapping O/R routing domains to next-hop MTAs.

Routes are keyed on the ``(country, admd, prmd)`` triple, with ``*`` as a
wildcard in any position; the most specific matching route wins (a match
on prmd beats a match on admd beats a default route).  This follows how
X.400 management domains delegate routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import NoRouteError


@dataclass(frozen=True)
class Route:
    """One routing rule: a domain pattern and the next-hop MTA name."""

    country: str
    admd: str
    prmd: str
    next_hop: str

    def specificity(self) -> int:
        """Number of non-wildcard fields (higher wins)."""
        return sum(1 for f in (self.country, self.admd, self.prmd) if f != "*")

    def matches(self, domain: tuple[str, str, str]) -> bool:
        """True when the pattern covers the routing domain."""
        pattern = (self.country.lower(), self.admd.lower(), self.prmd.lower())
        return all(p in ("*", value) for p, value in zip(pattern, domain))


class RoutingTable:
    """An ordered rule set with longest-match (most-specific) selection."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add_route(self, country: str, admd: str, prmd: str, next_hop: str) -> None:
        """Add a rule; ``*`` wildcards any field."""
        self._routes.append(Route(country, admd, prmd, next_hop))

    def add_default(self, next_hop: str) -> None:
        """Add a catch-all route."""
        self.add_route("*", "*", "*", next_hop)

    def routes(self) -> list[Route]:
        """All rules in insertion order."""
        return list(self._routes)

    def next_hop(self, domain: tuple[str, str, str]) -> str:
        """The next-hop MTA for a routing domain.

        Raises :class:`NoRouteError` when no rule matches.
        """
        best: Route | None = None
        for route in self._routes:
            if not route.matches(domain):
                continue
            if best is None or route.specificity() > best.specificity():
                best = route
        if best is None:
            raise NoRouteError(f"no route toward domain {domain}")
        return best.next_hop

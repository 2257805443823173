"""Inter-organisational policies and compatibility.

Paper, section 4 ("Transparency of organisation"): *"Inter-organisational
connections should/could hide the complexity of different organisational
... and inter-organisational (free market or other) policies.  Sometimes,
interaction is not possible due to incompatible policies (or cost too
high)."*

An :class:`InterOrgPolicy` states, between an ordered pair of
organisations, which interaction kinds are allowed and at what cost.  The
:class:`PolicyRegistry` answers compatibility questions; organisation
transparency (:mod:`repro.environment.transparency`) and the trader policy
hook (experiment E5) are its two consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.util.errors import PolicyViolationError

#: common interaction kinds used across the library
INTERACTION_MESSAGE = "message"
INTERACTION_REALTIME = "realtime"
INTERACTION_SHARE_DOCUMENT = "share-document"
INTERACTION_SHARE_RESOURCE = "share-resource"
INTERACTION_SERVICE_IMPORT = "service-import"


@dataclass(frozen=True)
class InterOrgPolicy:
    """What one organisation permits toward another.

    ``allowed`` lists interaction kinds; ``"*"`` allows everything.
    ``cost`` is an abstract per-interaction cost (0 = free); interactions
    whose cost exceeds a participant's budget are treated as incompatible
    ("or cost too high").
    """

    from_org: str
    to_org: str
    allowed: frozenset[str] = frozenset()
    cost: float = 0.0

    def permits(self, interaction: str) -> bool:
        """True when the interaction kind is allowed by this policy."""
        return "*" in self.allowed or interaction in self.allowed


class PolicyRegistry:
    """All inter-organisational policies, with compatibility queries.

    Policies are directional; cooperation requires both directions to
    permit the interaction.  Intra-organisational interaction is always
    permitted at zero cost.
    """

    def __init__(self, on_change: Callable[[str, str], None] | None = None) -> None:
        self._policies: dict[tuple[str, str], InterOrgPolicy] = {}
        self.checks = 0
        self.denials = 0
        #: called as *on_change*(from_org, to_org) after every declare and
        #: every revoke that removed a direction; a ``symmetric`` one calls
        #: it once, as the unordered pair is the same.  The organisational
        #: knowledge base passes its route-verdict eviction here.
        self._on_change = on_change

    def declare(
        self,
        from_org: str,
        to_org: str,
        allowed: set[str] | list[str],
        cost: float = 0.0,
        symmetric: bool = False,
    ) -> None:
        """Declare (or replace) a policy; optionally both directions."""
        self._policies[(from_org, to_org)] = InterOrgPolicy(
            from_org, to_org, frozenset(allowed), cost
        )
        if symmetric:
            self._policies[(to_org, from_org)] = InterOrgPolicy(
                to_org, from_org, frozenset(allowed), cost
            )
        if self._on_change is not None:
            self._on_change(from_org, to_org)

    def revoke(self, from_org: str, to_org: str, symmetric: bool = False) -> int:
        """Remove a declared policy; returns how many directions existed.

        Revoking a direction that was never declared is a no-op (returns
        0 for it), so tearing down a partnership is idempotent.
        """
        removed = 0
        if self._policies.pop((from_org, to_org), None) is not None:
            removed += 1
        if symmetric and self._policies.pop((to_org, from_org), None) is not None:
            removed += 1
        if removed and self._on_change is not None:
            self._on_change(from_org, to_org)
        return removed

    def policy_between(self, from_org: str, to_org: str) -> InterOrgPolicy | None:
        """The declared policy, or None when nothing is declared."""
        return self._policies.get((from_org, to_org))

    def compatible(
        self,
        org_a: str,
        org_b: str,
        interaction: str,
        budget: float | None = None,
    ) -> bool:
        """Can *org_a* and *org_b* perform *interaction* together?

        Both directions must permit it; when *budget* is given, the summed
        directional cost must not exceed it.
        """
        self.checks += 1
        if org_a == org_b:
            return True
        forward = self._policies.get((org_a, org_b))
        backward = self._policies.get((org_b, org_a))
        if forward is None or backward is None:
            self.denials += 1
            return False
        if not (forward.permits(interaction) and backward.permits(interaction)):
            self.denials += 1
            return False
        if budget is not None and forward.cost + backward.cost > budget:
            self.denials += 1
            return False
        return True

    def require_compatible(
        self, org_a: str, org_b: str, interaction: str, budget: float | None = None
    ) -> None:
        """Raise :class:`PolicyViolationError` unless compatible."""
        if not self.compatible(org_a, org_b, interaction, budget=budget):
            raise PolicyViolationError(
                f"organisations {org_a!r} and {org_b!r} have no compatible policy "
                f"for {interaction!r}"
            )

    def interaction_cost(self, org_a: str, org_b: str) -> float:
        """Summed directional cost between two organisations (0 within one)."""
        if org_a == org_b:
            return 0.0
        forward = self._policies.get((org_a, org_b))
        backward = self._policies.get((org_b, org_a))
        if forward is None or backward is None:
            raise PolicyViolationError(f"no policy between {org_a!r} and {org_b!r}")
        return forward.cost + backward.cost

    def partners_of(self, org: str, interaction: str) -> list[str]:
        """Organisations with which *org* can perform *interaction*."""
        candidates = {
            p.to_org for (from_org, _), p in self._policies.items() if from_org == org
        }
        return sorted(c for c in candidates if self.compatible(org, c, interaction))

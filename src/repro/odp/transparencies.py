"""ODP distribution transparencies as binder interceptors.

The computational viewpoint's "aspects: visibility and transparency" are
central to the paper's section 6.1, which argues that transparency must be
*selective* and — for CSCW — *user-tailorable*.  Each transparency here is
an interceptor that plugs into a channel's binder
(:mod:`repro.odp.binding`), and :class:`TransparencySelection` is the
user-facing knob that assembles a chosen subset into an interceptor chain.

Provided transparencies:

* **access** — uniform marshalling of invocations (annotation only; the
  stub already speaks canonical documents).
* **location** — clients name a *service type*; the trader resolves it to
  an interface reference at invocation time.
* **migration** — a :class:`Relocator` tracks object movements; stale
  references are rewritten before transmission and re-resolved on failure.
* **replication** — invocations go to the first live member of a replica
  group, failing over on error.
* **failure** — bounded retry of failed invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.odp.binding import Interceptor, Invocation
from repro.odp.objects import InterfaceRef
from repro.odp.trader import ImportContext, Trader
from repro.util.errors import ConfigurationError, NoOfferError, TransparencyError

#: the transparencies a selection may name
TRANSPARENCY_NAMES = ("access", "location", "migration", "replication", "failure")


class AccessTransparency:
    """Marks invocations as uniformly marshalled.

    Marshalling itself happens in the stub; this interceptor records that
    access transparency is active so experiments can count its traversal
    cost, and validates the argument document is flat-serialisable.
    """

    def before_invoke(self, invocation: Invocation) -> Invocation:
        invocation.annotations["access_transparent"] = True
        return invocation

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        return False


class Relocator:
    """Registry of object movements, shared by migration-aware channels."""

    def __init__(self) -> None:
        self._current: dict[str, InterfaceRef] = {}
        self.relocations = 0

    def record(self, ref: InterfaceRef) -> None:
        """Record the current location of an object's interface."""
        self._current[self._key(ref)] = ref

    def moved(self, old_ref: InterfaceRef, new_ref: InterfaceRef) -> None:
        """Record that an interface moved (called after capsule migration)."""
        if (old_ref.object_id, old_ref.interface) != (new_ref.object_id, new_ref.interface):
            raise ConfigurationError("moved() must keep object/interface identity")
        self._current[self._key(new_ref)] = new_ref
        self.relocations += 1

    def current(self, ref: InterfaceRef) -> InterfaceRef:
        """The up-to-date reference for the same object/interface."""
        return self._current.get(self._key(ref), ref)

    @staticmethod
    def _key(ref: InterfaceRef) -> tuple[str, str]:
        return (ref.object_id, ref.interface)


class MigrationTransparency:
    """Rewrites stale references using a shared :class:`Relocator`.

    Also retries once on failure after re-resolving, which covers the
    window where the object moved while an invocation was in flight.
    """

    def __init__(self, relocator: Relocator, max_relocation_retries: int = 2) -> None:
        self._relocator = relocator
        self._max_retries = max_relocation_retries

    def before_invoke(self, invocation: Invocation) -> Invocation:
        invocation.ref = self._relocator.current(invocation.ref)
        return invocation

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        fresh = self._relocator.current(invocation.ref)
        retries = invocation.annotations.get("migration_retries", 0)
        if fresh != invocation.ref and retries < self._max_retries:
            invocation.annotations["migration_retries"] = retries + 1
            invocation.ref = fresh
            retry(invocation)
            return True
        return False


class LocationTransparency:
    """Resolves a service type to a concrete reference via the trader.

    The channel is constructed against a *placeholder* reference whose node
    is empty; this interceptor fills it in on every invocation, so clients
    never handle locations.  On failure the binding is re-resolved,
    excluding the failed offer.
    """

    def __init__(
        self,
        trader: Trader,
        service_type: str,
        context: ImportContext | None = None,
        preference: str = "first",
    ) -> None:
        self._trader = trader
        self._service_type = service_type
        self._context = context if context is not None else ImportContext()
        self._preference = preference
        self._excluded: set[str] = set()

    def placeholder_ref(self) -> InterfaceRef:
        """The unresolved reference a channel should be constructed with."""
        return InterfaceRef(node="", object_id="?", interface=self._service_type)

    def before_invoke(self, invocation: Invocation) -> Invocation:
        offers = self._trader.import_(
            self._service_type,
            context=self._context,
            preference=self._preference,
            max_offers=1_000_000,
        )
        usable = [o for o in offers if o.offer_id not in self._excluded]
        if not usable:
            raise TransparencyError(
                f"location transparency: no usable offer for {self._service_type!r}"
            )
        chosen = usable[0]
        invocation.ref = chosen.ref
        invocation.annotations["resolved_offer"] = chosen.offer_id
        return invocation

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        failed_offer = invocation.annotations.get("resolved_offer")
        if failed_offer is None:
            return False
        self._excluded.add(failed_offer)
        try:
            self.before_invoke(invocation)
        except (TransparencyError, NoOfferError):
            return False
        retry(invocation)
        return True


class ReplicationTransparency:
    """Directs invocations at a replica group with failover."""

    def __init__(self, replicas: list[InterfaceRef]) -> None:
        if not replicas:
            raise ConfigurationError("replica group must be non-empty")
        self._replicas = list(replicas)
        self.failovers = 0

    def before_invoke(self, invocation: Invocation) -> Invocation:
        # Use the sticky replica index so a failover retry does not snap
        # back to the (dead) preferred replica when re-prepared.
        index = invocation.annotations.setdefault("replica_index", 0)
        invocation.ref = self._replicas[index]
        return invocation

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        index = invocation.annotations.get("replica_index", 0) + 1
        if index >= len(self._replicas):
            return False
        invocation.annotations["replica_index"] = index
        invocation.ref = self._replicas[index]
        self.failovers += 1
        retry(invocation)
        return True


class FailureTransparency:
    """Retries failed invocations up to a bound (masking transient faults)."""

    def __init__(self, max_retries: int = 3) -> None:
        if max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        self._max_retries = max_retries
        self.retries = 0

    def before_invoke(self, invocation: Invocation) -> Invocation:
        return invocation

    def on_failure(self, invocation: Invocation, retry: Callable[[Invocation], None]) -> bool:
        used = invocation.annotations.get("failure_retries", 0)
        if used >= self._max_retries:
            return False
        invocation.annotations["failure_retries"] = used + 1
        self.retries += 1
        retry(invocation)
        return True


@dataclass
class TransparencySelection:
    """A user-tailorable selection of distribution transparencies.

    The paper (section 6.1): "the user should be allowed to select their
    required transparency."  A selection is just a set of names plus the
    resources each needs; :meth:`build` assembles the interceptor chain in
    a fixed, sensible order (replication outermost fails over first, then
    migration, location, failure retry, access innermost).
    """

    enabled: set[str] = field(default_factory=set)
    trader: Trader | None = None
    service_type: str = ""
    context: ImportContext | None = None
    relocator: Relocator | None = None
    replicas: list[InterfaceRef] = field(default_factory=list)
    max_retries: int = 3

    def enable(self, name: str) -> "TransparencySelection":
        """Turn a transparency on; returns self for chaining."""
        if name not in TRANSPARENCY_NAMES:
            raise ConfigurationError(f"unknown transparency {name!r}")
        self.enabled.add(name)
        return self

    def disable(self, name: str) -> "TransparencySelection":
        """Turn a transparency off; returns self for chaining."""
        self.enabled.discard(name)
        return self

    def build(self) -> list[Interceptor]:
        """Assemble the interceptor chain for the enabled set."""
        chain: list[Interceptor] = []
        if "replication" in self.enabled:
            chain.append(ReplicationTransparency(self.replicas))
        if "migration" in self.enabled:
            if self.relocator is None:
                raise ConfigurationError("migration transparency needs a relocator")
            chain.append(MigrationTransparency(self.relocator))
        if "location" in self.enabled:
            if self.trader is None or not self.service_type:
                raise ConfigurationError("location transparency needs a trader and service type")
            chain.append(LocationTransparency(self.trader, self.service_type, self.context))
        if "failure" in self.enabled:
            chain.append(FailureTransparency(self.max_retries))
        if "access" in self.enabled:
            chain.append(AccessTransparency())
        return chain

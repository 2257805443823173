"""Exception hierarchy for the repro library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
applications embedding the CSCW environment can catch library failures with
a single ``except`` clause while still being able to discriminate between
subsystems.  The hierarchy follows the package layout (simulator, ODP
platform, directory, messaging, environment, models).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""


class NetworkError(SimulationError):
    """A message could not be moved across the simulated network."""


class NodeDownError(NetworkError):
    """The destination (or source) node has crashed."""


class PartitionError(NetworkError):
    """Source and destination are in different network partitions."""


class OdpError(ReproError):
    """Base class for ODP platform errors."""


class BindingError(OdpError):
    """A binding between computational interfaces could not be established."""


class TradingError(OdpError):
    """The trader could not satisfy an import request."""


class NoOfferError(TradingError):
    """No exported service offer matched the import criteria."""


class PolicyViolationError(OdpError):
    """An operation violated an organisational or trading policy."""


class TransparencyError(OdpError):
    """A requested distribution transparency could not be provided."""


class DirectoryError(ReproError):
    """Base class for X.500-style directory errors."""


class NameError_(DirectoryError):
    """A distinguished name is syntactically invalid or does not resolve.

    The trailing underscore avoids shadowing the builtin ``NameError``.
    """


class NoSuchEntryError(DirectoryError):
    """The requested directory entry does not exist."""


class EntryExistsError(DirectoryError):
    """An entry with the same distinguished name already exists."""


class SchemaViolationError(DirectoryError):
    """An entry does not conform to its object class schema."""


class MessagingError(ReproError):
    """Base class for X.400-style messaging errors."""


class NoRouteError(MessagingError):
    """No MTA route exists toward the recipient's domain."""


class UnknownRecipientError(MessagingError):
    """The recipient O/R name is not known to any MTA."""


class MessageTooLargeError(MessagingError):
    """The message exceeded a transfer agent's size limit."""


class ModelError(ReproError):
    """Base class for errors in the five CSCW models."""


class UnknownObjectError(ModelError):
    """A referenced model object (person, role, activity...) is unknown."""


class AccessDeniedError(ModelError):
    """Role-based access control denied the operation."""


class NegotiationError(ModelError):
    """A responsibility/competence negotiation failed or was rejected."""


class DependencyCycleError(ModelError):
    """Activity or information dependencies would form a cycle."""


class EnvironmentError_(ReproError):
    """Base class for CSCW environment errors.

    The trailing underscore avoids shadowing the builtin ``EnvironmentError``.
    """


class NotRegisteredError(EnvironmentError_):
    """An application or service is not registered with the environment."""


class InteropError(EnvironmentError_):
    """No interchange path exists between two applications' formats."""


class FidelityError(InteropError):
    """A conversion route exists, but none meets the caller's ``min_fidelity``.

    Carries the negotiation facts so callers can retry with a lower
    floor: ``best_fidelity`` is the best plan on offer, ``min_fidelity``
    the floor that rejected it.
    """

    def __init__(
        self, message: str, best_fidelity: float = 0.0, min_fidelity: float = 0.0
    ) -> None:
        super().__init__(message)
        self.best_fidelity = best_fidelity
        self.min_fidelity = min_fidelity


class TailoringError(EnvironmentError_):
    """A tailoring operation was rejected (out of bounds, bad scope...)."""

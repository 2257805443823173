"""The CSCW environment — the paper's primary contribution (Figures 3-4).

Common services (knowledge base, trader with organisational trading
policy, interchange, activity services, expertise, tailoring), the four
CSCW transparencies and application registration.
"""

from repro.environment.awareness import AwarenessService, ColleagueInfo
from repro.environment.builder import EnvironmentBuilder
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_MEMBERSHIP,
    REASON_ORGANISATION_OPAQUE,
    REASON_POLICY,
    REASON_TIME_OPAQUE,
    REASON_TRANSLATION,
    REASON_UNKNOWN_RECEIVER,
    REASON_VIEW_OPAQUE,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.resolution import ResolutionCache, RouteVerdict
from repro.environment.registry import (
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
    Q_DIFFERENT_TIME_SAME_PLACE,
    Q_SAME_TIME_DIFFERENT_PLACE,
    Q_SAME_TIME_SAME_PLACE,
    QUADRANTS,
    AppDescriptor,
    ApplicationRegistry,
)
from repro.environment.server import EnvironmentClient, EnvironmentServer
from repro.environment.tailoring import (
    LAYERS,
    TailorableParameter,
    TailoringService,
)
from repro.environment.transparency import (
    CSCW_DIMENSIONS,
    TransparencyProfile,
    ViewRegistry,
)

__all__ = [
    "AwarenessService",
    "ColleagueInfo",
    "CSCWEnvironment",
    "EnvironmentBuilder",
    "ExchangeOutcome",
    "ExchangeRequest",
    "ResolutionCache",
    "RouteVerdict",
    "REASON_DELIVERED",
    "REASON_MEMBERSHIP",
    "REASON_ORGANISATION_OPAQUE",
    "REASON_POLICY",
    "REASON_TIME_OPAQUE",
    "REASON_TRANSLATION",
    "REASON_UNKNOWN_RECEIVER",
    "REASON_VIEW_OPAQUE",
    "Q_DIFFERENT_TIME_DIFFERENT_PLACE",
    "Q_DIFFERENT_TIME_SAME_PLACE",
    "Q_SAME_TIME_DIFFERENT_PLACE",
    "Q_SAME_TIME_SAME_PLACE",
    "QUADRANTS",
    "AppDescriptor",
    "ApplicationRegistry",
    "EnvironmentClient",
    "EnvironmentServer",
    "LAYERS",
    "TailorableParameter",
    "TailoringService",
    "CSCW_DIMENSIONS",
    "TransparencyProfile",
    "ViewRegistry",
]

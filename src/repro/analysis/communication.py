"""Analyses over the communication log.

The communication model represents communication "in terms of the
communicators, the information objects they exchange, and the context"
(paper section 5); these helpers turn the log's aggregates into the
structures monitoring and research need: traffic summaries,
cross-organisation flows, mode mixes and per-activity breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.communication.model import CommunicationLog


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate view of one log."""

    exchanges: int
    bytes_total: int
    synchronous: int
    asynchronous: int
    distinct_pairs: int

    @property
    def synchronous_share(self) -> float:
        """Fraction of exchanges that were synchronous."""
        if self.exchanges == 0:
            return 0.0
        return self.synchronous / self.exchanges


def summarize(log: CommunicationLog) -> TrafficSummary:
    """Aggregate the whole log."""
    return TrafficSummary(
        exchanges=len(log),
        bytes_total=log.volume_bytes(),
        synchronous=log.by_mode("synchronous"),
        asynchronous=log.by_mode("asynchronous"),
        distinct_pairs=len(log.traffic_matrix()),
    )


def top_talkers(log: CommunicationLog, limit: int = 5) -> list[tuple[str, int]]:
    """People by number of exchanges sent, busiest first."""
    counts: dict[str, int] = {}
    for (sender, _), count in log.traffic_matrix().items():
        counts[sender] = counts.get(sender, 0) + count
    ordered = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    return ordered[:limit]


def cross_organisation_flows(log: CommunicationLog) -> dict[tuple[str, str], int]:
    """(from_org, to_org) -> exchange count, inter-org pairs only."""
    return {
        (from_org, to_org): count
        for (from_org, to_org), count in log.organisation_pairs().items()
        if from_org and to_org and from_org != to_org
    }


def activity_breakdown(log: CommunicationLog) -> dict[str, int]:
    """activity id -> exchanges in that activity ('' for unscoped)."""
    return log.activities()


def reciprocity(log: CommunicationLog) -> float:
    """Fraction of directed pairs whose reverse direction also occurs.

    High reciprocity signals conversation; low signals broadcast-style
    communication.
    """
    pairs = log.traffic_matrix()
    if not pairs:
        return 0.0
    reciprocated = sum(1 for (a, b) in pairs if (b, a) in pairs)
    return reciprocated / len(pairs)

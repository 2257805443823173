"""Wiring hooks: attach a registry/tracer to the library's hot layers.

These layers know how to report (all opt-in, no-op by default):

========================  =====================================================
layer                     instruments
========================  =====================================================
``sim.engine``            ``sim.engine.scheduled`` / ``.fired`` / ``.cancelled``
                          counters, ``sim.engine.queue_depth`` gauge
``util.events``           ``events.published`` / ``.delivered`` counters,
                          ``events.fanout`` subscriber fan-out histogram
``odp.trader``            ``trader.exports`` / ``.imports`` / ``.offer_scans``
                          / ``.link_hops`` / ``.no_offer`` /
                          ``.policy_rejections`` counters
``messaging.mta``         ``mta.relayed`` / ``.delivered`` / ``.reports`` and
                          ``mta.non_delivery.<reason>`` counters,
                          ``mta.hops`` histogram
``environment.exchange``  ``env.exchange.attempted``,
                          ``env.exchange.transparency.<dimension>`` counters,
                          ``env.exchange.outcomes{domain,outcome}`` and
                          ``env.exchange.reasons{domain,reason}`` families,
                          ``env.exchange.document_bytes`` histogram
``environment.resolution``  ``env.cache.route.<hit|miss>``,
                          ``env.cache.formats.<hit|miss>``,
                          ``env.cache.invalidations`` / ``.evicted`` counters
``information.interchange``  ``interchange.plan.<hit|miss|evicted>`` /
                          ``interchange.identity`` counters
``mediation.mediator``    ``mediation.plan.<synthesized|hit|evicted>``,
                          ``mediation.capability.<published|withdrawn>``,
                          ``mediation.negotiation.<downgraded|rejected>``,
                          ``mediation.identity`` / ``.translations`` counters,
                          ``mediation.fidelity`` histogram,
                          ``mediation.translate``/``mediation.hop`` spans
``sharding.directory``    ``directory.ops{shard,op}``, ``directory.fanouts``
========================  =====================================================

A counter the layer already tallies is *read*: the layer registers the
tally once, at attach, with
:meth:`~repro.obs.metrics.MetricsRegistry.read`.  The rest are *pushed*
on the hot path behind a check of ``registry.enabled``: every histogram
and gauge, the ``env.exchange`` families, ``sim.engine.scheduled`` /
``.cancelled``, trader ``offer_scans`` / ``link_hops`` / ``no_offer``,
``mta.non_delivery.*``, ``env.exchange.transparency.*``,
``mediation.translations`` (which leaves out identity translations),
``env.federation.*`` and breaker ``trials`` / ``reopened``.
Each ``instrument_*`` function is idempotent, returns its target, and is
pure wiring, so the default :data:`~repro.obs.metrics.NULL_METRICS`
keeps the hot paths at a single attribute check.  The functions
duck-type their targets (anything with the layer's ``attach_metrics``
method works), so this module imports nothing from the rest of the
library and can never create an import cycle.

The recommended front door is ``CSCWEnvironment.builder()``, which calls
:func:`instrument_environment` during construction; these functions stay
public for instrumenting standalone engines, buses, traders and MTAs.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: histogram bounds for small whole-number distributions (fan-out, hops)
COUNT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: histogram bounds for document sizes in bytes
BYTES_BUCKETS: tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
)

#: histogram bounds for delivered translation fidelity in (0, 1]
FIDELITY_BUCKETS: tuple[float, ...] = (0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)


def instrument_engine(engine: Any, metrics: MetricsRegistry) -> Any:
    """Attach *metrics* to a :class:`repro.sim.engine.Engine`."""
    engine.attach_metrics(metrics)
    return engine


def instrument_event_bus(bus: Any, metrics: MetricsRegistry) -> Any:
    """Attach *metrics* to a :class:`repro.util.events.EventBus`."""
    if metrics.enabled:
        metrics.histogram("events.fanout", buckets=COUNT_BUCKETS)
    bus.attach_metrics(metrics)
    return bus


def instrument_trader(trader: Any, metrics: MetricsRegistry) -> Any:
    """Attach *metrics* to a :class:`repro.odp.trader.Trader`."""
    trader.attach_metrics(metrics)
    return trader


def instrument_mta(
    mta: Any, metrics: MetricsRegistry, tracer: Tracer | None = None
) -> Any:
    """Attach *metrics* (and optionally *tracer*) to a
    :class:`repro.messaging.mta.MessageTransferAgent`."""
    if metrics.enabled:
        metrics.histogram("mta.hops", buckets=COUNT_BUCKETS)
    mta.attach_metrics(metrics)
    if tracer is not None:
        mta.attach_tracer(tracer)
    return mta


def instrument_environment(
    environment: Any,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> Any:
    """Attach observability to an environment and its owned hot layers.

    Wires the environment's engine, event bus and trader to *metrics*,
    installs *metrics*/*tracer* as ``environment.metrics`` /
    ``environment.tracer`` (consulted by ``exchange()`` and
    ``describe()``), and binds the tracer to the engine clock so span
    durations are simulated seconds.  Passing ``None`` for either
    half leaves that half as it was.
    """
    if metrics is not None:
        environment._bind_labelled_metrics(metrics)
        instrument_engine(environment.world.engine, metrics)
        instrument_event_bus(environment.bus, metrics)
        instrument_trader(environment.trader, metrics)
        events = getattr(environment, "events", None)
        if events is not None and events.enabled:
            events.attach_metrics(metrics)
        directory = getattr(
            getattr(environment, "knowledge_base", None), "directory", None
        )
        if directory is not None:
            directory.attach_metrics(metrics)
        resolution = getattr(environment, "resolution", None)
        if resolution is not None:
            resolution.attach_metrics(metrics)
        interchange = getattr(environment, "interchange", None)
        if interchange is not None:
            interchange.attach_metrics(metrics)
        mediator = getattr(environment, "mediator", None)
        if mediator is not None:
            if metrics.enabled:
                metrics.histogram("mediation.fidelity", buckets=FIDELITY_BUCKETS)
            mediator.attach_metrics(metrics)
        if metrics.enabled:
            metrics.histogram("env.exchange.document_bytes", buckets=BYTES_BUCKETS)
    if tracer is not None:
        environment.tracer = tracer
        if tracer.enabled:
            tracer.bind_engine(environment.world.engine)
        mediator = getattr(environment, "mediator", None)
        if mediator is not None:
            mediator.attach_tracer(tracer)
    return environment

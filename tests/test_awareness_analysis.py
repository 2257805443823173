"""Tests for the awareness service and the analysis package."""

from __future__ import annotations

import pytest

from repro.activity.dependencies import (
    BEFORE,
    SHARES_INFORMATION,
    SHARES_RESOURCE,
    DependencyGraph,
)
from repro.activity.model import Activity, ActivityRegistry
from repro.analysis.activity_network import (
    collaboration_graph,
    coupling_clusters,
    critical_path,
    key_collaborators,
    ordering_dag,
)
from repro.analysis.communication import (
    activity_breakdown,
    cross_organisation_flows,
    reciprocity,
    summarize,
    top_talkers,
)
from repro.communication.model import (
    CommunicationContext,
    CommunicationLog,
    Communicator,
    Exchange,
)
from repro.environment.awareness import AwarenessService
from repro.environment.environment import CSCWEnvironment
from repro.org.model import Organisation, Person


@pytest.fixture
def env(world) -> CSCWEnvironment:
    env = CSCWEnvironment.builder().with_world(world).build()
    org = Organisation("upc", "UPC")
    for person_id in ("ana", "joan", "marta", "pere"):
        org.add_person(Person(person_id, person_id.title(), "upc"))
    env.knowledge_base.add_organisation(org)
    world.add_site("bcn", ["w1", "w2", "w3", "w4"])
    env.register_person(Communicator("ana", "w1"))
    env.register_person(Communicator("joan", "w2", present=False))
    env.register_person(Communicator("marta", "w3"))
    env.create_activity("survey", "survey", members={"ana": "lead", "joan": "m"})
    env.create_activity("report", "report", members={"ana": "editor", "marta": "m"})
    env.create_activity("unrelated", "other", members={"pere": "m"})
    env.dependencies.add(BEFORE, "survey", "report")
    env.dependencies.add(SHARES_INFORMATION, "survey", "report", annotation="data-set")
    env.dependencies.add(SHARES_RESOURCE, "report", "unrelated", annotation="printer")
    env.activities.get("survey").start(0.0)
    return env


class TestAwareness:
    def test_my_activities(self, env):
        awareness = AwarenessService(env)
        assert awareness.my_activities("ana") == ["report", "survey"]
        assert awareness.my_activities("ana", active_only=True) == ["survey"]

    def test_related_activities_one_hop(self, env):
        awareness = AwarenessService(env)
        # pere's 'unrelated' is reachable from ana's 'report' via the printer.
        assert awareness.related_activities("pere") == ["report"]
        assert awareness.related_activities("ana") == ["unrelated"]

    def test_activity_neighbourhood(self, env):
        awareness = AwarenessService(env)
        hood = awareness.activity_neighbourhood("report")
        assert hood["predecessors"] == ["survey"]
        assert hood["shares_resources_with"] == ["unrelated"]
        assert hood["shares_information_with"] == ["survey"]

    def test_colleagues_and_reachability(self, env):
        awareness = AwarenessService(env)
        colleagues = awareness.colleagues_of("ana")
        by_id = {c.person_id: c for c in colleagues}
        assert set(by_id) == {"joan", "marta"}
        assert by_id["joan"].shared_activities == ("survey",)
        assert not by_id["joan"].present
        assert by_id["marta"].present
        assert by_id["marta"].organisation == "upc"
        assert awareness.reachable_now("ana") == ["marta"]

    def test_who_works_with_object(self, env):
        awareness = AwarenessService(env)
        assert awareness.who_works_with("data-set") == ["ana", "joan", "marta"]
        assert awareness.who_works_with("nothing") == []

    def test_unknown_activity_rejected(self, env):
        from repro.util.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            AwarenessService(env).activity_neighbourhood("ghost")


def _log() -> CommunicationLog:
    log = CommunicationLog()
    ctx_ab = CommunicationContext(activity="act1", from_org="upc", to_org="gmd")
    ctx_ba = CommunicationContext(activity="act1", from_org="gmd", to_org="upc")
    log.record(Exchange("ana", "wolf", "synchronous", "text", 100, 1.0, ctx_ab))
    log.record(Exchange("wolf", "ana", "synchronous", "text", 50, 2.0, ctx_ba))
    log.record(Exchange("ana", "tom", "asynchronous", "document", 400, 3.0,
                        CommunicationContext(activity="act2", from_org="upc", to_org="lancaster")))
    log.record(Exchange("ana", "wolf", "asynchronous", "text", 70, 4.0, ctx_ab))
    return log


class TestCommunicationAnalysis:
    def test_summary(self):
        summary = summarize(_log())
        assert summary.exchanges == 4
        assert summary.bytes_total == 620
        assert summary.synchronous == 2
        assert summary.distinct_pairs == 3
        assert summary.synchronous_share == 0.5

    def test_empty_summary(self):
        summary = summarize(CommunicationLog())
        assert summary.exchanges == 0
        assert summary.synchronous_share == 0.0

    def test_top_talkers(self):
        assert top_talkers(_log(), limit=1) == [("ana", 3)]

    def test_cross_org_flows(self):
        flows = cross_organisation_flows(_log())
        assert flows[("upc", "gmd")] == 2
        assert flows[("gmd", "upc")] == 1
        assert flows[("upc", "lancaster")] == 1

    def test_activity_breakdown(self):
        breakdown = activity_breakdown(_log())
        assert breakdown == {"act1": 3, "act2": 1}

    def test_reciprocity(self):
        # (ana,wolf) reciprocated; (wolf,ana) reciprocated; (ana,tom) not.
        assert reciprocity(_log()) == pytest.approx(2 / 3)
        assert reciprocity(CommunicationLog()) == 0.0


class TestActivityNetwork:
    @pytest.fixture
    def programme(self):
        graph = DependencyGraph()
        graph.add(BEFORE, "a", "b")
        graph.add(BEFORE, "b", "d")
        graph.add(BEFORE, "a", "c")
        graph.add(SHARES_RESOURCE, "c", "d", annotation="lab")
        graph.add(SHARES_INFORMATION, "b", "c")
        return graph

    def test_ordering_dag(self, programme):
        dag = ordering_dag(programme, ["a", "b", "c", "d"])
        assert set(dag.edges) == {("a", "b"), ("b", "d"), ("a", "c")}

    def test_critical_path(self, programme):
        durations = {"a": 2.0, "b": 3.0, "c": 1.0, "d": 4.0}
        path, total = critical_path(programme, durations)
        assert path == ["a", "b", "d"]
        assert total == 9.0

    def test_critical_path_without_edges(self):
        graph = DependencyGraph()
        path, total = critical_path(graph, {"x": 5.0, "y": 2.0})
        assert path == ["x"]
        assert total == 5.0

    def test_lone_heavy_activity_beats_chain(self, programme):
        durations = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "monster": 99.0}
        path, total = critical_path(programme, durations)
        assert path == ["monster"]
        assert total == 99.0

    def test_coupling_clusters(self, programme):
        clusters = coupling_clusters(programme, ["a", "b", "c", "d"])
        as_sets = sorted(clusters, key=len)
        assert {"b", "c", "d"} in as_sets
        assert {"a"} in as_sets

    def test_collaboration_graph_and_centrality(self):
        registry = ActivityRegistry()
        first = registry.create(Activity("a1", "one"))
        second = registry.create(Activity("a2", "two"))
        for person in ("ana", "joan"):
            first.join(person)
        for person in ("ana", "joan", "marta"):
            second.join(person)
        graph = collaboration_graph(registry)
        assert graph["ana"]["joan"]["weight"] == 2
        assert key_collaborators(registry, limit=1)[0][0] == "ana"

    def test_key_collaborators_empty(self):
        assert key_collaborators(ActivityRegistry()) == []

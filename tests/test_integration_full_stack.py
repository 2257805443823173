"""Full-stack integration: environment + models + substrates together.

These tests exercise the layering of Figure 4 end to end: groupware on
the environment, the environment's knowledge base published into the
X.500-style directory, group mail over the X.400-style MHS, ODP trading
with organisational policy, and failure injection underneath it all.
"""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.apps.shared_editor import SharedEditor
from repro.apps.workflow import Procedure, ProcedureStep, WorkflowSystem
from repro.communication.model import Communicator
from repro.directory.dsa import DirectoryServiceAgent
from repro.directory.dua import DirectoryUserAgent
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.messaging.mta import MessageTransferAgent
from repro.messaging.names import or_name
from repro.messaging.ua import UserAgent
from repro.odp.binding import BindingFactory
from repro.odp.node_mgmt import Capsule
from repro.org.model import Organisation, Person
from repro.sim.world import World

ANA = or_name("C=ES;A= ;P=UPC;G=Ana;S=Lopez")
WOLF = or_name("C=DE;A= ;P=GMD;G=Wolf;S=Prinz")
TOM = or_name("C=UK;A= ;P=Lancaster;G=Tom;S=Rodden")
MOCCA = or_name("C=ES;A= ;P=UPC;S=mocca")


@pytest.fixture
def stack(world):
    """Three sites, full substrate + environment + people."""
    world.add_site("bcn", ["mta-upc", "ws-ana", "dsa-node"])
    world.add_site("bonn", ["mta-gmd", "ws-wolf"])
    world.add_site("lancs", ["mta-lancs", "ws-tom"])
    mtas = {
        "upc": MessageTransferAgent(world, "mta-upc", "upc", [("es", "", "upc")]),
        "gmd": MessageTransferAgent(world, "mta-gmd", "gmd", [("de", "", "gmd")]),
        "lancs": MessageTransferAgent(world, "mta-lancs", "lancs", [("uk", "", "lancaster")]),
    }
    for mta in mtas.values():
        for other in mtas.values():
            if other is not mta:
                mta.add_peer(other.name, other.node)
    mtas["upc"].routing.add_route("de", "*", "*", "gmd")
    mtas["upc"].routing.add_route("uk", "*", "*", "lancs")
    mtas["gmd"].routing.add_route("es", "*", "*", "upc")
    mtas["gmd"].routing.add_route("uk", "*", "*", "lancs")
    mtas["lancs"].routing.add_route("es", "*", "*", "upc")
    mtas["lancs"].routing.add_route("de", "*", "*", "gmd")
    uas = {
        "ana": UserAgent(world, "ws-ana", ANA, "mta-upc"),
        "wolf": UserAgent(world, "ws-wolf", WOLF, "mta-gmd"),
        "tom": UserAgent(world, "ws-tom", TOM, "mta-lancs"),
    }
    for ua in uas.values():
        ua.register()

    env = CSCWEnvironment.builder().with_world(world).build()
    for org_id, person_id, name, oname, node in [
        ("upc", "ana", "Ana Lopez", ANA, "ws-ana"),
        ("gmd", "wolf", "Wolf Prinz", WOLF, "ws-wolf"),
        ("lancaster", "tom", "Tom Rodden", TOM, "ws-tom"),
    ]:
        org = Organisation(org_id, org_id.upper())
        org.add_person(Person(person_id, name, org_id, or_name=oname))
        env.knowledge_base.add_organisation(org)
        env.register_person(Communicator(person_id, node, or_name=oname))
    for a in ("upc", "gmd", "lancaster"):
        for b in ("upc", "gmd", "lancaster"):
            if a != b:
                env.knowledge_base.policies.declare(a, b, {"*"})
    return world, env, mtas, uas


class TestDirectoryIntegration:
    def test_knowledge_base_findable_through_directory(self, stack):
        world, env, mtas, uas = stack
        capsule = Capsule(world.network, "dsa-node")
        factory = BindingFactory(world.network)
        factory.register_capsule(capsule)
        dsa = DirectoryServiceAgent("dsa-eu")
        ref = dsa.deploy(capsule)
        env.knowledge_base.publish_to_directory(dsa.dit, country="EU")
        dua = DirectoryUserAgent(factory, "ws-wolf", ref)
        hits = dua.search(world, where="(&(objectClass=person)(cn=Ana*))")
        assert len(hits) == 1
        # The directory carries the person's O/R name: white pages for MHS.
        mail = hits[0].first("mail")
        resolved = or_name(mail)
        uas["wolf"].send([resolved], "found you", "via the directory")
        world.run()
        assert uas["ana"].list_inbox()[0]["subject"] == "found you"


class TestGroupCooperation:
    def test_activity_group_mail_via_distribution_list(self, stack):
        world, env, mtas, uas = stack
        mtas["upc"].create_distribution_list(MOCCA, [ANA, WOLF, TOM])
        uas["ana"].send([MOCCA], "kickoff", "agenda attached")
        world.run()
        # Every member including remote ones got it.
        assert len(uas["wolf"].list_inbox()) == 1
        assert len(uas["tom"].list_inbox()) == 1
        assert len(uas["ana"].list_inbox()) == 1

    def test_session_spanning_three_apps_and_orgs(self, stack):
        world, env, mtas, uas = stack
        conferencing = ConferencingSystem()
        messages = MessageSystem()
        workflow = WorkflowSystem()
        for app, org in [(conferencing, "upc"), (messages, "gmd"), (workflow, "lancaster")]:
            app.attach(env, exporter_org=org)
        apps = {"ana": "conferencing", "wolf": "message-system", "tom": "workflow"}
        env.create_activity("standards-reply", "reply to ODP draft", dict.fromkeys(apps, "participant"))
        draft = {"topic": "draft", "entry": "please review section 6",
                 "conference": "odp", "author": "ana"}
        outcomes = env.exchange_many([
            ExchangeRequest("ana", receiver, apps["ana"], apps[receiver], draft,
                            activity_id="standards-reply")
            for receiver in ("wolf", "tom")
        ])
        assert all(o.delivered for o in outcomes)
        assert messages.folder("wolf")[0].subject == "draft"
        # Workflow gets it as a structured form document in tom's inbox.
        assert workflow.inbox("tom")[0].document["form_name"] == "draft"

    def test_editor_snapshot_flows_to_conference(self, stack):
        world, env, mtas, uas = stack
        editor = SharedEditor(world)
        conferencing = ConferencingSystem()
        editor.attach(env, exporter_org="upc")
        conferencing.attach(env, exporter_org="gmd")
        editor.open_document("ana", "ws-ana")
        editor.open_document("wolf", "ws-wolf")
        editor.insert("ana", 0, "Position: ODP will help")
        world.run()
        assert editor.converged()
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "shared-editor", "conferencing",
            editor.snapshot("ana", "position paper"),
        ))
        assert outcome.delivered
        entries = conferencing.news_for("imported", "wolf")
        assert entries[0].text == "Position: ODP will help"


class TestFailureResilience:
    def test_group_mail_survives_mta_outage(self, stack):
        world, env, mtas, uas = stack
        mtas["upc"].create_distribution_list(MOCCA, [WOLF, TOM])
        world.failures.crash_at("mta-gmd", at=world.now + 0.01, duration=2.0)
        uas["ana"].send([MOCCA], "resilient", "body")
        world.run()
        assert len(uas["wolf"].list_inbox()) == 1
        assert len(uas["tom"].list_inbox()) == 1

    def test_partition_heals_and_mail_flows(self, stack):
        world, env, mtas, uas = stack
        world.failures.partition_at(
            [["mta-upc", "ws-ana", "dsa-node"], ["mta-gmd", "ws-wolf", "mta-lancs", "ws-tom"]],
            at=world.now + 0.01, duration=3.0,
        )
        uas["ana"].send([WOLF], "through the partition", "body")
        world.run()
        assert len(uas["wolf"].list_inbox()) == 1

    def test_exchange_unaffected_by_remote_substrate_failure(self, stack):
        """Environment exchanges between co-registered apps are local to
        the environment node; an unrelated MTA crash does not break them."""
        world, env, mtas, uas = stack
        conferencing = ConferencingSystem()
        messages = MessageSystem()
        conferencing.attach(env, exporter_org="upc")
        messages.attach(env, exporter_org="gmd")
        world.network.node("mta-lancs").crash()
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "conferencing", "message-system",
            {"topic": "t", "entry": "e", "conference": "c", "author": "ana"},
        ))
        assert outcome.delivered


class TestWorkflowAcrossOrgs:
    def test_form_exchange_starts_remote_case(self, stack):
        world, env, mtas, uas = stack
        messages = MessageSystem()
        workflow = WorkflowSystem()
        messages.attach(env, exporter_org="upc")
        workflow.attach(env, exporter_org="gmd")
        workflow.define_procedure(Procedure("expense", [
            ProcedureStep("submit", "employee"),
            ProcedureStep("approve", "manager"),
        ]))
        workflow.grant_role("wolf", "manager")
        # Ana's memo (title == procedure name) becomes a running case.
        outcome = env.exchange(ExchangeRequest(
            "ana", "wolf", "message-system", "workflow",
            {"subject": "expense", "text": "", "template": "plain",
             "fields": {"amount": 120}},
        ))
        assert outcome.delivered
        cases = [c for c in workflow.inbox("wolf")]
        assert cases  # delivered to inbox
        # The on_receive hook started a case for the known procedure.
        started = workflow.work_list("wolf")
        assert started == []  # first step is 'employee', not wolf's role

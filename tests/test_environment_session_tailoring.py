"""Tests for cooperation sessions, tailoring and the view registry."""

from __future__ import annotations

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment
from repro.environment.session import CooperationSession
from repro.environment.tailoring import TailorableParameter, TailoringService
from repro.environment.transparency import TransparencyProfile, ViewRegistry
from repro.org.model import Organisation, Person
from repro.util.errors import ConfigurationError, ModelError, TailoringError
from repro.util.events import EventRecorder


@pytest.fixture
def env(world) -> CSCWEnvironment:
    env = CSCWEnvironment.builder().with_world(world).build()
    upc = Organisation("upc", "UPC")
    for pid, name in [("ana", "Ana Lopez"), ("joan", "Joan Puig"), ("marta", "Marta Vila")]:
        upc.add_person(Person(pid, name, "upc"))
    env.knowledge_base.add_organisation(upc)
    world.add_site("bcn", ["ws1", "ws2", "ws3"])
    for pid, node in [("ana", "ws1"), ("joan", "ws2"), ("marta", "ws3")]:
        env.register_person(Communicator(pid, node))
    ConferencingSystem().attach(env, exporter_org="upc")
    MessageSystem().attach(env, exporter_org="upc")
    env.create_activity("review", "review meeting")
    return env


class TestCooperationSession:
    def test_join_send_receive(self, env):
        session = CooperationSession(env, "review")
        session.join("ana", "conferencing")
        session.join("joan", "message-system")
        outcome = session.send("ana", "joan", {"topic": "agenda", "entry": "item 1"})
        assert outcome.delivered
        assert session.members() == ["ana", "joan"]
        assert session.app_of("joan") == "message-system"

    def test_broadcast(self, env):
        session = CooperationSession(env, "review")
        for person, app in [("ana", "conferencing"), ("joan", "message-system"),
                            ("marta", "conferencing")]:
            session.join(person, app)
        outcomes = session.broadcast("ana", {"topic": "t", "entry": "e"})
        assert len(outcomes) == 2
        assert all(o.delivered for o in outcomes)

    def test_double_join_rejected(self, env):
        session = CooperationSession(env, "review")
        session.join("ana", "conferencing")
        with pytest.raises(ModelError):
            session.join("ana", "conferencing")

    def test_unregistered_app_rejected(self, env):
        session = CooperationSession(env, "review")
        with pytest.raises(ModelError):
            session.join("ana", "spreadsheet-3000")

    def test_leave_unsubscribes_and_removes(self, env):
        session = CooperationSession(env, "review")
        events = EventRecorder()
        session.join("ana", "conferencing", on_event=events)
        session.join("joan", "message-system")
        session.leave("ana")
        session.announce({"note": "after ana left"})
        assert events.events == []
        assert not env.activities.get("review").is_member("ana")

    def test_member_events_scoped_to_activity(self, env):
        env.create_activity("other", "other activity")
        session = CooperationSession(env, "review")
        other = CooperationSession(env, "other")
        review_events = EventRecorder()
        session.join("ana", "conferencing", on_event=review_events)
        other.join("joan", "message-system")
        other.announce({"secret": "other business"})
        session.announce({"public": "review business"})
        assert [e.payload for e in review_events.events] == [{"public": "review business"}]


class TestTailoring:
    @pytest.fixture
    def service(self) -> TailoringService:
        service = TailoringService()
        service.declare(
            "editor", TailorableParameter("ui.font_size", numeric_range=(8, 32))
        )
        service.declare(
            "editor", TailorableParameter("ui.theme", choices=("light", "dark"))
        )
        service.set_default("editor", {"ui": {"font_size": 12, "theme": "light"}})
        return service

    def test_layering_user_overrides_developer(self, service):
        service.tailor("editor", "ui.font_size", 18, layer="user", subject="ana")
        assert service.effective_value("editor", "ui.font_size", user="ana") == 18
        assert service.effective_value("editor", "ui.font_size", user="joan") == 12

    def test_org_layer_between_system_and_user(self, service):
        service.tailor("editor", "ui.theme", "dark", layer="organisation", subject="upc")
        assert (
            service.effective_value("editor", "ui.theme", user="ana", organisation="upc")
            == "dark"
        )
        service.tailor("editor", "ui.theme", "light", layer="user", subject="ana")
        assert (
            service.effective_value("editor", "ui.theme", user="ana", organisation="upc")
            == "light"
        )

    def test_undeclared_parameter_rejected(self, service):
        with pytest.raises(TailoringError):
            service.tailor("editor", "ui.secret", 1, subject="ana")
        assert service.rejected == 1

    def test_out_of_bounds_rejected(self, service):
        with pytest.raises(TailoringError):
            service.tailor("editor", "ui.font_size", 99, subject="ana")
        with pytest.raises(TailoringError):
            service.tailor("editor", "ui.theme", "psychedelic", subject="ana")

    def test_user_layer_requires_subject(self, service):
        with pytest.raises(TailoringError):
            service.tailor("editor", "ui.font_size", 14)

    def test_live_listeners_notified(self, service):
        seen = []
        service.on_change("editor", lambda app, config: seen.append(config))
        service.tailor("editor", "ui.font_size", 20, subject="ana")
        assert seen
        assert seen[-1]["ui"]["font_size"] == 20

    def test_parameters_of_lists_toolkit(self, service):
        paths = [p.path for p in service.parameters_of("editor")]
        assert paths == ["ui.font_size", "ui.theme"]

    def test_duplicate_declaration_rejected(self, service):
        with pytest.raises(TailoringError):
            service.declare("editor", TailorableParameter("ui.theme"))

    def test_unknown_layer_rejected(self, service):
        with pytest.raises(TailoringError):
            service.tailor("editor", "ui.theme", "dark", layer="cosmic")


class TestTransparencyProfile:
    def test_all_on_off(self):
        assert TransparencyProfile.all_on().hidden_count() == 4
        assert TransparencyProfile.all_off().hidden_count() == 0

    def test_without_and_with(self):
        profile = TransparencyProfile.all_on().without("time")
        assert profile.enabled_dimensions() == ["organisation", "view", "activity"]
        assert profile.with_("time").hidden_count() == 4

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            TransparencyProfile.all_on().without("gravity")


class TestViewRegistry:
    def test_render_annotates(self):
        views = ViewRegistry()
        views.set_view("ana", language="ca")
        rendered = views.render("ana", {"body": "hello"})
        assert rendered["_view"] == {"language": "ca"}
        assert rendered["body"] == "hello"

    def test_default_view_untouched(self):
        views = ViewRegistry()
        document = {"body": "hello"}
        assert views.render("joan", document) == document

    def test_views_merge(self):
        views = ViewRegistry()
        views.set_view("ana", language="ca")
        views.set_view("ana", font="large")
        assert views.view_of("ana") == {"language": "ca", "font": "large"}

"""Tests for tailoring, transparency profiles and the view registry."""

from __future__ import annotations

import pytest

from repro.environment.tailoring import TailorableParameter, TailoringService
from repro.environment.transparency import CSCW_DIMENSIONS, TransparencyProfile, ViewRegistry
from repro.util.errors import ConfigurationError, TailoringError


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
        assert TransparencyProfile.all_on().enabled_dimensions() == list(CSCW_DIMENSIONS)
        assert TransparencyProfile.all_off().enabled_dimensions() == []

    def test_without_and_with(self):
        profile = TransparencyProfile.all_on().without("time")
        assert profile.enabled_dimensions() == ["organisation", "view", "activity"]
        assert profile.with_("time") == TransparencyProfile.all_on()

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

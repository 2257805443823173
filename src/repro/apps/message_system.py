"""Semi-structured message system (Object Lens workalike).

Paper reference [7] (Malone & Lai, *Object Lens: a spreadsheet for
cooperative work*): messages are typed templates with named fields, and
user-authored **rules** process incoming messages automatically (file
into a folder, forward, mark urgent).  This is the app that most benefits
from the environment's interchange: its typed fields survive translation
through the common form's ``attributes``.

Quadrant: different time / different place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.base import GroupwareApp
from repro.environment.registry import Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.util.errors import ConfigurationError, UnknownObjectError
from repro.util.ids import IdFactory


@dataclass
class Memo:
    """One semi-structured message."""

    memo_id: str
    template: str
    subject: str
    text: str
    fields: dict[str, Any]
    sender: str = ""
    folder: str = "inbox"
    flags: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class Rule:
    """An Object-Lens-style processing rule.

    ``condition`` maps field names to required values (all must match;
    the pseudo-fields ``template`` and ``sender`` are also matchable).
    ``action`` is ``("file", folder)``, ``("flag", flag)`` or
    ``("forward", person_id)``.
    """

    name: str
    condition: dict[str, Any]
    action: tuple[str, str]

    def matches(self, memo: Memo) -> bool:
        """True when every condition entry matches the memo."""
        for key, expected in self.condition.items():
            if key == "template":
                actual: Any = memo.template
            elif key == "sender":
                actual = memo.sender
            else:
                actual = memo.fields.get(key)
            if actual != expected:
                return False
        return True


class MessageSystem(GroupwareApp):
    """An Object-Lens-style semi-structured message application."""

    app_name = "message-system"
    quadrants = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]

    def __init__(self, instance_name: str = "") -> None:
        super().__init__(instance_name)
        #: person -> folder -> memos
        self._folders: dict[str, dict[str, list[Memo]]] = {}
        self._templates: dict[str, list[str]] = {
            "plain": [],
            "action-request": ["action", "deadline"],
            "meeting-announcement": ["where", "when"],
        }
        self._rules: dict[str, list[Rule]] = {}
        self._forward_hook: Callable[[str, str, Memo], None] | None = None
        self._ids = IdFactory()
        self.auto_processed = 0

    def converter(self) -> FormatConverter:
        """Native format ``memo``: subject/text/template/fields."""
        return FormatConverter(
            "memo",
            to_common=lambda d: make_common(
                "note",
                d.get("subject", ""),
                d.get("text", ""),
                template=d.get("template", "plain"),
                **d.get("fields", {}),
            ),
            from_common=lambda c: {
                "subject": c["title"],
                "text": c["body"],
                "template": c["attributes"].get("template", "plain"),
                "fields": {
                    k: v for k, v in c["attributes"].items() if k != "template"
                },
            },
        )

    # -- templates -------------------------------------------------------------
    def define_template(self, name: str, required_fields: list[str]) -> None:
        """Add a message template (user-tailorable structure)."""
        if name in self._templates:
            raise ConfigurationError(f"template {name!r} already defined")
        self._templates[name] = list(required_fields)

    def templates(self) -> list[str]:
        """All template names, sorted."""
        return sorted(self._templates)

    # -- rules ---------------------------------------------------------------------
    def add_rule(self, person_id: str, rule: Rule) -> None:
        """Install a processing rule for a person's incoming memos."""
        self._rules.setdefault(person_id, []).append(rule)

    def set_forward_hook(self, hook: Callable[[str, str, Memo], None]) -> None:
        """Set how 'forward' actions are executed: hook(from, to, memo)."""
        self._forward_hook = hook

    # -- messaging --------------------------------------------------------------------
    def write_memo(
        self,
        sender: str,
        template: str,
        subject: str,
        text: str,
        fields: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Author a native memo document (validating template fields)."""
        required = self._templates.get(template)
        if required is None:
            raise UnknownObjectError(f"unknown template {template!r}")
        given = dict(fields or {})
        missing = [f for f in required if f not in given]
        if missing:
            raise ConfigurationError(f"template {template!r} requires fields {missing}")
        return {
            "subject": subject,
            "text": text,
            "template": template,
            "fields": given,
            "sender": sender,
        }

    def place(self, person_id: str, memo: Memo) -> Memo:
        """File a memo for a person, running their rules."""
        folders = self._folders.setdefault(person_id, {})
        for rule in self._rules.get(person_id, []):
            if not rule.matches(memo):
                continue
            kind, argument = rule.action
            self.auto_processed += 1
            if kind == "file":
                memo.folder = argument
            elif kind == "flag":
                memo.flags.add(argument)
            elif kind == "forward" and self._forward_hook is not None:
                self._forward_hook(person_id, argument, memo)
        folders.setdefault(memo.folder, []).append(memo)
        return memo

    def folder(self, person_id: str, folder: str = "inbox") -> list[Memo]:
        """Memos in one of a person's folders."""
        return list(self._folders.get(person_id, {}).get(folder, []))

    # -- environment integration -----------------------------------------------------
    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Environment deliveries become memos and flow through rules."""
        memo = Memo(
            memo_id=self._ids.next("memo"),
            template=document.get("template", "plain"),
            subject=document.get("subject", ""),
            text=document.get("text", ""),
            fields=dict(document.get("fields", {})),
            sender=document.get("sender") or info.get("sender", ""),
        )
        self.place(person_id, memo)

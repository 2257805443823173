"""A plain document processor — deliberately NOT a CSCW application.

Paper section 6.2: *"even applications which are not typically regarded
as CSCW applications, like document processing systems, might use the
CSCW environment when they are used in a cooperative context."*  This app
is a single-user editor; attaching it to the environment lets its
documents flow to and from groupware without the app itself knowing
anything about cooperation.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import GroupwareApp
from repro.environment.registry import Q_DIFFERENT_TIME_SAME_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.util.errors import UnknownObjectError


class DocumentProcessor(GroupwareApp):
    """A single-user document editor with titled, paragraph-based files."""

    app_name = "document-processor"
    quadrants = [Q_DIFFERENT_TIME_SAME_PLACE]
    is_cscw = False

    def __init__(self, instance_name: str = "") -> None:
        super().__init__(instance_name)
        #: person -> title -> paragraphs
        self._files: dict[str, dict[str, list[str]]] = {}

    def converter(self) -> FormatConverter:
        """Native format ``document``: title + paragraphs."""
        return FormatConverter(
            "document",
            to_common=lambda d: make_common(
                "document", d.get("title", ""), "\n\n".join(d.get("paragraphs", []))
            ),
            from_common=lambda c: {
                "title": c["title"],
                "paragraphs": c["body"].split("\n\n") if c["body"] else [],
            },
        )

    # -- single-user editing ----------------------------------------------------
    def create(self, person_id: str, title: str) -> None:
        """Create an empty document."""
        self._files.setdefault(person_id, {})[title] = []

    def append_paragraph(self, person_id: str, title: str, text: str) -> None:
        """Append a paragraph."""
        self._document(person_id, title).append(text)

    def paragraphs(self, person_id: str, title: str) -> list[str]:
        """The document's paragraphs."""
        return list(self._document(person_id, title))

    def titles(self, person_id: str) -> list[str]:
        """A person's documents, sorted."""
        return sorted(self._files.get(person_id, {}))

    def _document(self, person_id: str, title: str) -> list[str]:
        try:
            return self._files[person_id][title]
        except KeyError:
            raise UnknownObjectError(f"{person_id!r} has no document {title!r}") from None

    # -- environment integration -------------------------------------------------
    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """Arriving documents are saved as files (dedup by title suffix)."""
        title = document.get("title") or "untitled"
        files = self._files.setdefault(person_id, {})
        if title in files:
            title = f"{title} (received)"
        files[title] = list(document.get("paragraphs", []))

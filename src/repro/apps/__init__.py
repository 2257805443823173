"""Groupware applications covering the time-space matrix (Figure 1).

Workalikes of the systems the paper cites: COM-style conferencing,
Object-Lens-style messaging, Shared-X-style WYSIWIS editing, COLAB-style
meeting rooms, DOMINO-style workflow, plus a deliberately non-CSCW
document processor (section 6.2).
"""

from repro.apps.base import Delivery, GroupwareApp, InboxApp
from repro.apps.conferencing import Conference, ConferenceEntry, ConferencingSystem
from repro.apps.document import DocumentProcessor
from repro.apps.meeting_room import AgendaPoint, BoardItem, MeetingRoom
from repro.apps.message_system import Memo, MessageSystem, Rule
from repro.apps.shared_editor import EditOp, SharedEditor
from repro.apps.workflow import Case, ParallelSteps, Procedure, ProcedureStep, WorkflowSystem

__all__ = [
    "Delivery",
    "GroupwareApp",
    "InboxApp",
    "Conference",
    "ConferenceEntry",
    "ConferencingSystem",
    "DocumentProcessor",
    "AgendaPoint",
    "BoardItem",
    "MeetingRoom",
    "Memo",
    "MessageSystem",
    "Rule",
    "EditOp",
    "SharedEditor",
    "Case",
    "ParallelSteps",
    "Procedure",
    "ProcedureStep",
    "WorkflowSystem",
]

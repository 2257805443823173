"""Office-procedure workflow (DOMINO workalike).

Paper reference [13] (Kreifelts et al., *Experiences with the DOMINO
office procedure system*): structured procedures route forms between
roles step by step.  The paper's own warning (section 6.1) about systems
"too rigid and procedural" is honoured with *deviations*: a step may be
delegated or skipped with a recorded justification — the human factor.

Quadrant: different time / same place (the classic intra-office case),
and different time / different place when used across sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.base import InboxApp
from repro.environment.registry import (
    Q_DIFFERENT_TIME_DIFFERENT_PLACE,
    Q_DIFFERENT_TIME_SAME_PLACE,
)
from repro.information.interchange import FormatConverter, make_common
from repro.util.errors import ConfigurationError, ModelError, UnknownObjectError
from repro.util.ids import IdFactory


@dataclass(frozen=True)
class ProcedureStep:
    """One step: a named task performed by a role."""

    name: str
    role: str
    #: slots this step must fill in before completing
    fills: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParallelSteps:
    """An AND-split: all branch steps run concurrently, then join.

    DOMINO-style procedures routinely fork — e.g. legal review and
    technical review of the same proposal proceed in parallel and the
    case advances only when both complete.
    """

    branches: tuple[ProcedureStep, ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ConfigurationError("a parallel block needs at least two branches")
        names = [step.name for step in self.branches]
        if len(set(names)) != len(names):
            raise ConfigurationError("parallel branch names must be distinct")


@dataclass
class Procedure:
    """An office procedure definition.

    ``steps`` is a sequence of :class:`ProcedureStep` (sequential) and
    :class:`ParallelSteps` (AND-split/join) elements.
    """

    name: str
    steps: "list[ProcedureStep | ParallelSteps]"

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigurationError("a procedure needs at least one step")


@dataclass
class CaseRecord:
    """One step's completion record in a running case."""

    step: str
    performed_by: str
    time: float
    deviation: str = ""


@dataclass
class Case:
    """A running instance of a procedure carrying a form."""

    case_id: str
    procedure: str
    form: dict[str, Any]
    step_index: int = 0
    completed: bool = False
    records: list[CaseRecord] = field(default_factory=list)
    #: branch names already completed in the current parallel block
    completed_branches: set[str] = field(default_factory=set)


class WorkflowSystem(InboxApp):
    """A DOMINO-style procedure system."""

    app_name = "workflow"
    quadrants = [Q_DIFFERENT_TIME_SAME_PLACE, Q_DIFFERENT_TIME_DIFFERENT_PLACE]

    def __init__(self, instance_name: str = "") -> None:
        super().__init__(instance_name)
        self._procedures: dict[str, Procedure] = {}
        #: person -> roles they can perform
        self._performers: dict[str, set[str]] = {}
        self._cases: dict[str, Case] = {}
        self._ids = IdFactory()
        self.deviations = 0

    def converter(self) -> FormatConverter:
        """Native format ``form``: form_name + slots (structured only)."""
        return FormatConverter(
            "form",
            to_common=lambda d: make_common(
                "form", d.get("form_name", ""), "", **d.get("slots", {})
            ),
            from_common=lambda c: {
                "form_name": c["title"],
                "slots": dict(c["attributes"]),
            },
            fidelity=0.9,  # free text does not survive into a form
        )

    # -- definitions -----------------------------------------------------------
    def define_procedure(self, procedure: Procedure) -> None:
        """Install a procedure definition."""
        if procedure.name in self._procedures:
            raise ConfigurationError(f"procedure {procedure.name!r} already defined")
        self._procedures[procedure.name] = procedure

    def grant_role(self, person_id: str, role: str) -> None:
        """Let a person perform steps of *role*."""
        self._performers.setdefault(person_id, set()).add(role)

    # -- cases ---------------------------------------------------------------------
    def start_case(self, procedure_name: str, form: dict[str, Any]) -> Case:
        """Instantiate a procedure with an initial form."""
        if procedure_name not in self._procedures:
            raise UnknownObjectError(f"unknown procedure {procedure_name!r}")
        case = Case(self._ids.next("case"), procedure_name, dict(form))
        self._cases[case.case_id] = case
        return case

    def case(self, case_id: str) -> Case:
        """Look up a running case."""
        try:
            return self._cases[case_id]
        except KeyError:
            raise UnknownObjectError(f"unknown case {case_id!r}") from None

    def pending_steps(self, case_id: str) -> list[ProcedureStep]:
        """Every step the case is currently waiting on.

        One element for a sequential step; the unfinished branches for a
        parallel block.
        """
        case = self.case(case_id)
        if case.completed:
            raise ModelError(f"case {case_id} is already completed")
        element = self._procedures[case.procedure].steps[case.step_index]
        if isinstance(element, ParallelSteps):
            return [
                step
                for step in element.branches
                if step.name not in case.completed_branches
            ]
        return [element]

    def current_step(self, case_id: str) -> ProcedureStep:
        """The single step a case waits on (ambiguous in a parallel block)."""
        pending = self.pending_steps(case_id)
        if len(pending) > 1:
            raise ModelError(
                f"case {case_id} waits on {len(pending)} parallel steps; "
                "name one explicitly"
            )
        return pending[0]

    def work_list(self, person_id: str) -> list[Case]:
        """Cases with a pending step this person may perform."""
        roles = self._performers.get(person_id, set())
        result = []
        for case in self._cases.values():
            if case.completed:
                continue
            if any(step.role in roles for step in self.pending_steps(case.case_id)):
                result.append(case)
        return result

    def _select_step(self, case_id: str, person_id: str, step_name: str | None) -> ProcedureStep:
        pending = self.pending_steps(case_id)
        if step_name is not None:
            for step in pending:
                if step.name == step_name:
                    return step
            raise ModelError(f"step {step_name!r} is not pending in case {case_id}")
        roles = self._performers.get(person_id, set())
        eligible = [step for step in pending if step.role in roles]
        if len(pending) == 1:
            return pending[0]
        if len(eligible) == 1:
            return eligible[0]
        raise ModelError(
            f"case {case_id} has {len(pending)} pending parallel steps; "
            "pass step_name to pick one"
        )

    def perform_step(
        self,
        case_id: str,
        person_id: str,
        fills: dict[str, Any] | None = None,
        time: float = 0.0,
        step_name: str | None = None,
    ) -> Case:
        """Complete a pending step, filling its slots; advances the case.

        In a parallel block, *step_name* selects the branch (optional when
        the performer's roles make it unambiguous); the case advances only
        when every branch has completed (AND-join).
        """
        case = self.case(case_id)
        step = self._select_step(case_id, person_id, step_name)
        if step.role not in self._performers.get(person_id, set()):
            raise ModelError(f"{person_id!r} cannot perform role {step.role!r}")
        provided = dict(fills or {})
        missing = [slot for slot in step.fills if slot not in provided]
        if missing:
            raise ModelError(f"step {step.name!r} must fill slots {missing}")
        case.form.update(provided)
        case.records.append(CaseRecord(step.name, person_id, time))
        self._complete_step(case, step)
        return case

    def skip_step(
        self,
        case_id: str,
        person_id: str,
        justification: str,
        time: float = 0.0,
        step_name: str | None = None,
    ) -> Case:
        """Deviation: skip a pending step with a recorded justification."""
        if not justification:
            raise ModelError("a deviation needs a justification")
        case = self.case(case_id)
        step = self._select_step(case_id, person_id, step_name)
        case.records.append(
            CaseRecord(step.name, person_id, time, deviation=f"skipped: {justification}")
        )
        self.deviations += 1
        self._complete_step(case, step)
        return case

    def _complete_step(self, case: Case, step: ProcedureStep) -> None:
        element = self._procedures[case.procedure].steps[case.step_index]
        if isinstance(element, ParallelSteps):
            case.completed_branches.add(step.name)
            if case.completed_branches >= {s.name for s in element.branches}:
                case.completed_branches = set()
                self._advance(case)
        else:
            self._advance(case)

    def delegate_step(
        self, case_id: str, from_person: str, to_person: str, time: float = 0.0
    ) -> None:
        """Deviation: let someone without the role perform this one step."""
        step = self.current_step(case_id)
        self._performers.setdefault(to_person, set())
        if step.role in self._performers[to_person]:
            return  # already able; not a deviation
        self._performers[to_person].add(step.role)
        self.case(case_id).records.append(
            CaseRecord(step.name, from_person, time, deviation=f"delegated to {to_person}")
        )
        self.deviations += 1

    def _advance(self, case: Case) -> None:
        case.step_index += 1
        if case.step_index >= len(self._procedures[case.procedure].steps):
            case.completed = True

    # -- environment integration ---------------------------------------------------
    def on_receive(self, person_id: str, document: dict[str, Any], info: dict[str, Any]) -> None:
        """A form arriving via the environment starts (or feeds) a case.

        Every form is kept in the person's inbox; one that names a known
        procedure also starts a case.
        """
        super().on_receive(person_id, document, info)
        form_name = document.get("form_name", "")
        if form_name in self._procedures:
            self.start_case(form_name, document.get("slots", {}))

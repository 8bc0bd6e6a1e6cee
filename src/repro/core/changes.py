"""Structural change operations on private processes (Sect. 4).

The paper restricts itself to structural changes — "the insertion or
deletion of process activities" — and builds complex changes from basic
ones.  Operations here are *functional*: ``apply`` returns a rewritten
process, the input process is never mutated, so version histories stay
intact (a prerequisite for computing ``A \\ A'`` between versions).
The rewrite rebuilds only the path to the changed activity
(:func:`~repro.bpel.model.rewrite`), shares every untouched subtree
with the old version and deep-copies only what the change inserts, so
applying a change never deep-clones the process; no transform mutates
a node it did not build.

Activities are addressed by their ``name``; every operation raises
:class:`~repro.errors.UnknownBlockError` when the target is missing so
typos fail loudly rather than silently producing no-op changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bpel.model import (
    Activity,
    Case,
    Empty,
    OnMessage,
    Pick,
    ProcessModel,
    Receive,
    Sequence,
    Switch,
    While,
    rewrite,
)
from repro.errors import ChangeError, UnknownBlockError


class ChangeOperation:
    """Base class of all change operations (Sect. 4's δ)."""

    def apply(self, process: ProcessModel) -> ProcessModel:
        """Return a new process with this change applied."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description."""
        return type(self).__name__


def _apply_rewrite(
    process: ProcessModel, target: str, transform
) -> ProcessModel:
    """A new process: *process* with the activity named *target*
    rewritten by *transform*.

    :func:`~repro.bpel.model.rewrite` rebuilds only the nodes on the
    path to the target and shares every untouched subtree with the old
    version, so *transform* must never mutate the node it receives (it
    returns a new node, built with :func:`dataclasses.replace` or from
    clones); the old version stays intact without a deep clone, and a
    change costs the tree walk plus its own depth, not a copy of the
    tree.
    """
    hit = False

    def visit(activity: Activity):
        nonlocal hit
        if activity.name == target:
            hit = True
            return transform(activity)
        return activity

    new_root = rewrite(process.activity, visit)
    if not hit:
        raise UnknownBlockError(
            f"process {process.name!r} has no activity named {target!r}"
        )
    if new_root is None:
        raise ChangeError("change deleted the process root")
    return replace(process, activity=new_root)


@dataclass
class InsertActivity(ChangeOperation):
    """Insert *activity* into the sequence named *sequence_name*.

    Args:
        sequence_name: target :class:`Sequence`.
        index: insertion position (supports negative indexes; ``None``
            appends).
        activity: the activity to insert.
    """

    sequence_name: str
    activity: Activity
    index: int | None = None

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, Sequence):
                raise ChangeError(
                    f"activity {self.sequence_name!r} is a {node.kind}, "
                    f"not a Sequence"
                )
            position = (
                len(node.activities) if self.index is None else self.index
            )
            activities = list(node.activities)
            activities.insert(position, self.activity.clone())
            return replace(node, activities=activities)

        return _apply_rewrite(process, self.sequence_name, transform)

    def describe(self) -> str:
        return (
            f"insert {self.activity} into sequence "
            f"{self.sequence_name!r}"
        )


@dataclass
class DeleteActivity(ChangeOperation):
    """Delete the activity named *name* (branch containers collapse)."""

    name: str

    def apply(self, process: ProcessModel) -> ProcessModel:
        return _apply_rewrite(process, self.name, lambda node: None)

    def describe(self) -> str:
        return f"delete activity {self.name!r}"


@dataclass
class ReplaceActivity(ChangeOperation):
    """Replace the activity named *name* with *replacement*."""

    name: str
    replacement: Activity

    def apply(self, process: ProcessModel) -> ProcessModel:
        return _apply_rewrite(
            process, self.name, lambda node: self.replacement.clone()
        )

    def describe(self) -> str:
        return f"replace activity {self.name!r} with {self.replacement}"


@dataclass
class AddSwitchBranch(ChangeOperation):
    """Add a :class:`Case` to the switch named *switch_name*.

    Adding an alternatively *sent* first message this way is the paper's
    canonical variant additive change (Fig. 11's cancel branch).
    """

    switch_name: str
    case: Case

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, Switch):
                raise ChangeError(
                    f"activity {self.switch_name!r} is a {node.kind}, "
                    f"not a Switch"
                )
            return replace(node, cases=node.cases + [self.case.clone()])

        return _apply_rewrite(process, self.switch_name, transform)

    def describe(self) -> str:
        return f"add branch to switch {self.switch_name!r}"


@dataclass
class RemoveSwitchBranch(ChangeOperation):
    """Remove the case at *index* from the switch named *switch_name*."""

    switch_name: str
    index: int

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, Switch):
                raise ChangeError(
                    f"activity {self.switch_name!r} is a {node.kind}, "
                    f"not a Switch"
                )
            cases = list(node.cases)
            try:
                cases.pop(self.index)
            except IndexError as error:
                raise ChangeError(
                    f"switch {self.switch_name!r} has no case index "
                    f"{self.index}"
                ) from error
            node = replace(node, cases=cases)
            if not node.branches():
                raise ChangeError(
                    f"removing the branch would leave switch "
                    f"{self.switch_name!r} empty"
                )
            return node

        return _apply_rewrite(process, self.switch_name, transform)

    def describe(self) -> str:
        return (
            f"remove branch {self.index} from switch {self.switch_name!r}"
        )


@dataclass
class AddPickBranch(ChangeOperation):
    """Add an :class:`OnMessage` branch to the pick named *pick_name*.

    Adding an alternatively *received* message this way is the paper's
    canonical invariant additive change (Fig. 9's ``order_2``).
    """

    pick_name: str
    branch: OnMessage

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, Pick):
                raise ChangeError(
                    f"activity {self.pick_name!r} is a {node.kind}, "
                    f"not a Pick"
                )
            return replace(
                node, branches=node.branches + [self.branch.clone()]
            )

        return _apply_rewrite(process, self.pick_name, transform)

    def describe(self) -> str:
        return (
            f"add onMessage {self.branch.operation!r} to pick "
            f"{self.pick_name!r}"
        )


@dataclass
class RemovePickBranch(ChangeOperation):
    """Remove the branch receiving *operation* from pick *pick_name*."""

    pick_name: str
    operation: str

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, Pick):
                raise ChangeError(
                    f"activity {self.pick_name!r} is a {node.kind}, "
                    f"not a Pick"
                )
            remaining = [
                branch
                for branch in node.branches
                if branch.operation != self.operation
            ]
            if len(remaining) == len(node.branches):
                raise ChangeError(
                    f"pick {self.pick_name!r} has no branch receiving "
                    f"{self.operation!r}"
                )
            if not remaining:
                raise ChangeError(
                    f"removing the branch would leave pick "
                    f"{self.pick_name!r} empty"
                )
            return replace(node, branches=remaining)

        return _apply_rewrite(process, self.pick_name, transform)

    def describe(self) -> str:
        return (
            f"remove onMessage {self.operation!r} from pick "
            f"{self.pick_name!r}"
        )


@dataclass
class ReceiveToPick(ChangeOperation):
    """Turn a :class:`Receive` into a :class:`Pick` with alternatives.

    This is exactly the adaptation the paper derives for the buyer in
    Sect. 5.2 step "ad 3": "the receive delivery activity … has to be
    changed to a pick activity allowing to receive either the delivery
    message or the cancel message" (Fig. 14).

    Args:
        receive_name: the receive activity to generalize.
        alternatives: additional branches; the original receive becomes
            the first branch (with an empty body, continuing the normal
            flow).
    """

    receive_name: str
    alternatives: list[OnMessage] = field(default_factory=list)
    pick_name: str = ""

    def apply(self, process: ProcessModel) -> ProcessModel:
        if not self.alternatives:
            raise ChangeError("ReceiveToPick requires alternatives")

        def transform(node: Activity) -> Activity:
            if not isinstance(node, Receive):
                raise ChangeError(
                    f"activity {self.receive_name!r} is a {node.kind}, "
                    f"not a Receive"
                )
            original = OnMessage(
                partner=node.partner,
                operation=node.operation,
                name=node.name,
                activity=Empty(),
            )
            return Pick(
                name=self.pick_name or f"{node.name} alternatives",
                branches=[original]
                + [branch.clone() for branch in self.alternatives],
            )

        return _apply_rewrite(process, self.receive_name, transform)

    def describe(self) -> str:
        operations = ", ".join(
            branch.operation for branch in self.alternatives
        )
        return (
            f"change receive {self.receive_name!r} to a pick also "
            f"accepting {operations}"
        )


@dataclass
class RemoveLoop(ChangeOperation):
    """Replace the while named *while_name* by its body (one iteration).

    A building block of the paper's subtractive scenario (Sect. 5.3:
    "the loop has to be removed and additional activities have to be
    added to enumerate the two options of parcel tracking").
    """

    while_name: str

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, While):
                raise ChangeError(
                    f"activity {self.while_name!r} is a {node.kind}, "
                    f"not a While"
                )
            return node.body

        return _apply_rewrite(process, self.while_name, transform)

    def describe(self) -> str:
        return f"remove loop {self.while_name!r} (keep one iteration)"


@dataclass
class UnfoldLoop(ChangeOperation):
    """Unfold the while named *while_name* into an explicit choice of
    0..*iterations* body executions (Fig. 18's shape for k = 1).

    The result is a switch whose case ``i`` runs ``i`` copies of the
    body — the bounded enumeration the paper's subtractive propagation
    asks for.
    """

    while_name: str
    iterations: int = 1

    def apply(self, process: ProcessModel) -> ProcessModel:
        if self.iterations < 1:
            raise ChangeError("UnfoldLoop requires iterations >= 1")

        def transform(node: Activity) -> Activity:
            if not isinstance(node, While):
                raise ChangeError(
                    f"activity {self.while_name!r} is a {node.kind}, "
                    f"not a While"
                )
            cases = []
            for count in range(1, self.iterations + 1):
                copies = [node.body.clone() for _ in range(count)]
                cases.append(
                    Case(
                        condition=f"iterate {count}",
                        activity=Sequence(
                            name=f"{node.name} x{count}",
                            activities=copies,
                        ),
                    )
                )
            return Switch(
                name=f"{node.name} unfolded",
                cases=cases,
                otherwise=Empty(name=f"{node.name} skipped"),
            )

        return _apply_rewrite(process, self.while_name, transform)

    def describe(self) -> str:
        return (
            f"unfold loop {self.while_name!r} into 0..{self.iterations} "
            f"iterations"
        )


@dataclass
class BoundLoop(ChangeOperation):
    """Bound a ``while(true)``-style loop to at most *max_iterations*
    passes, preserving the loop's terminating branches.

    The paper's subtractive scenario restructures exactly this way: the
    accounting department constrains unlimited parcel tracking "to at
    most one parcel tracking request … both pathes then finish with an
    exchange of the terminate messages" (Fig. 15), and the propagated
    buyer process (Fig. 18) has the same shape.

    The loop body must be a :class:`Switch` or :class:`Pick`; branches
    containing a :class:`~repro.bpel.model.Terminate` are *exit*
    branches, the rest are *continue* branches.  Level 0 keeps only the
    exit branches; level ``k`` extends each continue branch with level
    ``k-1`` — so every run performs ≤ *max_iterations* continue rounds
    and always finishes through an exit branch.
    """

    while_name: str
    max_iterations: int = 1

    def apply(self, process: ProcessModel) -> ProcessModel:
        if self.max_iterations < 0:
            raise ChangeError("BoundLoop requires max_iterations >= 0")

        def build_level(body: Activity, level: int) -> Activity:
            if isinstance(body, Switch):
                exit_cases = [
                    case.clone()
                    for case in body.cases
                    if _terminates(case.activity)
                ]
                continue_cases = [
                    case for case in body.cases
                    if not _terminates(case.activity)
                ]
                otherwise = body.otherwise
                new_cases = list(exit_cases)
                new_otherwise: Activity | None = None
                if otherwise is not None and _terminates(otherwise):
                    new_otherwise = otherwise.clone()
                if level > 0:
                    deeper = build_level(body, level - 1)
                    for case in continue_cases:
                        new_cases.append(
                            Case(
                                condition=case.condition,
                                name=case.name,
                                activity=Sequence(
                                    activities=[
                                        case.activity.clone(), deeper
                                    ],
                                ),
                            )
                        )
                    if otherwise is not None and not _terminates(otherwise):
                        new_otherwise = Sequence(
                            activities=[
                                otherwise.clone(),
                                build_level(body, level - 1),
                            ],
                        )
                if not new_cases and new_otherwise is None:
                    raise ChangeError(
                        f"loop {self.while_name!r} has no terminating "
                        f"branch to bound it with"
                    )
                return Switch(
                    name=body.name,
                    cases=new_cases,
                    otherwise=new_otherwise,
                )
            if isinstance(body, Pick):
                exit_branches = [
                    branch.clone()
                    for branch in body.branches
                    if _terminates(branch.activity)
                ]
                continue_branches = [
                    branch for branch in body.branches
                    if not _terminates(branch.activity)
                ]
                new_branches = list(exit_branches)
                if level > 0:
                    deeper = build_level(body, level - 1)
                    for branch in continue_branches:
                        new_branches.append(
                            OnMessage(
                                partner=branch.partner,
                                operation=branch.operation,
                                name=branch.name,
                                activity=Sequence(
                                    activities=[
                                        branch.activity.clone(), deeper
                                    ],
                                ),
                            )
                        )
                if not new_branches:
                    raise ChangeError(
                        f"loop {self.while_name!r} has no terminating "
                        f"branch to bound it with"
                    )
                return Pick(name=body.name, branches=new_branches)
            raise ChangeError(
                f"BoundLoop requires the loop body to be a Switch or "
                f"Pick, found {body.kind}"
            )

        def transform(node: Activity) -> Activity:
            if not isinstance(node, While):
                raise ChangeError(
                    f"activity {self.while_name!r} is a {node.kind}, "
                    f"not a While"
                )
            return build_level(node.body, self.max_iterations)

        return _apply_rewrite(process, self.while_name, transform)

    def describe(self) -> str:
        return (
            f"bound loop {self.while_name!r} to at most "
            f"{self.max_iterations} iteration(s)"
        )


def _terminates(activity: Activity) -> bool:
    """True if every completion of *activity* ends the process.

    Conservative syntactic check: the subtree contains a Terminate on
    its final control path (we simply check for presence, which is
    exact for the branch shapes the bounding transformation handles).
    """
    from repro.bpel.model import Terminate as _Terminate

    return any(
        isinstance(descendant, _Terminate)
        for descendant in activity.walk()
    )


@dataclass
class ChangeLoopCondition(ChangeOperation):
    """Replace the condition of the while named *while_name*."""

    while_name: str
    condition: str

    def apply(self, process: ProcessModel) -> ProcessModel:
        def transform(node: Activity) -> Activity:
            if not isinstance(node, While):
                raise ChangeError(
                    f"activity {self.while_name!r} is a {node.kind}, "
                    f"not a While"
                )
            return replace(node, condition=self.condition)

        return _apply_rewrite(process, self.while_name, transform)

    def describe(self) -> str:
        return (
            f"set condition of loop {self.while_name!r} to "
            f"{self.condition!r}"
        )


@dataclass
class MoveActivity(ChangeOperation):
    """Shift an activity to another position (the paper's framework
    "also considers other operations (e.g., to shift process
    activities)", Sect. 4).

    The activity named *name* is removed from its current position and
    inserted into the sequence named *target_sequence* at *index*
    (``None`` appends).  Moving an activity into its own subtree is
    rejected.
    """

    name: str
    target_sequence: str
    index: int | None = None

    def apply(self, process: ProcessModel) -> ProcessModel:
        moved = process.find(self.name)
        if moved is None:
            raise UnknownBlockError(
                f"process {process.name!r} has no activity named "
                f"{self.name!r}"
            )
        target = process.find(self.target_sequence)
        if target is None:
            raise UnknownBlockError(
                f"process {process.name!r} has no activity named "
                f"{self.target_sequence!r}"
            )
        if moved.find(self.target_sequence) is not None:
            raise ChangeError(
                f"cannot move {self.name!r} into its own subtree "
                f"{self.target_sequence!r}"
            )
        without = DeleteActivity(self.name).apply(process)
        return InsertActivity(
            self.target_sequence, moved, self.index
        ).apply(without)

    def describe(self) -> str:
        position = "end" if self.index is None else f"index {self.index}"
        return (
            f"move activity {self.name!r} into sequence "
            f"{self.target_sequence!r} at {position}"
        )


@dataclass
class ChangeSet(ChangeOperation):
    """A complex change: basic operations applied in order (Sect. 4:
    "more complex changes can be defined" from the basic ones)."""

    operations: list[ChangeOperation] = field(default_factory=list)

    def apply(self, process: ProcessModel) -> ProcessModel:
        current = process
        for operation in self.operations:
            current = operation.apply(current)
        return current

    def describe(self) -> str:
        return "; ".join(
            operation.describe() for operation in self.operations
        )

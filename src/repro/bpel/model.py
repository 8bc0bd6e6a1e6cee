"""The block-structured process model (BPEL subset, Sect. 2).

Activities form a strictly nested tree, mirroring "the strict nesting of
a BPEL document" the paper's mapping relies on (Sect. 3.3).  The model is
*immutable by convention*: change operations (:mod:`repro.core.changes`)
rewrite trees functionally via :func:`rewrite`, which shares every
untouched subtree between the old and the new version, so no code may
mutate a node after its tree was built — a private process version
history is then kept without copying whole trees.

Communication activities name the *partner* (the other party) and the
*operation*; the direction follows from the activity type.  For a process
executed by party ``P``:

* ``Receive(partner, op)``   — message ``partner#P#op`` arrives,
* ``Invoke(partner, op)``    — message ``P#partner#op`` is sent; with
  ``synchronous=True`` the response ``partner#P#op`` follows immediately
  (the paper: a synchronous operation "represent[s] two messages"),
* ``Reply(partner, op)``     — message ``P#partner#op`` is sent.

Structured activities carry the names that become *block names* in the
mapping table: ``Sequence:buyer process``, ``While:tracking``,
``Switch:termination?`` (Table 1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ProcessModelError


def _check_name_part(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ProcessModelError(f"{what} must be a non-empty string")


class Activity:
    """Base class of all process activities.

    Attributes:
        name: optional human-readable name; structured activities use it
            to form their block name.
    """

    #: Label used in block names ("Sequence", "While", ...).
    kind: str = "Activity"
    #: True for structured activities that appear in the mapping table.
    is_block: bool = False

    name: str = ""

    def children(self) -> list["Activity"]:
        """Return direct child activities (empty for basic activities)."""
        return []

    def block_name(self) -> str:
        """Return the mapping-table block name, e.g. ``While:tracking``."""
        if self.name:
            return f"{self.kind}:{self.name}"
        return self.kind

    def walk(self) -> Iterator["Activity"]:
        """Depth-first pre-order traversal of this subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def clone(self) -> "Activity":
        """Return a deep copy of this subtree."""
        return copy.deepcopy(self)

    def find(self, name: str) -> "Activity | None":
        """Return the first descendant (or self) with the given *name*."""
        for activity in self.walk():
            if activity.name == name:
                return activity
        return None

    def communicates(self) -> bool:
        """True if any descendant exchanges a message."""
        return any(
            isinstance(activity, (Receive, Invoke, Reply))
            for activity in self.walk()
        )

    def __str__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"{self.kind}{label}"


# ---------------------------------------------------------------------------
# Basic activities
# ---------------------------------------------------------------------------


@dataclass
class Receive(Activity):
    """Wait for message ``partner#self#operation`` (BPEL ``receive``)."""

    partner: str
    operation: str
    name: str = ""
    kind = "Receive"

    def __post_init__(self):
        _check_name_part(self.partner, "Receive.partner")
        _check_name_part(self.operation, "Receive.operation")


@dataclass
class Invoke(Activity):
    """Send message ``self#partner#operation`` (BPEL ``invoke``).

    With ``synchronous=True`` the invocation immediately awaits the
    response message ``partner#self#operation`` — the paper's
    ``getStatusL`` operation is the worked example (Fig. 2/7).
    """

    partner: str
    operation: str
    synchronous: bool = False
    name: str = ""
    kind = "Invoke"

    def __post_init__(self):
        _check_name_part(self.partner, "Invoke.partner")
        _check_name_part(self.operation, "Invoke.operation")


@dataclass
class Reply(Activity):
    """Answer a previously received request (BPEL ``reply``); emits
    ``self#partner#operation``."""

    partner: str
    operation: str
    name: str = ""
    kind = "Reply"

    def __post_init__(self):
        _check_name_part(self.partner, "Reply.partner")
        _check_name_part(self.operation, "Reply.operation")


@dataclass
class Assign(Activity):
    """Internal data mapping (BPEL ``assign``); no message exchanged."""

    name: str = ""
    kind = "Assign"


@dataclass
class Empty(Activity):
    """No-op activity (BPEL ``empty``)."""

    name: str = ""
    kind = "Empty"


@dataclass
class Opaque(Activity):
    """Internal work invisible to partners (private business logic)."""

    name: str = ""
    kind = "Opaque"


@dataclass
class Terminate(Activity):
    """End the whole process instance (BPEL ``terminate``)."""

    name: str = ""
    kind = "Terminate"


# ---------------------------------------------------------------------------
# Structured activities
# ---------------------------------------------------------------------------


@dataclass
class Sequence(Activity):
    """Sequential composition (BPEL ``sequence``)."""

    activities: list[Activity] = field(default_factory=list)
    name: str = ""
    kind = "Sequence"
    is_block = True

    def children(self) -> list[Activity]:
        return list(self.activities)


@dataclass
class Flow(Activity):
    """Parallel composition (BPEL ``flow``); branches interleave."""

    activities: list[Activity] = field(default_factory=list)
    name: str = ""
    kind = "Flow"
    is_block = True

    def children(self) -> list[Activity]:
        return list(self.activities)


@dataclass
class While(Activity):
    """Iteration (BPEL ``while``).

    ``condition`` is an opaque text; the literal ``"1 = 1"`` (the paper's
    non-terminating parcel-tracking loop) — or ``"true"`` — means the
    loop can only be left through a :class:`Terminate` inside its body.
    """

    body: Activity = field(default_factory=Empty)
    condition: str = "true"
    name: str = ""
    kind = "While"
    is_block = True

    TRUE_CONDITIONS = frozenset({"1 = 1", "1=1", "true", "TRUE"})

    def children(self) -> list[Activity]:
        return [self.body]

    @property
    def never_exits(self) -> bool:
        """True for while(true)-style loops without a normal exit."""
        return self.condition.strip() in self.TRUE_CONDITIONS


@dataclass
class Case(Activity):
    """One conditional branch of a :class:`Switch`.

    The branch body is typically a named :class:`Sequence` so the branch
    appears in the mapping table (``Sequence:cond continue``, Table 1);
    ``Case`` itself is transparent there.
    """

    condition: str = "true"
    activity: Activity = field(default_factory=Empty)
    name: str = ""
    kind = "Case"

    def children(self) -> list[Activity]:
        return [self.activity]


@dataclass
class Switch(Activity):
    """Internal (condition-based) choice (BPEL ``switch``).

    The process decides privately which branch runs; trading partners
    must therefore support *every* branch — this is the source of the
    paper's conjunctive mandatory annotations (Fig. 6's
    ``terminateOp AND get_statusOp``).
    """

    cases: list[Case] = field(default_factory=list)
    otherwise: Activity | None = None
    name: str = ""
    kind = "Switch"
    is_block = True

    def children(self) -> list[Activity]:
        result: list[Activity] = list(self.cases)
        if self.otherwise is not None:
            result.append(self.otherwise)
        return result

    def branches(self) -> list[Activity]:
        """Return the branch bodies (case activities + otherwise)."""
        result = [case.activity for case in self.cases]
        if self.otherwise is not None:
            result.append(self.otherwise)
        return result


@dataclass
class OnMessage(Activity):
    """One event branch of a :class:`Pick`: receive, then run the body."""

    partner: str = ""
    operation: str = ""
    activity: Activity = field(default_factory=Empty)
    name: str = ""
    kind = "OnMessage"

    def __post_init__(self):
        _check_name_part(self.partner, "OnMessage.partner")
        _check_name_part(self.operation, "OnMessage.operation")

    def children(self) -> list[Activity]:
        return [self.activity]


@dataclass
class Pick(Activity):
    """External (event-driven) choice (BPEL ``pick``).

    The *environment* decides which message arrives first; the offered
    alternatives are optional for partners, so picks contribute no
    mandatory annotation (this is what makes adding a received message —
    Fig. 9's ``order_2`` — an *invariant* change, Sect. 5.1).
    """

    branches: list[OnMessage] = field(default_factory=list)
    name: str = ""
    kind = "Pick"
    is_block = True

    def children(self) -> list[Activity]:
        return list(self.branches)


@dataclass
class Scope(Activity):
    """A named nesting wrapper (BPEL ``scope``)."""

    activity: Activity = field(default_factory=Empty)
    name: str = ""
    kind = "Scope"
    is_block = True

    def children(self) -> list[Activity]:
        return [self.activity]


# ---------------------------------------------------------------------------
# Process container
# ---------------------------------------------------------------------------


@dataclass
class PartnerLink:
    """A bilateral interaction declaration (BPEL ``partnerLink``).

    Attributes:
        name: link name (e.g. ``accBuyer``).
        partner: the other party's name.
        operations: operation names exchanged over this link (as listed
            in the paper's port boxes, Figs. 2/3).
    """

    name: str
    partner: str
    operations: list[str] = field(default_factory=list)


@dataclass
class ProcessModel:
    """A private process: the executing party plus the activity tree.

    Attributes:
        name: process name (``accounting``, ``buyer``, …).
        party: the party executing the process; determines message
            direction of communication activities.
        activity: the root activity (usually a named :class:`Sequence`).
        partner_links: declared bilateral interactions.
    """

    name: str
    party: str
    activity: Activity
    partner_links: list[PartnerLink] = field(default_factory=list)

    #: Root block label used by the mapping table (Table 1 row 1).
    ROOT_BLOCK = "BPELProcess"

    def __post_init__(self):
        _check_name_part(self.name, "ProcessModel.name")
        _check_name_part(self.party, "ProcessModel.party")

    def clone(self) -> "ProcessModel":
        """Return a deep copy (change operations rewrite clones)."""
        return copy.deepcopy(self)

    def walk(self) -> Iterator[Activity]:
        """Depth-first traversal of the activity tree."""
        yield from self.activity.walk()

    def find(self, name: str) -> Activity | None:
        """Return the first activity with the given *name*, if any."""
        return self.activity.find(name)

    def partners(self) -> set[str]:
        """Return all partner names referenced by communication
        activities."""
        result: set[str] = set()
        for activity in self.walk():
            if isinstance(activity, (Receive, Invoke, Reply)):
                result.add(activity.partner)
            elif isinstance(activity, OnMessage):
                result.add(activity.partner)
        return result

    def block_paths(self) -> list[tuple[str, ...]]:
        """Return the full nesting paths of all blocks (root first).

        Each path starts with :data:`ROOT_BLOCK` and lists the block
        names of nested structured activities, e.g.
        ``("BPELProcess", "Sequence:buyer process", "While:tracking")``.
        """
        paths: list[tuple[str, ...]] = [(self.ROOT_BLOCK,)]

        def descend(activity: Activity, prefix: tuple[str, ...]) -> None:
            if activity.is_block:
                prefix = prefix + (activity.block_name(),)
                paths.append(prefix)
            for child in activity.children():
                descend(child, prefix)

        descend(self.activity, (self.ROOT_BLOCK,))
        return paths


# ---------------------------------------------------------------------------
# Functional rewriting
# ---------------------------------------------------------------------------


def rewrite(
    activity: Activity,
    transform: Callable[[Activity], Activity | None],
) -> Activity | None:
    """Rebuild *activity* bottom-up, applying *transform* to every node.

    *transform* receives each node after its children were rewritten
    and returns a replacement, the node itself (keep), or ``None``
    (delete).  It must not mutate the node it receives: when nothing
    beneath a node changed, that is the *input's* node.  Deleting the
    child of a single-child construct replaces it with :class:`Empty`;
    deleting a :class:`Case`/:class:`OnMessage` removes the branch.
    Returns the rebuilt tree, or ``None`` if the root itself was
    deleted.

    Subtrees in which nothing changed are shared with the input, not
    copied: only the nodes on a path to a change are rebuilt (shallow
    copies with fresh child lists), so the input is never mutated and
    a local change allocates in proportion to its depth, not to the
    tree.
    """
    return transform(_rebuild_children(activity, transform))


def _rewrite_branches(
    children: list,
    transform: Callable[[Activity], Activity | None],
    kind: type | None = None,
) -> list | None:
    """Rewrite a child list; ``None`` when no child changed, otherwise
    the new list (deleted children dropped)."""
    rebuilt = []
    changed = False
    for child in children:
        result = rewrite(child, transform)
        if result is not child:
            changed = True
            if result is None:
                continue
            if kind is not None and not isinstance(result, kind):
                raise ProcessModelError(
                    f"branches must remain {kind.__name__} nodes"
                )
        rebuilt.append(result)
    return rebuilt if changed else None


def _rebuild_children(
    activity: Activity,
    transform: Callable[[Activity], Activity | None],
) -> Activity:
    if isinstance(activity, (Sequence, Flow)):
        children = _rewrite_branches(activity.activities, transform)
        if children is None:
            return activity
        clone = copy.copy(activity)
        clone.activities = children
        return clone
    if isinstance(activity, Switch):
        cases = _rewrite_branches(activity.cases, transform, Case)
        otherwise = activity.otherwise
        if otherwise is not None:
            otherwise = rewrite(otherwise, transform)
        if cases is None and otherwise is activity.otherwise:
            return activity
        clone = copy.copy(activity)
        clone.cases = list(activity.cases) if cases is None else cases
        clone.otherwise = otherwise
        return clone
    if isinstance(activity, Pick):
        branches = _rewrite_branches(activity.branches, transform, OnMessage)
        if branches is None:
            return activity
        clone = copy.copy(activity)
        clone.branches = branches
        return clone
    field_name = _SINGLE_CHILD.get(type(activity))
    if field_name is None:
        return activity
    child = getattr(activity, field_name)
    result = rewrite(child, transform)
    if result is child:
        return activity
    clone = copy.copy(activity)
    setattr(clone, field_name, Empty() if result is None else result)
    return clone


#: The child field of each single-child construct.
_SINGLE_CHILD = {
    While: "body",
    Case: "activity",
    OnMessage: "activity",
    Scope: "activity",
}

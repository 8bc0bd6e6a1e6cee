"""Unit tests for the change operations (Sect. 4)."""

import pytest

from repro.bpel.model import (
    Case,
    Empty,
    Invoke,
    OnMessage,
    Pick,
    ProcessModel,
    Receive,
    Sequence,
    Switch,
    Terminate,
    While,
)
from repro.core.changes import (
    AddPickBranch,
    AddSwitchBranch,
    BoundLoop,
    ChangeLoopCondition,
    ChangeSet,
    DeleteActivity,
    InsertActivity,
    ReceiveToPick,
    RemoveLoop,
    RemovePickBranch,
    RemoveSwitchBranch,
    ReplaceActivity,
    UnfoldLoop,
)
from repro.errors import ChangeError, UnknownBlockError


def demo_process():
    return ProcessModel(
        name="demo",
        party="P",
        activity=Sequence(
            name="main",
            activities=[
                Invoke(partner="Q", operation="a", name="send-a"),
                Receive(partner="Q", operation="b", name="recv-b"),
                Switch(
                    name="choice",
                    cases=[
                        Case(
                            name="c1",
                            condition="x",
                            activity=Invoke(
                                partner="Q", operation="c", name="send-c"
                            ),
                        ),
                    ],
                    otherwise=Empty(name="skip"),
                ),
                Pick(
                    name="gate",
                    branches=[
                        OnMessage(
                            partner="Q",
                            operation="d",
                            name="on-d",
                            activity=Empty(),
                        ),
                    ],
                ),
                While(
                    name="loop",
                    condition="1 = 1",
                    body=Switch(
                        name="loop choice",
                        cases=[
                            Case(
                                condition="go",
                                activity=Invoke(
                                    partner="Q",
                                    operation="ping",
                                    name="ping",
                                ),
                            ),
                        ],
                        otherwise=Sequence(
                            name="loop exit",
                            activities=[
                                Invoke(
                                    partner="Q",
                                    operation="bye",
                                    name="bye",
                                ),
                                Terminate(),
                            ],
                        ),
                    ),
                ),
            ],
        ),
    )


class TestFunctionalSemantics:
    def test_original_untouched(self):
        process = demo_process()
        DeleteActivity("send-a").apply(process)
        assert process.find("send-a") is not None

    def test_unknown_target_raises(self):
        with pytest.raises(UnknownBlockError):
            DeleteActivity("nope").apply(demo_process())

    def test_describe_non_empty(self):
        operations = [
            InsertActivity("main", Empty()),
            DeleteActivity("send-a"),
            ReplaceActivity("send-a", Empty()),
            AddSwitchBranch("choice", Case()),
            RemoveSwitchBranch("choice", 0),
            AddPickBranch(
                "gate", OnMessage(partner="Q", operation="z")
            ),
            RemovePickBranch("gate", "d"),
            ReceiveToPick(
                "recv-b",
                [OnMessage(partner="Q", operation="z")],
            ),
            RemoveLoop("loop"),
            UnfoldLoop("loop"),
            BoundLoop("loop"),
            ChangeLoopCondition("loop", "x < 3"),
        ]
        for operation in operations:
            assert operation.describe()


class TestInsertDelete:
    def test_insert_at_index(self):
        changed = InsertActivity(
            "main", Invoke(partner="Q", operation="new", name="new"), 0
        ).apply(demo_process())
        assert changed.activity.activities[0].name == "new"

    def test_insert_appends_by_default(self):
        changed = InsertActivity(
            "main", Invoke(partner="Q", operation="new", name="new")
        ).apply(demo_process())
        assert changed.activity.activities[-1].name == "new"

    def test_insert_requires_sequence(self):
        with pytest.raises(ChangeError, match="not a Sequence"):
            InsertActivity("choice", Empty()).apply(demo_process())

    def test_delete(self):
        changed = DeleteActivity("send-a").apply(demo_process())
        assert changed.find("send-a") is None

    def test_replace(self):
        changed = ReplaceActivity(
            "send-a", Invoke(partner="Q", operation="a2", name="send-a2")
        ).apply(demo_process())
        assert changed.find("send-a") is None
        assert changed.find("send-a2") is not None


class TestBranches:
    def test_add_switch_branch(self):
        changed = AddSwitchBranch(
            "choice",
            Case(
                name="c2",
                condition="y",
                activity=Invoke(partner="Q", operation="e", name="send-e"),
            ),
        ).apply(demo_process())
        switch = changed.find("choice")
        assert len(switch.cases) == 2

    def test_add_switch_branch_requires_switch(self):
        with pytest.raises(ChangeError, match="not a Switch"):
            AddSwitchBranch("main", Case()).apply(demo_process())

    def test_remove_switch_branch(self):
        changed = RemoveSwitchBranch("choice", 0).apply(demo_process())
        assert len(changed.find("choice").cases) == 0

    def test_remove_switch_branch_bad_index(self):
        with pytest.raises(ChangeError, match="no case index"):
            RemoveSwitchBranch("choice", 5).apply(demo_process())

    def test_cannot_empty_switch(self):
        process = ProcessModel(
            name="t",
            party="P",
            activity=Switch(
                name="only",
                cases=[Case(activity=Empty())],
            ),
        )
        with pytest.raises(ChangeError, match="empty"):
            RemoveSwitchBranch("only", 0).apply(process)

    def test_add_pick_branch(self):
        changed = AddPickBranch(
            "gate",
            OnMessage(partner="Q", operation="d2", name="on-d2"),
        ).apply(demo_process())
        assert len(changed.find("gate").branches) == 2

    def test_remove_pick_branch(self):
        process = AddPickBranch(
            "gate", OnMessage(partner="Q", operation="d2")
        ).apply(demo_process())
        changed = RemovePickBranch("gate", "d").apply(process)
        operations = [
            branch.operation for branch in changed.find("gate").branches
        ]
        assert operations == ["d2"]

    def test_remove_missing_pick_branch(self):
        with pytest.raises(ChangeError, match="no branch"):
            RemovePickBranch("gate", "zzz").apply(demo_process())

    def test_cannot_empty_pick(self):
        with pytest.raises(ChangeError, match="empty"):
            RemovePickBranch("gate", "d").apply(demo_process())


class TestReceiveToPick:
    def test_fig14_shape(self):
        changed = ReceiveToPick(
            "recv-b",
            [
                OnMessage(
                    partner="Q",
                    operation="cancel",
                    name="cancel",
                    activity=Terminate(),
                )
            ],
        ).apply(demo_process())
        pick = changed.find("recv-b alternatives")
        assert isinstance(pick, Pick)
        operations = [branch.operation for branch in pick.branches]
        assert operations == ["b", "cancel"]

    def test_original_branch_keeps_name(self):
        changed = ReceiveToPick(
            "recv-b", [OnMessage(partner="Q", operation="x")]
        ).apply(demo_process())
        pick = changed.find("recv-b alternatives")
        assert pick.branches[0].name == "recv-b"

    def test_requires_alternatives(self):
        with pytest.raises(ChangeError, match="alternatives"):
            ReceiveToPick("recv-b", []).apply(demo_process())

    def test_requires_receive(self):
        with pytest.raises(ChangeError, match="not a Receive"):
            ReceiveToPick(
                "choice", [OnMessage(partner="Q", operation="x")]
            ).apply(demo_process())


class TestLoops:
    def test_remove_loop_keeps_body(self):
        changed = RemoveLoop("loop").apply(demo_process())
        assert changed.find("loop") is None
        assert changed.find("loop choice") is not None

    def test_unfold_loop_structure(self):
        changed = UnfoldLoop("loop", iterations=2).apply(demo_process())
        unfolded = changed.find("loop unfolded")
        assert isinstance(unfolded, Switch)
        assert len(unfolded.cases) == 2
        assert unfolded.otherwise is not None

    def test_unfold_requires_positive_iterations(self):
        with pytest.raises(ChangeError):
            UnfoldLoop("loop", iterations=0).apply(demo_process())

    def test_bound_loop_fig18_shape(self):
        changed = BoundLoop("loop", max_iterations=1).apply(demo_process())
        bounded = changed.find("loop choice")
        assert isinstance(bounded, Switch)
        # One continue case (extended) and the exit as otherwise.
        assert len(bounded.cases) == 1
        assert bounded.otherwise is not None

    def test_bound_loop_zero_keeps_exit_only(self):
        changed = BoundLoop("loop", max_iterations=0).apply(demo_process())
        bounded = changed.find("loop choice")
        assert bounded.cases == []
        assert bounded.otherwise is not None

    def test_bound_loop_requires_terminating_branch(self):
        process = ProcessModel(
            name="t",
            party="P",
            activity=While(
                name="w",
                condition="1 = 1",
                body=Switch(
                    name="s",
                    cases=[
                        Case(
                            activity=Invoke(partner="Q", operation="x")
                        )
                    ],
                ),
            ),
        )
        with pytest.raises(ChangeError, match="terminating"):
            BoundLoop("w", max_iterations=1).apply(process)

    def test_bound_loop_on_pick_body(self, accounting_process):
        changed = BoundLoop(
            "parcel tracking", max_iterations=1
        ).apply(accounting_process)
        assert changed.find("parcel tracking") is None
        pick = changed.find("tracking or termination")
        assert isinstance(pick, Pick)

    def test_change_loop_condition(self):
        changed = ChangeLoopCondition("loop", "count < 5").apply(
            demo_process()
        )
        assert changed.find("loop").condition == "count < 5"
        assert not changed.find("loop").never_exits


class TestChangeSet:
    def test_applies_in_order(self):
        change = ChangeSet(
            [
                DeleteActivity("send-a"),
                InsertActivity(
                    "main",
                    Invoke(partner="Q", operation="a2", name="send-a2"),
                    0,
                ),
            ]
        )
        changed = change.apply(demo_process())
        assert changed.find("send-a") is None
        assert changed.activity.activities[0].name == "send-a2"

    def test_describe_joins(self):
        change = ChangeSet(
            [DeleteActivity("x"), DeleteActivity("y")]
        )
        assert ";" in change.describe()


def _all_kinds():
    """One applicable operation of every :class:`ChangeOperation` kind."""
    from repro.core.changes import MoveActivity

    return [
        InsertActivity(
            "main", Invoke(partner="Q", operation="new", name="send-new"), 1
        ),
        DeleteActivity("send-a"),
        ReplaceActivity(
            "recv-b", Receive(partner="Q", operation="b2", name="recv-b2")
        ),
        AddSwitchBranch(
            "choice",
            Case(condition="y", activity=Invoke(partner="Q", operation="e")),
        ),
        RemoveSwitchBranch("choice", 0),
        AddPickBranch(
            "gate",
            OnMessage(partner="Q", operation="f", activity=Empty()),
        ),
        ChangeSet(
            [
                AddPickBranch(
                    "gate",
                    OnMessage(partner="Q", operation="g", activity=Empty()),
                ),
                RemovePickBranch("gate", "d"),
            ]
        ),
        ReceiveToPick(
            "recv-b",
            alternatives=[
                OnMessage(partner="Q", operation="h", activity=Empty())
            ],
        ),
        RemoveLoop("loop"),
        UnfoldLoop("loop", iterations=2),
        BoundLoop("loop", max_iterations=1),
        ChangeLoopCondition("loop", "n < 3"),
        MoveActivity("recv-b", "main", 0),
    ]


class TestOldVersionImmutable:
    """Applying a change never alters the version it was applied to:
    the old process still equals its pre-change deep copy and still
    compiles to the same public aFSA and mapping, although the new
    version shares every untouched subtree with it."""

    @pytest.mark.parametrize(
        "operation", _all_kinds(), ids=lambda op: type(op).__name__
    )
    def test_apply_leaves_old_version_alone(self, operation):
        import copy

        from repro.afsa.kernel import kernel_of
        from repro.afsa.serialize import kernel_digest
        from repro.bpel.compile import compile_process

        process = demo_process()
        before = copy.deepcopy(process)
        compiled_before = compile_process(copy.deepcopy(process))

        changed = operation.apply(process)

        assert process == before
        assert changed != before
        # Compile a fresh copy: compile_process memoizes per instance,
        # so compiling `process` itself could serve a stale result.
        compiled_after = compile_process(copy.deepcopy(process))
        assert compiled_after.afsa == compiled_before.afsa
        assert kernel_digest(kernel_of(compiled_after.afsa)) == (
            kernel_digest(kernel_of(compiled_before.afsa))
        )
        assert compiled_after.mapping == compiled_before.mapping

    def test_untouched_subtrees_are_shared_not_copied(self):
        process = demo_process()
        changed = InsertActivity(
            "loop exit", Invoke(partner="Q", operation="late")
        ).apply(process)
        # Off the changed path: the same objects.
        for name in ("send-a", "choice", "gate", "ping"):
            assert changed.find(name) is process.find(name)
        # On the path (root → loop → loop choice → loop exit): rebuilt.
        for name in ("main", "loop", "loop choice", "loop exit"):
            assert changed.find(name) is not process.find(name)
        assert process == demo_process()

    def test_every_kind_is_covered(self):
        from repro.core import changes

        kinds = {
            value
            for value in vars(changes).values()
            if isinstance(value, type)
            and issubclass(value, changes.ChangeOperation)
            and value is not changes.ChangeOperation
        }
        covered = {type(operation) for operation in _all_kinds()}
        covered |= {
            type(inner)
            for operation in _all_kinds()
            if isinstance(operation, ChangeSet)
            for inner in operation.operations
        }
        assert kinds <= covered

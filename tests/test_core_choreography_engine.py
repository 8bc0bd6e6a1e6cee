"""Unit tests for the choreography container and the evolution engine."""

import pytest

from repro.core.changes import AddPickBranch, InsertActivity
from repro.core.choreography import Choreography
from repro.core.engine import EvolutionEngine
from repro.bpel.model import Assign, OnMessage
from repro.errors import ChoreographyError
from repro.scenario.procurement import (
    ACCOUNTING,
    BUYER,
    LOGISTICS,
    accounting_private,
    accounting_private_invariant_change,
    accounting_private_subtractive_change,
    accounting_private_variant_change,
    buyer_private,
    logistics_private,
)


@pytest.fixture
def procurement():
    choreography = Choreography("procurement")
    choreography.add_partner(buyer_private())
    choreography.add_partner(accounting_private())
    choreography.add_partner(logistics_private())
    return choreography


class TestChoreography:
    def test_parties(self, procurement):
        assert procurement.parties() == ["A", "B", "L"]

    def test_duplicate_party_rejected(self, procurement):
        with pytest.raises(ChoreographyError, match="already"):
            procurement.add_partner(buyer_private())

    def test_unknown_party_rejected(self, procurement):
        with pytest.raises(ChoreographyError, match="unknown"):
            procurement.public("Z")

    def test_public_cached(self, procurement):
        assert procurement.compiled("B") is procurement.compiled("B")

    def test_replace_private_invalidates_cache(self, procurement):
        before = procurement.compiled("A")
        procurement.replace_private(
            "A", accounting_private_invariant_change()
        )
        assert procurement.compiled("A") is not before

    def test_replace_wrong_party_rejected(self, procurement):
        with pytest.raises(ChoreographyError, match="belongs"):
            procurement.replace_private("A", buyer_private())

    def test_conversation_partners(self, procurement):
        assert procurement.conversation_partners("A") == ["B", "L"]
        assert procurement.conversation_partners("B") == ["A"]
        assert procurement.conversation_partners("L") == ["A"]

    def test_view(self, procurement):
        view = procurement.view(BUYER, on=ACCOUNTING)
        assert all(label.involves(BUYER) for label in view.alphabet)

    def test_bilateral_consistency(self, procurement):
        assert procurement.bilateral_consistent(BUYER, ACCOUNTING)
        assert procurement.bilateral_consistent(ACCOUNTING, LOGISTICS)

    def test_consistency_report(self, procurement):
        report = procurement.check_consistency()
        assert report.consistent
        assert len(report.checks) == 2  # B↔A and A↔L share messages
        assert report.failures() == []

    def test_report_describe(self, procurement):
        description = procurement.check_consistency().describe()
        assert "consistent" in description


class TestEngineInvariantPath:
    def test_local_change_short_circuits(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A",
            InsertActivity(
                "accounting process", Assign(name="audit log"), 0
            ),
        )
        assert not report.public_changed
        assert report.impacts == []
        # Committed: the private process now contains the assign.
        assert procurement.private("A").find("audit log") is not None

    def test_invariant_change_no_propagation(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A", accounting_private_invariant_change()
        )
        assert report.public_changed
        assert not report.requires_propagation
        impact = report.impact_for("B")
        assert impact.classification.propagation == "invariant"

    def test_invariant_change_committed(self, procurement):
        engine = EvolutionEngine(procurement)
        engine.apply_private_change(
            "A", accounting_private_invariant_change()
        )
        assert procurement.private("A").find("order_2") is not None


class TestEngineVariantAdditive:
    def test_report_structure(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A", accounting_private_variant_change(), commit=False
        )
        assert report.requires_propagation
        impact = report.impact_for("B")
        assert impact.classification.propagation == "variant"
        assert impact.propagations
        assert impact.suggestions

    def test_logistics_unaffected(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A", accounting_private_variant_change(), commit=False
        )
        impact = report.impact_for("L")
        assert impact.classification.propagation == "invariant"

    def test_auto_adapt_restores_consistency(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A",
            accounting_private_variant_change(),
            auto_adapt=True,
        )
        impact = report.impact_for("B")
        assert impact.consistent_after_adaptation
        assert impact.adapted_private is not None

    def test_auto_adapt_commit_updates_choreography(self, procurement):
        engine = EvolutionEngine(procurement)
        engine.apply_private_change(
            "A",
            accounting_private_variant_change(),
            auto_adapt=True,
            commit=True,
        )
        # Both sides updated, whole choreography consistent again.
        assert procurement.private("A").find("cancel") is not None
        buyer = procurement.private("B")
        assert buyer.find("delivery alternatives") is not None
        assert procurement.check_consistency().consistent

    def test_without_commit_choreography_untouched(self, procurement):
        engine = EvolutionEngine(procurement)
        engine.apply_private_change(
            "A",
            accounting_private_variant_change(),
            auto_adapt=True,
            commit=False,
        )
        assert procurement.private("A").find("cancel") is None

    def test_variant_without_adaptation_not_committed(self, procurement):
        engine = EvolutionEngine(procurement)
        engine.apply_private_change(
            "A", accounting_private_variant_change(), commit=True
        )
        assert procurement.private("A").find("cancel") is None


class TestEngineVariantSubtractive:
    def test_full_cycle(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A",
            accounting_private_subtractive_change(),
            auto_adapt=True,
            commit=True,
        )
        impact = report.impact_for("B")
        assert impact.classification.propagation == "variant"
        assert impact.classification.subtractive
        assert impact.consistent_after_adaptation
        assert procurement.check_consistency().consistent

    def test_adapted_buyer_has_no_unbounded_loop(self, procurement):
        from repro.bpel.model import While

        engine = EvolutionEngine(procurement)
        engine.apply_private_change(
            "A",
            accounting_private_subtractive_change(),
            auto_adapt=True,
            commit=True,
        )
        buyer = procurement.private("B")
        loops = [
            activity
            for activity in buyer.walk()
            if isinstance(activity, While)
        ]
        assert loops == []


class TestEngineChangeOperations:
    def test_change_operation_input(self, procurement):
        engine = EvolutionEngine(procurement)
        change = AddPickBranch(
            "tracking or termination",
            OnMessage(
                partner=BUYER,
                operation="pauseOp",
                name="pause",
            ),
        )
        report = engine.apply_private_change("A", change, commit=False)
        assert report.public_changed
        impact = report.impact_for("B")
        # New receive option: invariant for the buyer.
        assert impact.classification.propagation == "invariant"

    def test_report_describe(self, procurement):
        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A", accounting_private_variant_change(), commit=False
        )
        description = report.describe()
        assert "variant" in description
        assert "buyer" in description

    def test_impact_for_unknown_party(self, procurement):
        from repro.errors import PropagationError

        engine = EvolutionEngine(procurement)
        report = engine.apply_private_change(
            "A", accounting_private_invariant_change(), commit=False
        )
        with pytest.raises(PropagationError):
            report.impact_for("Z")


class TestEngineAnnotationPolicy:
    """The engine compiles a party's candidate under the annotation
    policy the party was registered with, exactly like the
    choreography compiles the installed version."""

    def _choreography(self):
        from repro.bpel.compile import ANNOTATE_ALL_CHOICES

        choreography = Choreography("procurement")
        choreography.add_partner(buyer_private())
        choreography.add_partner(
            accounting_private(), policy=ANNOTATE_ALL_CHOICES
        )
        choreography.add_partner(logistics_private())
        return choreography

    def test_identical_resubmission_stays_local(self):
        choreography = self._choreography()
        old = choreography.public("A")
        assert old.annotations  # the policy annotates the picks
        report = EvolutionEngine(choreography).apply_private_change(
            "A", accounting_private(), commit=False
        )
        assert not report.public_changed
        assert report.new_compiled.afsa.annotations == old.annotations

    def test_compile_helper_applies_the_party_policy(self):
        from repro.bpel.compile import ANNOTATE_ALL_CHOICES, compile_process

        choreography = self._choreography()
        process = accounting_private()
        assert choreography.compile("A", process) is compile_process(
            process, policy=ANNOTATE_ALL_CHOICES
        )
        assert choreography.compile("B", process) is compile_process(
            process
        )

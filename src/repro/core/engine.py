"""The evolution engine: Fig. 4's controlled-evolution loop.

Given a change to one partner's private process, the engine

1. recreates the public view of the changed process ("Producing public
   aFSA 'from scratch'");
2. short-circuits when the public process did not change at all
   ("change effects can be kept local");
3. for every conversation partner, classifies the change
   (Defs. 5 and 6) against that partner's public process;
4. for variant changes, runs the matching propagation algorithm
   (Sect. 5.2 / 5.3) and derives private-process edit suggestions;
5. optionally *applies* executable suggestions to the partner's private
   process, recompiles it, and re-checks bilateral consistency —
   closing the loop of steps "ad 4"/"ad 5" (with the autonomy caveat:
   auto-adaptation is opt-in, mirroring the paper's position that
   private processes are adapted by engineers, assisted by the system).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afsa.emptiness import is_consistent
from repro.afsa.equivalence import language_equal
from repro.afsa.view import project_view
from repro.bpel.compile import CompiledProcess
from repro.bpel.model import ProcessModel
from repro.core.changes import ChangeOperation
from repro.core.choreography import Choreography
from repro.core.classify import ChangeClassification, classify_against_partner
from repro.core.propagate import (
    PropagationResult,
    propagate_additive,
    propagate_subtractive,
)
from repro.core.suggestions import EditSuggestion, derive_suggestions
from repro.core.sweep import grid_operands
from repro.errors import PropagationError
from repro.instances.migrate import MigrationReport


@dataclass
class PartnerImpact:
    """Impact of one change on one conversation partner.

    Attributes:
        party: the partner's party identifier.
        partner: the partner's process name.
        classification: Def. 5/6 verdicts for this partner.
        propagations: propagation results (one per direction needed;
            empty for invariant changes).
        suggestions: derived private-process edit suggestions.
        adapted_private: the partner's auto-adapted private process
            (only when ``auto_adapt`` was requested and executable
            suggestions existed).
        consistent_after_adaptation: bilateral consistency re-check
            after auto-adaptation (None when not attempted).
        migration: disposition of the partner's own running instances
            across its auto-adaptation (only when the step committed
            with ``migrate_instances`` and the partner was adapted).
    """

    party: str
    partner: str
    classification: ChangeClassification
    propagations: list[PropagationResult] = field(default_factory=list)
    suggestions: list[EditSuggestion] = field(default_factory=list)
    adapted_private: ProcessModel | None = None
    consistent_after_adaptation: bool | None = None
    migration: MigrationReport | None = None

    @property
    def requires_propagation(self) -> bool:
        """True when the change is variant w.r.t. this partner."""
        return self.classification.requires_propagation

    def describe(self) -> str:
        lines = [
            f"partner {self.partner} ({self.party}): "
            f"{self.classification.describe()}"
        ]
        for propagation in self.propagations:
            lines.append(propagation.describe())
        for suggestion in self.suggestions:
            marker = "*" if suggestion.executable else "-"
            lines.append(f"  {marker} {suggestion.description}")
        if self.consistent_after_adaptation is not None:
            lines.append(
                "  auto-adaptation restored consistency"
                if self.consistent_after_adaptation
                else "  auto-adaptation FAILED to restore consistency"
            )
        return "\n".join(lines)


@dataclass
class EvolutionReport:
    """Outcome of one controlled evolution step (Fig. 4, end to end).

    Attributes:
        originator: party whose private process changed.
        public_changed: False when the change stayed local.
        old_public / new_public: the compiled public processes.
        impacts: per-partner classification and propagation results.
        migration: disposition of the originator's running instances
            (only when the step committed with ``migrate_instances``
            and a fleet was attached to the choreography).
    """

    originator: str
    public_changed: bool
    old_compiled: CompiledProcess
    new_compiled: CompiledProcess
    impacts: list[PartnerImpact] = field(default_factory=list)
    migration: MigrationReport | None = None

    @property
    def requires_propagation(self) -> bool:
        """True when any partner needs the change propagated."""
        return any(impact.requires_propagation for impact in self.impacts)

    def impact_for(self, party: str) -> PartnerImpact:
        """Return the impact record for *party*."""
        for impact in self.impacts:
            if impact.party == party:
                return impact
        raise PropagationError(f"no impact recorded for party {party!r}")

    def describe(self) -> str:
        lines = [f"evolution of {self.originator}:"]
        if not self.public_changed:
            lines.append(
                "  public process unchanged - no propagation necessary"
            )
            return "\n".join(lines)
        for impact in self.impacts:
            lines.append(impact.describe())
        return "\n".join(lines)


class EvolutionEngine:
    """Drives controlled evolution steps over a
    :class:`~repro.core.choreography.Choreography`."""

    def __init__(self, choreography: Choreography):
        self.choreography = choreography

    def apply_private_change(
        self,
        party: str,
        change: ChangeOperation | ProcessModel,
        auto_adapt: bool = False,
        commit: bool = True,
        migrate_instances: bool = False,
        migration_workers: int | None = None,
        migration_runtime=None,
    ) -> EvolutionReport:
        """Run one Fig. 4 evolution step.

        Args:
            party: the change originator's party identifier.
            change: either a change operation applied to the current
                private process or a complete new private process
                version.
            auto_adapt: apply executable suggestions to impacted
                partners' private processes and re-check consistency
                (the system *assists*; enabling this simulates the
                engineer accepting every suggestion).
            commit: install the new private process (and any
                auto-adaptations) into the choreography when the step
                leaves every checked conversation consistent.
            migrate_instances: when committing, carry the originator's
                running-instance fleet across the step (requires an
                attached store; see
                :meth:`Choreography.replace_private`).
            migration_workers: worker processes for the migration sweep.
            migration_runtime: the persistent evolution runtime to
                dispatch the migration fan-out through (defaults to
                the process-wide one when workers are requested).

        Returns:
            An :class:`EvolutionReport` with per-partner verdicts.
        """
        choreography = self.choreography
        old_compiled = choreography.compiled(party)

        if isinstance(change, ProcessModel):
            new_private = change
        else:
            new_private = change.apply(choreography.private(party))
        new_compiled = choreography.compile(party, new_private)

        public_changed = not self._public_equivalent(
            old_compiled, new_compiled
        )
        report = EvolutionReport(
            originator=party,
            public_changed=public_changed,
            old_compiled=old_compiled,
            new_compiled=new_compiled,
        )
        if not public_changed:
            if commit:
                report.migration = choreography.replace_private(
                    party,
                    new_private,
                    migrate_instances=migrate_instances,
                    migration_workers=migration_workers,
                    migration_runtime=migration_runtime,
                )
            return report

        adapted: dict[str, ProcessModel] = {}
        for other in choreography.conversation_partners(party):
            impact = self._assess_partner(
                party, new_compiled, other, auto_adapt
            )
            report.impacts.append(impact)
            if impact.adapted_private is not None:
                adapted[other] = impact.adapted_private

        if commit:
            all_ok = all(
                (not impact.requires_propagation)
                or impact.consistent_after_adaptation
                for impact in report.impacts
            )
            if all_ok:
                report.migration = choreography.replace_private(
                    party,
                    new_private,
                    migrate_instances=migrate_instances,
                    migration_workers=migration_workers,
                    migration_runtime=migration_runtime,
                )
                # Auto-adapted partners' public processes change too:
                # their running fleets ride the same migration switch.
                for other, process in adapted.items():
                    report.impact_for(other).migration = (
                        choreography.replace_private(
                            other,
                            process,
                            migrate_instances=migrate_instances,
                            migration_workers=migration_workers,
                            migration_runtime=migration_runtime,
                        )
                    )
        return report

    # -- internals --------------------------------------------------------

    def _public_equivalent(
        self, old: CompiledProcess, new: CompiledProcess
    ) -> bool:
        """True when the public view is unaffected by the change.

        Language equality plus identical annotation structure (an
        annotation-only change alters mandatory status and therefore
        the public contract even with equal languages).
        """
        if not language_equal(old.afsa, new.afsa):
            return False
        return _annotation_signature(old) == _annotation_signature(new)

    def _assess_partner(
        self,
        originator: str,
        new_compiled: CompiledProcess,
        other: str,
        auto_adapt: bool,
    ) -> PartnerImpact:
        choreography = self.choreography
        old_public = choreography.public(originator)
        new_public = new_compiled.afsa
        other_compiled = choreography.compiled(other)
        # Cached per (other, originator) process version — assessing N
        # partners projects each partner's public process once.
        other_view = choreography.view(originator, on=other)

        classification = classify_against_partner(
            old_public, new_public, other_view, partner=other,
            originator=originator,
        )
        impact = PartnerImpact(
            party=other,
            partner=other_compiled.process.name,
            classification=classification,
        )
        if not classification.requires_propagation:
            return impact

        if classification.additive:
            impact.propagations.append(
                propagate_additive(
                    new_public, other_compiled, other,
                    originator_party=originator,
                )
            )
        if classification.subtractive:
            impact.propagations.append(
                propagate_subtractive(
                    new_public, other_compiled, other,
                    originator_party=originator,
                )
            )
        for propagation in impact.propagations:
            impact.suggestions.extend(
                derive_suggestions(other_compiled, propagation)
            )

        if auto_adapt:
            self._auto_adapt(originator, new_public, other, impact)
        return impact

    def _auto_adapt(
        self,
        originator: str,
        new_public,
        other: str,
        impact: PartnerImpact,
    ) -> None:
        """Apply executable suggestions and re-check (steps ad 4/ad 5)."""
        executable = []
        seen_descriptions = set()
        for suggestion in impact.suggestions:
            if suggestion.operation is None:
                continue
            description = suggestion.operation.describe()
            if description not in seen_descriptions:
                seen_descriptions.add(description)
                executable.append(suggestion.operation)
        if not executable:
            impact.consistent_after_adaptation = False
            return
        process = self.choreography.private(other)
        for operation in executable:
            process = operation.apply(process)
        adapted_compiled = self.choreography.compile(other, process)
        view = project_view(new_public, other)
        adapted_view = project_view(adapted_compiled.afsa, originator)
        # Lazy pair-exploration verdict (ad 5), asked in the sweep's
        # operand order so repeated re-checks and the post-commit
        # re-sweep hit the verdict cache.
        consistent = is_consistent(
            *grid_operands(originator, view, other, adapted_view)
        )
        impact.adapted_private = process
        impact.consistent_after_adaptation = consistent


def _annotation_signature(compiled: CompiledProcess) -> frozenset:
    """A comparable rendering of (state-language-position, annotation).

    Minimized automata of equal language are isomorphic with matching
    BFS numbering, so comparing (state, formula) pairs is sound here.
    """
    return frozenset(
        (state, str(formula))
        for state, formula in compiled.afsa.annotations.items()
    )

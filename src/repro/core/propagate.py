"""Change propagation to partner processes (Sect. 5.2 / 5.3).

Both variant scenarios follow the paper's 5-step recipe:

**Additive** (Sect. 5.2, Figs. 12–14):

1. ``A'' := τ_P(A') \\ B`` — the newly inserted message sequences, from
   the opponent's view of the originator's new public process;
2. ``B' := A'' ∪ B`` — the proposed new public process of the opponent;
3. locate the regions of the opponent's private process via the changed
   states and the mapping table;
4. (suggest) the private-process edits — :mod:`repro.core.suggestions`;
5. verify: the adapted public process must be consistent with
   ``τ_P(A')`` again, else iterate.

**Subtractive** (Sect. 5.3, Figs. 16–18):

1. ``A'' := B \\ τ_P(A')`` — the *removed* execution sequences.  (The
   paper's step "ad 1" prints ``τ_P(A') \\ B``, but describes — and
   Fig. 17a depicts — the sequences the opponent still supports and the
   originator no longer does, which is ``B \\ τ_P(A')``; see DESIGN.md
   deviation #2.)
2. ``B' := B \\ A''``;
3–5. as above (the region is found where *B* offers a transition that
   ``B'`` no longer supports, Sect. 5.3 "ad 3").

Changed-state detection (step 3) is the "parallel traversal …
comparable to bi-simulation" the paper sketches:
:func:`transition_deltas` walks ``B`` and ``B'`` in lockstep over common
labels and records, per visited state pair, the labels present on one
side only.

Steps 1 and 2 chain kernel operators (difference, strip, prune,
minimize, union) and materialize one ``AFSA`` per reported automaton;
the opponent's bilateral restriction is memoized on its compiled
process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.afsa.annotations import (
    k_strip_annotations,
    k_weaken_unsupported_annotations,
)
from repro.afsa.automaton import AFSA, State
from repro.afsa.emptiness import is_consistent
from repro.afsa.kernel import (
    k_difference,
    k_minimize,
    k_minimize_with_members,
    kernel_of,
    materialize,
)
from repro.afsa.prune import k_prune_dead_states
from repro.afsa.union import k_union
from repro.afsa.view import k_project_raw, project_view
from repro.bpel.compile import CompiledProcess
from repro.bpel.mapping import MappingTable
from repro.messages.alphabet import INTERNER
from repro.messages.label import Label, label_involves, label_text

#: Delta kinds recorded by :func:`transition_deltas`.
ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class TransitionDelta:
    """One behavioral difference found by the parallel traversal.

    Attributes:
        state: the state of the opponent's *current* public process B.
        label: the message whose support differs.
        kind: :data:`ADDED` (B' offers it, B does not — the opponent
            must start supporting it) or :data:`REMOVED` (B offers it,
            B' does not — the opponent must stop relying on it).
        counterpart: the proposal-side (B') state paired with *state*
            when the delta was found; suggestion derivation inspects
            the proposal's behavior after the new message there.
    """

    state: State
    label: Label
    kind: str
    counterpart: State | None = None

    def describe(self) -> str:
        verb = "add support for" if self.kind == ADDED else "drop"
        return f"state {self.state!r}: {verb} {label_text(self.label)}"


def transition_deltas(base: AFSA, proposed: AFSA) -> list[TransitionDelta]:
    """Walk *base* and *proposed* in lockstep; report per-state label
    differences (the paper's bi-simulation-like traversal, Sect. 5.2/5.3
    step "ad 3").

    Both automata should be deterministic (they are minimized by the
    propagation pipeline); traversal follows labels common to the pair,
    so each reported delta is anchored at a reachable, shared
    conversation prefix.  The walk runs on the operand kernels.
    """
    a = kernel_of(base)
    b = kernel_of(proposed)
    text_of = INTERNER.text
    label_of = INTERNER.label
    a_names, b_names = a.names, b.names
    deltas: list[TransitionDelta] = []
    seen_pairs = {(a.start, b.start)}
    seen_deltas: set[tuple[int, int, str]] = set()
    queue = deque(seen_pairs)
    while queue:
        base_state, proposed_state = queue.popleft()
        base_row = a.adj[base_state]
        proposed_row = b.adj[proposed_state]
        for lids, kind in (
            (proposed_row.keys() - base_row.keys(), ADDED),
            (base_row.keys() - proposed_row.keys(), REMOVED),
        ):
            for lid in sorted(lids, key=text_of):
                key = (base_state, lid, kind)
                if key not in seen_deltas:
                    seen_deltas.add(key)
                    deltas.append(
                        TransitionDelta(
                            a_names[base_state], label_of(lid), kind,
                            counterpart=b_names[proposed_state],
                        )
                    )
        for lid in sorted(base_row.keys() & proposed_row.keys(), key=text_of):
            for base_target in base_row[lid]:
                for proposed_target in proposed_row[lid]:
                    pair = (base_target, proposed_target)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        queue.append(pair)
    return deltas


@dataclass
class PropagationResult:
    """Outcome of one variant-change propagation (Sect. 5.2/5.3).

    Attributes:
        opponent: the partner whose processes must adapt.
        direction: ``"additive"`` or ``"subtractive"``.
        originator_view: ``τ_P(A')`` — the opponent's view of the
            changed public process.
        opponent_public: B — the opponent's public process *restricted
            to the bilateral conversation with the originator* (for a
            bilateral partner like the paper's buyer this is its public
            process unchanged, keeping the published state numbers).
        opponent_mapping: the state↔block mapping table keyed by
            :attr:`opponent_public` states.
        difference: the diagnostic automaton A'' (Fig. 13a / Fig. 17a).
        proposed_public: the proposal B' (Fig. 13b / Fig. 17b).
        deltas: the changed states of B with the affected messages.
        consistent_after: step-5 verification that the proposal restores
            bilateral consistency with the originator.
    """

    opponent: str
    direction: str
    originator_view: AFSA
    opponent_public: AFSA
    opponent_mapping: MappingTable
    difference: AFSA
    proposed_public: AFSA
    deltas: list[TransitionDelta] = field(default_factory=list)
    consistent_after: bool = False

    def describe(self) -> str:
        lines = [
            f"{self.direction} propagation to {self.opponent}:",
        ]
        for delta in self.deltas:
            lines.append(f"  - {delta.describe()}")
        lines.append(
            "  proposal restores consistency"
            if self.consistent_after
            else "  proposal does NOT restore consistency - iterate"
        )
        return "\n".join(lines)


def _bilateral_base(
    opponent: CompiledProcess, originator_party: str
) -> tuple[AFSA, MappingTable]:
    """Return the opponent's public process restricted to its bilateral
    conversation with the originator, plus a mapping table re-keyed to
    the restricted states.

    Sect. 3.4: "it has to be ensured that the processes to be compared
    are representing the bilateral message exchanges only."  When the
    opponent's public process already is bilateral (the paper's buyer),
    it is returned unchanged — keeping the published state numbers of
    Fig. 6 / Table 1.  Memoized per (compiled process, originator): a
    compiled process is an immutable version, and its restriction is
    asked once per propagation direction and evolution step.
    """
    memo = opponent.bilateral_memo
    cached = memo.get(originator_party)
    if cached is not None:
        return cached
    public = opponent.afsa
    foreign = [
        label
        for label in public.alphabet
        if not label_involves(label, originator_party)
    ]
    if not foreign:
        result = (public, opponent.mapping)
    else:
        relabeled = k_project_raw(kernel_of(public), originator_party)
        minimized, members = k_minimize_with_members(relabeled)
        view = materialize(
            minimized, name=f"τ_{originator_party}({public.name or 'A'})"
        )
        names = relabeled.names
        correspondence = {
            minimized.names[position]: {names[state] for state in states}
            for position, states in enumerate(members)
        }
        result = (view, opponent.mapping.composed_with(correspondence))
    memo[originator_party] = result
    return result


def _originator_party(view: AFSA, opponent_party: str) -> str:
    """Derive the originator's party name from a bilateral view."""
    others = view.alphabet.partners() - {opponent_party}
    if len(others) == 1:
        return others.pop()
    return ""


def propagate_additive(
    originator_new_public: AFSA,
    opponent: CompiledProcess,
    opponent_party: str,
    originator_party: str = "",
) -> PropagationResult:
    """Propagate a variant additive change to *opponent* (Sect. 5.2).

    Args:
        originator_new_public: A', the changed public process.
        opponent: the opponent's compiled process (provides B and the
            mapping table used downstream for suggestions).
        opponent_party: the opponent's party identifier (the P of
            τ_P).
        originator_party: the change originator's party; derived from
            the view's alphabet when omitted (unambiguous whenever the
            bilateral conversation exchanges any message).
    """
    view = project_view(originator_new_public, opponent_party)
    if not originator_party:
        originator_party = _originator_party(view, opponent_party)
    current_public, mapping = _bilateral_base(opponent, originator_party)

    # Step 1: the newly inserted sequences.  Annotations of the view are
    # requirements imposed *on* the opponent, not declared by it; the
    # diagnostic drops them, and the sink branches that completion
    # introduced are pruned (see repro.afsa.annotations / .prune).
    base = kernel_of(current_public)
    added = k_minimize(
        k_prune_dead_states(
            k_strip_annotations(k_difference(kernel_of(view), base))
        )
    )

    # Step 2: the proposal B' = A'' ∪ B.
    proposal = materialize(
        k_minimize(k_union(added, base)), name=f"{current_public.name}'"
    )
    added = materialize(added, name="A'' (added sequences)")

    # Step 3 precursor: where does B' differ from B?
    deltas = [
        delta
        for delta in transition_deltas(current_public, proposal)
        if delta.kind == ADDED
    ]

    # Step 5: would the proposal restore consistency?  (Lazy
    # pair-exploration verdict; no product automaton is materialized
    # and a re-check of the same operand pair is a cache hit.)
    consistent = is_consistent(view, proposal)

    return PropagationResult(
        opponent=opponent.process.name,
        direction="additive",
        originator_view=view,
        opponent_public=current_public,
        opponent_mapping=mapping,
        difference=added,
        proposed_public=proposal,
        deltas=deltas,
        consistent_after=consistent,
    )


def propagate_subtractive(
    originator_new_public: AFSA,
    opponent: CompiledProcess,
    opponent_party: str,
    originator_party: str = "",
) -> PropagationResult:
    """Propagate a variant subtractive change to *opponent* (Sect. 5.3).

    Args mirror :func:`propagate_additive`.
    """
    view = project_view(originator_new_public, opponent_party)
    if not originator_party:
        originator_party = _originator_party(view, opponent_party)
    current_public, mapping = _bilateral_base(opponent, originator_party)

    # Step 1: the removed sequences (B \ τ_P(A'); DESIGN.md deviation #2).
    base = kernel_of(current_public)
    removed = k_minimize(
        k_prune_dead_states(
            k_strip_annotations(k_difference(base, kernel_of(view)))
        )
    )

    # Step 2: B' = B \ A''.  B's own annotations survive, but conjuncts
    # whose transitions were subtracted away are weakened (Fig. 17b).
    proposal = materialize(
        k_weaken_unsupported_annotations(
            k_minimize(k_prune_dead_states(k_difference(base, removed)))
        ),
        name=f"{current_public.name}'",
    )
    removed = materialize(removed, name="A'' (removed sequences)")

    deltas = [
        delta
        for delta in transition_deltas(current_public, proposal)
        if delta.kind == REMOVED
    ]

    # Step 5 (lazy verdict, as in propagate_additive).
    consistent = is_consistent(view, proposal)

    return PropagationResult(
        opponent=opponent.process.name,
        direction="subtractive",
        originator_view=view,
        opponent_public=current_public,
        opponent_mapping=mapping,
        difference=removed,
        proposed_public=proposal,
        deltas=deltas,
        consistent_after=consistent,
    )

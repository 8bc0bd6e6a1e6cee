"""The kernel-native Fig. 4 evolution step agrees with the eager oracle.

Classification decides Defs. 5/6 lazily (inclusion and pair-verdict
emptiness on kernels), compilation reads the state correspondence off
the minimization, and propagation chains kernel operators.  Each is
checked here against the object-level pipeline it replaced, written out
in full as the oracle: eager differences and intersections plus
``is_empty``, ``minimize`` + renumber + ``state_correspondence``, and
the strip → prune → minimize → union → minimize chain on ``AFSA``
values.  Inputs are ``random_annotated_afsa`` pairs and the views of
generated choreographies evolved by random changes.  The last test pins
that the step's verdicts are the ones the post-commit re-sweep asks
for.
"""

from hypothesis import given, settings, strategies as st

from repro.afsa.annotations import (
    strip_annotations,
    weaken_unsupported_annotations,
)
from repro.afsa.automaton import AFSA
from repro.afsa.difference import difference
from repro.afsa.emptiness import is_consistent, is_empty
from repro.afsa.equivalence import language_equal
from repro.afsa.minimize import minimize
from repro.afsa.product import intersect
from repro.afsa.prune import prune_dead_states
from repro.afsa.union import union
from repro.afsa.view import project_view, project_view_raw
from repro.afsa.kernel import kernel_of
from repro.afsa.lazy import VERDICTS
from repro.bpel.compile import compile_process
from repro.bpel.mapping import state_correspondence
from repro.core.classify import classify_against_partner, classify_change
from repro.core.engine import EvolutionEngine
from repro.core.propagate import (
    ADDED,
    REMOVED,
    _bilateral_base,
    propagate_additive,
    propagate_subtractive,
)
from repro.core.sweep import conversing_pairs
from repro.errors import ChangeError
from repro.formula.ast import TRUE
from repro.formula.simplify import simplify
from repro.formula.transform import substitute
from repro.messages.label import EPSILON, label_involves, label_text
from repro.scenario import procurement
from repro.workload.generator import generate_choreography, random_annotated_afsa
from repro.workload.mutations import random_change

_SEEDS = st.integers(min_value=0, max_value=10_000)
_SIZES = st.integers(min_value=2, max_value=9)
_LABELS = st.integers(min_value=2, max_value=4)


def _eager_framework(old: AFSA, new: AFSA) -> tuple[bool, bool]:
    added = difference(new, old)
    removed = difference(old, new)
    return (
        not is_empty(added, annotated=False),
        not is_empty(removed, annotated=False),
    )


def _assert_matches_oracle(classification, old, new, partner_public=None):
    """Verdicts and diagnosis automata equal the eager pipeline's."""
    additive, subtractive = _eager_framework(old, new)
    assert classification.additive == additive
    assert classification.subtractive == subtractive
    eager_added = difference(new, old, name="A' \\ A")
    eager_removed = difference(old, new, name="A \\ A'")
    assert classification.added == eager_added
    assert classification.removed == eager_removed
    assert language_equal(classification.added, eager_added)
    assert language_equal(classification.removed, eager_removed)
    if partner_public is not None:
        eager_intersection = intersect(new, partner_public)
        assert classification.variant == is_empty(eager_intersection)
        assert classification.intersection == eager_intersection
        strict = is_empty(
            intersect(eager_removed, partner_public), annotated=False
        ) and is_empty(intersect(eager_added, partner_public), annotated=False)
        assert classification.protocol_equivalent(partner_public) == strict


@given(_SEEDS, _SEEDS, _SIZES, _LABELS)
@settings(max_examples=60, deadline=None)
def test_classify_change_matches_eager_differences(seed_a, seed_b, size, labels):
    old = random_annotated_afsa(seed=seed_a, states=size, labels=labels)
    new = random_annotated_afsa(seed=seed_b, states=size, labels=labels)
    _assert_matches_oracle(classify_change(old, new), old, new)


@given(_SEEDS, _SEEDS, _SEEDS, _SIZES)
@settings(max_examples=60, deadline=None)
def test_classify_against_partner_matches_eager_oracle(
    seed_a, seed_b, seed_c, size
):
    old = random_annotated_afsa(seed=seed_a, states=size, labels=3)
    new = random_annotated_afsa(seed=seed_b, states=size, labels=3)
    partner = random_annotated_afsa(seed=seed_c, states=size, labels=3)
    for originator in ("", "A", "Z"):
        classification = classify_against_partner(
            old, new, partner, originator=originator
        )
        _assert_matches_oracle(classification, old, new, partner)


def _evolved_choreography(seed: int):
    """A generated choreography plus one random change to one party."""
    choreography = generate_choreography(seed=seed, spokes=3, steps=3)
    parties = choreography.parties()
    party = parties[seed % len(parties)]
    try:
        _, operation, _ = random_change(
            choreography.private(party), seed=seed
        )
    except ChangeError:
        return choreography, party, None
    return choreography, party, operation.apply(choreography.private(party))


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=25, deadline=None)
def test_choreography_view_classification_matches_eager_oracle(seed):
    choreography, party, new_private = _evolved_choreography(seed)
    if new_private is None:
        return
    old_public = choreography.public(party)
    new_public = compile_process(new_private).afsa
    for other in choreography.conversation_partners(party):
        partner_view = choreography.view(party, on=other)
        classification = classify_against_partner(
            old_public, new_public, partner_view,
            partner=other, originator=party,
        )
        _assert_matches_oracle(
            classification,
            project_view(old_public, other),
            project_view(new_public, other),
            partner_view,
        )


def _relabel(automaton: AFSA, partner: str) -> AFSA:
    """The object-level τ_partner relabeling (before minimization)."""
    transitions = [
        t.as_tuple()
        if t.is_silent or label_involves(t.label, partner)
        else (t.source, EPSILON, t.target)
        for t in automaton.transitions
    ]
    annotations = {}
    for state, formula in automaton.annotations.items():
        neutralized = simplify(
            substitute(
                formula,
                lambda name: None if label_involves(name, partner) else True,
            )
        )
        if neutralized != TRUE:
            annotations[state] = neutralized
    return AFSA(
        states=automaton.states,
        transitions=transitions,
        start=automaton.start,
        finals=automaton.finals,
        annotations=annotations,
        alphabet=automaton.alphabet.involving(partner),
        name=f"τ_{partner}({automaton.name or 'A'})",
    )


def _eager_view(automaton: AFSA, partner: str) -> AFSA:
    projected = _relabel(automaton, partner)
    return minimize(projected).with_name(projected.name)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=25, deadline=None)
def test_kernel_views_match_object_level_projection(seed):
    choreography, _, _ = _evolved_choreography(seed)
    for party in choreography.parties():
        public = choreography.public(party)
        for viewer in choreography.parties():
            view = project_view(public, viewer)
            eager = _eager_view(public, viewer)
            assert view == eager
            assert view.name == eager.name
            assert project_view_raw(public, viewer) == _relabel(public, viewer)


# -- compile ------------------------------------------------------------------


def _eager_compile(compiled):
    """The replaced object-level tail of ``compile_process``."""
    raw = compiled.raw
    minimized = minimize(raw)
    renumber = {
        state: int(str(state)[1:]) + 1 for state in minimized.states
    }
    public = AFSA(
        states=renumber.values(),
        transitions=[
            (renumber[t.source], t.label, renumber[t.target])
            for t in minimized.transitions
        ],
        start=renumber[minimized.start],
        finals=[renumber[state] for state in minimized.finals],
        annotations={
            renumber[state]: formula
            for state, formula in minimized.annotations.items()
        },
        alphabet=minimized.alphabet,
    )
    correspondence = state_correspondence(raw, public)
    return public, correspondence, compiled.raw_mapping.composed_with(
        correspondence
    )


def _assert_compile_matches(compiled):
    public, correspondence, mapping = _eager_compile(compiled)
    assert compiled.afsa == public
    assert compiled.correspondence == correspondence
    assert compiled.mapping == mapping
    assert compiled.mapping.rows() == mapping.rows()


def test_compile_matches_eager_on_the_paper_processes():
    """Fig. 6 / Table 1 and the change scenarios of Figs. 9–18."""
    for builder in (
        procurement.buyer_private,
        procurement.accounting_private,
        procurement.logistics_private,
        procurement.accounting_private_invariant_change,
        procurement.accounting_private_variant_change,
        procurement.accounting_private_subtractive_change,
        procurement.buyer_private_after_additive_propagation,
        procurement.buyer_private_after_subtractive_propagation,
    ):
        _assert_compile_matches(compile_process(builder()))


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=25, deadline=None)
def test_compile_matches_eager_on_generated_processes(seed):
    choreography, _, new_private = _evolved_choreography(seed)
    for party in choreography.parties():
        _assert_compile_matches(choreography.compiled(party))
    if new_private is not None:
        _assert_compile_matches(compile_process(new_private))


# -- propagation --------------------------------------------------------------


def _eager_base(opponent, originator):
    public = opponent.afsa
    if all(label_involves(label, originator) for label in public.alphabet):
        return public, opponent.mapping
    relabeled = _relabel(public, originator)
    view = minimize(relabeled).with_name(relabeled.name)
    correspondence = state_correspondence(relabeled, view)
    return view, opponent.mapping.composed_with(correspondence)


def _eager_deltas(base, proposed, kind):
    """The object-level lockstep walk over ``AFSA`` successor queries."""
    deltas = []
    seen_pairs = {(base.start, proposed.start)}
    seen = set()
    queue = [(base.start, proposed.start)]
    while queue:
        base_state, proposed_state = queue.pop(0)
        base_labels = base.labels_from(base_state)
        proposed_labels = proposed.labels_from(proposed_state)
        only = (
            proposed_labels - base_labels if kind == ADDED
            else base_labels - proposed_labels
        )
        for label in sorted(only, key=label_text):
            if (base_state, label_text(label)) not in seen:
                seen.add((base_state, label_text(label)))
                deltas.append((base_state, label, kind, proposed_state))
        for label in sorted(base_labels & proposed_labels, key=label_text):
            for base_target in base.successors(base_state, label):
                for proposed_target in proposed.successors(
                    proposed_state, label
                ):
                    if (base_target, proposed_target) not in seen_pairs:
                        seen_pairs.add((base_target, proposed_target))
                        queue.append((base_target, proposed_target))
    return deltas


def _eager_additive(view, current):
    added = minimize(
        prune_dead_states(strip_annotations(difference(view, current)))
    )
    return added, minimize(union(added, current))


def _eager_subtractive(view, current):
    removed = minimize(
        prune_dead_states(strip_annotations(difference(current, view)))
    )
    proposal = weaken_unsupported_annotations(
        minimize(prune_dead_states(difference(current, removed)))
    )
    return removed, proposal


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=25, deadline=None)
def test_propagation_matches_object_level_chain(seed):
    choreography, party, new_private = _evolved_choreography(seed)
    if new_private is None:
        return
    new_public = compile_process(new_private).afsa
    for other in choreography.conversation_partners(party):
        opponent = choreography.compiled(other)
        base, mapping = _bilateral_base(opponent, party)
        eager_base, eager_mapping = _eager_base(opponent, party)
        assert base == eager_base and mapping == eager_mapping
        view = project_view(new_public, other)
        for propagate, eager, kind in (
            (propagate_additive, _eager_additive, ADDED),
            (propagate_subtractive, _eager_subtractive, REMOVED),
        ):
            result = propagate(
                new_public, opponent, other, originator_party=party
            )
            diagnostic, proposal = eager(view, eager_base)
            assert result.difference == diagnostic
            assert result.proposed_public == proposal
            assert [
                (d.state, d.label, d.kind, d.counterpart)
                for d in result.deltas
            ] == _eager_deltas(eager_base, proposal, kind)
            assert result.consistent_after == is_consistent(view, proposal)


# -- the step's verdicts are the re-sweep's ----------------------------------


def test_post_commit_resweep_finds_the_step_verdicts_cached():
    """Classification (and the auto-adapt re-check) ask pair_verdict in
    the sweep's operand order, so after a committed step every pair
    involving the originator is already in VERDICTS — in both
    orientations of the party order."""
    orientations = set()
    for seed in range(60):
        choreography, party, new_private = _evolved_choreography(seed)
        if new_private is None:
            continue
        for other in choreography.parties():
            choreography.public(other)
        report = EvolutionEngine(choreography).apply_private_change(
            party, new_private, auto_adapt=True, commit=True
        )
        if not report.public_changed or (
            choreography.private(party) is not new_private
        ):
            continue
        for left, right in conversing_pairs(choreography):
            if party not in (left, right):
                continue
            key = (
                id(kernel_of(choreography.view(right, on=left))),
                id(kernel_of(choreography.view(left, on=right))),
                True,
            )
            assert key in VERDICTS._entries, (seed, left, right)
            orientations.add(party == left)
    assert orientations == {True, False}

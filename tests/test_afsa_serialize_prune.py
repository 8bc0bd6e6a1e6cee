"""Unit tests for serialization, DOT export, pruning, and annotation
post-processing."""

import json

from hypothesis import given, settings, strategies as st

from repro.afsa.annotations import (
    strip_annotations,
    weaken_unsupported_annotations,
)
from repro.afsa.automaton import AFSABuilder
from repro.afsa.language import accepted_words
from repro.afsa.prune import prune_dead_states
from repro.afsa.serialize import (
    afsa_from_dict,
    afsa_from_json,
    afsa_to_dict,
    afsa_to_dot,
    afsa_to_json,
)
from repro.formula.parser import parse_formula


def annotated_automaton():
    builder = AFSABuilder(name="toy")
    builder.add_transition("q0", "B#A#msg0", "q1")
    builder.add_transition("q1", "B#A#msg1", "q2")
    builder.add_transition("q1", "B#A#msg2", "q3")
    builder.annotate("q1", parse_formula("B#A#msg1 AND B#A#msg2"))
    builder.mark_final("q2")
    builder.mark_final("q3")
    return builder.build(start="q0")


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        automaton = annotated_automaton()
        rebuilt = afsa_from_dict(afsa_to_dict(automaton))
        assert rebuilt == automaton

    def test_json_round_trip(self):
        automaton = annotated_automaton()
        rebuilt = afsa_from_json(afsa_to_json(automaton))
        assert rebuilt == automaton

    def test_json_is_valid(self):
        payload = json.loads(afsa_to_json(annotated_automaton()))
        assert payload["start"] == "q0"
        assert payload["annotations"]["q1"] == "B#A#msg1 AND B#A#msg2"

    def test_epsilon_serialized_as_empty_string(self):
        builder = AFSABuilder()
        builder.add_epsilon("a", "b")
        builder.mark_final("b")
        payload = afsa_to_dict(builder.build(start="a"))
        assert ["a", "", "b"] in payload["transitions"]
        rebuilt = afsa_from_dict(payload)
        assert rebuilt.has_epsilon()

    def test_name_preserved(self):
        rebuilt = afsa_from_json(afsa_to_json(annotated_automaton()))
        assert rebuilt.name == "toy"

    def test_deterministic_output(self):
        automaton = annotated_automaton()
        assert afsa_to_json(automaton) == afsa_to_json(automaton)


class TestAnnotatedRoundTripProperties:
    """Property coverage for annotation payloads on workload automata.

    :func:`repro.workload.random_annotated_afsa` grafts *cyclic
    mandatory* annotations (the buyer-tracking-loop shape) onto random
    automata — the hardest annotation payload the framework produces.
    The wire format must round-trip those bit-for-bit: structural
    equality, annotation formulas, and every annotated-emptiness
    verdict (the good set is what migration and consistency verdicts
    hang off).
    """

    @given(
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_structural_identity(self, seed, loops):
        from repro.workload.generator import random_annotated_afsa

        automaton = random_annotated_afsa(
            seed=seed, states=6, labels=3, loops=loops
        )
        rebuilt = afsa_from_json(afsa_to_json(automaton))
        assert rebuilt == automaton
        assert rebuilt.annotations == automaton.annotations
        assert rebuilt.alphabet == automaton.alphabet

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_preserves_annotated_verdicts(self, seed):
        from repro.afsa.emptiness import good_states, is_empty
        from repro.workload.generator import random_annotated_afsa

        automaton = random_annotated_afsa(seed=seed, states=6, labels=3)
        rebuilt = afsa_from_json(afsa_to_json(automaton))
        assert is_empty(rebuilt) == is_empty(automaton)
        assert good_states(rebuilt) == good_states(automaton)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_double_round_trip_is_stable(self, seed):
        from repro.workload.generator import random_annotated_afsa

        automaton = random_annotated_afsa(seed=seed, states=5, labels=2)
        once = afsa_to_json(afsa_from_json(afsa_to_json(automaton)))
        assert once == afsa_to_json(automaton)


class TestDot:
    def test_final_states_doublecircle(self):
        dot = afsa_to_dot(annotated_automaton())
        assert "doublecircle" in dot

    def test_annotation_box_present(self):
        dot = afsa_to_dot(annotated_automaton())
        assert "shape=box" in dot
        assert "msg1 AND" in dot

    def test_short_labels_by_default(self):
        dot = afsa_to_dot(annotated_automaton())
        assert '"msg0"' in dot

    def test_full_labels_on_request(self):
        dot = afsa_to_dot(annotated_automaton(), shorten_labels=False)
        assert '"B#A#msg0"' in dot

    def test_is_parseable_digraph(self):
        dot = afsa_to_dot(annotated_automaton())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")


class TestPrune:
    def test_dead_branch_removed(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "dead")
        builder.add_transition("a", "A#B#y", "f")
        builder.mark_final("f")
        pruned = prune_dead_states(builder.build(start="a"))
        assert "dead" not in pruned.states

    def test_language_preserved(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "dead")
        builder.add_transition("a", "A#B#y", "f")
        builder.mark_final("f")
        automaton = builder.build(start="a")
        assert accepted_words(prune_dead_states(automaton), 3) == (
            accepted_words(automaton, 3)
        )

    def test_start_kept_even_if_dead(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "b")
        pruned = prune_dead_states(builder.build(start="a"))
        assert pruned.start == "a"

    def test_no_change_returns_same_object(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "f")
        builder.mark_final("f")
        automaton = builder.build(start="a")
        assert prune_dead_states(automaton) is automaton


class TestAnnotationHelpers:
    def test_strip_annotations(self):
        stripped = strip_annotations(annotated_automaton())
        assert stripped.annotations == {}
        assert len(stripped.transitions) == 3

    def test_strip_without_annotations_is_identity(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "f")
        builder.mark_final("f")
        automaton = builder.build(start="a")
        assert strip_annotations(automaton) is automaton

    def test_weaken_drops_unsupported_conjunct(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "f")
        builder.annotate("a", parse_formula("A#B#x AND A#B#gone"))
        builder.mark_final("f")
        weakened = weaken_unsupported_annotations(builder.build(start="a"))
        assert str(weakened.annotation("a")) == "A#B#x"

    def test_weaken_keeps_supported(self):
        automaton = annotated_automaton()
        weakened = weaken_unsupported_annotations(automaton)
        assert weakened.annotation("q1") == automaton.annotation("q1")

    def test_weaken_removes_fully_unsupported_entry(self):
        builder = AFSABuilder()
        builder.add_transition("a", "A#B#x", "f")
        builder.annotate("a", parse_formula("A#B#gone"))
        builder.mark_final("f")
        weakened = weaken_unsupported_annotations(builder.build(start="a"))
        assert weakened.annotations == {}


class TestDigestHashSeedIndependence:
    """Contract 8: a kernel's content digest is a function of its
    content, not of the interpreter's ``PYTHONHASHSEED`` (set-iteration
    order of state names and transitions)."""

    _PROBE = (
        "from repro.afsa.kernel import kernel_of\n"
        "from repro.afsa.serialize import kernel_digest\n"
        "from repro.afsa.view import project_view\n"
        "from repro.bpel.compile import compile_process\n"
        "from repro.scenario.procurement import accounting_private\n"
        "from repro.workload.generator import random_afsa\n"
        "public = compile_process(accounting_private()).afsa\n"
        "for automaton in (random_afsa(seed=5, states=96),\n"
        "                  random_afsa(seed=11, states=24),\n"
        "                  public, project_view(public, 'B')):\n"
        "    print(kernel_digest(kernel_of(automaton)))\n"
    )

    def _digests(self, hash_seed: str) -> list:
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONHASHSEED"] = hash_seed
        return subprocess.run(
            [sys.executable, "-c", self._PROBE],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()

    def test_digests_equal_across_hash_seeds(self):
        first = self._digests("0")
        assert len(first) == 4
        assert self._digests("3") == first

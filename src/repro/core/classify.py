"""Change classification (Sect. 4: Defs. 5 and 6).

Two orthogonal dimensions:

* **change framework** — does the change add message sequences
  (*additive*: ``A' \\ A ≠ ∅``), remove them (*subtractive*:
  ``A \\ A' ≠ ∅``), both, or neither (Def. 5);
* **change propagation** — does the changed public process remain
  consistent with a partner (*invariant*: ``A' ∩ B ≠ ∅``) or does the
  agreed protocol break (*variant*: ``A' ∩ B = ∅``, Def. 6).

Every verdict is an emptiness question answered lazily on the operand
kernels (:mod:`repro.afsa.kernel`, :mod:`repro.afsa.lazy`); no product
or difference automaton is built to decide it:

* Def. 5 is unannotated, so ``A' \\ A ≠ ∅`` is ``L(A') ⊄ L(A)``:
  :func:`~repro.afsa.kernel.k_language_included` explores the
  difference product on the fly and stops at the first counterexample
  pair;
* Def. 6 is the annotated product emptiness of the view kernels, asked
  through :func:`~repro.afsa.lazy.pair_verdict` — the same
  :data:`~repro.afsa.lazy.VERDICTS` entry the post-commit consistency
  sweep asks for, so the re-sweep of the evolved pair is a cache hit.

The difference automata ``A' \\ A`` / ``A \\ A'`` and the checked
intersection stay available as diagnosis material
(:attr:`ChangeClassification.added`, ``removed``, ``intersection``),
materialized only when first read.

Classification also implements the refined propagation criterion of
Sect. 4.2: the strict protocol-equivalence test
``(A \\ A') ∩ B = ∅ ∧ (A' \\ A) ∩ B = ∅`` is exposed as
:meth:`ChangeClassification.protocol_equivalent` — the paper points out
it is "too restrictive", and Def. 6 is the criterion actually used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    Kernel,
    k_difference,
    k_language_included,
    kernel_of,
    materialize,
)
from repro.afsa.lazy import pair_verdict, product_verdict
from repro.afsa.view import project_view
from repro.core.sweep import grid_operands

#: Change-framework verdicts (Def. 5).
ADDITIVE = "additive"
SUBTRACTIVE = "subtractive"
BOTH = "additive+subtractive"
NEUTRAL = "neutral"

#: Change-propagation verdicts (Def. 6).
VARIANT = "variant"
INVARIANT = "invariant"


@dataclass
class ChangeClassification:
    """Outcome of classifying a change δ transforming A into A'.

    Attributes:
        additive: ``A' \\ A ≠ ∅`` (new message sequences appeared).
        subtractive: ``A \\ A' ≠ ∅`` (message sequences disappeared).
        old / new: the classified operands A and A' (the bilateral
            views when a partner was supplied).
        variant: ``A' ∩ B = ∅`` — only set when a partner was supplied.
        partner: name of the partner the variant verdict refers to.
        partner_public: the B the variant verdict checked.
    """

    additive: bool
    subtractive: bool
    old: AFSA = field(repr=False, compare=False)
    new: AFSA = field(repr=False, compare=False)
    variant: bool | None = None
    partner: str = ""
    partner_public: AFSA | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def framework(self) -> str:
        """The Def. 5 verdict: additive/subtractive/both/neutral."""
        if self.additive and self.subtractive:
            return BOTH
        if self.additive:
            return ADDITIVE
        if self.subtractive:
            return SUBTRACTIVE
        return NEUTRAL

    @property
    def propagation(self) -> str | None:
        """The Def. 6 verdict: variant/invariant (None if unchecked)."""
        if self.variant is None:
            return None
        return VARIANT if self.variant else INVARIANT

    @property
    def requires_propagation(self) -> bool:
        """True when the change must be propagated to the partner."""
        return bool(self.variant)

    @cached_property
    def added(self) -> AFSA:
        """The difference automaton ``A' \\ A`` (materialized on first
        read)."""
        return materialize(self._added_kernel, name="A' \\ A")

    @cached_property
    def removed(self) -> AFSA:
        """The difference automaton ``A \\ A'`` (materialized on first
        read)."""
        return materialize(self._removed_kernel, name="A \\ A'")

    @cached_property
    def intersection(self) -> AFSA | None:
        """The checked ``A' ∩ B`` (diagnosis material; None when no
        partner was supplied).  The eager product is built here, on
        request, by the reference pipeline of :mod:`repro.afsa.oracle`
        — the variant verdict never needs it."""
        if self.partner_public is None:
            return None
        from repro.afsa.oracle import materialized_intersection

        return materialized_intersection(self.new, self.partner_public)

    @cached_property
    def _added_kernel(self) -> Kernel:
        return k_difference(kernel_of(self.new), kernel_of(self.old))

    @cached_property
    def _removed_kernel(self) -> Kernel:
        return k_difference(kernel_of(self.old), kernel_of(self.new))

    def protocol_equivalent(self, partner_public: AFSA) -> bool:
        """The strict Sect. 4.2 criterion: ``A ∩ B ≡ A' ∩ B``.

        Checked via ``(A \\ A') ∩ B = ∅ ∧ (A' \\ A) ∩ B = ∅`` exactly as
        the paper formalizes it: two classical (annotation-blind)
        product-emptiness verdicts of the lazy engine on the difference
        kernels, without building either intersection.  Stricter than
        invariance: it also fails for changes that merely alter options
        fully under the change originator's control.
        """
        partner = kernel_of(partner_public)
        removed_shared = self.subtractive and product_verdict(
            self._removed_kernel, partner, annotated=False
        )
        added_shared = self.additive and product_verdict(
            self._added_kernel, partner, annotated=False
        )
        return not (removed_shared or added_shared)

    def describe(self) -> str:
        """One-line verdict rendering."""
        parts = [self.framework]
        if self.propagation is not None:
            parts.append(self.propagation)
            if self.partner:
                parts.append(f"w.r.t. {self.partner}")
        return " / ".join(parts)


def classify_change(old_public: AFSA, new_public: AFSA) -> ChangeClassification:
    """Classify δ along the change-framework dimension only (Def. 5).

    The checks are *unannotated*: Def. 5 is about which message
    sequences exist, not about their mandatory status — so each is a
    language-inclusion test, decided without building the difference.
    """
    old = kernel_of(old_public)
    new = kernel_of(new_public)
    return ChangeClassification(
        additive=not k_language_included(new, old),
        subtractive=not k_language_included(old, new),
        old=old_public,
        new=new_public,
    )


def classify_against_partner(
    old_public: AFSA,
    new_public: AFSA,
    partner_public: AFSA,
    partner: str = "",
    originator: str = "",
) -> ChangeClassification:
    """Full classification of δ against one partner (Defs. 5 + 6).

    When *partner* is given, both operands are projected onto the
    bilateral conversation first (τ_partner on the originator side; the
    partner's own public process is projected onto the originator's
    party if it mentions third parties) — Sect. 3.4's prerequisite that
    "the processes to be compared are representing the bilateral
    message exchanges only".

    The variance test is the *annotated* product emptiness: mandatory
    messages decide variance (this is what makes Fig. 12b empty).  When
    the *originator*'s party is named, the operands are asked in the
    consistency sweep's order (:func:`repro.core.sweep.grid_operands`),
    so the post-commit re-sweep of the pair finds this verdict cached.
    """
    if partner:
        old_view = project_view(old_public, partner)
        new_view = project_view(new_public, partner)
    else:
        old_view = old_public
        new_view = new_public

    classification = classify_change(old_view, new_view)
    new_kernel = kernel_of(new_view)
    partner_kernel = kernel_of(partner_public)
    operands = (
        grid_operands(originator, new_kernel, partner, partner_kernel)
        if originator
        else (new_kernel, partner_kernel)
    )
    classification.variant = not pair_verdict(*operands)
    classification.partner = partner
    classification.partner_public = partner_public
    return classification

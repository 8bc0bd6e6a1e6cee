"""View generation τ_P (Sect. 3.4).

Bilateral consistency checking compares processes "representing the
bilateral message exchanges only".  The view ``τ_P(wf)`` of party P on a
public process *wf* is generated by relabeling all transitions not
related to P with the empty word ε, then minimizing (the paper shows the
minimized buyer and logistics views of the accounting process, Fig. 8).

Annotations mentioning foreign messages are neutralized (variables
substituted with ``true``): such requirements belong to a *different*
bilateral conversation and can never be satisfied by an ε-labeled
transition — without neutralization every projected view would be
trivially empty, contradicting Figs. 8/10/12/16 (see DESIGN.md).

The projection runs on the integer-dense kernel
(:mod:`repro.afsa.kernel`): :func:`k_project_raw` moves foreign label
ids into the ε rows and neutralizes the annotation map, and
:func:`project_view` hands that kernel straight to
:func:`~repro.afsa.kernel.k_minimize`.  No intermediate ``AFSA`` is
built; the one materialization is the returned view, whose kernel the
consistency sweeps and the lazy verdict engine consume directly.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import (
    Kernel,
    k_minimize,
    k_remove_epsilon,
    kernel_of,
    materialize,
)
from repro.formula.ast import Formula, TRUE
from repro.formula.simplify import simplify
from repro.formula.transform import substitute
from repro.messages.alphabet import INTERNER
from repro.messages.label import label_involves


def _neutralize_foreign_variables(formula: Formula, partner: str) -> Formula:
    """Substitute ``true`` for variables not involving *partner*."""

    def resolver(name: str):
        if label_involves(name, partner):
            return None  # keep
        return True  # neutralize

    return simplify(substitute(formula, resolver))


def k_project_raw(kernel: Kernel, partner: str) -> Kernel:
    """The relabeled view kernel: foreign label ids become ε moves,
    foreign annotation variables become ``true``; state numbering and
    names are kept (so view states map back to the original states)."""
    involved = frozenset(
        lid
        for lid in kernel.alphabet_ids
        if label_involves(INTERNER.label(lid), partner)
    )
    adj: list = []
    eps: list = []
    for state, row in enumerate(kernel.adj):
        kept: dict = {}
        silent = kernel.eps[state]
        foreign = None
        for lid, targets in row.items():
            if lid in involved:
                kept[lid] = targets
            elif foreign is None:
                foreign = list(silent) + list(targets)
            else:
                foreign.extend(targets)
        adj.append(kept)
        eps.append(silent if foreign is None else tuple(dict.fromkeys(foreign)))

    ann: dict = {}
    for state, formula in kernel.ann.items():
        neutralized = _neutralize_foreign_variables(formula, partner)
        if neutralized != TRUE:
            ann[state] = neutralized

    return Kernel(
        n=kernel.n,
        start=kernel.start,
        names=kernel.names,
        finals=kernel.finals,
        ann=ann,
        adj=adj,
        eps=eps,
        alphabet_ids=involved,
    )


def _view_name(automaton: AFSA, partner: str) -> str:
    return f"τ_{partner}({automaton.name or 'A'})"


def project_view_raw(automaton: AFSA, partner: str) -> AFSA:
    """Return the *relabeled* view: foreign messages become ε, foreign
    annotation variables become ``true``, state identities are kept.

    This is the pre-minimization stage of τ_partner, materialized for
    inspection; the propagation pipeline works on :func:`k_project_raw`
    directly.
    """
    return materialize(
        k_project_raw(kernel_of(automaton), partner),
        name=_view_name(automaton, partner),
    )


def project_view(
    automaton: AFSA, partner: str, minimize: bool = True
) -> AFSA:
    """Return τ_partner(automaton): the bilateral view on *automaton*.

    Views are memoized per ``(partner, minimize)`` on the (immutable)
    automaton instance: the evolution engine projects the same public
    process once per conversation partner per assessment, and repeated
    consistency sweeps hit the memo instead of re-running
    relabel + minimize.

    Args:
        automaton: a public process aFSA.
        partner: the viewing party; messages not involving it become ε.
        minimize: minimize the result (paper default).  Pass False to
            get the ε-eliminated but unminimized automaton.
    """
    memo = automaton._view_memo
    if memo is None:
        memo = automaton._view_memo = {}
    key = (partner, minimize)
    view = memo.get(key)
    if view is None:
        projected = k_project_raw(kernel_of(automaton), partner)
        reduced = (
            k_minimize(projected) if minimize
            else k_remove_epsilon(projected)
        )
        view = materialize(reduced, name=_view_name(automaton, partner))
        memo[key] = view
    return view

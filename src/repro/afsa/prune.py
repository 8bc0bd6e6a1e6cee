"""Dead-state pruning for diagnostic and proposal automata.

The difference operator (Def. 4) completes its operands, so its results
contain sink states and other dead branches — states from which no final
state is reachable.  For the *annotated* emptiness test such branches
are meaningful (they falsify mandatory variables), but the propagation
pipeline (Sect. 5) strips annotations from its diagnostics before
presenting them, and there the dead branches are pure noise: they make
``A''`` appear to "support every message" and would flood the proposal
``B' = A'' ∪ B`` with sink transitions.

:func:`prune_dead_states` removes every state from which no final state
is reachable (keeping the start state so the automaton stays
well-formed).  The accepted language is unchanged.

The pruning runs on the integer-dense kernel
(:func:`k_prune_dead_states`); :func:`prune_dead_states` is the
``AFSA`` boundary wrapper.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.kernel import Kernel, kernel_of, materialize


def k_prune_dead_states(kernel: Kernel) -> Kernel:
    """*kernel* restricted to its reachable, co-reachable states (plus
    the start state); the kernel itself when nothing is dead."""
    keep = set(kernel.coreachable() & kernel.reachable())
    keep.add(kernel.start)
    if len(keep) == kernel.n:
        return kernel
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    adj = []
    eps = []
    for old in order:
        row = {}
        for lid, targets in kernel.adj[old].items():
            kept = tuple(remap[t] for t in targets if t in remap)
            if kept:
                row[lid] = kept
        adj.append(row)
        eps.append(tuple(remap[t] for t in kernel.eps[old] if t in remap))
    return Kernel(
        n=len(order),
        start=remap[kernel.start],
        names=[kernel.names[old] for old in order],
        finals=frozenset(
            remap[state] for state in kernel.finals if state in remap
        ),
        ann={
            remap[state]: formula
            for state, formula in kernel.ann.items()
            if state in remap
        },
        adj=adj,
        eps=eps,
        alphabet_ids=kernel.alphabet_ids,
    )


def prune_dead_states(automaton: AFSA) -> AFSA:
    """Return *automaton* without states that cannot reach a final state.

    Language-preserving.  The start state is always kept (an automaton
    needs one) even when the language is empty.
    """
    kernel = kernel_of(automaton)
    pruned = k_prune_dead_states(kernel)
    if pruned is kernel:
        return automaton
    return materialize(pruned, name=automaton.name)

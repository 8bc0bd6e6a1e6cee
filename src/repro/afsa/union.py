"""aFSA union.

Step "ad 2" of additive propagation (Sect. 5.2) grafts the newly
introduced message sequences onto the partner's public process:
``B' := A'' ∪ B``.  The paper constructs the union via De Morgan
(``A ∪ B ≡ ¬(¬A ∩ ¬B)``); we provide that construction
(:func:`union_de_morgan`) for fidelity, but default to the direct
construction (:func:`union`) — a fresh start state with ε-moves into both
operands — because it *preserves annotations* of both operands, which the
complement-based route cannot (complement is only defined on the
unannotated language; see :mod:`repro.afsa.complement`).

Both constructions accept exactly ``L(A) ∪ L(B)``; the property-based
test suite checks them against each other on random automata.
"""

from __future__ import annotations

from repro.afsa.automaton import AFSA
from repro.afsa.complement import complement
from repro.afsa.kernel import (
    Kernel,
    k_remove_epsilon,
    kernel_of,
    materialize,
)
from repro.afsa.product import intersect


def k_union(left: Kernel, right: Kernel) -> Kernel:
    """The direct union on kernels (see :func:`union`): operand states
    tagged ``(0, name)`` / ``(1, name)``, a fresh ``("∪", "start")``
    with ε-moves into both starts, then ε-eliminated."""
    fresh = left.n + right.n
    names: list = [(0, name) for name in left.names]
    names.extend((1, name) for name in right.names)
    names.append(("∪", "start"))
    offset = left.n
    adj = list(left.adj)
    adj.extend(
        {lid: tuple(t + offset for t in targets) for lid, targets in row.items()}
        for row in right.adj
    )
    adj.append({})
    eps = list(left.eps)
    eps.extend(tuple(t + offset for t in row) for row in right.eps)
    eps.append((left.start, right.start + offset))
    ann = dict(left.ann)
    ann.update(
        (state + offset, formula) for state, formula in right.ann.items()
    )
    joined = Kernel(
        n=fresh + 1,
        start=fresh,
        names=names,
        finals=left.finals | frozenset(s + offset for s in right.finals),
        ann=ann,
        adj=adj,
        eps=eps,
        alphabet_ids=left.alphabet_ids | right.alphabet_ids,
    )
    return k_remove_epsilon(joined)


def union(left: AFSA, right: AFSA, name: str = "") -> AFSA:
    """Return the direct (annotation-preserving) union of two aFSAs.

    States of the operands are tagged with ``0``/``1`` to keep them
    disjoint; a fresh start state reaches both via ε, and the result is
    ε-eliminated.  Annotations are carried over per branch (the fresh
    start inherits the conjunction of both start annotations through
    ε-elimination — a requirement both alternatives impose is imposed by
    the union as well).
    """
    if not name:
        left_name = left.name or "A"
        right_name = right.name or "B"
        name = f"({left_name} ∪ {right_name})"
    return materialize(
        k_union(kernel_of(left), kernel_of(right)), name=name
    )


def union_de_morgan(left: AFSA, right: AFSA, name: str = "") -> AFSA:
    """Return the union via De Morgan: ``¬(¬A ∩ ¬B)`` (paper, Sect. 5.2).

    The result has no annotations (complement erases them); use
    :func:`union` when annotations must survive.
    """
    sigma = left.alphabet.union(right.alphabet)
    not_left = complement(left, alphabet=sigma)
    not_right = complement(right, alphabet=sigma)
    both = intersect(not_left, not_right)
    result = complement(both, alphabet=sigma)
    if not name:
        left_name = left.name or "A"
        right_name = right.name or "B"
        name = f"({left_name} ∪ {right_name})"
    return result.with_name(name)

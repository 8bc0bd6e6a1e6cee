"""The interned integer-dense kernel behind the aFSA operator algebra.

Every algorithm in this package (ε-elimination, subset construction,
product, difference, completion, minimization, emptiness) used to run
directly on :class:`~repro.afsa.automaton.AFSA` instances: hashable
arbitrary state objects, frozensets everywhere, and a full validating
``AFSA.__init__`` for every intermediate result.  The kernel replaces
that with a dense representation:

* states are contiguous ints ``0..n-1`` (original identities kept in
  :attr:`Kernel.names` for materialization at API boundaries),
* labels are interned to ints via the process-wide
  :data:`repro.messages.alphabet.INTERNER` table, shared across all
  kernels so products and differences compare label ids directly,
* transitions live in per-source adjacency dicts grouped by label id
  (``adj[source][label_id] -> (target, ...)``) with ε-moves in a
  separate ``eps[source]`` array,
* derived facts — ε-closures, reachability, the determinism flag, the
  ε-free and determinized forms, and (PR 2) the good-state set of the
  annotated emptiness test — are computed once and memoized on the
  kernel instead of being recomputed by every operator call; the
  emptiness fixpoint itself is the incremental SCC/worklist algorithm
  documented on :func:`k_good_states`.

Public ``AFSA`` values are only materialized at API boundaries via
:func:`materialize`, which uses the trusted ``AFSA._trusted``
constructor (no revalidation, no label re-parsing, no annotation
re-simplification) and attaches the kernel to the result so chained
operator calls never rebuild it.

State-naming conventions of the original operators are preserved
exactly: ε-elimination keeps original identities, determinization
produces frozensets of base states, products produce pairs, completion
adds the ``__sink__`` state, and minimization numbers blocks ``m0…`` in
BFS order — so golden tests and the paper-figure reproductions are
bit-for-bit unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.afsa.automaton import AFSA, Transition
from repro.formula.ast import And, TRUE, Formula, Top, Var
from repro.formula.evaluate import evaluate
from repro.formula.simplify import conjoin
from repro.formula.transform import is_positive
from repro.formula.transform import variables as formula_variables
from repro.messages.alphabet import Alphabet, INTERNER
from repro.messages.label import EPSILON

#: Name of the synthetic sink state added by completion (kept in sync
#: with the historical ``repro.afsa.complete.SINK_NAME``).
SINK_NAME = "__sink__"


def interned_label_ids(labels) -> frozenset:
    """Intern an optional label iterable to a frozenset of label ids.

    ``None`` (the "no extra alphabet" convention of completion and
    complement) becomes the empty set; ε is never interned.
    """
    if labels is None:
        return frozenset()
    return frozenset(
        INTERNER.intern(label) for label in Alphabet(labels)._labels
    )


class Kernel:
    """A dense aFSA: int states, interned int labels, memoized facts."""

    __slots__ = (
        "n",
        "start",
        "names",
        "finals",
        "ann",
        "adj",
        "eps",
        "alphabet_ids",
        "has_epsilon",
        "_index",
        "_closures",
        "_reachable",
        "_deterministic",
        "_eps_free",
        "_det",
        "_subsets",
        "_sorted_labels",
        "_good",
        "_coreach",
        "_replay",
        "_label_masks",
        "_ann_profile",
        "_digest",
    )

    def __init__(
        self,
        n: int,
        start: int,
        names: list,
        finals: frozenset,
        ann: dict,
        adj: list,
        eps: list,
        alphabet_ids: frozenset,
    ):
        self.n = n
        self.start = start
        self.names = names
        self.finals = finals
        self.ann = ann
        self.adj = adj
        self.eps = eps
        self.alphabet_ids = alphabet_ids
        self.has_epsilon = any(eps)
        self._index = None
        self._closures = None
        self._reachable = None
        self._deterministic = None
        self._eps_free = None
        self._det = None
        self._subsets = None
        self._sorted_labels = None
        self._good = None
        self._coreach = None
        self._replay = None
        self._label_masks = None
        self._ann_profile = None
        self._digest = None

    # -- memoized derived facts -------------------------------------------

    def index(self) -> dict:
        """Return (and cache) the name → int mapping."""
        if self._index is None:
            self._index = {
                name: i for i, name in enumerate(self.names)
            }
        return self._index

    @property
    def deterministic(self) -> bool:
        """ε-free with at most one successor per (state, label)."""
        if self._deterministic is None:
            self._deterministic = not self.has_epsilon and all(
                len(targets) <= 1
                for row in self.adj
                for targets in row.values()
            )
        return self._deterministic

    def closures(self) -> list:
        """Return (and cache) the ε-closure of every state as a tuple."""
        if self._closures is None:
            eps = self.eps
            closures: list = [None] * self.n
            for state in range(self.n):
                if not eps[state]:
                    closures[state] = (state,)
                    continue
                seen = {state}
                frontier = [state]
                while frontier:
                    current = frontier.pop()
                    for target in eps[current]:
                        if target not in seen:
                            seen.add(target)
                            frontier.append(target)
                closures[state] = tuple(seen)
            self._closures = closures
        return self._closures

    def reachable(self) -> frozenset:
        """Return (and cache) states reachable from start (Σ ∪ {ε})."""
        if self._reachable is None:
            seen = {self.start}
            frontier = [self.start]
            adj = self.adj
            eps = self.eps
            while frontier:
                state = frontier.pop()
                for targets in adj[state].values():
                    for target in targets:
                        if target not in seen:
                            seen.add(target)
                            frontier.append(target)
                for target in eps[state]:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
            self._reachable = frozenset(seen)
        return self._reachable

    def coreachable(self) -> frozenset:
        """Return (and cache) states from which a final state is
        FSA-reachable (annotations ignored — the classical liveness the
        migration classifier contrasts with the annotated good set)."""
        if self._coreach is None:
            preds: list = [[] for _ in range(self.n)]
            for source in range(self.n):
                for targets in self.adj[source].values():
                    for target in targets:
                        preds[target].append(source)
                for target in self.eps[source]:
                    preds[target].append(source)
            seen = set(self.finals)
            frontier = list(self.finals)
            while frontier:
                state = frontier.pop()
                for predecessor in preds[state]:
                    if predecessor not in seen:
                        seen.add(predecessor)
                        frontier.append(predecessor)
            self._coreach = frozenset(seen)
        return self._coreach

    def sorted_label_ids(self) -> list:
        """Return Σ's label ids sorted by canonical label text."""
        if self._sorted_labels is None:
            self._sorted_labels = sorted(
                self.alphabet_ids, key=INTERNER.text
            )
        return self._sorted_labels

    def annotation(self, state: int) -> Formula:
        """Return the annotation of int state *state* (default true)."""
        return self.ann.get(state, TRUE)

    def label_masks(self) -> list:
        """Return (and cache) each state's outgoing labels as a bitset.

        Bit ``lid`` of ``label_masks()[s]`` is set iff state ``s`` has a
        labeled transition with interned label id ``lid``.  Python ints
        are unbounded, so the mask doubles as an O(1) "shared labels"
        probe for the on-the-fly product (``mask_a & mask_b``) — the
        bitset successor encoding of :mod:`repro.afsa.lazy`.
        """
        if self._label_masks is None:
            masks = []
            for row in self.adj:
                mask = 0
                for lid in row:
                    mask |= 1 << lid
                masks.append(mask)
            self._label_masks = masks
        return self._label_masks

    def ann_profile(self) -> tuple:
        """Return (and cache) the annotation classification the lazy
        product engine consumes: ``(conj_masks, complex_states,
        positive)``.

        * ``conj_masks`` maps each state whose annotation is a pure
          conjunction of variables to the bitset of the variables'
          interned label ids — satisfiability under a label bitset is
          then one mask test (``needed & ~available == 0``);
        * ``complex_states`` maps the remaining *positive* annotated
          states to ``(formula, ((name, lid), …))`` for explicit
          evaluation;
        * ``positive`` is False when any annotation contains negation —
          the lazy engine's monotone certificate bounds (and its
          dead-pair pruning) rely on positivity, so the engine then
          switches to the three-valued dual-rail bounds
          (:meth:`repro.afsa.lazy._PairExploration.dual_rail`) on an
          unpruned exploration.
        """
        if self._ann_profile is None:
            intern = INTERNER.intern
            conj_masks: dict = {}
            complex_states: dict = {}
            positive = True
            for state, formula in self.ann.items():
                names = _conjunction_variables(formula)
                if names is not None:
                    mask = 0
                    for name in names:
                        mask |= 1 << intern(name)
                    conj_masks[state] = mask
                elif is_positive(formula):
                    complex_states[state] = (
                        formula,
                        tuple(
                            (name, intern(name))
                            for name in formula_variables(formula)
                        ),
                    )
                else:
                    positive = False
            self._ann_profile = (conj_masks, complex_states, positive)
        return self._ann_profile


# -- AFSA ⇄ kernel conversion ------------------------------------------------


def kernel_of(automaton: AFSA) -> Kernel:
    """Return (building and caching on first use) *automaton*'s kernel."""
    kernel = automaton._kernel
    if kernel is None:
        kernel = _build_kernel(automaton)
        automaton._kernel = kernel
    return kernel


def _canonical_key(name) -> tuple:
    """A total order on state names that no hash seed can perturb.

    Names are strings, ints, and tuples or frozensets of names (pairs
    from products, subsets from determinization); a frozenset's own
    iteration order — and so its ``repr`` — depends on
    ``PYTHONHASHSEED``, so it is keyed by its sorted members instead.
    """
    if isinstance(name, str):
        return (0, name)
    if isinstance(name, int):
        return (1, name)
    if isinstance(name, tuple):
        return (2, tuple(_canonical_key(part) for part in name))
    if isinstance(name, frozenset):
        return (3, tuple(sorted(_canonical_key(part) for part in name)))
    return (4, type(name).__name__, repr(name))


def _build_kernel(automaton: AFSA) -> Kernel:
    # States are numbered, and each row's labels and targets ordered,
    # canonically rather than in set-iteration order: the dense arrays
    # (and with them the wire tuple and its digest, ARCHITECTURE.md
    # contract 8) must not depend on the interpreter's hash seed.
    names = sorted(automaton.states, key=_canonical_key)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    intern = INTERNER.intern
    text_of = INTERNER.text

    adj_lists: list = [None] * n
    eps_lists: list = [None] * n
    for transition in automaton.transitions:
        source = index[transition.source]
        target = index[transition.target]
        if transition.is_silent:
            bucket = eps_lists[source]
            if bucket is None:
                bucket = eps_lists[source] = []
            bucket.append(target)
        else:
            row = adj_lists[source]
            if row is None:
                row = adj_lists[source] = {}
            row.setdefault(intern(transition.label), []).append(target)

    adj = [
        {}
        if row is None
        else {
            lid: tuple(sorted(row[lid]))
            for lid in sorted(row, key=text_of)
        }
        for row in adj_lists
    ]
    eps = [
        () if bucket is None else tuple(sorted(bucket))
        for bucket in eps_lists
    ]

    kernel = Kernel(
        n=n,
        start=index[automaton.start],
        names=names,
        finals=frozenset(index[name] for name in automaton.finals),
        ann={
            index[name]: formula
            for name, formula in automaton._annotations.items()
        },
        adj=adj,
        eps=eps,
        alphabet_ids=frozenset(
            intern(label) for label in automaton.alphabet._labels
        ),
    )
    kernel._index = index
    return kernel


def materialize(kernel: Kernel, name: str = "") -> AFSA:
    """Materialize a public :class:`AFSA` from *kernel* (trusted path)."""
    label_of = INTERNER.label
    names = kernel.names
    transitions = []
    for source, row in enumerate(kernel.adj):
        source_name = names[source]
        for lid, targets in row.items():
            label = label_of(lid)
            for target in targets:
                transitions.append(
                    Transition(source_name, label, names[target])
                )
    for source, targets in enumerate(kernel.eps):
        source_name = names[source]
        for target in targets:
            transitions.append(
                Transition(source_name, EPSILON, names[target])
            )

    automaton = AFSA._trusted(
        states=frozenset(names),
        transitions=frozenset(transitions),
        start=names[kernel.start],
        finals=frozenset(names[i] for i in kernel.finals),
        annotations={
            names[i]: formula for i, formula in kernel.ann.items()
        },
        alphabet=Alphabet._from_parsed(
            frozenset(label_of(lid) for lid in kernel.alphabet_ids)
        ),
        name=name,
    )
    automaton._kernel = kernel
    return automaton


# -- core constructions ------------------------------------------------------


def k_trim(kernel: Kernel) -> Kernel:
    """Restrict *kernel* to the states reachable from start."""
    reachable = kernel.reachable()
    if len(reachable) == kernel.n:
        return kernel
    order = sorted(reachable)
    remap = {old: new for new, old in enumerate(order)}
    trimmed = Kernel(
        n=len(order),
        start=remap[kernel.start],
        names=[kernel.names[old] for old in order],
        finals=frozenset(
            remap[state] for state in kernel.finals if state in reachable
        ),
        ann={
            remap[state]: formula
            for state, formula in kernel.ann.items()
            if state in reachable
        },
        adj=[
            {
                lid: tuple(remap[t] for t in targets)
                for lid, targets in kernel.adj[old].items()
            }
            for old in order
        ],
        eps=[
            tuple(remap[t] for t in kernel.eps[old]) for old in order
        ],
        alphabet_ids=kernel.alphabet_ids,
    )
    return trimmed


def k_with(kernel: Kernel, names: list | None = None, ann: dict | None = None) -> Kernel:
    """*kernel* with its state *names* and/or annotation map *ann*
    replaced; the transition structure is shared.  The ε-free memo
    carries over (neither change adds or removes moves), the
    determinization memo only when the annotations stay."""
    result = Kernel(
        n=kernel.n,
        start=kernel.start,
        names=kernel.names if names is None else names,
        finals=kernel.finals,
        ann=kernel.ann if ann is None else ann,
        adj=kernel.adj,
        eps=kernel.eps,
        alphabet_ids=kernel.alphabet_ids,
    )
    if kernel._eps_free is kernel:
        result._eps_free = result
    if ann is None and kernel._det is kernel:
        result._det = result
        result._deterministic = True
    return result


def k_remove_epsilon(kernel: Kernel) -> Kernel:
    """ε-free equivalent with the original state identities (trimmed).

    Matches the historical ``remove_epsilon``: every state inherits the
    non-ε transitions, finality, and conjoined annotations of its
    ε-closure (conjunction ordered by the repr of the member names);
    unreachable states are dropped.
    """
    if kernel._eps_free is not None:
        return kernel._eps_free

    if not kernel.has_epsilon:
        result = k_trim(kernel)
    else:
        closures = kernel.closures()
        names = kernel.names
        finals = kernel.finals
        ann = kernel.ann
        adj = kernel.adj

        new_finals = set()
        new_ann: dict = {}
        new_adj: list = []
        for state in range(kernel.n):
            closure = closures[state]
            if len(closure) == 1:
                if state in finals:
                    new_finals.add(state)
                formula = ann.get(state, TRUE)
                row = dict(adj[state])
            else:
                if any(member in finals for member in closure):
                    new_finals.add(state)
                formula = TRUE
                for member in sorted(
                    closure, key=lambda i: repr(names[i])
                ):
                    member_formula = ann.get(member)
                    if member_formula is not None:
                        formula = conjoin(formula, member_formula)
                merged: dict = {}
                for member in closure:
                    for lid, targets in adj[member].items():
                        bucket = merged.get(lid)
                        if bucket is None:
                            merged[lid] = set(targets)
                        else:
                            bucket.update(targets)
                row = {
                    lid: tuple(targets)
                    for lid, targets in merged.items()
                }
            if formula != TRUE:
                new_ann[state] = formula
            new_adj.append(row)

        intermediate = Kernel(
            n=kernel.n,
            start=kernel.start,
            names=list(names),
            finals=frozenset(new_finals),
            ann=new_ann,
            adj=new_adj,
            eps=[()] * kernel.n,
            alphabet_ids=kernel.alphabet_ids,
        )
        result = k_trim(intermediate)

    result._eps_free = result
    kernel._eps_free = result
    return result


def k_determinize(kernel: Kernel) -> Kernel:
    """Subset construction (annotations conjoined per macro state).

    Macro-state names are frozensets of the ε-free base-state names,
    exactly as the historical ``determinize`` produced; the member
    int states of each macro (states of ``k_remove_epsilon(kernel)``)
    are kept in ``_subsets`` for :func:`k_minimize_with_members`.  A
    deterministic base is returned as is (``_subsets`` stays None: each
    state is its own singleton macro).
    """
    if kernel._det is not None:
        return kernel._det
    base = k_remove_epsilon(kernel)
    if base.deterministic:
        kernel._det = base
        return base
    if base._det is not None:
        kernel._det = base._det
        return base._det

    names = base.names
    adj = base.adj

    start_key = frozenset({base.start})
    macro_ids: dict = {start_key: 0}
    macro_members: list = [start_key]
    transitions: list = [{}]
    frontier = [start_key]
    while frontier:
        macro = frontier.pop()
        macro_id = macro_ids[macro]
        by_label: dict = {}
        for member in macro:
            for lid, targets in adj[member].items():
                bucket = by_label.get(lid)
                if bucket is None:
                    by_label[lid] = set(targets)
                else:
                    bucket.update(targets)
        row = transitions[macro_id]
        for lid, successor_set in by_label.items():
            successor = frozenset(successor_set)
            successor_id = macro_ids.get(successor)
            if successor_id is None:
                successor_id = len(macro_members)
                macro_ids[successor] = successor_id
                macro_members.append(successor)
                transitions.append({})
                frontier.append(successor)
            row[lid] = (successor_id,)

    base_finals = base.finals
    base_ann = base.ann
    finals = set()
    ann: dict = {}
    macro_names: list = []
    for macro_id, members in enumerate(macro_members):
        macro_names.append(frozenset(names[i] for i in members))
        if any(member in base_finals for member in members):
            finals.add(macro_id)
        formula: Formula = TRUE
        for member in sorted(members, key=lambda i: repr(names[i])):
            member_formula = base_ann.get(member)
            if member_formula is not None:
                formula = conjoin(formula, member_formula)
        if formula != TRUE:
            ann[macro_id] = formula

    result = Kernel(
        n=len(macro_members),
        start=0,
        names=macro_names,
        finals=frozenset(finals),
        ann=ann,
        adj=transitions,
        eps=[()] * len(macro_members),
        alphabet_ids=base.alphabet_ids,
    )
    result._deterministic = True
    result._eps_free = result
    result._det = result
    result._subsets = macro_members
    base._det = result
    kernel._det = result
    return result


def k_is_complete(kernel: Kernel, sigma_ids: frozenset) -> bool:
    """True if every state has a transition for every label in Σ."""
    if kernel.has_epsilon:
        return False
    return all(
        sigma_ids <= row.keys() for row in kernel.adj
    )


def k_complete(kernel: Kernel, sigma_ids: frozenset) -> Kernel:
    """Complete *kernel* over Σ ∪ *sigma_ids* with a non-final sink.

    The input must be ε-free.  Already-complete kernels are returned
    with the extended alphabet only.
    """
    if kernel.has_epsilon:
        raise ValueError(
            "complete() requires an ε-free automaton; "
            "call remove_epsilon() first"
        )
    sigma = kernel.alphabet_ids | sigma_ids
    missing = [
        (state, [lid for lid in sigma if lid not in kernel.adj[state]])
        for state in range(kernel.n)
    ]
    if not any(lids for _, lids in missing):
        if sigma == kernel.alphabet_ids:
            return kernel
        result = Kernel(
            n=kernel.n,
            start=kernel.start,
            names=list(kernel.names),
            finals=kernel.finals,
            ann=dict(kernel.ann),
            adj=kernel.adj,
            eps=kernel.eps,
            alphabet_ids=sigma,
        )
        return result

    sink_name = SINK_NAME
    existing = set(kernel.names)
    while sink_name in existing:
        sink_name += "_"
    sink = kernel.n

    adj = []
    for state, lids in missing:
        row = dict(kernel.adj[state])
        for lid in lids:
            row[lid] = (sink,)
        adj.append(row)
    adj.append({lid: (sink,) for lid in sigma})

    result = Kernel(
        n=kernel.n + 1,
        start=kernel.start,
        names=list(kernel.names) + [sink_name],
        finals=kernel.finals,
        ann=dict(kernel.ann),
        adj=adj,
        eps=[()] * (kernel.n + 1),
        alphabet_ids=sigma,
    )
    return result


def k_intersect(left: Kernel, right: Kernel) -> Kernel:
    """Annotated intersection (Def. 3) of two kernels.

    Operands are ε-eliminated (a cheap memo hit when already ε-free);
    product-state names are ``(left_name, right_name)`` pairs and
    annotations are the conjunction of the operand annotations.
    """
    a = k_remove_epsilon(left)
    b = k_remove_epsilon(right)

    a_adj, b_adj = a.adj, b.adj
    a_ann, b_ann = a.ann, b.ann
    a_finals, b_finals = a.finals, b.finals

    start = (a.start, b.start)
    pair_ids: dict = {start: 0}
    pairs: list = [start]
    adj: list = [{}]
    frontier = [start]
    while frontier:
        pair = frontier.pop()
        state_a, state_b = pair
        row_a = a_adj[state_a]
        row_b = b_adj[state_b]
        # Iterate the smaller row's labels when probing for shared ones.
        if len(row_b) < len(row_a):
            shared = [lid for lid in row_b if lid in row_a]
        else:
            shared = [lid for lid in row_a if lid in row_b]
        row = adj[pair_ids[pair]]
        for lid in shared:
            bucket = []
            for target_a in row_a[lid]:
                for target_b in row_b[lid]:
                    target = (target_a, target_b)
                    target_id = pair_ids.get(target)
                    if target_id is None:
                        target_id = len(pairs)
                        pair_ids[target] = target_id
                        pairs.append(target)
                        adj.append({})
                        frontier.append(target)
                    bucket.append(target_id)
            row[lid] = tuple(bucket)

    a_names, b_names = a.names, b.names
    finals = set()
    ann: dict = {}
    names: list = []
    for pair_id, (state_a, state_b) in enumerate(pairs):
        names.append((a_names[state_a], b_names[state_b]))
        if state_a in a_finals and state_b in b_finals:
            finals.add(pair_id)
        formula_a = a_ann.get(state_a)
        formula_b = b_ann.get(state_b)
        if formula_a is None and formula_b is None:
            continue
        formula = conjoin(
            formula_a if formula_a is not None else TRUE,
            formula_b if formula_b is not None else TRUE,
        )
        if formula != TRUE:
            ann[pair_id] = formula

    result = Kernel(
        n=len(pairs),
        start=0,
        names=names,
        finals=frozenset(finals),
        ann=ann,
        adj=adj,
        eps=[()] * len(pairs),
        alphabet_ids=a.alphabet_ids & b.alphabet_ids,
    )
    return result


def k_difference(left: Kernel, right: Kernel) -> Kernel:
    """Difference (Def. 4): determinize + complete over Σ1 ∪ Σ2, then
    the product with ``F = F1 × (Q2 \\ F2)``; left annotations only."""
    sigma = left.alphabet_ids | right.alphabet_ids
    a = k_complete(k_determinize(left), sigma)
    b = k_complete(k_determinize(right), sigma)

    a_adj, b_adj = a.adj, b.adj
    start = (a.start, b.start)
    pair_ids: dict = {start: 0}
    pairs: list = [start]
    adj: list = [{}]
    frontier = [start]
    while frontier:
        pair = frontier.pop()
        state_a, state_b = pair
        row = adj[pair_ids[pair]]
        row_b = b_adj[state_b]
        for lid, targets_a in a_adj[state_a].items():
            # Completion + determinization guarantee one successor each.
            target = (targets_a[0], row_b[lid][0])
            target_id = pair_ids.get(target)
            if target_id is None:
                target_id = len(pairs)
                pair_ids[target] = target_id
                pairs.append(target)
                adj.append({})
                frontier.append(target)
            row[lid] = (target_id,)

    a_names, b_names = a.names, b.names
    a_finals, b_finals = a.finals, b.finals
    a_ann = a.ann
    finals = set()
    ann: dict = {}
    names: list = []
    for pair_id, (state_a, state_b) in enumerate(pairs):
        names.append((a_names[state_a], b_names[state_b]))
        if state_a in a_finals and state_b not in b_finals:
            finals.add(pair_id)
        formula = a_ann.get(state_a)
        if formula is not None:
            ann[pair_id] = formula

    result = Kernel(
        n=len(pairs),
        start=0,
        names=names,
        finals=frozenset(finals),
        ann=ann,
        adj=adj,
        eps=[()] * len(pairs),
        alphabet_ids=sigma,
    )
    result._deterministic = True
    result._eps_free = result
    return result


def k_minimize(kernel: Kernel) -> Kernel:
    """Annotation-aware Moore minimization with canonical ``m0…`` names.

    Reproduces the historical ``minimize`` exactly: determinize (whose
    output is reachable by construction), initial partition by
    (finality, annotation), refinement on successor blocks, block
    naming in BFS order over labels sorted by text.
    """
    return _minimize_dfa(k_determinize(kernel))[0]


def k_minimize_with_members(kernel: Kernel) -> tuple:
    """:func:`k_minimize` plus the state correspondence of the quotient.

    Returns ``(minimized, members)`` where ``members[i]`` is the set of
    *kernel* states that minimized state ``i`` represents: the
    ε-closures of the determinize subsets merged into its block.  That
    is exactly what a lockstep subset simulation of *kernel* against
    the minimized automaton collects (both read the same words from
    their start states), read off the construction instead of
    re-simulated.
    """
    dfa = k_determinize(kernel)
    minimized, block_of = _minimize_dfa(dfa)
    base = k_remove_epsilon(kernel)
    index = kernel.index()
    closures = kernel.closures()
    base_names = base.names
    subsets = dfa._subsets
    members: list = [set() for _ in range(minimized.n)]
    for state in range(dfa.n):
        bucket = members[block_of[state]]
        for member in subsets[state] if subsets is not None else (state,):
            bucket.update(closures[index[base_names[member]]])
    return minimized, members


def _minimize_dfa(dfa: Kernel) -> tuple:
    """Minimize the reachable DFA *dfa*; return ``(minimized, block)``
    with ``block[s]`` the minimized state of DFA state ``s``."""
    n = dfa.n
    labels = dfa.sorted_label_ids()

    # succ[s][li] = successor of state s on label index li, or -1.
    succ = []
    for state in range(n):
        row = dfa.adj[state]
        succ.append(
            [
                row[lid][0] if lid in row else -1
                for lid in labels
            ]
        )

    # Initial partition: (finality, annotation) classes.  block_of
    # carries one trailing -1 so that a missing successor (-1) reads
    # back as block -1 without a branch.
    finals = dfa.finals
    ann = dfa.ann
    class_ids: dict = {}
    block_of = [0] * n + [-1]
    for state in range(n):
        key = (state in finals, ann.get(state, TRUE))
        block = class_ids.get(key)
        if block is None:
            block = len(class_ids)
            class_ids[key] = block
        block_of[state] = block
    block_count = len(class_ids)

    while True:
        signature_ids: dict = {}
        new_block_of = [0] * n + [-1]
        block_at = block_of.__getitem__
        for state in range(n):
            signature = (block_of[state], *map(block_at, succ[state]))
            block = signature_ids.get(signature)
            if block is None:
                block = len(signature_ids)
                signature_ids[signature] = block
            new_block_of[state] = block
        if len(signature_ids) == block_count:
            block_of = new_block_of
            break
        block_count = len(signature_ids)
        block_of = new_block_of

    # One representative per block (all members agree on successors,
    # finality, and annotation).
    representative: dict = {}
    for state in range(n):
        representative.setdefault(block_of[state], state)

    # Name blocks in BFS order from the start block.
    start_block = block_of[dfa.start]
    order = [start_block]
    seen = {start_block}
    cursor = 0
    while cursor < len(order):
        block = order[cursor]
        cursor += 1
        rep = representative[block]
        for target in succ[rep]:
            if target >= 0:
                successor_block = block_of[target]
                if successor_block not in seen:
                    seen.add(successor_block)
                    order.append(successor_block)
    for block in sorted(representative):  # unreachable blocks, stable
        if block not in seen:
            seen.add(block)
            order.append(block)

    position = {block: i for i, block in enumerate(order)}
    names = [f"m{i}" for i in range(len(order))]
    adj: list = [dict() for _ in range(len(order))]
    new_finals = set()
    new_ann: dict = {}
    for block in order:
        rep = representative[block]
        row = adj[position[block]]
        for li, lid in enumerate(labels):
            target = succ[rep][li]
            if target >= 0:
                row[lid] = (position[block_of[target]],)
        if rep in finals:
            new_finals.add(position[block])
        formula = ann.get(rep)
        if formula is not None:
            new_ann[position[block]] = formula

    result = Kernel(
        n=len(order),
        start=position[start_block],
        names=names,
        finals=frozenset(new_finals),
        ann=new_ann,
        adj=adj,
        eps=[()] * len(order),
        alphabet_ids=dfa.alphabet_ids,
    )
    result._deterministic = True
    result._eps_free = result
    result._det = result
    return result, [position[block] for block in block_of[:n]]


# -- emptiness ----------------------------------------------------------------


def _tarjan_sccs(succs: list) -> tuple:
    """Iterative Tarjan over per-state successor lists.

    Returns ``(comp, components)`` where ``comp[s]`` is the component id
    of state ``s`` and ``components`` lists member states per component,
    emitted sinks-first (reverse topological order of the condensation),
    so a single forward pass over ``components`` sees every successor
    component before the component that reaches it.
    """
    n = len(succs)
    index_of = [0] * n  # 0 = unvisited, else discovery index + 1
    low = [0] * n
    on_stack = bytearray(n)
    scc_stack: list = []
    comp = [-1] * n
    components: list = []
    counter = 1
    for root in range(n):
        if index_of[root]:
            continue
        work = [(root, 0)]
        while work:
            node, cursor = work[-1]
            if cursor == 0:
                index_of[node] = low[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack[node] = 1
            row = succs[node]
            descended = False
            while cursor < len(row):
                target = row[cursor]
                cursor += 1
                if not index_of[target]:
                    work[-1] = (node, cursor)
                    work.append((target, 0))
                    descended = True
                    break
                if on_stack[target] and index_of[target] < low[node]:
                    low[node] = index_of[target]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                members = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp[member] = len(components)
                    members.append(member)
                    if member == node:
                        break
                components.append(members)
    return comp, components


def _conjunction_variables(formula: Formula):
    """Variable names of a pure ``v1 ∧ … ∧ vk`` formula, else None.

    The BPEL compiler and the workload generator only emit conjunctions
    of variables; for those, the worklist can delete a state the moment
    any conjunct loses its last supporting transition, without
    re-running :func:`~repro.formula.evaluate.evaluate`.
    """
    names = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.append(node.name)
        elif isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Top):
            continue
        else:
            return None
    return names


def k_good_states(kernel: Kernel, use_cache: bool = True) -> set:
    """The greatest-fixpoint *good* set of the annotated emptiness test
    (Sect. 3.2), as int states.

    ``use_cache=False`` recomputes (and re-caches) the fixpoint even
    when a cached result exists — the benchmark hook for measuring the
    algorithm rather than the memo hit.

    Incremental SCC/worklist algorithm (PR 2): instead of recomputing
    liveness and every annotation over the whole state set per fixpoint
    round (see :func:`k_good_states_naive`, retained as the reference),
    it

    1. runs Tarjan once over all transitions (labeled + ε) and seeds the
       good set from condensation liveness — a state survives seeding
       iff its SCC reaches an SCC containing a final state;
    2. maintains ``out_live[s]`` (count of out-edges into good states)
       and, per annotated state, per-variable supporting-transition
       counts; formulas are re-evaluated only when a variable's count
       drops to zero (pure conjunctions short-circuit without
       re-evaluation);
    3. processes deletions through a worklist, touching each edge O(1)
       amortized times;
    4. re-runs backward liveness only when deletions happened *and* the
       good subgraph contains a nontrivial SCC — support counting alone
       cannot detect a cycle whose every exit path died (the cycle
       states keep each other's counts positive), but is exact on DAGs.

    For negation-free annotations (the only kind the paper's framework
    generates) any such chaotic deletion order converges to the same
    greatest fixpoint as the round-based reference; the result is cached
    on the kernel (treat it as read-only).
    """
    if use_cache and kernel._good is not None:
        return kernel._good

    n = kernel.n
    adj = kernel.adj
    eps = kernel.eps
    finals = kernel.finals
    text_of = INTERNER.text

    # Combined successor lists (labeled + ε), edge multiplicity kept so
    # support counts match edge counts.
    succs: list = [None] * n
    for state in range(n):
        bucket: list = []
        for targets in adj[state].values():
            bucket.extend(targets)
        bucket.extend(eps[state])
        succs[state] = bucket

    comp, components = _tarjan_sccs(succs)

    # Condensation liveness: a component is live iff it contains a final
    # state or reaches a live component.  Components arrive sinks-first,
    # so one forward pass suffices.
    live_comp = [False] * len(components)
    for ci, members in enumerate(components):
        live = any(member in finals for member in members)
        if not live:
            for member in members:
                for target in succs[member]:
                    cj = comp[target]
                    if cj != ci and live_comp[cj]:
                        live = True
                        break
                if live:
                    break
        live_comp[ci] = live

    good = bytearray(n)
    for state in range(n):
        if live_comp[comp[state]]:
            good[state] = 1

    # Does the live subgraph contain a cycle?  Only then can support
    # counting be fooled (a stranded cycle self-supports) and a full
    # liveness recheck is ever needed.
    has_cycle = False
    for ci, members in enumerate(components):
        if not live_comp[ci]:
            continue
        if len(members) > 1 or members[0] in succs[members[0]]:
            has_cycle = True
            break

    # Liveness support: out-edge counts into good states + predecessor
    # lists restricted to the good subgraph (deleted states never come
    # back, so edges into dead seeds are dropped up front).
    out_live = [0] * n
    preds: list = [[] for _ in range(n)]
    for state in range(n):
        if not good[state]:
            continue
        count = 0
        for target in succs[state]:
            if good[target]:
                count += 1
                preds[target].append(state)
        out_live[state] = count

    queue = deque()

    # Annotation support: per annotated good state, count the supporting
    # transitions of each variable its formula mentions; ann_preds maps
    # a target state to the (source, variable) pairs its deletion must
    # decrement.
    ann_preds: list = [None] * n
    var_count: dict = {}
    satisfied: dict = {}
    conjunction: set = set()
    for state, formula in kernel.ann.items():
        if not good[state]:
            continue
        conj_vars = _conjunction_variables(formula)
        needed = (
            set(conj_vars)
            if conj_vars is not None
            else formula_variables(formula)
        )
        if not needed:  # constant formula
            if not evaluate(formula, ()):
                queue.append(state)
            continue
        counts: dict = {}
        for lid, targets in adj[state].items():
            name = text_of(lid)
            if name not in needed:
                continue
            supported = 0
            for target in targets:
                if good[target]:
                    supported += 1
                    bucket = ann_preds[target]
                    if bucket is None:
                        bucket = ann_preds[target] = []
                    bucket.append((state, name))
            if supported:
                counts[name] = counts.get(name, 0) + supported
        var_count[state] = counts
        # A positive count is truthy, so the counts dict doubles as the
        # evaluation assignment.
        if not evaluate(formula, counts):
            queue.append(state)
        else:
            satisfied[state] = formula
            if conj_vars is not None:
                conjunction.add(state)

    # Worklist: delete states, decrement supports, cascade; after each
    # drain, recheck liveness only if a deletion happened since the last
    # check *and* a stranded cycle is possible.
    deleted_since_check = False
    while True:
        while queue:
            state = queue.popleft()
            if not good[state]:
                continue
            good[state] = 0
            deleted_since_check = True
            for predecessor in preds[state]:
                if good[predecessor]:
                    out_live[predecessor] -= 1
                    if (
                        out_live[predecessor] == 0
                        and predecessor not in finals
                    ):
                        queue.append(predecessor)
            bucket = ann_preds[state]
            if bucket:
                for source, name in bucket:
                    if not good[source]:
                        continue
                    counts = var_count.get(source)
                    if counts is None:
                        continue
                    remaining = counts.get(name, 0)
                    if remaining > 1:
                        counts[name] = remaining - 1
                    elif remaining == 1:
                        counts[name] = 0  # variable flips to false
                        formula = satisfied.get(source)
                        if formula is not None and (
                            source in conjunction
                            or not evaluate(formula, counts)
                        ):
                            del satisfied[source]
                            queue.append(source)

        if not has_cycle or not deleted_since_check:
            break
        deleted_since_check = False
        # Backward liveness over the remaining good subgraph; states no
        # good final can be traced back to are stranded-cycle victims.
        visited = bytearray(n)
        frontier = [state for state in finals if good[state]]
        for state in frontier:
            visited[state] = 1
        while frontier:
            state = frontier.pop()
            for predecessor in preds[state]:
                if good[predecessor] and not visited[predecessor]:
                    visited[predecessor] = 1
                    frontier.append(predecessor)
        stranded = [
            state
            for state in range(n)
            if good[state] and not visited[state]
        ]
        if not stranded:
            break
        queue.extend(stranded)

    result = {state for state in range(n) if good[state]}
    kernel._good = result
    return result


def k_good_states_naive(kernel: Kernel) -> set:
    """Round-based whole-set reference fixpoint (the pre-PR-2 code).

    Retained as the independent oracle for the SCC/worklist algorithm:
    the property suite asserts state-for-state agreement on random
    annotated automata.  Never reads or writes the kernel's cached good
    set.
    """
    n = kernel.n
    adj = kernel.adj
    eps = kernel.eps
    text_of = INTERNER.text

    # Predecessor lists over all transitions (incl. ε).
    predecessors: list = [[] for _ in range(n)]
    for source in range(n):
        for targets in adj[source].values():
            for target in targets:
                predecessors[target].append(source)
        for target in eps[source]:
            predecessors[target].append(source)

    # Per annotated state: the labeled out-edges backing its variables.
    annotated = [
        (state, formula, [
            (text_of(lid), targets)
            for lid, targets in adj[state].items()
        ])
        for state, formula in kernel.ann.items()
    ]

    good = set(range(n))
    finals = kernel.finals
    while True:
        # Backward reachability from the good finals through good states.
        live = {state for state in finals if state in good}
        frontier = list(live)
        while frontier:
            state = frontier.pop()
            for predecessor in predecessors[state]:
                if predecessor in good and predecessor not in live:
                    live.add(predecessor)
                    frontier.append(predecessor)

        survivors = set(live)
        for state, formula, edges in annotated:
            if state not in live:
                continue
            supported = {
                text
                for text, targets in edges
                if any(target in live for target in targets)
            }
            if not evaluate(formula, supported):
                survivors.discard(state)

        if survivors == good:
            return survivors
        good = survivors


def k_is_empty(kernel: Kernel, annotated: bool = True) -> bool:
    """Emptiness on the kernel (annotated test by default)."""
    if annotated:
        return kernel.start not in k_good_states(kernel)
    return not (kernel.reachable() & kernel.finals)


def k_language_included(left: Kernel, right: Kernel) -> bool:
    """``L(left) ⊆ L(right)`` without materializing the difference.

    Runs the Def. 4 product on the fly and short-circuits on the first
    reachable ``(final, non-final)`` pair.  Completion is *implicit*:
    a label the left DFA does not enable would send it to its dead sink
    — no word through that edge is ever accepted, so the pair is never
    expanded — and a label the right DFA does not enable strands it in
    its sink, after which the inclusion fails iff the left state can
    still accept *anything* (one memoized :meth:`Kernel.coreachable`
    probe instead of exploring the sink's whole forward cone).  Neither
    completed automaton is ever built.
    """
    a = k_determinize(left)
    b = k_determinize(right)

    a_adj, b_adj = a.adj, b.adj
    a_finals, b_finals = a.finals, b.finals
    a_live = a.coreachable()
    start = (a.start, b.start)
    if start[0] in a_finals and start[1] not in b_finals:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        state_a, state_b = frontier.pop()
        row_b = b_adj[state_b]
        for lid, targets_a in a_adj[state_a].items():
            target_a = targets_a[0]
            bucket_b = row_b.get(lid)
            if bucket_b is None:
                # Right side falls into its sink: any remaining
                # acceptance on the left is a counterexample word.
                if target_a in a_live:
                    return False
                continue
            target = (target_a, bucket_b[0])
            if target not in seen:
                if target[0] in a_finals and target[1] not in b_finals:
                    return False
                seen.add(target)
                frontier.append(target)
    return True


# -- trace replay -------------------------------------------------------------


def k_start_closure(kernel: Kernel) -> frozenset:
    """The joint state of a fresh instance: ε-closure of the start."""
    return frozenset(kernel.closures()[kernel.start])


def k_replay_step(kernel: Kernel, states: frozenset, label_id: int) -> frozenset:
    """Advance a replayed state set by one executed message.

    Returns the ε-closed successor set of *states* under *label_id*;
    empty when no member state enables the label — the executed log has
    diverged from the automaton and can never re-join it (replay is
    monotone in the state set).
    """
    adj = kernel.adj
    closures = kernel.closures()
    moved: set = set()
    for state in states:
        targets = adj[state].get(label_id)
        if targets:
            for target in targets:
                moved.update(closures[target])
    return frozenset(moved)

"""The ``fanout`` workload: sweeps and migrations through the runtime.

A closed loop with one caller and one persistent ``EvolutionRuntime``
with ``workers = nproc``.  Each round has two steps:

1. ``sweep_pairs`` over a grid of :data:`GRID` pairs of seeded
   ``random_afsa`` automata with the ``failures`` witness policy.
   Each round :data:`FRESH_AUTOMATA` new automata — participants that
   evolved — are each paired with :data:`PAIRS_PER_FRESH` recent ones;
   these pairs replace the oldest of the grid and the rest repeats,
   reaching the shards that hold their verdicts.  About a third of the
   new pairs are inconsistent and need a witness, which costs several
   times a verdict, so cold verdicts and witnesses make most of a
   round's work.  Sixteen new pairs a round keep the number of
   witnesses in a round near its mean, so the median round does not
   jump between "no witness" and "one witness".
2. ``classify_migration`` of a :data:`FLEET`-instance fleet against a
   candidate version of the hub of a generated choreography, with the
   ``failures`` witness policy.  The :data:`HUBS` take turns; they share
   one shape, and there are many of them, because a migration's cost
   follows the number of distinct traces in the fleet, which varies
   from one generated hub to the next.

This is the only workload where ``core.runtime`` (routing, arena,
pipelined scheduler) and ``afsa.witness`` do the bulk of the work.
Sweep chunks and migration chunks use the same dispatch layer in two
different ways.

Answers are checked against references that share no code with the
paths under test: a seeded sample of sweep verdicts against the eager
product oracle ``repro.afsa.oracle.eager_pair_verdict`` after the
window, and a seeded sample of each migration's classes against
``classify_trace_reference``.
"""

from __future__ import annotations

import os
import random
import time

from perfbench.layers import Window
from perfbench.measure import (
    RUNTIMES,
    OpTimeout,
    median,
    own_peak_rss_mb,
    time_limit,
)
from perfbench.result import Run

#: Pairs swept per round.
GRID = 48
#: New automata per round, and the recent automata each is paired with.
FRESH_AUTOMATA = 4
PAIRS_PER_FRESH = 4
#: Recent automata a new one may be paired with: a sliding window, so
#: the working set stays the same size however long the run.
POOL = 32
#: Shape of the generated automata.
STATES = 96
LABELS = 4
#: Running instances classified per round, and the base traces their
#: logs are drawn from (a few hundred distinct traces per fleet).
FLEET = 10_000
DISTINCT_TRACES = 64
#: Hubs whose fleets migrate, in turn, and the (spokes, prologue
#: steps) of their choreographies.
HUBS = 16
HUB_SHAPE = (5, 4)
#: Untimed rounds, and candidate versions compiled, before the window.
#: Together they fill the program's bounded caches (a shard's verdict
#: cache takes about 128 rounds, the cache of compiled processes 256
#: candidates), so the window sees a long-lived runtime's steady state
#: and its peak memory does not depend on how many rounds a run
#: manages.
WARMUP_ROUNDS = 128
WARMUP_CANDIDATES = 256
#: Program set-ups timed per run; ``setup_s`` is their median.  A
#: set-up here takes tens of milliseconds, so many are cheap and keep
#: the median steady.
SETUPS = 25
#: Sweep verdicts checked against the eager oracle after the window.
ORACLE_SAMPLE = 16
#: Migration classes checked against the reference each round: the
#: reference replays a trace naively, and checking all of a round's
#: classes would take longer than the migration itself.
CLASS_SAMPLE = 32
#: Latency limit of each operation (seconds) for ``within_limit_ratio``.
#: About three times the operation's median on the 2-CPU machine the
#: benchmark was tuned on: no user requirement exists to copy.
LIMITS = {"sweep": 0.12, "migrate": 0.075}
#: Upper bound on one in-process operation; overrunning fails the run.
OP_TIMEOUT_S = 60.0


class _Grid:
    """The seeded stream of automata and the grid each round sweeps.

    An automaton is ``(number, automaton)``, numbered in the order the
    stream made it.  Only the recent ones are kept, so the benchmark's
    own memory does not grow with the number of rounds a run manages.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.made = 0
        self.recent: list = []
        self.pairs: list = []

    def _automaton(self):
        from repro.workload.generator import random_afsa

        made = (self.made, random_afsa(
            seed=self.seed * 1_000_003 + self.made,
            states=STATES,
            labels=LABELS,
        ))
        self.made += 1
        self.recent = self.recent[-(POOL - 1):] + [made]
        return made

    def first(self) -> list:
        """The opening grid: :data:`GRID` pairs of new automata."""
        while len(self.pairs) < GRID:
            self.pairs.append((self._automaton(), self._automaton()))
        return list(self.pairs)

    def next(self) -> list:
        """The next round's grid: fresh pairs after recent repeats."""
        earlier = list(self.recent)
        fresh = []
        for _ in range(FRESH_AUTOMATA):
            automaton = self._automaton()
            for partner in self.rng.sample(earlier, PAIRS_PER_FRESH):
                fresh.append((automaton, partner))
        self.pairs = self.pairs[len(fresh):] + fresh
        return list(self.pairs)


def _candidate(hub_private, rng):
    """A seeded candidate version of the hub's public process."""
    from repro.bpel.compile import compile_process
    from repro.errors import ChangeError
    from repro.workload.mutations import random_change

    while True:
        try:
            _, operation, _ = random_change(hub_private, seed=rng.randrange(1 << 30))
        except ChangeError:
            continue
        return compile_process(operation.apply(hub_private)).afsa


def _start_runtime(workers: int, kernels):
    """Program set-up: start the shards and publish the first grid."""
    from repro.core.runtime import EvolutionRuntime

    runtime = EvolutionRuntime(workers=workers)
    RUNTIMES.append(runtime)
    runtime.ensure_pool(workers)
    with runtime.published(kernels):
        pass
    return runtime


def _stop_runtime(runtime) -> None:
    runtime.shutdown()
    RUNTIMES.remove(runtime)


def run(seed: int, seconds: float, setups: int = SETUPS, tracer=None) -> Run:
    """Run the workload for *seconds*; see the module docstring."""
    from repro.afsa.kernel import kernel_of
    from repro.core.runtime import leaked_segments, shm_segments
    from repro.core.sweep import WITNESS_FAILURES, sweep_pairs
    from repro.instances.migrate import classify_migration
    from repro.workload.generator import generate_choreography

    from perfbench.tracing import shard_snapshot

    result = Run()
    workers = os.cpu_count() or 1
    segments_before = shm_segments()
    grid = _Grid(seed)
    pairs = grid.first()
    kernels = [kernel_of(view) for pair in _views(pairs) for view in pair]
    rng = random.Random(seed)
    check_rng = random.Random(seed + 2)

    setup_times = []
    runtime = None
    try:
        for _ in range(setups):
            if runtime is not None:
                _stop_runtime(runtime)
            started = time.perf_counter()
            runtime = _start_runtime(workers, kernels)
            setup_times.append(time.perf_counter() - started)
        # The fleets are built after the shards start, so a shard's
        # memory is its own and not pages it inherited.
        hubs = []
        spokes, steps = HUB_SHAPE
        for index in range(HUBS):
            owner = generate_choreography(
                seed=seed * 1000 + index, spokes=spokes, steps=steps
            )
            owner.spawn_fleet(
                "H", FLEET, seed=seed * 1000 + index, distinct=DISTINCT_TRACES
            )
            hubs.append(owner)
        # Untimed: the opening grid, whose pairs are all new, then the
        # warm-up that fills the program's caches.
        sweep_pairs(
            _views(pairs), witnesses=WITNESS_FAILURES, workers=workers,
            runtime=runtime,
        )
        for index in range(WARMUP_CANDIDATES):
            _candidate(hubs[index % HUBS].private("H"), rng)
        for index in range(WARMUP_ROUNDS):
            pairs = grid.next()
            sweep_pairs(
                _views(pairs), witnesses=WITNESS_FAILURES, workers=workers,
                runtime=runtime,
            )
            hub = hubs[index % HUBS]
            classify_migration(
                hub.instances, hub.public("H"), _candidate(hub.private("H"), rng),
                version=hub.current_version("H"), new_version="warm-up",
                witnesses=WITNESS_FAILURES, workers=workers, runtime=runtime,
            )

        window = Window(tracer, runtime) if tracer is not None else None
        if window is not None:
            window.before()
        verdicts: dict = {}
        sweep_s: list = []
        migrate_s: list = []
        within = 0
        round_number = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            round_number += 1
            pairs = grid.next()
            hub = hubs[round_number % len(hubs)]
            candidate = _candidate(hub.private("H"), rng)

            result.attempted += 1
            try:
                with time_limit(OP_TIMEOUT_S, "sweep"):
                    started = time.perf_counter()
                    outcomes = sweep_pairs(
                        _views(pairs), witnesses=WITNESS_FAILURES,
                        workers=workers, runtime=runtime,
                    )
                    result.timed(started, time.perf_counter(), sweep_s)
            except OpTimeout as error:
                result.fail(str(error))
                break
            ok = _check_sweep(result, pairs, outcomes, verdicts)
            within += ok and sweep_s[-1] <= LIMITS["sweep"]

            result.attempted += 1
            try:
                with time_limit(OP_TIMEOUT_S, "migration"):
                    started = time.perf_counter()
                    report = classify_migration(
                        hub.instances, hub.public("H"), candidate,
                        version=hub.current_version("H"),
                        new_version=f"candidate-{round_number}",
                        witnesses=WITNESS_FAILURES, workers=workers,
                        runtime=runtime,
                    )
                    result.timed(started, time.perf_counter(), migrate_s)
            except OpTimeout as error:
                result.fail(str(error))
                break
            ok = _check_migration(result, report, candidate, check_rng)
            within += ok and migrate_s[-1] <= LIMITS["migrate"]
        if window is not None:
            window.after(result.intervals)
            result.layer_inputs.update(summary=window.summary, counters=window.counters)
        shard_rss = sum(
            shard["peak_rss_mb"]
            for shard in runtime.map(
                shard_snapshot, [None] * runtime.pool_size,
                shard_of=list(range(runtime.pool_size)),
            )
        )
    finally:
        if runtime is not None:
            _stop_runtime(runtime)
    leaked = leaked_segments(segments_before)
    if leaked:
        result.fail(f"shared-memory segments leaked: {sorted(leaked)}")
    _check_oracle(result, pairs, verdicts, random.Random(seed + 1))

    busy = sum(sweep_s) + sum(migrate_s)
    result.primary = migrate_s
    result.metrics["setup_s"] = (
        median(setup_times), "s",
        f"median of {len(setup_times)} set-ups (pool start + first publish)",
    )
    result.latency("op", migrate_s, gated=True)
    result.latency("sweep", sweep_s, gated=True)
    result.metrics["ops_per_s"] = (
        len(migrate_s) / busy if busy else 0.0, "1/s",
        f"{len(migrate_s)} sweep+migrate rounds in {busy:.3f} s busy",
    )
    result.finish_ratio(within)
    result.metrics["peak_rss_mb"] = (
        own_peak_rss_mb() + shard_rss, "MB",
        f"benchmark process + {workers} shards ({shard_rss:.1f} MB)",
    )
    result.latency("migrate", migrate_s)
    result.layer_inputs["ops"] = len(migrate_s)
    return result


def _views(pairs) -> list:
    """The automata of numbered pairs, as ``sweep_pairs`` takes them."""
    return [(left, right) for (_, left), (_, right) in pairs]


def _key(pair) -> tuple:
    (left, _), (right, _) = pair
    return left, right


def _check_sweep(result: Run, pairs, outcomes, verdicts: dict) -> bool:
    """Witness present exactly for inconsistent pairs, and a repeated
    pair's verdict equal to its first one.  *verdicts* keeps the
    verdicts of the pairs still in the grid."""
    ok = len(outcomes) == len(pairs)
    for pair, (consistent, witness) in zip(pairs, outcomes):
        if (witness is None) != consistent:
            ok = False
        if verdicts.setdefault(_key(pair), consistent) != consistent:
            ok = False
    keep = {_key(pair) for pair in pairs}
    for key in [key for key in verdicts if key not in keep]:
        del verdicts[key]
    if not ok:
        result.fail("sweep verdicts or witnesses inconsistent")
    return ok


def _check_migration(result: Run, report, candidate, rng) -> bool:
    """The fleet's size, and a seeded sample of classes against the
    naive per-instance reference."""
    from repro.instances.migrate import classify_trace_reference
    from repro.instances.store import InstanceStore

    if sum(report.counts.values()) != FLEET:
        result.fail(f"migration classified {sum(report.counts.values())} of {FLEET}")
        return False
    classes = list(report.class_verdicts)
    for entry in rng.sample(classes, min(CLASS_SAMPLE, len(classes))):
        trace = InstanceStore.trace_texts(entry.records[0])
        if classify_trace_reference(candidate, trace) != entry.verdict:
            result.fail(f"migration class {trace} is not {entry.verdict}")
            return False
    return True


def _check_oracle(result: Run, pairs, verdicts: dict, rng) -> None:
    """A seeded sample of the last grid's verdicts against the eager
    oracle."""
    from repro.afsa.kernel import kernel_of
    from repro.afsa.oracle import eager_pair_verdict

    checked = [pair for pair in pairs if _key(pair) in verdicts]
    for pair in rng.sample(checked, min(ORACLE_SAMPLE, len(checked))):
        left, right = _views([pair])[0]
        consistent = verdicts[_key(pair)]
        if eager_pair_verdict(kernel_of(left), kernel_of(right)) != consistent:
            result.fail("sweep verdict differs from the eager oracle")

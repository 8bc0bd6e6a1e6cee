"""The ``evolve`` workload: the paper's Fig. 4 evolution step, in process.

A closed loop with one caller.  Seeded ``random_change`` edits go
through ``EvolutionEngine.apply_private_change(auto_adapt=True,
commit=True, migrate_instances=True)`` on generated hub-and-spoke
choreographies with a running fleet attached to every party; a serial
``sweep_choreography`` re-checks the choreography after each step.
Most of the work is in ``core.engine``, ``bpel``, ``afsa.view``,
``instances`` and the lazy engine's warm restarts; ``service`` and
``core.runtime`` are bypassed.

Each choreography takes :data:`STEPS_PER_CHOREOGRAPHY` steps and is
then replaced by a fresh one, prepared outside the timed region, so
the processes do not grow without bound over the window and a faster
program faces the same inputs as a slower one.
"""

from __future__ import annotations

import random
import time

from perfbench.layers import Window
from perfbench.measure import OpTimeout, median, own_peak_rss_mb, time_limit
from perfbench.result import Run

#: (spokes, prologue steps) of the generated choreographies, cycled.
SHAPES = ((2, 3), (3, 4), (4, 3), (5, 4), (2, 5), (3, 3), (4, 4), (5, 3))
#: Choreographies evolving side by side.
LIVE = len(SHAPES)
#: Evolution steps each choreography takes before it is replaced.
STEPS_PER_CHOREOGRAPHY = 6
#: Running instances spawned per party.
FLEET_PER_PARTY = 1000
#: Program set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5
#: Latency limit of each operation (seconds) for ``within_limit_ratio``.
LIMITS = {"evolve": 0.05, "sweep": 0.01}
#: Upper bound on one in-process operation; overrunning fails the run.
OP_TIMEOUT_S = 30.0


class _Lineup:
    """The seeded stream of choreographies the loop evolves."""

    def __init__(self, seed: int):
        self.seed = seed
        self.made = 0

    def generate(self):
        """The next choreography of the stream (not yet compiled)."""
        from repro.workload.generator import generate_choreography

        spokes, steps = SHAPES[self.made % len(SHAPES)]
        choreography = generate_choreography(
            seed=self.seed * 10_000 + self.made, spokes=spokes, steps=steps
        )
        self.made += 1
        return choreography


def _prepare(choreography, seed: int) -> None:
    """Program set-up of one choreography: compile every party and
    spawn its fleet."""
    for index, party in enumerate(choreography.parties()):
        choreography.public(party)
        choreography.spawn_fleet(
            party, FLEET_PER_PARTY, seed=seed + index, distinct=16
        )


def _fleet_by_party(choreography) -> dict:
    store = choreography.instances
    return {
        party: len(store.instances(version=choreography.current_version(party)))
        for party in choreography.parties()
    }


def _check_migrations(run: Run, report, expected: dict) -> None:
    migrations = [(report.originator, report.migration)] + [
        (impact.party, impact.migration) for impact in report.impacts
    ]
    for party, migration in migrations:
        if migration is None:
            continue
        total = sum(migration.counts.values())
        if total != expected[party]:
            run.fail(
                f"migration of {party} classified {total} instances, "
                f"fleet of that version has {expected[party]}"
            )


def run(seed: int, seconds: float, setups: int = SETUPS, tracer=None) -> Run:
    """Run the workload for *seconds*; see the module docstring.

    With an installed *tracer*, the window's spans and counter deltas
    are left in ``Run.layer_inputs`` for the per-layer report.
    """
    from repro.core.engine import EvolutionEngine
    from repro.core.sweep import sweep_choreography
    from repro.errors import ChangeError

    result = Run()
    lineup = _Lineup(seed)
    setup_times = []
    for _ in range(setups):
        batch = [lineup.generate() for _ in range(LIVE)]
        started = time.perf_counter()
        for index, choreography in enumerate(batch):
            _prepare(choreography, seed + index)
        setup_times.append(time.perf_counter() - started)
    live = [[choreography, EvolutionEngine(choreography), 0] for choreography in batch]

    rng = random.Random(seed)
    evolve_s: list = []
    sweep_s: list = []
    within = 0
    window = Window(tracer) if tracer is not None else None
    if window is not None:
        window.before()
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline:
        slot = live[step % LIVE]
        step += 1
        if slot[2] >= STEPS_PER_CHOREOGRAPHY:
            fresh = lineup.generate()
            _prepare(fresh, seed + lineup.made)
            slot[:] = [fresh, EvolutionEngine(fresh), 0]
        choreography, engine, _ = slot
        slot[2] += 1
        try:
            party, operation = _pick_change(choreography, rng)
        except ChangeError:
            continue
        expected = _fleet_by_party(choreography)

        result.attempted += 1
        try:
            with time_limit(OP_TIMEOUT_S, "evolve step"):
                started = time.perf_counter()
                report = engine.apply_private_change(
                    party, operation, auto_adapt=True, commit=True,
                    migrate_instances=True,
                )
                result.timed(started, time.perf_counter(), evolve_s)
        except OpTimeout as error:
            result.fail(str(error))
            break
        except Exception as error:  # noqa: BLE001 - a program error is a
            # failed operation of the run, reported with its type.
            result.fail(f"evolve step raised {type(error).__name__}: {error}")
            continue
        failed_before = result.failed
        _check_migrations(result, report, expected)
        within += result.failed == failed_before and evolve_s[-1] <= LIMITS["evolve"]

        result.attempted += 1
        try:
            with time_limit(OP_TIMEOUT_S, "re-sweep"):
                started = time.perf_counter()
                sweep = sweep_choreography(choreography)
                result.timed(started, time.perf_counter(), sweep_s)
        except OpTimeout as error:
            result.fail(str(error))
            break
        except Exception as error:  # noqa: BLE001 - as above
            result.fail(f"re-sweep raised {type(error).__name__}: {error}")
            continue
        if sweep.consistent and all(o.consistent for o in sweep.outcomes):
            within += sweep_s[-1] <= LIMITS["sweep"]
        else:
            result.fail(
                f"re-sweep of {choreography.name} after evolving {party} "
                "is inconsistent"
            )
    if window is not None:
        window.after(result.intervals)
        result.layer_inputs.update(summary=window.summary, counters=window.counters)

    busy = sum(evolve_s) + sum(sweep_s)
    result.primary = evolve_s
    result.metrics["setup_s"] = (
        median(setup_times), "s",
        f"median of {len(setup_times)} set-ups (compile + fleet spawn)",
    )
    result.latency("op", evolve_s, gated=True)
    result.latency("sweep", sweep_s, gated=True)
    result.metrics["ops_per_s"] = (
        len(sweep_s) / busy if busy else 0.0, "1/s",
        f"{len(sweep_s)} evolve+sweep steps in {busy:.3f} s busy",
    )
    result.finish_ratio(within)
    result.metrics["peak_rss_mb"] = (own_peak_rss_mb(), "MB", "benchmark process")
    result.latency("evolve", evolve_s)
    result.layer_inputs["ops"] = len(evolve_s)
    return result


def _pick_change(choreography, rng, attempts: int = 8):
    """A seeded random change to a random party's private process."""
    from repro.errors import ChangeError
    from repro.workload.mutations import random_change

    error = None
    for _ in range(attempts):
        party = rng.choice(choreography.parties())
        try:
            _, operation, _ = random_change(
                choreography.private(party), seed=rng.randrange(1 << 30)
            )
            return party, operation
        except ChangeError as exc:
            error = exc
    raise error

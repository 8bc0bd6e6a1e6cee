"""Scaling benchmarks: running-instance fleet migration.

One evolution step of the paper's scenario (accounting, subtractive
change of Sect. 5.3) applied to a generated fleet of running instances
with a bounded distinct-trace pool — production-shaped traffic where
thousands of conversations share a few dozen trace prefixes.

Two series over the same fleets:

* **migration-fleet** — the batched engine
  (:func:`repro.instances.migrate.classify_migration`): group by
  (version, trace) equivalence class, memoized kernel replay per
  distinct prefix, verdict broadcast.  Scaling in fleet size is
  sub-linear because the replay work saturates with the distinct-trace
  pool.
* **migration-naive** — the per-instance reference
  (:func:`repro.instances.migrate.classify_trace_reference`): public
  state-set stepping per instance, no cache, no grouping.  Linear in
  fleet size; the honest baseline the batched engine is measured
  against in this same file.

A third series isolates the *commit* cost from the store size:

* **migration-commit** — a committed (``apply=True``) migration of one
  fixed 1k-instance version inside stores that also hold 1k, 10k and
  100k records of other versions.  The store is indexed by version,
  so the commit reads and re-keys only the migrating version's
  classes; the bench asserts the 100k row costs at most twice the 1k
  row (the rows run in size order, so a full-file run checks it).

Verdict agreement between the two paths and worker-count invariance of
the batched engine are asserted inside the bench setup, so the JSON
doubles as a determinism record.
"""

import pytest

from repro.bpel.compile import compile_process
from repro.instances.migrate import (
    WITNESS_NONE,
    classify_migration,
    classify_trace_reference,
)
from repro.instances.store import RUNNING, InstanceStore
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_subtractive_change,
)
from repro.workload.fleet import generate_fleet

FLEET_SIZES = [1000, 4000, 16000]
DISTINCT = 64
#: Records of *other* versions around the migrating 1k-instance fleet.
BYSTANDER_SIZES = [1000, 10000, 100000]
COMMIT_FLEET = 1000
#: Median commit seconds per bystander size, for the ≤ 2× bound.
_COMMIT_MEDIANS: dict = {}


@pytest.fixture(scope="module")
def models():
    old = compile_process(accounting_private()).afsa
    new = compile_process(accounting_private_subtractive_change()).afsa
    return old, new


def _fleet(old, size):
    return generate_fleet(
        old, size, seed=29, version="A#v1", distinct=DISTINCT
    )


@pytest.mark.parametrize("size", FLEET_SIZES)
def test_scaling_migration_fleet(benchmark, models, size):
    """Batched memoized classification of one evolution step."""
    old, new = models
    store = _fleet(old, size)

    # Determinism record: the batched verdicts agree with the naive
    # per-instance reference (checked per distinct class) and are
    # invariant to worker count.
    serial = classify_migration(
        store, old, new, version="A#v1", witnesses=WITNESS_NONE
    )
    by_instance = {
        entry.instance: entry.verdict for entry in serial.verdicts
    }
    for trace, records in store.classes(version="A#v1").items():
        reference = classify_trace_reference(
            new, InstanceStore.trace_texts(records[0])
        )
        assert all(
            by_instance[record.id] == reference for record in records
        )
    fanned = classify_migration(
        store, old, new, version="A#v1", witnesses=WITNESS_NONE,
        workers=2,
    )
    assert [e.verdict for e in fanned.verdicts] == [
        e.verdict for e in serial.verdicts
    ]

    benchmark.group = "migration-fleet"
    benchmark.extra_info["instances"] = size
    benchmark.extra_info["classes"] = serial.classes
    benchmark.extra_info["counts"] = serial.counts
    report = benchmark(
        lambda: classify_migration(
            store, old, new, version="A#v1", witnesses=WITNESS_NONE
        )
    )
    assert sum(report.counts.values()) == size


@pytest.mark.parametrize("size", FLEET_SIZES)
def test_scaling_migration_naive(benchmark, models, size):
    """Naive per-instance replay baseline over the identical fleets."""
    old, new = models
    store = _fleet(old, size)
    traces = [InstanceStore.trace_texts(record) for record in store]
    classify_trace_reference(new, traces[0])  # warm the good-set memo

    benchmark.group = "migration-naive"
    benchmark.extra_info["instances"] = size
    verdicts = benchmark(
        lambda: [
            classify_trace_reference(new, trace) for trace in traces
        ]
    )
    assert len(verdicts) == size


@pytest.mark.parametrize("bystanders", BYSTANDER_SIZES)
def test_scaling_migration_commit(benchmark, models, bystanders):
    """A committed migration of a fixed 1k-instance version, timed in
    stores holding *bystanders* records of other versions."""
    old, new = models
    store = InstanceStore()
    for index in range(10):
        generate_fleet(
            old, bystanders // 10, seed=31 + index,
            version=f"B#v{index}", distinct=DISTINCT, store=store,
        )
    generate_fleet(
        old, COMMIT_FLEET, seed=29, version="A#v1", distinct=DISTINCT,
        store=store,
    )
    before = store.status_counts("A#v1")

    def reset():
        # Untimed: carry the migrated classes back and restore the
        # statuses, so every round commits the same fleet.
        for _, trace in store.classes(version="A#v2"):
            store.migrate_class("A#v2", trace, "A#v1")
        for record in store.instances(version="A#v1"):
            record.status = RUNNING

    def commit():
        return classify_migration(
            store, old, new, version="A#v1", new_version="A#v2",
            witnesses=WITNESS_NONE, apply=True,
        )

    reset()
    first = commit()
    assert sum(first.counts.values()) == COMMIT_FLEET
    reset()
    assert store.status_counts("A#v1") == before

    benchmark.group = "migration-commit"
    benchmark.extra_info["instances"] = COMMIT_FLEET
    benchmark.extra_info["bystanders"] = bystanders
    benchmark.extra_info["classes"] = first.classes
    report = benchmark.pedantic(
        commit, setup=reset, rounds=60, iterations=1, warmup_rounds=2
    )
    assert sum(report.counts.values()) == COMMIT_FLEET
    assert len(store) == COMMIT_FLEET + bystanders

    _COMMIT_MEDIANS[bystanders] = benchmark.stats.stats.median
    smallest = BYSTANDER_SIZES[0]
    if bystanders == BYSTANDER_SIZES[-1] and smallest in _COMMIT_MEDIANS:
        assert (
            _COMMIT_MEDIANS[bystanders] <= 2 * _COMMIT_MEDIANS[smallest]
        ), _COMMIT_MEDIANS


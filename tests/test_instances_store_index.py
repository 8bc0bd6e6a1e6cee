"""The version index of :class:`InstanceStore` against a naive scan.

The store answers ``has``/``classes``/``instances``/``status_counts``
from per-(version, trace) buckets instead of walking every record.
These tests drive random sequences of spawns, extends, applied
migrations and status writes, and after every step compare each read
with a full scan of the records (the store's pre-index semantics):
same answers, same class order, same member order, fresh lists.
"""

from hypothesis import given, settings, strategies as st

from repro.bpel.compile import compile_process
from repro.instances.migrate import (
    MIGRATABLE,
    WITNESS_ALL,
    WITNESS_NONE,
    FleetClassifier,
    classify_fleet,
    classify_migration,
    classify_trace_reference,
)
from repro.instances.store import RUNNING, InstanceStore
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_subtractive_change,
)
from repro.workload.fleet import sample_compliant_trace

_OLD = compile_process(accounting_private()).afsa
_NEW = compile_process(accounting_private_subtractive_change()).afsa
_ALPHABET = sorted(str(label) for label in _OLD.alphabet)
#: A small trace pool: compliant logs, their prefixes, and the empty log.
_POOL = sorted(
    {
        tuple(sample_compliant_trace(_OLD, seed=seed)[:cut])
        for seed in range(4)
        for cut in (0, 2, 4, 40)
    }
)
_VERSIONS = ["A#v1", "A#v2", "A#v3"]
_STATUSES = [RUNNING, "pending", "stranded"]

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("spawn"),
            st.sampled_from(_VERSIONS),
            st.lists(st.sampled_from(range(len(_POOL))), max_size=6),
        ),
        st.tuples(
            st.just("extend"),
            st.integers(min_value=0, max_value=10_000),
            st.lists(st.sampled_from(_ALPHABET), max_size=2),
        ),
        st.tuples(
            st.just("migrate"),
            st.sampled_from(_VERSIONS + [None]),
            st.sampled_from(_VERSIONS + [""]),
        ),
        st.tuples(
            st.just("status"),
            st.integers(min_value=0, max_value=10_000),
            st.sampled_from(_STATUSES),
        ),
    ),
    max_size=25,
)


def _naive_classes(records, version=None, status=None) -> dict:
    classes: dict = {}
    for record in records:
        if version is not None and record.version != version:
            continue
        if status is not None and record.status != status:
            continue
        classes.setdefault((record.version, record.trace), []).append(record)
    return classes


def _check_against_scan(store: InstanceStore) -> None:
    records = list(store)
    assert [record.id for record in records] == list(range(len(store)))
    for version in _VERSIONS + [None]:
        for status in _STATUSES + [None]:
            expected = _naive_classes(records, version, status)
            got = store.classes(version=version, status=status)
            assert list(got) == list(expected)
            for key, members in expected.items():
                assert [r.id for r in got[key]] == [r.id for r in members]
            assert store.has(version, status) == bool(expected)
            assert store.instances(version, status) == [
                record
                for record in records
                if (version is None or record.version == version)
                and (status is None or record.status == status)
            ]
        counts: dict = {}
        for record in records:
            if version is None or record.version == version:
                counts[record.status] = counts.get(record.status, 0) + 1
        assert store.status_counts(version) == counts
        assert list(store.status_counts(version)) == list(counts)
    assert store.versions() == sorted({r.version for r in records})
    # Fresh lists: mutating a returned class never reaches the store.
    for members in store.classes().values():
        members.clear()
    assert sum(map(len, store.classes().values())) == len(store)


def _apply(store: InstanceStore, op) -> None:
    kind = op[0]
    if kind == "spawn":
        _, version, picks = op
        store.spawn(version, [_POOL[pick] for pick in picks])
    elif kind == "extend" and len(store):
        _, instance, events = op
        store.extend(instance % len(store), events)
    elif kind == "status" and len(store):
        _, instance, status = op
        store.get(instance % len(store)).status = status
    elif kind == "migrate":
        _, version, new_version = op
        before = {
            record.id: (record.version, record.status)
            for record in store
        }
        migrating = [
            record
            for record in store
            if version is None or record.version == version
        ]
        expected = {}
        for record in migrating:
            verdict = classify_trace_reference(
                _NEW, InstanceStore.trace_texts(record)
            )
            if verdict == MIGRATABLE:
                expected[record.id] = (
                    new_version or record.version,
                    RUNNING,
                )
            else:
                expected[record.id] = (record.version, verdict)
        report = classify_fleet(
            store,
            _NEW,
            version=version,
            new_version=new_version,
            witnesses=WITNESS_NONE,
            apply=True,
        )
        assert sum(report.counts.values()) == len(migrating)
        for record in store:
            assert (record.version, record.status) == expected.get(
                record.id, before[record.id]
            )


class TestStoreIndexOracle:
    @given(_OPS)
    @settings(max_examples=60, deadline=None)
    def test_reads_equal_a_full_scan(self, ops):
        store = InstanceStore()
        _check_against_scan(store)
        for op in ops:
            _apply(store, op)
            _check_against_scan(store)

    @given(_OPS, _OPS)
    @settings(max_examples=25, deadline=None)
    def test_refresh_equals_from_scratch_after_index_moves(
        self, setup, later
    ):
        """A classifier built after migrations and merges, then fed
        spawns, extends and status writes, still refreshes to exactly
        a from-scratch classification."""
        store = InstanceStore()
        store.spawn("A#v1", _POOL)
        for op in setup:
            _apply(store, op)
        classifier = FleetClassifier(
            store, _NEW, version="A#v1", old_model=_OLD
        )
        for op in later:
            if op[0] != "migrate":
                _apply(store, op)
        delta = classifier.refresh()
        scratch = classify_migration(store, _OLD, _NEW, version="A#v1")
        assert [
            (v.instance, v.verdict, v.continuation, v.blocked_on,
             v.compliant_with_old)
            for v in delta.verdicts
        ] == [
            (v.instance, v.verdict, v.continuation, v.blocked_on,
             v.compliant_with_old)
            for v in scratch.verdicts
        ]


class TestStoreIndexUnits:
    def test_record_version_and_trace_are_read_only(self):
        store = InstanceStore()
        record = store.add("v1", ["B#A#orderOp"])
        for attribute, value in (("version", "v2"), ("trace", ())):
            try:
                setattr(record, attribute, value)
            except AttributeError:
                pass
            else:  # pragma: no cover - the assertion below fails
                raise AssertionError(f"record.{attribute} is writable")
        assert store.classes("v1") and not store.has("v2")

    def test_migrated_bucket_merges_in_id_order(self):
        store = InstanceStore()
        store.add("v2", ["B#A#orderOp"])  # id 0, already on v2
        store.add("v1", ["B#A#orderOp"])  # id 1
        store.add("v1", [])  # id 2
        store.add("v2", ["B#A#orderOp"])  # id 3
        trace = store.get(1).trace
        store.migrate_class("v1", trace, "v2")
        assert [r.id for r in store.classes("v2")[("v2", trace)]] == [
            0, 1, 3,
        ]
        assert [r.version for r in store] == ["v2", "v2", "v1", "v2"]
        assert store.has("v1") and len(store.classes("v1")) == 1

    def test_migrating_a_whole_class_moves_it(self):
        store = InstanceStore()
        records = store.spawn("v1", [["B#A#orderOp"]] * 3)
        trace = records[0].trace
        store.migrate_class("v1", trace, "v2")
        assert not store.has("v1")
        assert store.versions() == ["v2"]
        assert {r.version for r in records} == {"v2"}

    def test_class_verdicts_own_their_lists(self):
        """Reports decided from one memoized state set do not share
        witness lists: mutating one leaves the other intact."""
        store = InstanceStore()
        store.spawn("A#v1", _POOL)
        first = classify_migration(
            store, _OLD, _NEW, version="A#v1", witnesses=WITNESS_ALL
        )
        second = classify_migration(
            store, _OLD, _NEW, version="A#v1", witnesses=WITNESS_ALL
        )
        snapshot = [
            (entry.continuation and list(entry.continuation),
             list(entry.blocked_on))
            for entry in second.class_verdicts
        ]
        for entry in first.class_verdicts:
            if entry.continuation is not None:
                entry.continuation.append("mutated")
            entry.blocked_on.append("mutated")
        assert [
            (entry.continuation and list(entry.continuation),
             list(entry.blocked_on))
            for entry in second.class_verdicts
        ] == snapshot

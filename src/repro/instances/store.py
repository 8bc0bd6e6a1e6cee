"""The instance store: lightweight records for running conversations.

A fleet of running choreography instances is, per instance, nothing but
``(version id, executed trace, status)``.  The store keeps records cheap
enough for fleets of thousands to millions:

* traces are interned twice — every label through the process-wide
  :data:`repro.messages.alphabet.INTERNER` (so a trace is a tuple of
  dense ints comparable by identity-friendly equality), and every
  distinct trace *tuple* through a store-local table, so ten thousand
  instances replaying the same conversation share one tuple object;
* records are ``__slots__`` objects with no behavior;
* the store's primary read path is :meth:`classes` — the
  (version, trace) equivalence classes the batched migration sweep
  groups by before touching the kernel.

The store is **indexed by version**: it keeps, per version, one
member list per interned trace.  :meth:`add`, :meth:`extend` and
:meth:`migrate_class` maintain the index, which is why
``record.version`` and ``record.trace`` are read-only outside the
store — the index cannot drift from the records.  The cost model is
therefore per *version*, not per store: :meth:`has` of a version is
O(1), :meth:`classes` of a version is O(classes of that version) (plus
a C-level copy of each member list), and migrating a class to a new
version moves its member list as a whole.  Records point at no member
list, so a dropped store is freed by reference counting alone.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from operator import attrgetter

from repro.messages.alphabet import INTERNER

#: Status of an instance that is live on its version (the initial one;
#: migration verdicts from :mod:`repro.instances.migrate` replace it).
RUNNING = "running"

_BY_ID = attrgetter("id")


class InstanceRecord:
    """One running instance: version id, interned trace, status.

    ``version`` and ``trace`` are read-only: they place the record in
    its store's index, so only the owning :class:`InstanceStore` moves
    a record between classes.  ``status`` is a plain attribute.
    """

    __slots__ = ("id", "_version", "_trace", "status")

    def __init__(self, id: int, version: str, trace: tuple, status: str):
        self.id = id
        self._version = version
        self._trace = trace
        self.status = status

    @property
    def version(self) -> str:
        """The version id the instance runs on."""
        return self._version

    @property
    def trace(self) -> tuple:
        """The interned executed trace (a shared tuple of label ids)."""
        return self._trace

    def __repr__(self) -> str:
        return (
            f"InstanceRecord(id={self.id}, version={self.version!r}, "
            f"events={len(self.trace)}, status={self.status!r})"
        )


class InstanceStore:
    """Holds the running-instance fleet of a choreography."""

    def __init__(self):
        self._records: list[InstanceRecord] = []
        self._trace_table: dict = {}
        self._dirty: dict = {}
        #: version -> {id(interned trace) -> member records in id
        #: order}; empty classes and versions are dropped, so a present
        #: key means live records.
        self._index: dict = {}

    # -- building ----------------------------------------------------------

    def intern_trace(self, labels) -> tuple:
        """Intern a message log to a shared tuple of dense label ids.

        Accepts label objects, ``"A#B#op"`` strings, or already-interned
        dense ids; distinct logs with equal content come back as the
        *same* tuple object.
        """
        if type(labels) is tuple:
            # Already interned (a spawn replaying a known conversation).
            shared = self._trace_table.get(labels)
            if shared is not None:
                return shared
        intern = INTERNER.intern
        trace = tuple(
            label if isinstance(label, int) else intern(label)
            for label in labels
        )
        shared = self._trace_table.get(trace)
        if shared is None:
            self._trace_table[trace] = trace
            return trace
        return shared

    def _members(self, version: str, trace: tuple) -> list:
        """The member list of the (version, trace) class, created empty
        when missing."""
        classes = self._index.get(version)
        if classes is None:
            classes = self._index[version] = {}
        members = classes.get(id(trace))
        if members is None:
            members = classes[id(trace)] = []
        return members

    def add(self, version: str, labels, status: str = RUNNING) -> InstanceRecord:
        """Register one instance; returns its record.

        New records count as dirty: an incremental classifier built
        before the spawn folds them in on its next refresh instead of
        silently reporting a fleet that no longer exists.
        """
        trace = self.intern_trace(labels)
        record = InstanceRecord(len(self._records), version, trace, status)
        # The newest id is the largest: appending keeps id order.
        self._members(version, trace).append(record)
        self._records.append(record)
        self._dirty[record.id] = record
        return record

    def spawn(self, version: str, traces) -> list[InstanceRecord]:
        """Register one instance per trace in *traces*."""
        return [self.add(version, labels) for labels in traces]

    def extend(self, instance_id: int, events) -> InstanceRecord:
        """Append executed *events* to an instance's trace.

        The extended trace is re-interned (instances converging on the
        same conversation share one tuple again), the record moves to
        the class of its new (version, trace) key, and it is marked
        dirty, so an incremental classifier
        (:class:`~repro.instances.migrate.FleetClassifier`) re-checks
        only the affected (version, trace) classes — and because the
        old trace is a *prefix* of the new one, its replay resumes
        from the trie's stored prefix states.
        """
        record = self._records[instance_id]
        intern = INTERNER.intern
        suffix = tuple(
            event if isinstance(event, int) else intern(event)
            for event in events
        )
        if suffix:
            classes = self._index[record._version]
            members = classes[id(record._trace)]
            members.remove(record)
            if not members:
                del classes[id(record._trace)]
            record._trace = self.intern_trace(record._trace + suffix)
            members = self._members(record._version, record._trace)
            if not members or members[-1].id < record.id:
                members.append(record)
            else:
                insort(members, record, key=_BY_ID)
            self._dirty[record.id] = record
        return record

    def migrate_class(
        self, version: str, trace: tuple, new_version: str
    ) -> None:
        """Move every record of the (*version*, *trace*) class to
        *new_version* (statuses are left alone).

        The class's member list moves to the new version's index as a
        whole (plus one version write per member); when *new_version*
        already has a class with that trace, the members merge into it
        in instance-id order.
        """
        if new_version == version:
            return
        classes = self._index[version]
        members = classes.pop(id(trace))
        if not classes:
            del self._index[version]
        targets = self._index.setdefault(new_version, {})
        existing = targets.get(id(trace))
        for record in members:
            record._version = new_version
        if existing is None:
            targets[id(trace)] = members
        else:
            existing[:] = sorted(existing + members, key=_BY_ID)

    def collect_dirty(
        self, version: str | None = None
    ) -> list[InstanceRecord]:
        """Return (and clear) the records extended since the last
        collection — the delta an incremental classifier consumes.

        With *version*, only matching records are collected; dirt of
        other versions stays queued for its own consumer (a classifier
        bound to ``A#v2`` must not lose extensions because an ``A#v1``
        classifier refreshed first).
        """
        if version is None:
            records = list(self._dirty.values())
            self._dirty.clear()
            return records
        records = [
            record
            for record in self._dirty.values()
            if record.version == version
        ]
        for record in records:
            del self._dirty[record.id]
        return records

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def get(self, instance_id: int) -> InstanceRecord:
        """Return the record with the given id."""
        return self._records[instance_id]

    def _classes_of(self, version: str | None):
        if version is None:
            return chain.from_iterable(
                classes.values() for classes in self._index.values()
            )
        return self._index.get(version, {}).values()

    def _select(self, version: str | None) -> list:
        """The records of *version* (None = all) in instance-id order."""
        if version is None:
            return self._records
        return sorted(
            chain.from_iterable(self._classes_of(version)), key=_BY_ID
        )

    def has(
        self, version: str | None = None, status: str | None = None
    ) -> bool:
        """True when any record matches (O(1) for a version alone;
        short-circuits at the first hit otherwise)."""
        if status is None:
            if version is None:
                return bool(self._records)
            return version in self._index
        return any(
            record.status == status for record in self._select(version)
        )

    def instances(
        self, version: str | None = None, status: str | None = None
    ) -> list[InstanceRecord]:
        """Records filtered by version and/or status (None = any), in
        instance-id order."""
        return [
            record
            for record in self._select(version)
            if status is None or record.status == status
        ]

    def classes(
        self, version: str | None = None, status: str | None = None
    ) -> dict:
        """The ``(version, trace) → records`` equivalence classes.

        This is what the migration sweep batches over: every class is
        replayed and classified once, however many instances share it.
        Keys are ``(version id, shared interned trace tuple)`` pairs —
        records of *different* versions never merge, even when they
        executed the same log — listed in first-seen (= instance id)
        order, members in instance-id order, each member list a fresh
        list the caller may keep or mutate.

        Reads only the version's classes: O(classes of that version),
        plus the member filter when *status* is given.
        """
        groups = []
        for members in self._classes_of(version):
            if status is not None:
                members = [r for r in members if r.status == status]
            if members:
                groups.append(members)
        groups.sort(key=lambda members: members[0].id)
        return {
            (members[0]._version, members[0]._trace): list(members)
            for members in groups
        }

    def versions(self) -> list[str]:
        """The version ids present in the store (sorted)."""
        return sorted(self._index)

    def status_counts(self, version: str | None = None) -> dict:
        """Histogram of statuses (optionally restricted to a version)."""
        counts: dict = {}
        for record in self.instances(version=version):
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @staticmethod
    def trace_texts(record: InstanceRecord) -> list[str]:
        """The record's trace as canonical label texts."""
        text_of = INTERNER.text
        return [text_of(label_id) for label_id in record.trace]

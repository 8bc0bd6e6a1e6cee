"""Rendezvous (HRW) routing of content-addressed work onto shards.

Worker-local caches (kernel memos, replay tries,
:data:`~repro.afsa.lazy.VERDICTS` entries, retained explorations) only
pay off when a repeated item lands where it ran before.  Placing chunks
by their position in the dispatch would tie that to the grid repeating
*identically*; any overlapping-but-shifted grid — the common case as a
choreography evolves, where one pair is inserted and every other pair
keeps its content but changes its position — would land warm pairs on
cold shards.

Rendezvous hashing makes the affinity a property of *content*:
every key (a pair's concatenated kernel digests) independently ranks
all shards by ``blake2b(key | shard)`` and goes to its top-ranked
candidate.  The ranking is a pure function of the key and the shard
count, so it is identical in every process and across sessions, and it
has the minimal-disruption property: growing the fleet from ``n`` to
``n + 1`` shards only moves the ~``1/(n+1)`` of keys whose new top
candidate is the new shard, and shrinking only moves the keys that
lived on the removed shard.

One popular participant pair must not serialize a sweep, so
:func:`route` adds a *spill policy*: shard loads are capped at
``ceil(len(keys) / shards) * spill_factor`` and a key whose top
candidate is full overflows to its next rendezvous candidate.  Spilled
keys still carry their kernel references in the chunk payload
(fan-out payloads are self-contained), so a spill costs at most one
cold attach on the overflow shard — never a wrong answer.
"""

from __future__ import annotations

import hashlib
from math import ceil


def shard_weight(key: str, shard: int) -> int:
    """The rendezvous weight of (*key*, *shard*): a 64-bit integer
    derived purely from the pair, identical in every process (blake2b
    is seedless, unlike ``hash()`` under ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(
        f"{key}|{shard}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_rank(key: str, shards: int) -> list[int]:
    """All shard indices ranked by descending rendezvous weight for
    *key* (ties — vanishingly unlikely — break on the lower index)."""
    return sorted(
        range(shards), key=lambda shard: (-shard_weight(key, shard), shard)
    )


def rendezvous_shard(key: str, shards: int) -> int:
    """The top-ranked (spill-free) shard for *key*."""
    best = 0
    best_weight = -1
    for shard in range(shards):
        weight = shard_weight(key, shard)
        if weight > best_weight:
            best = shard
            best_weight = weight
    return best


def route(
    keys, shards: int, spill_factor: float = 2.0
) -> tuple[list[int], int]:
    """Assign every key its rendezvous shard, spilling past hot spots.

    Keys are placed in input order on their highest-ranked candidate
    whose load is still under ``ceil(len(keys) / shards) *
    spill_factor``; a full candidate overflows to the key's next
    rendezvous choice (so the overflow target is itself deterministic
    and stable across dispatches).  With ``spill_factor >= 1`` the cap
    times the shard count always covers the key count, so the walk
    terminates on some candidate; the last-ranked candidate accepts
    unconditionally as a belt-and-braces fallback.

    Returns ``(assignments, spilled)``: the shard index per key (input
    order) and how many keys landed below their top choice.
    """
    keys = list(keys)
    if shards <= 1 or not keys:
        return [0] * len(keys), 0
    cap = max(1, ceil(len(keys) / shards * spill_factor))
    loads = [0] * shards
    assignments = []
    spilled = 0
    for key in keys:
        ranked = rendezvous_rank(key, shards)
        for rank, shard in enumerate(ranked):
            if loads[shard] < cap or rank == shards - 1:
                loads[shard] += 1
                assignments.append(shard)
                if rank > 0:
                    spilled += 1
                break
    return assignments, spilled

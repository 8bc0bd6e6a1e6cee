"""Per-layer metrics of a traced run, and what each should move.

Every layer time is *self* time — the layer's spans minus the wrapped
layers they call — summed over the measured window and divided by the
workload's operations, so the layer rows of one workload add up to
roughly its operation latency (``core.runtime.dispatch_ms`` is the one
inclusive row: the wall time of a fan-out dispatch, whose compute runs
in the shards).  Counts are per operation as well, so a faster program
that completes more operations in the same window reads the same.

Which end-to-end metric each layer should move (``op`` is the
workload's headline operation, see ``README.md``):

=============  ====================================================
service        ``op_p50_ms`` (the /check latency) on serve; zero elsewhere
core.engine    ``op_p50_ms`` (the evolve step) on evolve, then on serve
bpel           ``op_p50_ms`` on evolve; ``setup_s`` on serve
afsa.view      ``op_p50_ms`` on evolve
core.sweep     ``sweep_p50_ms`` on fanout; ``op_p50_ms`` on serve
afsa.lazy      ``sweep_p50_ms`` on evolve (warm restarts), fanout (cold)
afsa.witness   ``within_limit_ratio`` and the printed sweep tail, fanout
core.runtime   ``sweep_p50_ms``, ``op_p50_ms`` on fanout; zero elsewhere
instances      ``op_p50_ms`` on evolve and fanout
=============  ====================================================
"""

from __future__ import annotations

from perfbench.measure import ratio

#: The per-layer metrics every traced run prints: (name, unit).
PER_LAYER = (
    ("service.http_ms", "ms/op"),
    ("service.dispatch_self_ms", "ms/op"),
    ("service.engine_wait_ms", "ms/op"),
    ("service.engine_dispatches", "count/op"),
    ("service.coalesced_ratio", "ratio"),
    ("service.admission_rejected", "count"),
    ("core.engine.evolve_self_ms", "ms/op"),
    ("core.engine.classify_ms", "ms/op"),
    ("core.engine.propagate_ms", "ms/op"),
    ("core.engine.suggest_ms", "ms/op"),
    ("bpel.compile_ms", "ms/op"),
    ("bpel.compile_calls", "count/op"),
    ("afsa.view.project_ms", "ms/op"),
    ("afsa.view.project_calls", "count/op"),
    ("core.sweep.check_pair_ms", "ms/op"),
    ("core.sweep.sweep_self_ms", "ms/op"),
    ("afsa.lazy.verdict_ms", "ms/op"),
    ("afsa.lazy.verdict_calls", "count/op"),
    ("afsa.lazy.cache_hit_ratio", "ratio"),
    ("afsa.lazy.warm_seeded", "count/op"),
    ("afsa.lazy.warm_decided", "count/op"),
    ("afsa.witness.witness_ms", "ms/op"),
    ("afsa.witness.expansions", "count/op"),
    ("core.runtime.dispatch_ms", "ms/op"),
    ("core.runtime.chunks", "count/op"),
    ("core.runtime.inflight_high_water", "count"),
    ("core.runtime.stolen_chunks", "count/op"),
    ("core.runtime.speculative_dispatches", "count/op"),
    ("core.runtime.speculative_win_ratio", "ratio"),
    ("core.runtime.arena_published_bytes", "B/op"),
    ("core.runtime.arena_hit_ratio", "ratio"),
    ("core.runtime.routing_spilled", "count/op"),
    ("instances.classify_ms", "ms/op"),
    ("instances.classes", "count/op"),
    ("instances.instances_per_class", "ratio"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.tracing_overhead_ratio", "ratio"),
)

#: Spans each workload's traced run must record at least once; the
#: run fails when one never fires.
PREDICTED_SPANS = {
    "serve": (
        "service.dispatch", "service.engine", "service.engine_wait",
        "core.engine.evolve", "core.engine.classify", "bpel.compile",
        "afsa.view.project", "core.sweep.sweep", "core.sweep.check_pair",
        "afsa.lazy.verdict",
    ),
    "evolve": (
        "core.engine.evolve", "core.engine.classify",
        "core.engine.propagate", "core.engine.suggest", "bpel.compile",
        "afsa.view.project", "core.sweep.sweep", "core.sweep.check_pair",
        "afsa.lazy.verdict", "instances.classify",
    ),
    "fanout": (
        "core.sweep.sweep", "core.runtime.dispatch", "instances.classify",
        "core.sweep.check_pair", "afsa.lazy.verdict",
        "afsa.witness.witness",
    ),
}

#: Spans predicted *not* to fire on a workload.  A violation is
#: reported, not failed: it means the program changed shape.
PREDICTED_ABSENT = {
    "serve": ("core.runtime.dispatch",),
    "evolve": ("core.runtime.dispatch", "service.dispatch"),
    "fanout": ("service.dispatch", "core.engine.evolve"),
}

#: Runtime counter names of ``EvolutionRuntime.stats()`` read per
#: window, with the ``/metrics`` series that carries each on serve.
RUNTIME_COUNTERS = {
    "chunks_dispatched": "repro_runtime_chunks_dispatched_total",
    "inflight_high_water": "repro_runtime_inflight_high_water",
    "stolen_chunks": "repro_runtime_stolen_chunks_total",
    "speculative_dispatches": "repro_runtime_speculative_dispatches_total",
    "speculative_wins": "repro_runtime_speculative_wins_total",
    "published": "repro_runtime_arena_published_total",
    "published_bytes": "repro_runtime_arena_published_bytes_total",
    "arena_hits": "repro_runtime_arena_hits_total",
    "routing_spilled": "repro_runtime_routing_spilled_total",
}


def runtime_delta(before: dict, after: dict) -> dict:
    """Window deltas of :data:`RUNTIME_COUNTERS` (the high-water mark
    is a gauge and is taken as read at the end)."""
    delta = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in RUNTIME_COUNTERS
    }
    delta["inflight_high_water"] = after.get("inflight_high_water", 0)
    return delta


def layer_metrics(ops: int, summary: dict, counters: dict) -> dict:
    """Assemble the :data:`PER_LAYER` metrics.

    Args:
        ops: operations completed in the traced window.
        summary: merged span summary (:func:`perfbench.tracing.summarize`).
        counters: window counter deltas — ``verdict_hits``,
            ``verdict_misses``, ``warm_seeded``, ``warm_decided``,
            ``witness_expansions``, ``runtime`` (a
            :func:`runtime_delta` dict), ``instances.classes``,
            ``instances.instances``, and on serve ``http_s``,
            ``engine_dispatches``, ``coalesced``, ``checks`` and
            ``admission_rejected``; plus ``generator_late_p99_ms``
            and ``tracing_overhead`` ``(ratio, base text)``.

    Returns:
        ``{name: (value, unit, note)}`` for every :data:`PER_LAYER` name.
    """
    ops = max(1, ops)

    def self_ms(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names) * 1e3 / ops

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / ops

    runtime = counters.get("runtime", {})
    hits = counters.get("verdict_hits", 0)
    lookups = hits + counters.get("verdict_misses", 0)
    spec = runtime.get("speculative_dispatches", 0)
    spec_wins = runtime.get("speculative_wins", 0)
    arena_hits = runtime.get("arena_hits", 0)
    arena_lookups = arena_hits + runtime.get("published", 0)
    checks = counters.get("checks", 0)
    coalesced = counters.get("coalesced", 0)
    classes = counters.get("instances.classes", 0)
    instances = counters.get("instances.instances", 0)
    overhead, overhead_base = counters.get("tracing_overhead", (0.0, ""))
    dispatch = summary.get("core.runtime.dispatch", {}).get("total_s", 0.0)
    values = {
        "service.http_ms": (counters.get("http_s", 0.0) * 1e3 / ops, ""),
        "service.dispatch_self_ms": (self_ms("service.dispatch"), ""),
        "service.engine_wait_ms": (self_ms("service.engine_wait"), ""),
        "service.engine_dispatches": (
            counters.get("engine_dispatches", 0) / ops, ""),
        "service.coalesced_ratio": (
            ratio(coalesced, checks),
            f"{coalesced} coalesced of {checks} /check requests"),
        "service.admission_rejected": (
            counters.get("admission_rejected", 0), ""),
        "core.engine.evolve_self_ms": (self_ms("core.engine.evolve"), ""),
        "core.engine.classify_ms": (self_ms("core.engine.classify"), ""),
        "core.engine.propagate_ms": (self_ms("core.engine.propagate"), ""),
        "core.engine.suggest_ms": (self_ms("core.engine.suggest"), ""),
        "bpel.compile_ms": (self_ms("bpel.compile"), ""),
        "bpel.compile_calls": (calls("bpel.compile"), ""),
        "afsa.view.project_ms": (self_ms("afsa.view.project"), ""),
        "afsa.view.project_calls": (calls("afsa.view.project"), ""),
        "core.sweep.check_pair_ms": (self_ms("core.sweep.check_pair"), ""),
        "core.sweep.sweep_self_ms": (self_ms("core.sweep.sweep"), ""),
        "afsa.lazy.verdict_ms": (self_ms("afsa.lazy.verdict"), ""),
        "afsa.lazy.verdict_calls": (calls("afsa.lazy.verdict"), ""),
        "afsa.lazy.cache_hit_ratio": (
            ratio(hits, lookups), f"{hits} hits of {lookups} lookups"),
        "afsa.lazy.warm_seeded": (counters.get("warm_seeded", 0) / ops, ""),
        "afsa.lazy.warm_decided": (
            counters.get("warm_decided", 0) / ops, ""),
        "afsa.witness.witness_ms": (self_ms("afsa.witness.witness"), ""),
        "afsa.witness.expansions": (
            counters.get("witness_expansions", 0) / ops, ""),
        "core.runtime.dispatch_ms": (dispatch * 1e3 / ops, "inclusive"),
        "core.runtime.chunks": (
            runtime.get("chunks_dispatched", 0) / ops, ""),
        "core.runtime.inflight_high_water": (
            runtime.get("inflight_high_water", 0), ""),
        "core.runtime.stolen_chunks": (
            runtime.get("stolen_chunks", 0) / ops, ""),
        "core.runtime.speculative_dispatches": (spec / ops, ""),
        "core.runtime.speculative_win_ratio": (
            ratio(spec_wins, spec),
            f"{spec_wins} wins of {spec} speculative dispatches"),
        "core.runtime.arena_published_bytes": (
            runtime.get("published_bytes", 0) / ops, ""),
        "core.runtime.arena_hit_ratio": (
            ratio(arena_hits, arena_lookups),
            f"{arena_hits} hits of {arena_lookups} publishes"),
        "core.runtime.routing_spilled": (
            runtime.get("routing_spilled", 0) / ops, ""),
        "instances.classify_ms": (self_ms("instances.classify"), ""),
        "instances.classes": (classes / ops, ""),
        "instances.instances_per_class": (
            ratio(instances, classes),
            f"{instances} instances in {classes} classes"),
        "bench.generator_late_p99_ms": (
            counters.get("generator_late_p99_ms", 0.0), ""),
        "bench.tracing_overhead_ratio": (overhead, overhead_base),
    }
    return {
        name: (values[name][0], unit, values[name][1])
        for name, unit in PER_LAYER
    }


def check_predictions(workload: str, summary: dict) -> tuple[list, list]:
    """``(missing, unexpected)`` span names for *workload*."""
    fired = {name for name, entry in summary.items() if entry["calls"]}
    missing = [n for n in PREDICTED_SPANS[workload] if n not in fired]
    unexpected = [n for n in PREDICTED_ABSENT[workload] if n in fired]
    return missing, unexpected


class Window:
    """Span and counter snapshots around one in-process measured window.

    ``before()`` drops the spans recorded during set-up and reads the
    verdict-cache, warm-start and runtime counters; ``after()`` reads
    them again and keeps the window's spans.  With a *runtime* whose
    shards were forked after the tracer was installed, the shards'
    spans and counters are collected through the runtime's ``map``
    too, one snapshot task per shard.
    """

    def __init__(self, tracer, runtime=None):
        self.tracer = tracer
        self.runtime = runtime
        self._before = None
        self.summary: dict = {}
        self.counters: dict = {}
        self.shard_peak_rss_mb = 0.0

    def _read(self) -> dict:
        from repro.afsa.lazy import VERDICTS, warm_stats
        from repro.core.runtime import get_runtime

        runtime = self.runtime if self.runtime is not None else get_runtime()
        hits, misses = VERDICTS.stats()
        shards = self._shards()
        for shard in shards:
            hits += shard["verdicts"][0]
            misses += shard["verdicts"][1]
        warm = dict(warm_stats())
        for shard in shards:
            for key, value in shard["warm"].items():
                warm[key] = warm.get(key, 0) + value
        return {
            "hits": hits,
            "misses": misses,
            "warm": warm,
            "runtime": runtime.stats(),
            "shards": shards,
        }

    def _shards(self) -> list:
        from perfbench.tracing import shard_snapshot

        if self.runtime is None or not self.runtime.pool_size:
            return []
        count = self.runtime.pool_size
        return self.runtime.map(
            shard_snapshot, [None] * count, shard_of=list(range(count))
        )

    def before(self) -> None:
        self.tracer.drain()
        self._before = self._read()

    def after(self, intervals: list) -> None:
        """Close the window.  Only spans that start inside one of the
        timed operations' ``(start, end)`` *intervals* count, so input
        preparation between operations stays out of the layer times."""
        from perfbench.tracing import merge_summaries, summarize, within

        spans, counts = self.tracer.drain()
        end = self._read()
        start = self._before
        summaries = [summarize(within(spans, intervals))]
        for shard in end["shards"]:
            summaries.append(summarize(within(shard["spans"], intervals)))
            for key, value in shard["counts"].items():
                counts[key] = counts.get(key, 0) + value
            self.shard_peak_rss_mb += shard["peak_rss_mb"]
        self.summary = merge_summaries(summaries)
        self.counters = dict(counts)
        self.counters.update(
            verdict_hits=end["hits"] - start["hits"],
            verdict_misses=end["misses"] - start["misses"],
            warm_seeded=end["warm"]["seeded"] - start["warm"]["seeded"],
            warm_decided=(
                end["warm"]["decided_from_seed"]
                - start["warm"]["decided_from_seed"]
            ),
            witness_expansions=(
                end["warm"]["witness_expansions"]
                - start["warm"]["witness_expansions"]
            ),
            runtime=runtime_delta(start["runtime"], end["runtime"]),
        )

"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.measure import median, ratio, tail

#: The end-to-end metrics every workload reports: (name, unit).  The
#: headline operation behind ``op_*`` is the workload's own: the /check
#: request on serve, the Fig. 4 evolution step on evolve, the fanned
#: fleet migration on fanout.  Tails are printed beside them but not
#: declared: a tail rests on the few slowest operations of a run, and
#: on a small shared machine its run-to-run spread is several times
#: the largest bound a declared metric may have.  ``within_limit_ratio``
#: carries the tail instead.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("sweep_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("within_limit_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    """Counts, metrics and diagnostics of one workload run.

    ``attempted`` counts every timed operation; ``failed`` the errors,
    timeouts and wrong answers among them.  ``metrics`` maps a metric
    name to ``(value, unit, note)``; ``extra`` holds the same for the
    per-operation figures printed beside the declared metrics.
    ``primary`` keeps the headline operation's latencies (seconds) so
    a traced run can be compared with an untraced one; ``intervals``
    the ``(start, end)`` of every timed operation, which bound the
    spans a traced run counts.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    primary: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    layer_inputs: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed operation, keeping the first messages."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed(self, started: float, ended: float, into: list) -> None:
        """Record one timed operation: its latency and its interval."""
        into.append(ended - started)
        self.intervals.append((started, ended))

    def latency(self, prefix: str, seconds: list, gated: bool = False) -> None:
        """Print ``<prefix>_p50_ms`` and ``<prefix>_tail_ms``; with
        *gated* the median is also a declared metric."""
        if seconds:
            p, value, n = tail(seconds)
            p50 = (median(seconds) * 1e3, "ms", f"n={n}")
            high = (value * 1e3, "ms", f"p{p:g} of n={n}")
        else:
            p50 = high = (0.0, "ms", "no samples")
        self.extra[f"{prefix}_p50_ms"] = p50
        self.extra[f"{prefix}_tail_ms"] = high
        if gated:
            self.metrics[f"{prefix}_p50_ms"] = self.extra.pop(f"{prefix}_p50_ms")

    def finish_ratio(self, within: int) -> None:
        """Set ``within_limit_ratio`` (base: operations attempted)."""
        self.metrics["within_limit_ratio"] = (
            ratio(within, self.attempted),
            "ratio",
            f"{within} of {self.attempted} operations correct within limit",
        )

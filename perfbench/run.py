#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 10 --trace 0

Every metric is printed on its own ``metric`` line with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced for half
the window and traced for the other half and reports the per-layer
metrics, including the tracing overhead between the two halves.

The exit code is 0 only for a correct run: any wrong verdict, error,
timeout, leaked shared-memory segment or server that does not stop
makes it 1.  Outside a checkout (no ``src/repro``) it is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

WORKLOADS = ("serve", "evolve", "fanout")
#: Reserved for confirming a claimed gain on inputs nobody tuned on.
HOLDOUT_SEED = 7919
#: A run that is still going after this many seconds dumps its stacks
#: and exits non-zero: the benchmark never hangs.
HARD_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(name: str, value: float, unit: str, note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"metric {name} {value:.6g} {unit}{suffix}")


def _module(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{workload}")


def _traced(workload: str, seed: int, seconds: float):
    """The per-layer run: untraced half, then traced half."""
    from perfbench.layers import check_predictions, layer_metrics
    from perfbench.measure import median, ratio
    from perfbench.tracing import Tracer

    module = _module(workload)
    plain = module.run(seed, seconds / 2, setups=1)
    tracer = Tracer()
    if workload != "serve":  # the server installs its own at launch
        tracer.install()
    try:
        traced = module.run(seed, seconds / 2, setups=1, tracer=tracer)
    finally:
        tracer.uninstall()
    inputs = traced.layer_inputs
    counters = dict(inputs.get("counters", {}))
    base_plain = median(plain.primary) if plain.primary else 0.0
    base_traced = median(traced.primary) if traced.primary else 0.0
    counters["tracing_overhead"] = (
        ratio(base_traced, base_plain),
        f"traced op p50 {base_traced * 1e3:.3f} ms / untraced "
        f"{base_plain * 1e3:.3f} ms",
    )
    metrics = layer_metrics(inputs.get("ops", 0), inputs.get("summary", {}), counters)
    missing, unexpected = check_predictions(workload, inputs.get("summary", {}))
    for name in missing:
        traced.fail(f"span {name} predicted for {workload} never fired")
    for name in unexpected:
        print(f"note: span {name} fired on {workload}, predicted absent")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors = plain.errors + traced.errors
    traced.metrics = metrics
    traced.extra = {}
    return traced


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "error: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(root, "src"), root]
    # A shell that starts this in the background ignores SIGINT, and an
    # ignored signal is inherited: restore it so the server this run
    # starts can be stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from perfbench.measure import abort_after, stop_children

    watchdog = abort_after(HARD_LIMIT_S)

    try:
        if args.trace:
            run = _traced(args.workload, args.seed, args.seconds)
        else:
            run = _module(args.workload).run(args.seed, args.seconds)
    finally:
        stop_children()

    for name, (value, unit, note) in run.extra.items():
        _emit(name, value, unit, note)
    for name, (value, unit, note) in run.metrics.items():
        _emit(name, value, unit, note)
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    _emit("fail_ratio", fail_ratio, "ratio",
          f"{run.failed} failed of {run.attempted} attempted")
    for message in run.errors:
        print(f"error: {message}")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in run.metrics.items()
        },
    }))
    watchdog.cancel()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

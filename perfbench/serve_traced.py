"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Usage, from the root of a checkout with ``src`` and the root on
``PYTHONPATH``::

    python3 -m perfbench.serve_traced --spans OUT.jsonl [serve options]

The wrappers go in before the service is built, the server then runs
exactly as ``python -m repro.cli serve`` does, and the spans it
recorded are written to ``OUT.jsonl`` when it exits (on SIGINT).
"""

from __future__ import annotations

import argparse
import sys

from perfbench.tracing import Tracer, write_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    args, serve_args = parser.parse_known_args(argv)
    tracer = Tracer()
    tracer.install(service=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        write_spans(args.spans, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())

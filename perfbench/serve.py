"""The ``serve`` workload: an open loop against a ``repro serve`` process.

One process sends requests at :data:`RATE` per second (exponential
gaps, seeded) over at most :data:`CONNECTIONS` keep-alive connections
to a ``python -m repro.cli serve`` subprocess with its default
``workers=0``.  The server hosts :data:`TENANTS` tenants, each with a
seeded hub-and-spoke choreography of its own shape.  The mix is mostly
``/check``, some ``/sweep`` and a few committed ``/evolve``: the
evolves are writes beside the reads — each bumps versions, so later
checks miss the verdict cache, and each holds the single engine thread,
so checks queue behind it.  A tenant's evolves alternate between a
seeded random change and its rollback, so the processes keep their
size over the window.  The runtime fan-out is bypassed.

Latency is timed from each request's due time, so a stall shows in
the requests queued behind it; how late the generator itself woke is
reported as ``bench.generator_late_p99_ms``.

Known answers: generated choreographies are consistent by construction
and commits preserve consistency, so every ``/check`` and ``/sweep``
must say consistent.  Every ``/evolve`` is replayed in process at
set-up on a mirror of the tenant's choreography; the reply's
``committed`` flag and classifications must equal the replay, and the
generator derives each next change from the replayed mirror, so
auto-adapted partners stay in sync with the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench.measure import (
    SUBPROCESSES,
    cpu_seconds,
    median,
    percentile,
    vm_hwm_mb,
)
from perfbench.result import Run

#: Offered load, requests per second, and the share of each route.
#: There is no record of real traffic to copy, so these are
#: assumptions, chosen as follows.  The mix follows the shape of the
#: service's use: mostly reads, some sweeps, a few writes.  The rate is
#: about a third of what the server and this client sustain together
#: on the 2-CPU machine the benchmark was tuned on: offered 1000/s, they
#: kept up, but the median /check waited five times as long as at
#: 400/s.  So requests queue behind evolves and sweeps, but the server
#: is far from saturated.
RATE = 300.0
MIX = (("check", 0.85), ("sweep", 0.12), ("evolve", 0.03))
#: Latency limit of each route (seconds), timed from the due time:
#: five to eight times the route's median at this rate on that machine,
#: so ``within_limit_ratio`` counts the requests caught in a queue.
LIMITS = {"check": 0.01, "sweep": 0.01, "evolve": 0.05}
#: (spokes, prologue steps) of each tenant's choreography.
SHAPES = ((2, 3), (3, 4), (2, 4), (3, 3), (2, 5), (3, 5), (2, 3), (3, 4))
TENANTS = len(SHAPES)
#: Keep-alive connections (never more than the machine has CPUs).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Server start-ups timed per run; ``setup_s`` is their median.  A
#: start takes a few tenths of a second and follows the machine's
#: load, so the median needs many.
SETUPS = 15
#: Bounds: one request, server start, server exit, and the drain of
#: requests still in flight when the schedule ends.
REQUEST_TIMEOUT_S = 20.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One scheduled request and the answer it must get."""

    due: float
    kind: str
    body: dict
    expected: object = None
    order: int = -1


# -- the scripted schedule -----------------------------------------------------


def _tenants(seed: int) -> list:
    """``(tenant, choreography name, [dsl text per party])``."""
    from repro.bpel.dsl import process_to_dsl
    from repro.workload.generator import generate_choreography

    tenants = []
    for index, (spokes, steps) in enumerate(SHAPES):
        generated = generate_choreography(
            seed=seed * 100 + index, spokes=spokes, steps=steps
        )
        texts = [process_to_dsl(generated.private(p)) for p in generated.parties()]
        tenants.append((f"tenant{index}", f"choreo{index}", texts))
    return tenants


class _Mirror:
    """An in-process replay of one tenant's choreography.

    A tenant's evolves alternate between a seeded random change and the
    rollback of that change, so its processes stay the same size over
    the run and the evolves keep one cost distribution however long
    the window.
    """

    def __init__(self, texts: list):
        from repro.bpel.dsl import process_from_dsl
        from repro.core.choreography import Choreography
        from repro.core.engine import EvolutionEngine

        self.choreography = Choreography("mirror")
        for text in texts:
            self.choreography.add_partner(process_from_dsl(text))
        self.engine = EvolutionEngine(self.choreography)
        self.rollback = None

    def evolve(self, rng) -> tuple:
        """``(party, process text, expected reply)`` of the next evolve,
        applied to the mirror."""
        from repro.bpel.dsl import process_from_dsl, process_to_dsl
        from repro.errors import ChangeError
        from repro.workload.mutations import random_change

        choreography = self.choreography
        if self.rollback is not None:
            party, text = self.rollback
            self.rollback = None
        else:
            while True:
                party = rng.choice(choreography.parties())
                current = choreography.private(party)
                try:
                    _, operation, _ = random_change(
                        current, seed=rng.randrange(1 << 30)
                    )
                    break
                except ChangeError:
                    continue
            self.rollback = (party, process_to_dsl(current))
            text = process_to_dsl(operation.apply(current))
        before = choreography.current_version(party)
        report = self.engine.apply_private_change(
            party, process_from_dsl(text), auto_adapt=True, commit=True
        )
        expected = (
            choreography.current_version(party) != before,
            [
                (impact.party, impact.classification.describe())
                for impact in report.impacts
            ],
        )
        return party, text, expected


def schedule(seed: int, seconds: float, tenants: list) -> list:
    """The seeded open-loop schedule with every request's answer.

    ``RATE * seconds`` requests with exponential gaps, scaled so the
    last is due at *seconds*: every seed offers exactly the same load.
    """
    rng = random.Random(seed)
    mirrors = [_Mirror(texts) for _, _, texts in tenants]
    kinds = [kind for kind, _ in MIX]
    weights = [share for _, share in MIX]
    gaps = [rng.expovariate(RATE) for _ in range(int(RATE * seconds))]
    scale = seconds / sum(gaps)
    requests = []
    due = 0.0
    evolves = 0
    for gap in gaps:
        due += gap * scale
        kind = rng.choices(kinds, weights)[0]
        index = rng.randrange(TENANTS)
        tenant, name, _ = tenants[index]
        body = {"tenant": tenant, "choreography": name}
        if kind == "check":
            hub, *spokes = mirrors[index].choreography.parties()
            body.update(left=hub, right=rng.choice(spokes))
            requests.append(Request(due, kind, body, True))
        elif kind == "sweep":
            body["witnesses"] = "failures"
            requests.append(Request(due, kind, body, True))
        else:
            party, text, expected = mirrors[index].evolve(rng)
            body.update(
                party=party,
                process={"text": text, "format": "dsl"},
                auto_adapt=True,
                commit=True,
            )
            requests.append(Request(due, kind, body, expected, evolves))
            evolves += 1
    return requests


def _answer_ok(request: Request, reply: dict) -> bool:
    if request.kind != "evolve":
        return reply.get("consistent") == request.expected
    committed, impacts = request.expected
    return reply.get("committed") == committed and [
        (impact["party"], impact["classification"])
        for impact in reply.get("impacts", [])
    ] == impacts


# -- the server process ----------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, spans_path: str | None = None):
        env = dict(os.environ)
        paths = [os.path.join(root, "src"), root]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [
                sys.executable, "-m", "perfbench.serve_traced",
                "--spans", spans_path,
            ]
        self.process = subprocess.Popen(
            command + ["--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        SUBPROCESSES.append(self.process)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._await_port()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = "listening on http://"
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro serve did not start")
            if marker in line:
                return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> bool:
        """SIGINT, then wait; True when the server exited in bound."""
        exited = True
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                exited = False
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        SUBPROCESSES.remove(self.process)
        return exited


# -- the HTTP client -------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.port = port
        self.reader = None
        self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def call(self, method: str, path: str, body=None, request_id: str = ""):
        """``(status, body bytes)`` of one exchange."""
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


async def _call(port: int, method: str, path: str, body=None):
    connection = Connection(port)
    await connection.open()
    try:
        return await asyncio.wait_for(
            connection.call(method, path, body), REQUEST_TIMEOUT_S
        )
    finally:
        await connection.close()


def _scrape(port: int) -> dict:
    """Unlabelled series of ``/metrics`` as ``{name: value}``."""
    status, text = asyncio.run(_call(port, "GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values = {}
    for line in text.decode().splitlines():
        if line.startswith("#") or "{" in line or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def _register(port: int, tenants: list) -> None:
    async def register():
        for tenant, name, texts in tenants:
            status, reply = await _call(port, "POST", "/tenants", {"tenant": tenant})
            if status != 200:
                raise RuntimeError(f"tenant registration answered {status}: {reply}")
            status, reply = await _call(port, "POST", "/choreographies", {
                "tenant": tenant,
                "name": name,
                "processes": [{"text": text, "format": "dsl"} for text in texts],
            })
            if status != 200:
                raise RuntimeError(f"registration answered {status}: {reply}")

    asyncio.run(register())


async def _drive(port: int, requests: list, result: Run) -> dict:
    """Send the schedule; returns per-route latencies and diagnostics."""
    loop = asyncio.get_running_loop()
    pending: asyncio.Queue = asyncio.Queue()
    turns = [asyncio.Event() for r in requests if r.kind == "evolve"]
    latencies = {kind: [] for kind, _ in MIX}
    late: list = []
    rtt: dict = {}
    within = [0]
    finished = [0]
    start = loop.time() + 0.05

    async def generate():
        for request in requests:
            delay = start + request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - start - request.due))
            pending.put_nowait(request)
        for _ in range(CONNECTIONS):
            pending.put_nowait(None)

    async def send(connection, number, request):
        if request.kind == "evolve" and request.order > 0:
            await turns[request.order - 1].wait()
        sent = loop.time()
        try:
            status, reply = await asyncio.wait_for(
                connection.call("POST", f"/{request.kind}", request.body, str(number)),
                REQUEST_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, OSError, ValueError, IndexError) as error:
            # A timed-out exchange may still answer later: start over on
            # a fresh connection.
            result.fail(f"/{request.kind} #{number}: {type(error).__name__} {error}")
            await connection.close()
            await connection.open()
            return
        finally:
            finished[0] += 1
            if request.kind == "evolve":
                turns[request.order].set()
        done = loop.time()
        rtt[str(number)] = done - sent
        latency = done - start - request.due
        latencies[request.kind].append(latency)
        if status != 200:
            result.fail(f"/{request.kind} #{number} answered {status}: {reply[:200]!r}")
        elif not _answer_ok(request, json.loads(reply)):
            result.fail(f"/{request.kind} #{number} wrong answer: {reply[:300]!r}")
        else:
            within[0] += latency <= LIMITS[request.kind]

    numbers = {id(request): number for number, request in enumerate(requests)}

    async def work():
        connection = Connection(port)
        await connection.open()
        try:
            while True:
                request = await pending.get()
                if request is None:
                    return
                result.attempted += 1
                await send(connection, numbers[id(request)], request)
        finally:
            await connection.close()

    workers = [asyncio.create_task(work()) for _ in range(CONNECTIONS)]
    generator = asyncio.create_task(generate())
    await generator
    done, stuck = await asyncio.wait(workers, timeout=DRAIN_TIMEOUT_S)
    for task in stuck:
        task.cancel()
    await asyncio.gather(*stuck, return_exceptions=True)
    for task in done:
        task.result()
    unanswered = len(requests) - finished[0]
    if unanswered:
        result.attempted = len(requests)
        result.failed += unanswered
        result.errors.append(f"{unanswered} requests unanswered after the drain bound")
    return {
        "latencies": latencies,
        "late": late,
        "rtt": rtt,
        "within": within[0],
        "elapsed": loop.time() - start,
    }


# -- the run -----------------------------------------------------------------------


def run(seed: int, seconds: float, setups: int = SETUPS, tracer=None) -> Run:
    """Run the workload for *seconds*; see the module docstring.

    With a *tracer* (any object: the server installs its own), the
    server starts through :mod:`perfbench.serve_traced` and the
    window's spans and ``/metrics`` deltas are left in
    ``Run.layer_inputs``.
    """
    root = os.getcwd()
    result = Run()
    tenants = _tenants(seed)
    requests = schedule(seed, seconds, tenants)
    spans_path = None
    if tracer is not None:
        spans_path = os.path.join(root, ".perfbench", f"serve-spans-{seed}.jsonl")

    setup_times = []
    server = None
    for attempt in range(setups):
        if server is not None and not server.stop():
            result.fail(f"repro serve did not exit within {STOP_TIMEOUT_S:g} s")
        started = time.perf_counter()
        server = Server(root, spans_path if attempt == setups - 1 else None)
        _register(server.port, tenants)
        setup_times.append(time.perf_counter() - started)
    try:
        before = _scrape(server.port)
        cpu_before = cpu_seconds(server.process.pid)
        outcome = asyncio.run(_drive(server.port, requests, result))
        server_cpu = cpu_seconds(server.process.pid) - cpu_before
        after = _scrape(server.port)
        peak_rss = server.peak_rss_mb()
    finally:
        if not server.stop():
            result.fail(f"repro serve did not exit within {STOP_TIMEOUT_S:g} s")

    latencies = outcome["latencies"]
    result.primary = latencies["check"]
    result.metrics["setup_s"] = (
        median(setup_times), "s",
        f"median of {len(setup_times)} set-ups (server start + registration)",
    )
    result.latency("op", latencies["check"], gated=True)
    result.latency("sweep", latencies["sweep"], gated=True)
    answered = sum(len(v) for v in latencies.values())
    # The offered rate is fixed, so answered requests per second of
    # the schedule would only echo it; per second of the server's CPU
    # time they give what one core of the server can sustain.
    result.metrics["ops_per_s"] = (
        answered / server_cpu if server_cpu else 0.0, "1/s",
        f"{answered} answered in {server_cpu:.2f} s of server CPU "
        f"({outcome['elapsed']:.3f} s at {RATE:g}/s offered)",
    )
    result.finish_ratio(outcome["within"])
    result.metrics["peak_rss_mb"] = (peak_rss, "MB", "server process")
    result.latency("check", latencies["check"])
    result.latency("evolve", latencies["evolve"])
    late = sorted(outcome["late"])
    late_p99 = percentile(late, 99.0) * 1e3 if late else 0.0
    result.extra["bench.generator_late_p99_ms"] = (late_p99, "ms", f"n={len(late)}")
    result.layer_inputs["ops"] = len(requests)
    if tracer is not None:
        result.layer_inputs.update(
            _server_layers(spans_path, before, after, outcome, late_p99)
        )
    return result


def _server_layers(spans_path, before, after, outcome, late_p99) -> dict:
    from perfbench.layers import RUNTIME_COUNTERS, runtime_delta
    from perfbench.tracing import read_spans, summarize

    spans = read_spans(spans_path)
    window_ids = set(outcome["rtt"])
    spans = [span for span in spans if span[5] in window_ids]
    dispatch = {
        span[5]: span[3] - span[2] for span in spans if span[1] == "service.dispatch"
    }
    http_s = sum(
        rtt - dispatch[request_id]
        for request_id, rtt in outcome["rtt"].items()
        if request_id in dispatch
    )

    def delta(name):
        return int(after.get(name, 0) - before.get(name, 0))

    runtime_before = {key: int(before.get(series, 0)) for key, series in RUNTIME_COUNTERS.items()}
    runtime_after = {key: int(after.get(series, 0)) for key, series in RUNTIME_COUNTERS.items()}

    return {
        "summary": summarize(spans),
        "counters": {
            "http_s": http_s,
            "engine_dispatches": delta("repro_engine_dispatches_total"),
            "coalesced": delta("repro_coalesced_requests_total"),
            "checks": len(outcome["latencies"]["check"]),
            "admission_rejected": delta("repro_admission_rejected_total"),
            "verdict_hits": delta("repro_verdict_cache_hits_total"),
            "verdict_misses": delta("repro_verdict_cache_misses_total"),
            "warm_seeded": delta("repro_warm_seeded_total"),
            "warm_decided": delta("repro_warm_decided_from_seed_total"),
            "witness_expansions": delta("repro_witness_expansions_total"),
            "runtime": runtime_delta(runtime_before, runtime_after),
            "generator_late_p99_ms": late_p99,
        },
    }

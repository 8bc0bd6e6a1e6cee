"""Choreography-as-a-service: the asyncio front-end over the runtime.

Everything below this package is a fast single-box library with one
Python caller.  :class:`ChoreoService` is the first layer that exists
above "one process, one caller": a long-running asyncio HTTP/JSON
server through which *tenants* register choreographies, submit
evolutions, and fetch or stream consistency-sweep and migration
verdicts — all multiplexed onto the one shared arena, worker pool and
verdict cache of :mod:`repro.core.runtime` / :mod:`repro.afsa.lazy`.

Threading model — the load-bearing decision:

* the **event-loop thread** owns all service state (tenant registry,
  coalescer, metrics) and does admission, routing and serialization;
* all kernel-touching compute runs on **one dedicated engine thread**
  (``ThreadPoolExecutor(max_workers=1)``).  The engine layers are
  single-threaded by design (kernel memos, the verdict cache and the
  view memos are plain dicts); serializing compute through one thread
  keeps them safe **without adding a single lock to the hot library
  path**.  Parallelism comes from *below* — the engine thread fans
  grids out through the persistent runtime's worker pool — and
  concurrency from *above*: the loop keeps accepting, admitting,
  coalescing and answering cache-resident requests while the engine
  thread grinds.

That split is what makes admission control and coalescing honest:
admission bounds the engine queue a tenant can build up, and the
coalescer dedupes identical pending pair checks *before* they reach
the queue — N concurrent identical ``/check`` requests cost one
engine dispatch (the cache-stampede guard; see
:mod:`repro.service.coalesce`).

The route table (:data:`ROUTES`) is the single source of truth for
the service's surface; ``docs/API.md`` documents every entry and
``tests/test_docs_api.py`` fails when the two drift apart.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass

from repro.afsa.lazy import VERDICTS, warm_stats
from repro.bpel.dsl import process_from_dsl
from repro.bpel.xml_io import process_from_xml
from repro.core.choreography import Choreography
from repro.core.engine import EvolutionEngine
from repro.core.runtime import get_runtime
from repro.core.sweep import (
    WITNESS_ALL,
    WITNESS_FAILURES,
    WITNESS_NONE,
    check_pair,
    conversing_pairs,
    sweep_choreography,
    sweep_choreography_streaming,
)
from repro.errors import ReproError
from repro.instances.migrate import classify_migration
from repro.service.coalesce import Coalescer
from repro.service.http import (
    LAST_CHUNK,
    HttpError,
    Request,
    chunk,
    json_response,
    read_request,
    response_head,
)
from repro.service.metrics import ServiceMetrics, render_metrics
from repro.service.tenants import (
    ServiceError,
    Session,
    Tenant,
    TenantRegistry,
    release_sessions,
)

#: Witness policies accepted by ``/sweep``.
_POLICIES = (WITNESS_NONE, WITNESS_FAILURES, WITNESS_ALL)

#: Hard cap on ``/fleet`` spawn size (one request must not be able to
#: allocate an unbounded instance store).
MAX_FLEET = 100_000


@dataclass(frozen=True)
class Route:
    """One service endpoint: the routing key plus its doc summary."""

    method: str
    path: str
    handler: str
    summary: str


#: The service surface.  ``docs/API.md`` must document exactly these
#: (method, path) pairs — asserted by ``tests/test_docs_api.py``.
ROUTES = (
    Route("GET", "/healthz", "handle_healthz", "liveness + counters"),
    Route("GET", "/metrics", "handle_metrics", "metrics exposition"),
    Route("GET", "/tenants", "handle_tenants", "list tenants + usage"),
    Route("POST", "/tenants", "handle_tenant_register", "register a tenant"),
    Route(
        "GET",
        "/choreographies",
        "handle_choreographies",
        "list registered choreographies",
    ),
    Route(
        "POST",
        "/choreographies",
        "handle_register",
        "register (or replace) a choreography",
    ),
    Route(
        "POST",
        "/check",
        "handle_check",
        "one bilateral consistency check (coalesced)",
    ),
    Route(
        "POST",
        "/sweep",
        "handle_sweep",
        "batched consistency sweep (optionally streamed)",
    ),
    Route(
        "POST",
        "/evolve",
        "handle_evolve",
        "apply a private-process change (Fig. 4 evolution step)",
    ),
    Route("POST", "/fleet", "handle_fleet", "spawn running instances"),
    Route(
        "POST",
        "/migrate",
        "handle_migrate",
        "classify the running fleet against a candidate version",
    ),
)


class StreamingBody:
    """A chunked NDJSON response: status + an async chunk generator.

    Consumers (the socket layer, tests, anyone calling
    :meth:`ChoreoService.dispatch` directly) must call :meth:`aclose`
    when done with the stream — normal end, early disconnect, or
    never having iterated at all.  That is what guarantees the
    admission slot claimed at dispatch time is returned: relying on
    GC-driven async-generator finalization would leak the slot
    whenever the generator is abandoned before its first iteration.
    """

    __slots__ = ("status", "generator", "admission")

    def __init__(self, status: int, generator, admission=None):
        self.status = status
        self.generator = generator
        self.admission = admission

    async def aclose(self) -> None:
        """Close the chunk generator and release the admission slot.

        Idempotent, and safe in every stream state: a finished or
        never-started generator makes ``aclose`` a no-op, and the
        admission release is idempotent by construction.
        """
        try:
            await self.generator.aclose()
        finally:
            if self.admission is not None:
                self.admission.release()


def _parse_process(spec):
    """Build a :class:`ProcessModel` from a request's process spec.

    Accepts ``{"text": ..., "format": "dsl"|"xml"}`` or a bare string
    (format sniffed: leading ``<`` means XML).  Model errors surface
    as :class:`ReproError` and map to 422 in :meth:`dispatch`.
    """
    if isinstance(spec, dict):
        text = spec.get("text")
        fmt = spec.get("format")
    else:
        text = spec
        fmt = None
    if not isinstance(text, str) or not text.strip():
        raise ServiceError(
            400, "missing-process", "process spec needs a 'text' field"
        )
    if fmt is None:
        fmt = "xml" if text.lstrip().startswith("<") else "dsl"
    if fmt == "xml":
        return process_from_xml(text)
    if fmt == "dsl":
        return process_from_dsl(text)
    raise ServiceError(
        400, "unknown-format", f"unknown process format {fmt!r}"
    )


def _field(body: dict, name: str, kind=str):
    """Extract a required, typed field from a request body (400s)."""
    value = body.get(name)
    if not isinstance(value, kind) or (kind is str and not value):
        raise ServiceError(
            400,
            "missing-field",
            f"request body needs a {kind.__name__} field {name!r}",
        )
    return value


def _int_field(body: dict, name: str, default: int) -> int:
    """Extract an optional integer field, defaulted (400 on non-int).

    JSON has no int/float distinction a client is forced to respect,
    and ``"priority": "high"`` or ``null`` must be a clean 400, not a
    :class:`TypeError` escaping the handler — so this rejects
    anything but a real int (bools included: ``true`` is not a
    quota).
    """
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            400,
            "bad-field",
            f"field {name!r} must be an integer "
            f"(got {type(value).__name__})",
        )
    return value


class ChoreoService:
    """The multi-tenant choreography service (transport-independent).

    All request handling goes through :meth:`dispatch`, which the
    socket layer (:meth:`handle_connection`) and the test suite call
    alike — tests exercise the full admission/coalescing/handler path
    without opening sockets.

    Args:
        workers: default fan-out width for sweeps/migrations (0 =
            serial in the engine thread; the pair grids of typical
            choreographies are far below the fan-out break-even on
            small machines).
        runtime: explicit persistent runtime; defaults to the
            process-wide one when fan-out is requested.
        max_inflight_total / max_resident / max_parties: service-wide
            caps (see :class:`~repro.service.tenants.TenantRegistry`).
    """

    def __init__(
        self,
        workers: int = 0,
        runtime=None,
        max_inflight_total: int = 256,
        max_resident: int = 64,
        max_parties: int = 32,
    ):
        from concurrent.futures import ThreadPoolExecutor

        self.workers = workers
        self.runtime = runtime
        self.metrics = ServiceMetrics()
        self.registry = TenantRegistry(
            self.metrics,
            max_resident=max_resident,
            max_inflight_total=max_inflight_total,
            max_parties=max_parties,
        )
        self.coalescer = Coalescer(self.metrics)
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._routes = {
            (route.method, route.path): getattr(self, route.handler)
            for route in ROUTES
        }
        self._started = time.monotonic()

    def close(self) -> None:
        """Stop the engine thread (the runtime is process-owned and
        shuts down via its own ``atexit`` hook)."""
        self._engine.shutdown(wait=True)

    # -- engine dispatch ---------------------------------------------------

    async def _run_engine(self, fn):
        """Run *fn* on the serialized engine thread."""
        self.metrics.engine_dispatches += 1
        return await asyncio.get_running_loop().run_in_executor(
            self._engine, fn
        )

    # -- request plumbing --------------------------------------------------

    async def dispatch(self, request: Request):
        """Route one request; returns ``(status, payload)`` where
        payload is a JSON-serializable object, a ``(content_type,
        text)`` pair, or a :class:`StreamingBody`.

        All error mapping lives here: :class:`ServiceError` carries
        its own status/code, :class:`ReproError` (invalid process
        documents, choreography misuse) maps to 422, malformed bodies
        to 400, unknown routes to 404/405, and anything unexpected to
        a 500 ``internal-error`` — every failure is an observed JSON
        response, never a silently dropped connection.
        """
        started = time.monotonic()
        handler = self._routes.get((request.method, request.path))
        try:
            if handler is None:
                known_methods = [
                    route.method
                    for route in ROUTES
                    if route.path == request.path
                ]
                if known_methods:
                    raise ServiceError(
                        405,
                        "method-not-allowed",
                        f"{request.path} supports: "
                        f"{', '.join(sorted(known_methods))}",
                    )
                raise ServiceError(
                    404, "unknown-route", f"no route {request.path!r}"
                )
            status, payload = await handler(request)
        except ServiceError as error:
            status, payload = error.status, {
                "error": {"code": error.code, "message": error.message}
            }
        except HttpError as error:
            status, payload = error.status, {
                "error": {"code": "bad-request", "message": error.message}
            }
        except ReproError as error:
            status, payload = 422, {
                "error": {
                    "code": "invalid-model",
                    "message": str(error),
                }
            }
        except Exception as error:  # noqa: BLE001 — the service's
            # last line of defense: an unexpected handler/engine error
            # must become a 500 JSON response (and an observed
            # request), never a dropped connection with no metrics.
            self.metrics.internal_errors += 1
            status, payload = 500, {
                "error": {
                    "code": "internal-error",
                    "message": f"{type(error).__name__}: {error}",
                }
            }
        self.metrics.observe_request(
            request.method,
            request.path,
            status,
            time.monotonic() - started,
        )
        return status, payload

    async def handle_connection(self, reader, writer) -> None:
        """The asyncio socket handler: parse → dispatch → serialize,
        with HTTP/1.1 keep-alive, until the peer closes."""
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(
                        json_response(
                            error.status,
                            {
                                "error": {
                                    "code": "bad-request",
                                    "message": error.message,
                                }
                            },
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                status, payload = await self.dispatch(request)
                if isinstance(payload, StreamingBody):
                    writer.write(
                        response_head(
                            status,
                            content_type="application/x-ndjson",
                            keep_alive=request.keep_alive,
                            chunked=True,
                        )
                    )
                    try:
                        async for piece in payload.generator:
                            writer.write(chunk(piece))
                            await writer.drain()
                        writer.write(LAST_CHUNK)
                    finally:
                        # Mid-stream disconnects (drain raising) and
                        # cancellation land here: close the generator
                        # and release the admission slot *now*, not
                        # whenever GC finalizes the generator.
                        await payload.aclose()
                elif isinstance(payload, tuple):
                    content_type, text = payload
                    body = text.encode("utf-8")
                    writer.write(
                        response_head(
                            status,
                            content_type=content_type,
                            keep_alive=request.keep_alive,
                            content_length=len(body),
                        )
                        + body
                    )
                else:
                    writer.write(
                        json_response(
                            status, payload, keep_alive=request.keep_alive
                        )
                    )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Server shutdown reaps parked keep-alive handlers; finish
            # normally so the stream protocol's done-callback (which
            # calls task.exception()) sees a clean completion.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- observability endpoints ------------------------------------------

    async def handle_healthz(self, request: Request):
        """Liveness + a JSON snapshot of the service counters."""
        return 200, {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "tenants": len(self.registry.tenants),
            "choreographies": len(self.registry.sessions),
            "counters": self.metrics.snapshot(),
        }

    async def handle_metrics(self, request: Request):
        """The Prometheus text exposition: service counters and
        latency histograms plus the runtime/cache/warm-start counters
        of the layers below."""
        runtime = self.runtime if self.runtime is not None else get_runtime()
        text = render_metrics(
            self.metrics,
            runtime.stats(),
            VERDICTS.info(),
            warm_stats(),
            {
                "repro_tenants": (
                    len(self.registry.tenants),
                    "Registered tenants.",
                ),
                "repro_choreographies": (
                    len(self.registry.sessions),
                    "Registered (resident) choreographies.",
                ),
                "repro_inflight_requests": (
                    self.registry.inflight_total,
                    "Admitted requests currently in flight.",
                ),
                "repro_uptime_seconds": (
                    round(time.monotonic() - self._started, 3),
                    "Seconds since service start.",
                ),
            },
        )
        return 200, ("text/plain; version=0.0.4", text)

    # -- tenant management -------------------------------------------------

    async def handle_tenant_register(self, request: Request):
        """Register a tenant with its quotas and eviction priority."""
        body = request.json()
        tenant = Tenant(
            name=_field(body, "tenant"),
            priority=_int_field(body, "priority", 0),
            max_inflight=_int_field(body, "max_inflight", 32),
            max_choreographies=_int_field(
                body, "max_choreographies", 16
            ),
        )
        if tenant.max_inflight < 0 or tenant.max_choreographies < 0:
            raise ServiceError(
                400, "bad-quota", "quotas must be non-negative"
            )
        self.registry.register_tenant(tenant)
        return 200, tenant.snapshot()

    async def handle_tenants(self, request: Request):
        """List registered tenants and their live usage."""
        return 200, {
            "tenants": [
                tenant.snapshot()
                for tenant in self.registry.tenants.values()
            ]
        }

    # -- choreography registration ----------------------------------------

    async def handle_register(self, request: Request):
        """Register (or with ``replace`` re-register) a choreography:
        parse + compile every partner process, then install the
        session — possibly evicting a colder tenant's session to stay
        within the residency cap."""
        body = request.json()
        tenant = self.registry.tenant(_field(body, "tenant"))
        name = _field(body, "name")
        specs = body.get("processes")
        if not isinstance(specs, list) or not specs:
            raise ServiceError(
                400,
                "missing-field",
                "request body needs a non-empty 'processes' list",
            )
        if len(specs) > self.registry.max_parties:
            self.metrics.quota_rejected += 1
            raise ServiceError(
                429,
                "party-quota",
                f"{len(specs)} processes exceed the per-choreography "
                f"cap of {self.registry.max_parties}",
            )
        models = [_parse_process(spec) for spec in specs]

        with self.registry.admit(tenant):

            def build():
                choreography = Choreography(name)
                for model in models:
                    choreography.add_partner(model)
                for party in choreography.parties():
                    choreography.public(party)  # compile-validate now
                return choreography

            choreography = await self._run_engine(build)
        session = Session(
            tenant, name, choreography, EvolutionEngine(choreography)
        )
        replaced = self.registry.register_session(
            session, replace=bool(body.get("replace", False))
        )
        # Eviction/replacement cascades mutate the shared verdict
        # cache and arena — engine-owned state — so the registry only
        # queued the victims; run the cascade serialized with all
        # other engine work, against the runtime this service serves
        # with (not blindly the process default).
        victims = self.registry.drain_releases()
        if victims:
            await self._run_engine(
                lambda: release_sessions(victims, self.runtime)
            )
        return 200, {
            "tenant": tenant.name,
            "choreography": name,
            "parties": choreography.parties(),
            "conversing_pairs": [
                list(pair) for pair in conversing_pairs(choreography)
            ],
            "replaced": replaced,
        }

    async def handle_choreographies(self, request: Request):
        """List resident choreographies across all tenants."""
        return 200, {
            "choreographies": [
                {
                    "tenant": tenant_name,
                    "choreography": name,
                    "parties": session.choreography.parties(),
                    "versions": {
                        party: session.choreography.current_version(party)
                        for party in session.choreography.parties()
                    },
                }
                for (tenant_name, name), session in sorted(
                    self.registry.sessions.items()
                )
            ]
        }

    # -- verdict endpoints -------------------------------------------------

    def _session(self, body: dict):
        """Resolve (tenant, session) from a request body."""
        tenant = self.registry.tenant(_field(body, "tenant"))
        session = self.registry.session(
            tenant.name, _field(body, "choreography")
        )
        return tenant, session

    @staticmethod
    def _party_model(body: dict, party: str):
        """Parse the request's process spec and require it to belong
        to *party* — evolving (or what-if migrating) party P with a
        process declared for party Q is always a caller bug, caught
        here before any engine work."""
        model = _parse_process(body.get("process"))
        if model.party != party:
            raise ServiceError(
                400,
                "party-mismatch",
                f"process {model.name!r} is declared for party "
                f"{model.party!r}, not {party!r}",
            )
        return model

    @staticmethod
    def _party(session: Session, body: dict, field_name: str) -> str:
        """Resolve a party field against the session's roster (404s)."""
        party = _field(body, field_name)
        if party not in session.choreography.parties():
            raise ServiceError(
                404,
                "unknown-party",
                f"choreography {session.name!r} has no party {party!r} "
                f"(parties: {', '.join(session.choreography.parties())})",
            )
        return party

    async def handle_check(self, request: Request):
        """One bilateral consistency check — the coalesced hot path.

        The coalescing key is version-stamped (tenant, choreography,
        pair, policy, versions), so identical concurrent requests
        dedupe onto one engine dispatch while post-evolution requests
        never see pre-evolution verdicts.
        """
        body = request.json()
        tenant, session = self._session(body)
        left = self._party(session, body, "left")
        right = self._party(session, body, "right")
        policy = (
            WITNESS_ALL if body.get("witness", False) else WITNESS_NONE
        )
        choreography = session.choreography
        with self.registry.admit(tenant):
            key = (
                tenant.name,
                session.name,
                left,
                right,
                policy,
                choreography.current_version(left),
                choreography.current_version(right),
            )

            def compute():
                self.metrics.checks_executed += 1
                return check_pair(
                    choreography.view(right, on=left),
                    choreography.view(left, on=right),
                    policy,
                )

            consistent, witness = await self.coalescer.run(
                key, lambda: self._run_engine(compute)
            )
        return 200, {
            "left": left,
            "right": right,
            "consistent": consistent,
            "witness": witness.describe() if witness is not None else None,
        }

    async def handle_sweep(self, request: Request):
        """Batched consistency sweep over all conversing pairs.

        With ``"stream": true`` the response is chunked NDJSON: one
        verdict object per pair *as it is decided*, then a summary
        line with the aggregated counters — long sweeps surface
        progress instead of a single late JSON.  With ``workers > 1``
        the verdict lines come off the pipelined fan-out in
        **completion order** (unspecified; see docs/API.md) — only the
        trailing summary is ordered.  ``"stop_on_first_inconsistency":
        true`` stops the sweep at the first failing pair; skipped
        pairs are reported in the summary's ``undecided`` count.  An
        engine failure after the 200 head terminates the body with an
        ``{"error": ...}`` line instead of a summary.
        """
        body = request.json()
        tenant, session = self._session(body)
        policy = body.get("witnesses", WITNESS_FAILURES)
        if policy not in _POLICIES:
            raise ServiceError(
                400,
                "bad-policy",
                f"witness policy must be one of {', '.join(_POLICIES)}",
            )
        workers = _int_field(body, "workers", self.workers)
        stop_on_first = bool(body.get("stop_on_first_inconsistency", False))
        choreography = session.choreography
        if not body.get("stream", False):
            with self.registry.admit(tenant):

                def compute():
                    self.metrics.sweeps_executed += 1
                    return sweep_choreography(
                        choreography,
                        witnesses=policy,
                        workers=workers,
                        runtime=self.runtime,
                        stop_on_first_inconsistency=stop_on_first,
                    )

                report = await self._run_engine(compute)
            return 200, report.as_dict()

        admission = self.registry.admit(tenant)

        async def verdicts():
            self.metrics.sweeps_executed += 1
            pairs = await self._run_engine(
                lambda: conversing_pairs(choreography)
            )
            totals = {"hits": 0, "misses": 0}
            failures = 0
            decided = 0
            for left, right in pairs:

                def compute_pair(left=left, right=right):
                    hits0, misses0 = VERDICTS.stats()
                    consistent, witness = check_pair(
                        choreography.view(right, on=left),
                        choreography.view(left, on=right),
                        policy,
                    )
                    hits1, misses1 = VERDICTS.stats()
                    return consistent, witness, (
                        hits1 - hits0,
                        misses1 - misses0,
                    )

                consistent, witness, (hits, misses) = (
                    await self._run_engine(compute_pair)
                )
                totals["hits"] += hits
                totals["misses"] += misses
                decided += 1
                if not consistent:
                    failures += 1
                yield {
                    "left": left,
                    "right": right,
                    "consistent": consistent,
                    "witness": (
                        witness.describe()
                        if witness is not None
                        else None
                    ),
                }
                if stop_on_first and failures:
                    break
            yield {
                "summary": {
                    "consistent": failures == 0,
                    "pairs": len(pairs),
                    "failures": failures,
                    "cache_hits": totals["hits"],
                    "cache_misses": totals["misses"],
                    "undecided": len(pairs) - decided,
                }
            }

        async def fanned_verdicts():
            # One engine dispatch runs the whole pipelined sweep;
            # verdicts cross back to the loop thread through an
            # asyncio queue as each chunk completes, so NDJSON lines
            # hit the wire in completion order.  If the client goes
            # away mid-sweep the `abandoned` flag makes the engine
            # thread close the stream, cancelling outstanding chunks.
            self.metrics.sweeps_executed += 1
            loop = asyncio.get_running_loop()
            relay: asyncio.Queue = asyncio.Queue()
            abandoned = threading.Event()

            def run_stream():
                stream = sweep_choreography_streaming(
                    choreography,
                    witnesses=policy,
                    workers=workers,
                    runtime=self.runtime,
                    stop_on_first_inconsistency=stop_on_first,
                )
                try:
                    for outcome in stream:
                        if abandoned.is_set():
                            stream.close()
                            break
                        loop.call_soon_threadsafe(
                            relay.put_nowait, ("verdict", outcome)
                        )
                    loop.call_soon_threadsafe(
                        relay.put_nowait, ("report", stream.report)
                    )
                except BaseException as error:  # noqa: BLE001 — must
                    # cross the thread boundary as a queue item; the
                    # consumer re-raises it into the NDJSON error line.
                    loop.call_soon_threadsafe(
                        relay.put_nowait, ("error", error)
                    )

            self.metrics.engine_dispatches += 1
            engine_done = loop.run_in_executor(self._engine, run_stream)
            try:
                while True:
                    kind, value = await relay.get()
                    if kind == "verdict":
                        yield {
                            "left": value.left,
                            "right": value.right,
                            "consistent": value.consistent,
                            "witness": (
                                value.witness.describe()
                                if value.witness is not None
                                else None
                            ),
                        }
                    elif kind == "report":
                        report = value
                        yield {
                            "summary": {
                                "consistent": report.consistent,
                                "pairs": (
                                    len(report.outcomes) + report.undecided
                                ),
                                "failures": len(report.failures()),
                                "cache_hits": report.cache_hits,
                                "cache_misses": report.cache_misses,
                                "undecided": report.undecided,
                            }
                        }
                        return
                    else:
                        raise value
            finally:
                abandoned.set()
                await engine_done

        source = fanned_verdicts if workers > 1 else verdicts

        async def stream():
            # The admission slot is held for the stream's lifetime —
            # a slow consumer keeps occupying its tenant's capacity.
            # The `with` releases on normal end and on aclose() of a
            # started stream; StreamingBody.aclose covers the
            # never-iterated case (Admission.release is idempotent).
            with admission:
                try:
                    async for record in source():
                        yield (json.dumps(record) + "\n").encode("utf-8")
                except Exception as error:  # noqa: BLE001 — the 200
                    # head is already on the wire; an engine failure
                    # mid-stream must terminate the chunked body with
                    # a machine-readable error line, not escape into
                    # the socket handler.
                    self.metrics.internal_errors += 1
                    yield (
                        json.dumps(
                            {
                                "error": {
                                    "code": "internal-error",
                                    "message": (
                                        f"{type(error).__name__}: "
                                        f"{error}"
                                    ),
                                }
                            }
                        )
                        + "\n"
                    ).encode("utf-8")

        return 200, StreamingBody(200, stream(), admission)

    # -- evolution endpoints -----------------------------------------------

    async def handle_evolve(self, request: Request):
        """One controlled evolution step (Fig. 4): classify the change
        against every partner, propagate variant changes, optionally
        auto-adapt, commit when consistent, and migrate the fleet."""
        body = request.json()
        tenant, session = self._session(body)
        party = self._party(session, body, "party")
        model = self._party_model(body, party)
        auto_adapt = bool(body.get("auto_adapt", True))
        commit = bool(body.get("commit", True))
        migrate = bool(body.get("migrate", False))
        choreography = session.choreography
        with self.registry.admit(tenant):
            version_before = choreography.current_version(party)

            def compute():
                return session.engine.apply_private_change(
                    party,
                    model,
                    auto_adapt=auto_adapt,
                    commit=commit,
                    migrate_instances=migrate,
                )

            report = await self._run_engine(compute)
        version_after = choreography.current_version(party)
        return 200, {
            "party": party,
            "public_changed": report.public_changed,
            "requires_propagation": report.requires_propagation,
            "committed": version_after != version_before,
            "old_version": version_before,
            "new_version": version_after,
            "impacts": [
                {
                    "party": impact.party,
                    "partner": impact.partner,
                    "classification": impact.classification.describe(),
                    "requires_propagation": impact.requires_propagation,
                    "consistent_after_adaptation": (
                        impact.consistent_after_adaptation
                    ),
                    "migration": (
                        impact.migration.counts
                        if impact.migration is not None
                        else None
                    ),
                }
                for impact in report.impacts
            ],
            "migration": (
                report.migration.counts
                if report.migration is not None
                else None
            ),
        }

    async def handle_fleet(self, request: Request):
        """Spawn a fleet of running instances for one party (the
        workload `/migrate` classifies)."""
        body = request.json()
        tenant, session = self._session(body)
        party = self._party(session, body, "party")
        instances = body.get("instances", 1000)
        if not isinstance(instances, int) or not (
            0 < instances <= MAX_FLEET
        ):
            raise ServiceError(
                400,
                "bad-fleet",
                f"'instances' must be an int in [1, {MAX_FLEET}]",
            )
        seed = _int_field(body, "seed", 0)
        distinct = _int_field(body, "distinct", 16)
        choreography = session.choreography
        with self.registry.admit(tenant):

            def compute():
                choreography.spawn_fleet(
                    party, instances, seed=seed, distinct=distinct
                )
                return len(choreography.instances)

            total = await self._run_engine(compute)
        return 200, {
            "party": party,
            "version": choreography.current_version(party),
            "spawned": instances,
            "instances": total,
        }

    async def handle_migrate(self, request: Request):
        """Classify the running fleet against a *candidate* new
        version without committing anything — the what-if migration
        report (migratable / pending / stranded)."""
        body = request.json()
        tenant, session = self._session(body)
        party = self._party(session, body, "party")
        model = self._party_model(body, party)
        choreography = session.choreography
        if choreography.instances is None or not len(
            choreography.instances
        ):
            raise ServiceError(
                409,
                "no-fleet",
                "no running instances attached (POST /fleet first)",
            )
        workers = _int_field(body, "workers", self.workers)
        with self.registry.admit(tenant):

            def compute():
                old = choreography.public(party)
                new = choreography.compile(party, model).afsa
                version = choreography.current_version(party)
                return version, classify_migration(
                    choreography.instances,
                    old,
                    new,
                    version=version,
                    new_version=f"{version}+candidate",
                    workers=workers,
                    apply=False,
                    runtime=self.runtime,
                )

            version, report = await self._run_engine(compute)
        return 200, {
            "party": party,
            "version": version,
            "instances": sum(report.counts.values()),
            "classes": report.classes,
            "counts": report.counts,
            "description": report.describe(),
        }


async def run_server(
    service: ChoreoService,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready=None,
    shutdown: "asyncio.Event | None" = None,
):
    """Serve *service* until *shutdown* is set (or forever).

    *ready*, when given, is called with the bound ``(host, port)``
    once the socket is listening — how the CLI prints its banner and
    how the background-server helper learns an ephemeral port.
    """
    server = await asyncio.start_server(
        service.handle_connection, host, port
    )
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        if shutdown is None:
            await server.serve_forever()
        else:
            await shutdown.wait()


class BackgroundServer:
    """Run a :class:`ChoreoService` on a daemon thread's event loop.

    The harness the tests, benches and examples share: ``start()``
    returns the bound ``(host, port)``; ``stop()`` shuts the loop and
    the engine thread down.  The serving thread owns the loop — the
    caller talks plain HTTP to the port, never to the loop directly.
    """

    def __init__(
        self,
        service: ChoreoService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service if service is not None else ChoreoService()
        self.host = host
        self.port = port
        self._thread = None
        self._loop = None
        self._shutdown = None
        self._bound = None

    def start(self) -> tuple:
        """Start serving; returns the bound ``(host, port)``."""
        import threading

        started = threading.Event()

        def main():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._shutdown = asyncio.Event()

            def ready(bound):
                self._bound = bound
                started.set()

            try:
                loop.run_until_complete(
                    run_server(
                        self.service,
                        self.host,
                        self.port,
                        ready=ready,
                        shutdown=self._shutdown,
                    )
                )
                # Reap connection handlers still parked on keep-alive
                # reads so the loop closes without pending-task noise.
                leftovers = asyncio.all_tasks(loop)
                for task in leftovers:
                    task.cancel()
                if leftovers:
                    loop.run_until_complete(
                        asyncio.gather(
                            *leftovers, return_exceptions=True
                        )
                    )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("service failed to start within 10s")
        return self._bound

    def stop(self) -> None:
        """Stop the server loop and the service's engine thread."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.close()

    def __enter__(self) -> tuple:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

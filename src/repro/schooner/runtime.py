"""The Schooner communication library and call engine.

This is the runtime half of the RPC facility: given a resolved
:class:`~repro.schooner.lines.InstanceRecord`, execute one remote call —
conforming and converting arguments through the caller's native format,
marshaling to the UTS wire form, crossing the simulated network, applying
the callee's native format, invoking the implementation, and returning
the results by the same path in reverse.  Every phase is charged to the
calling line's virtual timeline, and a :class:`CallTrace` records the
breakdown for the benchmark harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..machines.host import Machine
from ..machines.registry import MachinePark, standard_park
from ..network.clock import Timeline, VirtualClock
from ..network.topology import NetworkError, Topology
from ..network.transport import Transport
from ..resilience.breaker import BreakerBoard
from ..resilience.budget import RetryBudget
from ..resilience.deadline import Deadline
from ..uts.buffers import WIRE_BUFFERS
from ..uts.compiled import native_roundtrip_for, signature_codec
from ..uts.errors import UTSCompatibilityError
from ..uts.native import OutOfRangePolicy
from ..uts.types import Signature
from .errors import (
    CallFailed,
    CallTimeout,
    DeadlineExceeded,
    StaleBinding,
    TypeCheckError,
)
from .lines import InstanceRecord, LinePool
from .procedure import STATE_ARG, TIMELINE_ARG

if TYPE_CHECKING:  # pragma: no cover
    from .stubs import ClientStub

__all__ = [
    "CostModel",
    "RetryPolicy",
    "CallTrace",
    "CallerContext",
    "CallFuture",
    "CallBatch",
    "SchoonerEnvironment",
    "CallPlan",
    "bind_call",
    "execute_call",
]


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the runtime cost simulation.

    ``marshal_flops_per_byte`` models the UTS conversion library: each
    byte converted between native and wire format costs CPU work on the
    machine doing it.  ``spawn_seconds`` is the fork/exec cost a
    Schooner Server pays to instantiate a remote procedure process.
    """

    marshal_flops_per_byte: float = 40.0
    header_bytes: int = 64
    spawn_seconds: float = 0.25
    control_message_bytes: int = 128  # startup/shutdown protocol messages
    # how long a caller waits for a request/reply before declaring the
    # call lost — generous next to the 1993 WAN round trip (~80 ms) so
    # only genuine failures trip it
    call_timeout_s: float = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff for timed-out calls.

    Only *stateless* procedures are retried unconditionally; stateful
    procedures are retried only when the timeout is known to have struck
    before the remote could have executed (``CallTimeout.retry_safe``).
    ``max_attempts`` counts the initial try.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.25
    multiplier: float = 2.0

    def backoff_s(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (1-based)."""
        return self.base_backoff_s * self.multiplier ** (attempt - 1)

    def may_retry(
        self,
        attempt: int,
        now: float,
        deadline: Optional[Deadline] = None,
        attempt_cost_s: float = 0.0,
    ) -> bool:
        """Whether retry number ``attempt`` may be spent.

        Without a deadline this is the policy's own clock
        (``max_attempts``).  *With* a deadline the remaining virtual-time
        budget governs instead: a retry is allowed only while the budget
        still covers the backoff plus one worst-case attempt
        (``attempt_cost_s``, typically the call timeout) — so a caller
        with 10s of budget left keeps trying past ``max_attempts``,
        while a caller with 0.1s left fails fast rather than burning
        backoff it cannot afford."""
        if deadline is None:
            return attempt < self.max_attempts
        return deadline.remaining(now) > self.backoff_s(attempt) + attempt_cost_s


@dataclass
class CallTrace:
    """Virtual-time breakdown of one RPC, for benchmark reporting."""

    procedure: str
    caller: str
    callee: str
    request_bytes: int = 0
    reply_bytes: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    compute_s: float = 0.0
    network_s: float = 0.0
    # resilience bookkeeping (repro.faults / repro.resilience): how this
    # attempt ended, which leg was lost when it timed out, how many
    # timed-out attempts preceded it, and whether the binding was
    # refreshed from the Manager after a failure first
    outcome: str = "ok"  # "ok" | "timeout" | "deadline"
    timeout_hop: str = ""  # "request" | "reply" when outcome == "timeout"
    retries: int = 0
    failed_over: bool = False
    # how the call was issued: "sync" (the caller blocked for the whole
    # round trip) or "overlap" (in flight concurrently with other calls
    # of one CallBatch)
    dispatch: str = "sync"

    @property
    def total_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def overhead_s(self) -> float:
        """Everything that is not useful computation: the RPC tax."""
        return self.total_s - self.compute_s


@dataclass
class SchoonerEnvironment:
    """Everything the runtime needs: machines, network, clock, costs."""

    park: MachinePark
    topology: Topology
    clock: VirtualClock
    transport: Transport
    costs: CostModel = field(default_factory=CostModel)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    range_policy: OutOfRangePolicy = OutOfRangePolicy.ERROR
    traces: List[CallTrace] = field(default_factory=list)
    keep_traces: bool = True
    # the resilience layer (repro.resilience), all opt-in and None by
    # default: per-(procedure, host) circuit breakers, the
    # installation-shared retry token bucket, and the environment-wide
    # virtual-time deadline every call propagates in its header
    breakers: Optional[BreakerBoard] = None
    retry_budget: Optional[RetryBudget] = None
    deadline: Optional[Deadline] = None
    #: cold restarts of remote processes that died under us (no
    #: supervisor recovery, no failed call to witness it) — the serving
    #: layer's last-resort signal that chaos touched a session
    unplanned_restarts: int = 0
    # wall-clock execution of overlapped batches on the lines thread
    # pool (one worker per line, so per-line ordering is preserved).
    # Off by default: the virtual-time accounting is identical either
    # way, and the sequential path is the replay-determinism baseline.
    wall_parallel: bool = False
    pool: Optional[LinePool] = field(default=None, repr=False)

    @classmethod
    def standard(cls, **kw) -> "SchoonerEnvironment":
        """The default environment: the paper's machine park on the
        three-tier network."""
        park = standard_park()
        topo = Topology()
        for m in park:
            topo.register(m)
        clock = VirtualClock()
        transport = Transport(topology=topo, clock=clock)
        return cls(park=park, topology=topo, clock=clock, transport=transport, **kw)

    def cpu_seconds_for_bytes(self, machine: Machine, nbytes: int) -> float:
        return machine.compute_seconds(nbytes * self.costs.marshal_flops_per_byte)

    def record_trace(self, trace: CallTrace) -> None:
        if self.keep_traces:
            self.traces.append(trace)

    def reset_traces(self) -> None:
        self.traces.clear()

    def overlap_pool(self) -> Optional[LinePool]:
        """The lines thread pool, when wall-parallel execution is both
        requested and safe.  Stateful per-message hooks (a fault plan's
        counters), trunk contention bookkeeping, and clock subscribers
        are all order-sensitive across lines, so their presence forces
        the sequential fallback — which charges *identical* virtual
        time, keeping replays byte-for-byte reproducible either way."""
        if not self.wall_parallel:
            return None
        if self.transport.fault_filter is not None or self.transport.contention:
            return None
        if self.clock._subscribers or self.clock.pending_events:
            return None
        if self.pool is None or self.pool.closed:
            self.pool = LinePool()
        return self.pool

    def close(self) -> None:
        """Tear down wall-clock resources: join the lines thread pool.

        Idempotent, and safe to interleave with further use — a later
        ``overlap_pool()`` lazily builds a fresh pool.  The executive and
        the serving layer call this on teardown so back-to-back runs in
        one process never accumulate leaked worker threads."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "SchoonerEnvironment":
        return self

    def __exit__(self, *exc) -> None:
        # the context manager guarantees the lines thread pool is
        # joined even when a run raises mid-serve
        self.close()


class CallPlan:
    """One stub binding's compiled call: everything about an RPC that
    depends only on *where* it goes, computed once when a stub installs
    an :class:`InstanceRecord` and reused by every call until the
    binding changes (see :func:`bind_call`).

    A plan is valid for exactly one ``(record, range_policy)`` pair —
    the record fixes the procedure, the callee machine and so the
    callee's native format; the stub's caller machine fixes the other.
    """

    __slots__ = (
        "record", "policy", "name", "type_error",
        "callee", "procedure", "wants_state", "wants_timeline",
        "sig", "send_codec", "return_codec",
        "caller_send", "callee_recv", "callee_reply", "caller_recv",
        "call_kind", "reply_kind",
    )


def bind_call(
    env: SchoonerEnvironment,
    caller_machine: Machine,
    record: InstanceRecord,
    import_sig: Signature,
) -> CallPlan:
    """Bind ``import_sig`` to ``record`` for calls from ``caller_machine``.

    Derives the Manager's import-vs-export verdict (an incompatible
    binding still binds; every call through it raises
    :class:`TypeCheckError`), the two signature codecs with their
    compiled conform, the caller- and callee-side native round-trip
    plans for the two machines' formats under ``env.range_policy``,
    and the message kinds."""
    plan = CallPlan()
    plan.record = record
    plan.policy = policy = env.range_policy
    plan.sig = import_sig
    plan.name = name = import_sig.name
    plan.callee = record.machine
    # the Manager's runtime type check: the import must be a subset of
    # the export (checked under the export's canonical name, so any
    # Fortran case synonym the caller used passes)
    export_sig = record.procedure.signature
    try:
        Signature(
            name=export_sig.name, params=import_sig.params, kind=import_sig.kind
        ).check_import_subset(export_sig)
    except UTSCompatibilityError as exc:
        plan.type_error = exc
        return plan
    plan.type_error = None
    proc = record.procedure
    plan.procedure = proc
    plan.wants_state = proc.wants_state
    plan.wants_timeline = proc.wants_timeline
    plan.send_codec = send = signature_codec(import_sig, "send")
    plan.return_codec = ret = signature_codec(import_sig, "return")
    caller_fmt = caller_machine.architecture.native_format
    callee_fmt = record.machine.architecture.native_format
    plan.caller_send = native_roundtrip_for(caller_fmt, send.record_type, policy)
    plan.callee_recv = native_roundtrip_for(callee_fmt, send.record_type, policy)
    plan.callee_reply = native_roundtrip_for(callee_fmt, ret.record_type, policy)
    plan.caller_recv = native_roundtrip_for(caller_fmt, ret.record_type, policy)
    plan.call_kind = f"call:{name}"
    plan.reply_kind = f"reply:{name}"
    return plan


def _lost(env, plan, trace, timeline, deadline, sink_trace, exc, retry_safe, hop):
    """The caller waits out the call timeout in virtual time, then gives
    up: the :class:`CallTimeout` for a lost request or reply."""
    timeout_s = env.costs.call_timeout_s
    timeline.advance(timeout_s)
    trace.outcome = "timeout"
    trace.timeout_hop = hop
    trace.finished_at = timeline.now
    sink_trace(trace)
    remaining = deadline.remaining(timeline.now) if deadline is not None else None
    budget = f", {remaining:.3f}s of deadline budget left" if remaining is not None else ""
    return CallTimeout(
        f"{plan.name}: no reply from {plan.callee.hostname} "
        f"within {timeout_s}s ({hop} lost: {exc}){budget}",
        retry_safe=retry_safe,
        trace=trace,
        hop=hop,
        deadline_remaining_s=remaining,
    )


def _late(plan, trace, timeline, deadline, sink_trace, where):
    """The deadline stamped in the header has passed: refuse the work."""
    trace.outcome = "deadline"
    trace.finished_at = timeline.now
    sink_trace(trace)
    return DeadlineExceeded(
        f"{plan.name}: {deadline.describe(timeline.now)} {where}",
        trace=trace,
        remaining_s=deadline.remaining(timeline.now),
    )


def execute_call(
    env: SchoonerEnvironment,
    caller_machine: Machine,
    timeline: Timeline,
    record: InstanceRecord,
    import_sig: Signature,
    args: Dict[str, Any],
    retries: int = 0,
    failed_over: bool = False,
    dispatch: str = "sync",
    trace_sink: Optional[List[CallTrace]] = None,
    deadline: Optional[Deadline] = None,
    plan: Optional[CallPlan] = None,
) -> Dict[str, Any]:
    """Execute one remote procedure call.

    ``plan`` is the binding's :class:`CallPlan` (:func:`bind_call` of
    ``caller_machine``, ``record`` and ``import_sig``); client stubs pass
    the one they bound, and a direct call without it binds on the spot.

    Raises :class:`StaleBinding` when the target process is gone (the
    stub's cue to refresh its name cache from the Manager),
    :class:`TypeCheckError` when the import is not a subset of the
    export, :class:`CallTimeout` when a request or reply is lost on the
    simulated network (the caller waits out ``costs.call_timeout_s`` of
    virtual time first), :class:`DeadlineExceeded` when ``deadline`` has
    expired before the call starts or by the time the request reaches
    the server (the server refuses already-late work rather than
    computing results nobody can use), and :class:`CallFailed` when the
    remote procedure raises.  ``retries``/``failed_over`` annotate the
    recorded trace.

    ``deadline`` also rides in both messages' packed wire headers
    (:data:`~repro.network.transport.HEADER_STRUCT`'s final field) — the
    propagation path a real multi-hop system needs.

    ``trace_sink`` redirects trace recording (an overlapped batch
    collects its members' traces privately and flushes them to the
    environment in submission order, so the trace log stays
    deterministic under the thread pool).
    """
    if plan is None:
        plan = bind_call(env, caller_machine, record, import_sig)
    process = record.process
    if not process.alive:
        raise StaleBinding(f"{plan.name}: process {process.address} is not running")
    if plan.type_error is not None:
        raise TypeCheckError(str(plan.type_error)) from plan.type_error

    callee = plan.callee
    trace = CallTrace(
        procedure=plan.name,
        caller=caller_machine.hostname,
        callee=callee.hostname,
        started_at=timeline.now,
        retries=retries,
        failed_over=failed_over,
        dispatch=dispatch,
    )
    sink_trace = env.record_trace if trace_sink is None else trace_sink.append
    if deadline is None:
        deadline_s = None
    else:
        if deadline.expired(timeline.now):
            # client-side refusal: don't marshal or touch the network for
            # work that is already late
            raise _late(plan, trace, timeline, deadline, sink_trace, "before dispatch")
        deadline_s = deadline.at_s
    flops_per_byte = env.costs.marshal_flops_per_byte
    header_bytes = env.costs.header_bytes
    send = env.transport.send
    send_codec = plan.send_codec
    return_codec = plan.return_codec

    # --- client side: conform, apply caller-native storage, marshal -------
    # Zero-copy wire path: both directions encode into pooled bytearrays
    # and travel as memoryviews; no payload ``bytes`` is materialized
    # anywhere between encode and decode.  The views are released (and
    # the buffers returned to the pool) before this call returns, so the
    # decoded results never alias pool memory.
    sent = plan.caller_send(send_codec.conform(args))
    req_buf = WIRE_BUFFERS.acquire()
    rep_buf: Optional[bytearray] = None
    request: Optional[memoryview] = None
    reply: Optional[memoryview] = None
    try:
        nreq = send_codec.encode_conformed_into(sent, req_buf)
        request = memoryview(req_buf)
        dt = caller_machine.compute_seconds(nreq * flops_per_byte)
        trace.client_cpu_s += dt
        timeline.advance(dt)

        # --- network: request ----------------------------------------------
        try:
            msg = send(
                caller_machine, callee, plan.call_kind, request, nreq,
                timeline=timeline, header_bytes=header_bytes, deadline_s=deadline_s,
            )
        except NetworkError as exc:
            # request lost: the remote never saw the call, any procedure
            # may be safely retried
            raise _lost(env, plan, trace, timeline, deadline, sink_trace,
                        exc, True, "request") from exc
        trace.network_s += msg.delivered_at - msg.sent_at
        trace.request_bytes = msg.nbytes

        # --- server side: unmarshal, convert to callee native, invoke -----
        # the server reads the deadline out of the message header before
        # spending any CPU: work that went late in transit is refused,
        # not computed (DeadlineExceeded, distinct from CallTimeout)
        if deadline_s is not None and timeline.now >= deadline_s:
            raise _late(plan, trace, timeline, deadline, sink_trace,
                        f"on arrival at {callee.hostname}")
        dt = callee.compute_seconds(nreq * flops_per_byte)
        trace.server_cpu_s += dt
        timeline.advance(dt)

        # The callee sees the subset of parameters its *export* declares
        # that the import actually sent (import may be a subset of the
        # export).  It decodes the delivered body in place.
        recv = plan.callee_recv(send_codec.unmarshal(msg.body))

        proc = plan.procedure
        if not callee.up or not process.alive:
            raise StaleBinding(f"{plan.name}: host died mid-call")

        kwargs = dict(recv)
        if plan.wants_state:
            kwargs[STATE_ARG] = record.state_storage()
        if plan.wants_timeline:
            kwargs[TIMELINE_ARG] = timeline
        try:
            raw_result = proc.impl(**kwargs)
        except Exception as exc:
            raise CallFailed(f"{plan.name}: remote procedure raised {exc!r}") from exc

        dt = callee.compute_seconds(proc.cost_flops(recv))
        trace.compute_s += dt
        timeline.advance(dt)

        results = _shape_results(plan.sig, raw_result, recv)
        results = plan.callee_reply(return_codec.conform(results))
        rep_buf = WIRE_BUFFERS.acquire()
        nrep = return_codec.encode_conformed_into(results, rep_buf)
        reply = memoryview(rep_buf)
        dt = callee.compute_seconds(nrep * flops_per_byte)
        trace.server_cpu_s += dt
        timeline.advance(dt)

        # --- network: reply -------------------------------------------------
        try:
            msg = send(
                callee, caller_machine, plan.reply_kind, reply, nrep,
                timeline=timeline, header_bytes=header_bytes, deadline_s=deadline_s,
            )
        except NetworkError as exc:
            # reply lost: the remote *did* execute, so only procedures
            # whose re-execution is harmless (stateless, or explicitly
            # idempotent) may be retried without double-execution risk
            raise _lost(env, plan, trace, timeline, deadline, sink_trace,
                        exc, proc.retry_ok, "reply") from exc
        trace.network_s += msg.delivered_at - msg.sent_at
        trace.reply_bytes = msg.nbytes

        # --- client side: unmarshal, store in caller-native format ---------
        dt = caller_machine.compute_seconds(nrep * flops_per_byte)
        trace.client_cpu_s += dt
        timeline.advance(dt)
        out = plan.caller_recv(return_codec.unmarshal(msg.body))

        trace.finished_at = timeline.now
        sink_trace(trace)
        return out
    finally:
        if request is not None:
            request.release()
        WIRE_BUFFERS.release(req_buf)
        if reply is not None:
            reply.release()
        if rep_buf is not None:
            WIRE_BUFFERS.release(rep_buf)


def _shape_results(sig: Signature, raw: Any, sent_args: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize an implementation's return value to a result dict.

    Accepted shapes: a dict keyed by result-parameter name, a tuple in
    signature order, or a bare value when there is exactly one result
    parameter.  ``var`` parameters the implementation does not return
    keep their sent values (value/result semantics)."""
    returned = sig.returned_params
    if isinstance(raw, dict):
        results = dict(raw)
    elif isinstance(raw, tuple):
        if len(raw) != len(returned):
            raise CallFailed(
                f"{sig.name}: implementation returned {len(raw)} values, "
                f"signature has {len(returned)} result parameters"
            )
        results = {p.name: v for p, v in zip(returned, raw)}
    elif raw is None and not returned:
        results = {}
    elif len(returned) == 1:
        results = {returned[0].name: raw}
    else:
        raise CallFailed(
            f"{sig.name}: cannot map return value of type "
            f"{type(raw).__name__} onto {len(returned)} result parameters"
        )
    # var parameters default to their sent value when not explicitly set
    for p in returned:
        if p.name not in results and p.mode.sends and p.name in sent_args:
            results[p.name] = sent_args[p.name]
    return results


# --------------------------------------------------------------------------
# Overlapped dispatch: CallerContext / CallFuture / CallBatch
# --------------------------------------------------------------------------


@dataclass
class CallerContext:
    """The calling program's own thread of virtual time.

    Stubs that share a context serialize their *synchronous* calls on
    it: each blocking RPC starts no earlier than the caller's current
    instant and moves the caller to its completion, so a sequence of
    dependent calls to different lines costs the caller the **sum** of
    the round trips — the honest sequential baseline.  Without a
    context (the default) a stub charges only its own line, reproducing
    the lines model's free-running semantics for genuinely independent
    lines.

    ``batch`` is the currently open :class:`CallBatch`, if any; while
    one is active, stub calls issued inside a probe region ride that
    batch instead of blocking the caller.

    ``deadline`` is the caller's virtual-time deadline, if any; stubs
    sharing this context stamp it into every RPC header (overriding any
    environment-wide deadline), servers refuse work past it, and the
    retry engine spends its remaining budget instead of
    ``RetryPolicy.max_attempts``.
    """

    timeline: Timeline
    batch: Optional["CallBatch"] = None
    deadline: Optional[Deadline] = None

    @property
    def now(self) -> float:
        return self.timeline.now


class CallFuture:
    """One overlapped, in-flight RPC.

    Created by :meth:`CallBatch.begin` (or internally for probe-region
    calls).  ``wait()`` completes the whole batch — the overlap model
    is fork/join, not fire-and-forget — then returns this call's result
    parameters or re-raises its failure.
    """

    __slots__ = (
        "procedure", "line_id", "issued_at", "finished_at",
        "traces", "done", "_results", "_error", "_batch", "_line",
    )

    def __init__(self, procedure: str, line, issued_at: float, batch: "CallBatch"):
        self.procedure = procedure
        self._line = line
        self.line_id = line.line_id
        self.issued_at = issued_at
        self.finished_at = issued_at
        self.traces: List[CallTrace] = []
        self.done = False
        self._results: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._batch = batch

    def wait(self) -> Dict[str, Any]:
        self._batch.wait()
        if self._error is not None:
            raise self._error
        assert self._results is not None
        return self._results


class CallBatch:
    """A group of RPCs overlapped from one caller instant.

    Virtual-time semantics: every member starts at the batch's dispatch
    instant ``t0`` (the caller's time when the batch opened).  Members
    bound for the **same line** additionally queue behind that line's
    earlier members for the server-side occupancy (server marshal CPU +
    compute) — pipelined requests, serialized server — while members on
    different lines overlap their full round trips.  Shared trunks are
    serialized separately by the transport's contention model when that
    is enabled.  ``wait()`` joins everything, flushes traces in
    submission order, moves each line's timeline to its members' latest
    finish, and moves the caller to the latest finish overall: the
    batch costs the caller the **max**, not the sum, of its members.

    A *probe region* (:meth:`region`) is a branch of the caller that
    starts at ``t0`` and serializes the calls made inside it — one
    finite-difference Jacobian column, say — so independent regions
    overlap with each other while each region's internal data
    dependencies stay honest.

    Wall-clock execution: members go to the environment's
    :class:`~repro.schooner.lines.LinePool` (one worker per line) when
    ``env.overlap_pool()`` allows it; otherwise they run inline, in
    submission order, with identical virtual-time accounting.
    """

    def __init__(self, env: SchoonerEnvironment, caller: CallerContext,
                 label: str = "overlap", pool: Optional[LinePool] = None):
        self.env = env
        self.caller = caller
        self.label = label
        self.t0 = caller.timeline.now
        self.pool = pool
        self._avail: Dict[str, float] = {}  # line_id -> server free-at
        self._entries: List[CallFuture] = []  # submission order
        self._pending: List[Any] = []  # LinePool futures
        self._active_branch: Optional[Timeline] = None
        self._done = False

    # -- issuing ----------------------------------------------------------
    def begin(self, stub: "ClientStub", args: Dict[str, Any]) -> CallFuture:
        """Dispatch one overlapped call; returns its future."""
        if self._done:
            raise RuntimeError("CallBatch already waited on")
        fut = CallFuture(stub.name, stub.line, self.t0, self)
        self._entries.append(fut)
        if self.pool is not None:
            self._pending.append(
                self.pool.submit(stub.line.line_id,
                                 lambda: self._run(stub, args, fut, None))
            )
        else:
            self._run(stub, args, fut, None)
        return fut

    @contextmanager
    def region(self, label: str):
        """A probe region: a caller branch starting at ``t0``.  Calls
        made inside (through stubs sharing this batch's caller context)
        serialize on the branch; the region as a whole overlaps with
        the batch's other members and regions."""
        prev = self._active_branch
        self._active_branch = Timeline(
            name=f"{self.label}:{label}",
            clock=self.caller.timeline.clock,
            _elapsed=self.t0,
        )
        try:
            yield self._active_branch
        finally:
            self._active_branch = prev

    @property
    def active_branch(self) -> Optional[Timeline]:
        return self._active_branch

    def call_on_branch(self, stub: "ClientStub", args: Dict[str, Any],
                       branch: Timeline) -> Dict[str, Any]:
        """A blocking call issued inside a probe region: it runs now, on
        the region's branch, and moves the branch to its completion."""
        fut = CallFuture(stub.name, stub.line, branch.now, self)
        self._entries.append(fut)
        self._run(stub, args, fut, branch)
        if fut._error is not None:
            # raised here, synchronously — cleared so wait() (typically
            # reached from a finally block) does not raise it again
            err, fut._error = fut._error, None
            raise err
        assert fut._results is not None
        return fut._results

    # -- execution --------------------------------------------------------
    def _run(self, stub: "ClientStub", args: Dict[str, Any],
             fut: CallFuture, branch: Optional[Timeline]) -> None:
        line = stub.line
        # the call leaves the caller at the batch instant (or its probe
        # region's current instant) but cannot occupy the server before
        # the line's earlier members finish their server-side work (or
        # earlier sync traffic completes)
        issue_at = self.t0 if branch is None else branch.now
        start = max(issue_at, self._avail.get(line.line_id, line.timeline.now))
        tl = line.timeline.branch(f"{line.line_id}:{self.label}")
        tl.sync_to(start)
        sink: List[CallTrace] = []
        try:
            fut._results = stub._invoke(args, tl, "overlap", sink)
        except BaseException as exc:  # re-raised at wait(), in order
            fut._error = exc
        occupancy = sum(t.server_cpu_s + t.compute_s for t in sink)
        self._avail[line.line_id] = start + occupancy
        fut.finished_at = tl.now
        fut.traces = sink
        fut.done = True
        if branch is not None:
            branch.sync_to(tl.now)

    # -- joining ----------------------------------------------------------
    def wait(self) -> None:
        """Join all members: flush traces (submission order), advance
        the member lines and the caller, re-raise the first failure."""
        if self._done:
            return
        self._done = True
        for pf in self._pending:
            pf.result()
        self._pending.clear()
        for fut in self._entries:
            for t in fut.traces:
                self.env.record_trace(t)
            fut._line.timeline.sync_to(fut.finished_at)
            self.caller.timeline.sync_to(fut.finished_at)
        for fut in self._entries:
            if fut._error is not None:
                raise fut._error

    @property
    def finished_at(self) -> float:
        return max((f.finished_at for f in self._entries), default=self.t0)

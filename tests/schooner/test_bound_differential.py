"""Differential test of the bound RPC path against per-call semantics.

Client stubs bind one call plan per (stub, binding) — type-check
verdict, codecs, compiled conform, native conversion plans — and run it
on every call.  :func:`reference_execute_call` below is the per-call
path those plans replace, spelled with the interpretive UTS oracles: it
re-derives the import-vs-export verdict on every call, conforms with
``values.conform_args``, converts with ``roundtrip_native_interpreted``
and marshals with ``repro.uts.wire``.  Every scenario runs twice on
fresh, identical worlds — once as shipped, once with the stubs' call
engine swapped for the reference — and the two runs must agree on every
result or error (type and message), every recorded ``CallTrace`` field,
the traffic counters and the virtual clock: for every ordered machine
pair of the standard park, both out-of-range policies, and both
dispatch modes.  The argument sets include the Cray and Convex (VAX)
out-of-range cases on the request and on the reply leg, and every
message body must equal ``repro.uts.wire.marshal_args`` of the natively
converted arguments.

The F100 shaft and duct signatures (doubles, integers and fixed arrays
of them) take the bound legs' packed path; their cases feed it every
value that path must hand to the reference instead: NumPy scalars,
``int`` and ``bool`` for a double, missing and extra keys, short and
NumPy arrays, integers that do not fit, and truncated or trailing
bodies through ``SignatureCodec.unmarshal``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.schooner.stubs as stubs_mod
from repro.core.specs import DUCT_SPEC_SOURCE, SHAFT_SPEC_SOURCE
from repro.machines import Language
from repro.network.topology import NetworkError
from repro.schooner import (
    CallFailed,
    CallTimeout,
    DeadlineExceeded,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
    StaleBinding,
    TypeCheckError,
)
from repro.schooner.procedure import STATE_ARG, TIMELINE_ARG
from repro.schooner.runtime import CallerContext, CallTrace, _shape_results
from repro.uts import OutOfRangePolicy, Signature, SpecFile
from repro.uts.errors import UTSCompatibilityError
from repro.uts.compiled import _leg_layout, native_roundtrip_for, signature_codec
from repro.uts.native import roundtrip_native_interpreted
from repro.uts.values import conform_args
from repro.uts.wire import marshal_args, unmarshal_args

PROBE_SPEC = """
export probe prog(
    "x" val double,
    "s" val double,
    "f" val float,
    "n" val integer,
    "v" var array[3] of double,
    "y" res double,
    "g" res float)
"""

PATH = "/bin/probe"

CRAY_OVERFLOW = math.ldexp(1.0 - 2.0**-49, 1024)

#: argument sets: ordinary values, signed zero and subnormals, a double
#: past the Convex's D_floating range, one that rounds past IEEE range
#: on the Cray, and small inputs whose *reply* overflows the Convex
CASES = (
    dict(x=math.pi, s=2.0, f=1.1, n=7, v=[1.0, 0.25, 1e-300]),
    dict(x=-0.0, s=1.0, f=-0.0, n=-3, v=[5e-324, -2.5, 1e-40]),
    dict(x=1e300, s=1.0, f=3.0e38, n=2**40, v=[1.0, 2.0, 3.0]),
    dict(x=CRAY_OVERFLOW, s=1.0, f=1.0, n=0, v=[0.0, 0.0, 0.0]),
    dict(x=1e10, s=1e290, f=2.5, n=1, v=[1e38, -1e38, 7.0]),
)


def probe_impl(x, s, f, n, v):
    return {"y": x * s, "g": f, "v": [e * 1.5 for e in v]}


def reference_execute_call(
    env, caller_machine, timeline, record, import_sig, args,
    retries=0, failed_over=False, dispatch="sync", trace_sink=None,
    deadline=None, plan=None,
):
    """One RPC as the runtime executed it before call plans, with the
    interpretive oracles (``plan`` is accepted and ignored)."""
    if not record.process.alive:
        raise StaleBinding(
            f"{import_sig.name}: process {record.process.address} is not running"
        )
    export_sig = record.procedure.signature
    try:
        Signature(
            name=export_sig.name, params=import_sig.params, kind=import_sig.kind
        ).check_import_subset(export_sig)
    except UTSCompatibilityError as exc:
        raise TypeCheckError(str(exc)) from exc
    callee = record.machine
    policy = env.range_policy
    trace = CallTrace(
        procedure=import_sig.name, caller=caller_machine.hostname,
        callee=callee.hostname, started_at=timeline.now, retries=retries,
        failed_over=failed_over, dispatch=dispatch,
    )
    sink = env.record_trace if trace_sink is None else trace_sink.append
    deadline_s = deadline.at_s if deadline is not None else None

    def lost(exc, retry_safe, hop):
        timeline.advance(env.costs.call_timeout_s)
        trace.outcome, trace.timeout_hop = "timeout", hop
        trace.finished_at = timeline.now
        sink(trace)
        remaining = deadline.remaining(timeline.now) if deadline is not None else None
        budget = f", {remaining:.3f}s of deadline budget left" if remaining is not None else ""
        return CallTimeout(
            f"{import_sig.name}: no reply from {callee.hostname} "
            f"within {env.costs.call_timeout_s}s ({hop} lost: {exc}){budget}",
            retry_safe=retry_safe, trace=trace, hop=hop,
            deadline_remaining_s=remaining,
        )

    def late(where):
        trace.outcome = "deadline"
        trace.finished_at = timeline.now
        sink(trace)
        return DeadlineExceeded(
            f"{import_sig.name}: {deadline.describe(timeline.now)} {where}",
            trace=trace, remaining_s=deadline.remaining(timeline.now),
        )

    def native(fmt, params, values):
        return {
            p.name: roundtrip_native_interpreted(fmt, p.type, values[p.name], policy)
            for p in params
        }

    def encode(direction, values):
        return marshal_args(import_sig, values, direction)

    if deadline is not None and deadline.expired(timeline.now):
        raise late("before dispatch")
    caller_fmt = caller_machine.architecture.native_format
    callee_fmt = callee.architecture.native_format
    sent_params, returned = import_sig.sent_params, import_sig.returned_params

    sent = native(caller_fmt, sent_params, conform_args(import_sig, args, "send"))
    request = encode("send", sent)
    nreq = len(request)
    dt = env.cpu_seconds_for_bytes(caller_machine, nreq)
    trace.client_cpu_s += dt
    timeline.advance(dt)
    try:
        msg = env.transport.send(
            caller_machine, callee, f"call:{import_sig.name}", request, nreq,
            timeline=timeline, header_bytes=env.costs.header_bytes,
            deadline_s=deadline_s,
        )
    except NetworkError as exc:
        raise lost(exc, True, "request") from exc
    trace.network_s += msg.transfer_seconds
    trace.request_bytes = msg.nbytes
    if msg.deadline_s is not None and timeline.now >= msg.deadline_s:
        raise late(f"on arrival at {callee.hostname}")
    dt = env.cpu_seconds_for_bytes(callee, nreq)
    trace.server_cpu_s += dt
    timeline.advance(dt)
    recv = native(callee_fmt, sent_params, unmarshal_args(import_sig, msg.body, "send"))
    proc = record.procedure
    if not callee.up or not record.process.alive:
        raise StaleBinding(f"{import_sig.name}: host died mid-call")
    kwargs = dict(recv)
    if proc.wants_state:
        kwargs[STATE_ARG] = record.state_storage()
    if proc.wants_timeline:
        kwargs[TIMELINE_ARG] = timeline
    try:
        raw = proc.impl(**kwargs)
    except Exception as exc:
        raise CallFailed(f"{import_sig.name}: remote procedure raised {exc!r}") from exc
    dt = callee.compute_seconds(proc.cost_flops(recv))
    trace.compute_s += dt
    timeline.advance(dt)
    results = _shape_results(import_sig, raw, recv)
    results = native(callee_fmt, returned, conform_args(import_sig, results, "return"))
    reply = encode("return", results)
    nrep = len(reply)
    dt = env.cpu_seconds_for_bytes(callee, nrep)
    trace.server_cpu_s += dt
    timeline.advance(dt)
    try:
        msg = env.transport.send(
            callee, caller_machine, f"reply:{import_sig.name}", reply, nrep,
            timeline=timeline, header_bytes=env.costs.header_bytes,
            deadline_s=deadline_s,
        )
    except NetworkError as exc:
        raise lost(exc, proc.retry_ok, "reply") from exc
    trace.network_s += msg.transfer_seconds
    trace.reply_bytes = msg.nbytes
    dt = env.cpu_seconds_for_bytes(caller_machine, nrep)
    trace.client_cpu_s += dt
    timeline.advance(dt)
    out = native(caller_fmt, returned, unmarshal_args(import_sig, msg.body, "return"))
    trace.finished_at = timeline.now
    sink(trace)
    return out


def _outcome(fn):
    try:
        return ("ok", repr(sorted(fn().items())))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return ("raise", type(exc).__name__, str(exc))


def _world(policy, probe):
    source, name, impl, _ = probe
    env = SchoonerEnvironment.standard(range_policy=policy)
    spec = SpecFile.parse(source)
    exe = Executable("probe", (Procedure(
        name=name, signature=spec.export_named(name), impl=impl,
        language=Language.C, flops=3.0e4,
    ),))
    for machine in env.park:
        machine.install(PATH, exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    # every message body, as the comparison's witness of the wire bytes
    bodies = []
    send = env.transport.send

    def recording_send(src, dst, kind, body, *args, **kwargs):
        msg = send(src, dst, kind, body, *args, **kwargs)
        bodies.append((kind, body if body is None or isinstance(body, str) else bytes(body)))
        return msg

    env.transport.send = recording_send
    return env, manager, spec.as_imports().import_named(name), bodies


PROBE = (PROBE_SPEC, "probe", probe_impl, CASES)


def _run_pair(caller_nick, callee_nick, policy, dispatch, probe=PROBE):
    """Every case of ``probe`` from ``caller_nick`` to ``callee_nick``;
    returns the outcomes and the observable end state of the world."""
    env, manager, sig, bodies = _world(policy, probe)
    caller = CallerContext(timeline=env.clock.timeline("caller"))
    contexts = [
        ModuleContext(manager=manager, module_name=f"m{i}",
                      machine=env.park[caller_nick], caller=caller)
        for i in range(2)
    ]
    stubs = []
    for ctx in contexts:
        ctx.sch_contact_schx(callee_nick, PATH)
        stubs.append(ctx.import_proc(sig))
    outcomes = []
    for case in probe[3]:
        if dispatch == "sync":
            outcomes.append(_outcome(lambda: stubs[0](**case)))
        else:
            batch = contexts[0].open_batch("diff")
            futures = [stub.begin(batch, **case) for stub in stubs]
            outcomes.extend(_outcome(fut.wait) for fut in futures)
    stats = env.transport.stats
    state = (
        repr(env.clock.now),
        repr(caller.timeline.now),
        stats.messages, stats.bytes, stats.header_bytes,
        repr(stats.virtual_seconds), sorted(stats.by_kind.items()), bodies,
    )
    traces = [repr(dataclasses.astuple(t)) for t in env.traces]
    return outcomes, traces, state


PARK_NICKS = [nick for nick, _ in SchoonerEnvironment.standard().park.machines.items()]


@pytest.mark.parametrize("dispatch", ["sync", "overlap"])
@pytest.mark.parametrize("policy", list(OutOfRangePolicy))
def test_bound_path_matches_per_call_reference(monkeypatch, policy, dispatch):
    mismatches = []
    errors = set()
    for caller_nick in PARK_NICKS:
        for callee_nick in PARK_NICKS:
            bound = _run_pair(caller_nick, callee_nick, policy, dispatch)
            with monkeypatch.context() as m:
                m.setattr(stubs_mod, "execute_call", reference_execute_call)
                reference = _run_pair(caller_nick, callee_nick, policy, dispatch)
            if bound != reference:
                mismatches.append((caller_nick, callee_nick))
            errors.update(o[2] for o in bound[0] if o[0] == "raise")
    assert mismatches == []
    # the sweep crossed the Cray and VAX out-of-range machinery: ERROR
    # raises there, INFINITY clamps (only 32-bit integer overflow, which
    # no policy forgives, still raises)
    cray = any("Cray value" in e for e in errors)
    vax = any("VAX floating range" in e for e in errors)
    vax_zero = any("cannot represent -0.0" in e for e in errors)
    if policy is OutOfRangePolicy.ERROR:
        assert cray and vax and vax_zero
    else:
        assert not (cray or vax or vax_zero)
        assert errors and all("does not fit" in e for e in errors)


def test_reference_sees_the_same_traffic_as_a_direct_call():
    """Sanity for the oracle itself: on one plain call the reference
    and the shipped engine record identical traces."""
    bound = _run_pair("ua-sparc10", "lerc-cray", OutOfRangePolicy.ERROR, "sync")
    assert bound[0][0][0] == "ok"
    assert len(bound[1]) >= 1


# ------------------------------------------------------- packed RPC legs
def shaft_impl(ecom, incom, etur, intur, ecorr, xspool, xmyi):
    return {"dxspl": (sum(ecom[:incom]) - sum(etur[:intur])) * ecorr / xmyi + xspool}


def duct_impl(w, tt, pt, far):
    # the reply leg conforms what an implementation hands back: a NumPy
    # scalar, an int and (for far == 0.5) a bool in double slots
    return {
        "wo": np.float64(w), "tto": 7 if tt == 300.0 else tt, "pto": pt,
        "faro": True if far == 0.5 else far,
    }


DUCT_OK = dict(w=100.5, tt=288.0, pt=101325.0, far=0.02)
DUCT_CASES = (
    DUCT_OK,
    dict(w=np.float64(2.5), tt=np.float64(-0.0), pt=5e-324, far=0.0),
    dict(DUCT_OK, w=3, tt=300.0, far=-0.0),
    dict(DUCT_OK, w=True),
    dict(DUCT_OK, pt=1e300),
    dict(DUCT_OK, w=CRAY_OVERFLOW),
    dict(DUCT_OK, tt=math.inf),
    dict(DUCT_OK, far=math.nan),
    dict(DUCT_OK, far=0.5),
    {k: v for k, v in DUCT_OK.items() if k != "far"},
    dict(DUCT_OK, extra=1.0),
)

SHAFT_OK = dict(
    ecom=[1.0, 2.0, 0.0, 0.0], incom=2, etur=[0.5, 0.25, 0.0, 0.0], intur=2,
    ecorr=1.0, xspool=0.5, xmyi=2.0,
)
SHAFT_CASES = (
    SHAFT_OK,
    dict(SHAFT_OK, ecom=(1.0, np.float64(2.0), 0.0, -0.0), etur=[0.5, 3, 0.0, 5e-324],
         intur=np.int64(2), ecorr=np.float64(1.0)),
    dict(SHAFT_OK, ecom=np.array([1.0, 2.0, 3.0, 4.0]), incom=4),
    dict(SHAFT_OK, etur=[1e300, 0.0, 0.0, 0.0], intur=1),
    dict(SHAFT_OK, ecom=[CRAY_OVERFLOW, 1.0, 0.0, 0.0], incom=1),
    dict(SHAFT_OK, ecom=[1.0, 2.0, 3.0]),
    dict(SHAFT_OK, etur=[0.5, True, 0.0, 0.0]),
    dict(SHAFT_OK, incom=True),
    dict(SHAFT_OK, incom=2.0),
    dict(SHAFT_OK, incom=2**40),
    dict(SHAFT_OK, incom=2**63),
    {k: v for k, v in SHAFT_OK.items() if k != "xmyi"},
    dict(SHAFT_OK, extra=1),
    dict(SHAFT_OK, xmyi=0.0),  # the remote raises: last, it ends the line
)

LANE_PROBES = {
    "duct": (DUCT_SPEC_SOURCE, "duct", duct_impl, DUCT_CASES),
    "shaft": (SHAFT_SPEC_SOURCE, "shaft", shaft_impl, SHAFT_CASES),
}


@pytest.mark.parametrize("dispatch", ["sync", "overlap"])
@pytest.mark.parametrize("policy", list(OutOfRangePolicy))
@pytest.mark.parametrize("probe", sorted(LANE_PROBES))
def test_packed_legs_match_per_call_reference(monkeypatch, probe, policy, dispatch):
    source, name, _, _ = LANE_PROBES[probe]
    sig = SpecFile.parse(source).export_named(name)
    # both legs of these signatures take the packed path
    assert _leg_layout(sig.sent_params) is not None
    assert _leg_layout(sig.returned_params) is not None
    mismatches = []
    errors = set()
    for caller_nick in PARK_NICKS:
        for callee_nick in PARK_NICKS:
            bound = _run_pair(caller_nick, callee_nick, policy, dispatch, LANE_PROBES[probe])
            with monkeypatch.context() as m:
                m.setattr(stubs_mod, "execute_call", reference_execute_call)
                reference = _run_pair(
                    caller_nick, callee_nick, policy, dispatch, LANE_PROBES[probe]
                )
            if bound != reference:
                mismatches.append((caller_nick, callee_nick))
            errors.update(o[2] for o in bound[0] if o[0] == "raise")
    assert mismatches == []
    # the cases reached the reference's type and shape errors
    assert any("boolean" in e for e in errors)
    assert sum("do not match expected" in e for e in errors) == 2  # missing, extra
    if probe == "shaft":
        assert any("length" in e for e in errors)
        assert any("does not fit" in e for e in errors)
        assert any("64-bit range" in e for e in errors)
    if policy is OutOfRangePolicy.ERROR:
        assert any("Cray value" in e for e in errors)
        assert any("VAX floating range" in e for e in errors)


PARK_FORMATS = list(dict.fromkeys(
    m.architecture.native_format for m in SchoonerEnvironment.standard().park
))


def _unstruct(outcome):
    """An outcome without the detail ``struct`` appends to a truncation
    error: the byte counts it names differ between one unpack of a
    whole array and the interpretive per-element unpack."""
    if outcome[0] == "raise":
        return outcome[:2] + (outcome[2].split(": unpack_from requires")[0],)
    return outcome


@pytest.mark.parametrize("policy", list(OutOfRangePolicy))
def test_bound_unmarshal_matches_reference_on_any_body(policy):
    """A bound leg's ``unmarshal`` on whole, truncated, trailing and
    empty bodies: the value or the error of ``unmarshal_args`` followed
    by the interpretive native round trip, on every park format."""
    checked = 0
    for source, name, _, cases in LANE_PROBES.values():
        sig = SpecFile.parse(source).export_named(name)
        for direction, values in (
            ("send", cases[0]),
            ("return", {p.name: 1.5 for p in sig.returned_params}),
        ):
            codec = signature_codec(sig, direction)
            body = marshal_args(sig, values, direction)
            for fmt in PARK_FORMATS:
                leg = codec.bind(
                    fmt, policy, native_roundtrip_for(fmt, codec.record_type, policy)
                )
                for data in (body, body[:-1], body + b"\0", b"", body[:8], body * 2):
                    got = _outcome(lambda: leg.unmarshal(data))
                    want = _outcome(lambda: roundtrip_native_interpreted(
                        fmt, codec.record_type, unmarshal_args(sig, data, direction), policy
                    ))
                    assert _unstruct(got) == _unstruct(want), (name, direction, fmt, data)
                    checked += 1
    assert checked == 2 * 2 * len(PARK_FORMATS) * 6

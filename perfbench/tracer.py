"""Span tracer and seam registry for the benchmark's traced run.

The traced run charges every layer of the program on two clocks: the
wall clock (``time.perf_counter``) and the modelled virtual clock of the
session whose step is running.  Spans are opened by wrappers the
benchmark installs around public functions of each layer (its *seams*),
in the way ``repro.core.perf.PhaseTimer.wrap`` decorates methods; the
program itself is not edited.

A seam is patched where its caller looks the name up.  A function
imported by name into another module (``repro.schooner.runtime`` does
``from ..uts.compiled import native_roundtrip_for``) is patched in the
importing module; patching the defining module would count nothing.
A seam whose module or attribute no longer exists is reported as
``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional

__all__ = [
    "Seam",
    "SEAMS",
    "Tracer",
    "SeamSet",
    "self_times",
    "layer_of",
    "TRANSPARENT",
]

# span record fields (a list per span keeps recording cheap)
NAME, PARENT, SESSION, W0, W1, V0, V1 = range(7)

#: spans whose virtual time belongs to the caller: a clock advance is
#: charged on the virtual clock to the layer whose code moved the clock
TRANSPARENT = frozenset({"network.clock_advance"})


def layer_of(name: str) -> str:
    """``uts.encode`` -> ``uts``: a span's layer is its first component."""
    return name.split(".", 1)[0]


def self_times(spans: List[list], transparent=TRANSPARENT):
    """Self time of every span on both clocks.

    A span's self time is its duration minus the time its child spans
    cover.  Children run strictly inside their parent on one thread, so
    the covered time is the sum of the children's durations.  A span
    without virtual stamps on both ends (one that is not inside a
    session step) has no virtual self time, and a transparent span's
    virtual duration stays with its parent.  Returns two lists aligned
    with ``spans``: wall self seconds and virtual self seconds.
    """
    n = len(spans)
    wall_child = [0.0] * n
    virt_child = [0.0] * n
    for s in spans:
        p = s[PARENT]
        if p < 0:
            continue
        wall_child[p] += s[W1] - s[W0]
        if s[V0] is not None and s[V1] is not None and s[NAME] not in transparent:
            virt_child[p] += s[V1] - s[V0]
    wall_self, virt_self = [], []
    for i, s in enumerate(spans):
        wall_self.append((s[W1] - s[W0]) - wall_child[i])
        if s[V0] is None or s[V1] is None or s[NAME] in transparent:
            virt_self.append(0.0)
        else:
            virt_self.append((s[V1] - s[V0]) - virt_child[i])
    return wall_self, virt_self


class Tracer:
    """In-memory span recorder for one traced request at a time.

    ``ctx`` is the serving session whose step is running; its clock
    stamps the virtual ends of every span opened inside the step.
    """

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.ctx = None
        self.session: Optional[str] = None
        self._vlast = 0.0
        #: call counts by seam ``where`` (span seams and count-only seams)
        self.calls: Dict[str, int] = defaultdict(int)
        #: values the seam taps add up (bytes, fevals, modelled seconds)
        self.sums: Dict[str, float] = defaultdict(float)

    def vnow(self) -> Optional[float]:
        ctx = self.ctx
        if ctx is None:
            return None
        env = ctx.env
        if env is None:
            # before set-up builds the session's environment, or after
            # finalize tore it down: the clock reads its last value
            return self._vlast
        self._vlast = now = env.clock.now
        return now

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(
            [name, parent, self.session, time.perf_counter(), None, self.vnow(), None]
        )
        self.stack.append(i)
        return i

    def close(self, i: int, name: Optional[str] = None) -> None:
        s = self.spans[i]
        s[V1] = self.vnow()
        s[W1] = time.perf_counter()
        if name is not None:
            s[NAME] = name
        self.stack.pop()

    def innermost(self) -> Optional[str]:
        return self.spans[self.stack[-1]][NAME] if self.stack else None


@dataclass(frozen=True)
class Seam:
    """One wrapped name: ``module`` is where the caller looks it up,
    ``attr`` is ``function`` or ``Class.method``.

    ``span=False`` counts calls without opening a span.  ``only_under``
    restricts the span to calls made directly inside the named span
    (elsewhere the call passes through uncounted).  ``tap(tracer, args,
    result)`` adds measured values to ``tracer.sums``."""

    name: str
    module: str
    attr: str
    span: bool = True
    only_under: Optional[str] = None
    tap: Optional[Callable] = None

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


def _step_wrapper(tracer: Tracer, where: str, fn: Callable) -> Callable:
    """``SessionContext.run_next_step``: a span named after the step
    kind it returns, which also switches the tracer's virtual clock to
    the stepping session."""

    @functools.wraps(fn)
    def run_next_step(ctx, *args, **kwargs):
        if threading.get_ident() != tracer.thread:
            return fn(ctx, *args, **kwargs)
        saved = (tracer.ctx, tracer.session, tracer._vlast)
        tracer.ctx, tracer.session = ctx, ctx.spec.name
        if ctx.env is None:
            tracer._vlast = 0.0
        tracer.calls[where] += 1
        i = tracer.open("serve.step")
        kind = None
        try:
            kind = fn(ctx, *args, **kwargs)
            return kind
        finally:
            name = "serve.step." + kind.split(":", 1)[0] if kind else "serve.step.error"
            tracer.close(i, name)
            tracer.ctx, tracer.session, tracer._vlast = saved

    return run_next_step


def _wrapper(tracer: Tracer, seam: Seam, fn: Callable) -> Callable:
    name, where, tap, under = seam.name, seam.where, seam.tap, seam.only_under

    if not seam.span:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if threading.get_ident() == tracer.thread:
                tracer.calls[where] += 1
                if tap is not None:
                    tap(tracer, args, result)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if threading.get_ident() != tracer.thread or (
            under is not None and tracer.innermost() != under
        ):
            return fn(*args, **kwargs)
        tracer.calls[where] += 1
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if tap is not None:
            tap(tracer, args, result)
        return result

    return traced


class SeamSet:
    """Installs a list of seams onto the live modules and restores them.

    ``status`` maps each seam's ``where`` to ``"ok"`` or ``"missing"``
    after :meth:`install`."""

    def __init__(self, tracer: Tracer, seams) -> None:
        self.tracer = tracer
        self.seams = list(seams)
        self.status: Dict[str, str] = {}
        self._saved: List[tuple] = []

    def _resolve(self, seam: Seam):
        try:
            owner = import_module(seam.module)
        except ImportError:
            return None
        *path, last = seam.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, last):
            return None
        return owner, last

    def install(self) -> None:
        for seam in self.seams:
            found = self._resolve(seam)
            if found is None:
                self.status[seam.where] = "missing"
                continue
            owner, attr = found
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(seam, raw.__func__))
            else:
                wrapped = self._wrap(seam, raw)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw, own))
            self.status[seam.where] = "ok"

    def _wrap(self, seam: Seam, fn: Callable) -> Callable:
        if seam.name == "serve.step":
            return _step_wrapper(self.tracer, seam.where, fn)
        return _wrapper(self.tracer, seam, fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw, own = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


# ------------------------------------------------------------------ taps
def _tap_call_trace(tracer: Tracer, args, result) -> None:
    """``SchoonerEnvironment.record_trace(trace)``: the modelled costs
    each RPC recorded."""
    t = args[1]
    s = tracer.sums
    s["uts.modelled_cpu_s"] += t.client_cpu_s + t.server_cpu_s
    s["network.modelled_s"] += t.network_s
    s["tess.modelled_compute_s"] += t.compute_s
    s["network.bytes"] += t.request_bytes + t.reply_bytes
    s["schooner.traces"] += 1
    if t.dispatch == "overlap":
        s["schooner.overlapped"] += 1
    if t.outcome != "ok":
        s["schooner.rpc_failed"] += 1


def _tap_fevals(tracer: Tracer, args, result) -> None:
    tracer.sums["solvers.fevals"] += getattr(result, "fevals", 0)


def _tap_frame_bytes(tracer: Tracer, args, result) -> None:
    """``_encode_body(buf, ...)`` / ``decode_payload(data)``: the frame
    buffer is the first argument."""
    tracer.sums["shards.frame_bytes"] += len(args[0])


#: every seam of the traced run, by layer
SEAMS = (
    # uts: marshal, unmarshal, conform lookup, import check, spec parsing
    Seam("uts.encode", "repro.uts.compiled", "SignatureCodec.encode_conformed_into"),
    Seam("uts.decode", "repro.uts.compiled", "SignatureCodec.unmarshal"),
    Seam("uts.conform_lookup", "repro.schooner.runtime", "native_roundtrip_for"),
    Seam("uts.import_check", "repro.uts.types", "Signature.check_import_subset"),
    Seam("uts.spec_parse", "repro.uts.spec", "SpecFile.parse"),
    # schooner: the RPC (both call sites), batch joins, recorded traces
    Seam("schooner.rpc", "repro.schooner.stubs", "execute_call"),
    Seam("schooner.rpc", "repro.schooner.manager", "execute_call"),
    Seam("schooner.batch_wait", "repro.schooner.runtime", "CallBatch.wait"),
    Seam(
        "schooner.record_trace", "repro.schooner.runtime",
        "SchoonerEnvironment.record_trace", span=False, tap=_tap_call_trace,
    ),
    # network: message transfer and virtual-clock advances
    Seam("network.send", "repro.network.transport", "Transport.send"),
    Seam("network.clock_advance", "repro.network.clock", "Timeline.advance"),
    # tess: engine balance, and the component physics the remote
    # procedure bodies run (counted only directly inside an RPC)
    Seam("tess.balance", "repro.tess.engine", "TwinSpoolTurbofan.balance"),
    Seam("tess.compute", "repro.tess.components", "Shaft.accel", only_under="schooner.rpc"),
    Seam("tess.compute", "repro.tess.components", "Duct.run", only_under="schooner.rpc"),
    Seam("tess.compute", "repro.tess.components", "Combustor.burn", only_under="schooner.rpc"),
    Seam(
        "tess.compute", "repro.tess.components", "ConvergentNozzle.flow_capacity",
        only_under="schooner.rpc",
    ),
    Seam(
        "tess.compute", "repro.tess.components", "ConvergentNozzle.net_thrust",
        only_under="schooner.rpc",
    ),
    # solvers
    Seam("solvers.newton", "repro.tess.engine", "newton_raphson", tap=_tap_fevals),
    Seam("solvers.fd_jacobian", "repro.core.schooner_host", "SchoonerHost.jacobian"),
    Seam("solvers.fd_jacobian", "repro.solvers.steady", "fd_jacobian"),
    Seam("solvers.integrate", "repro.tess.engine", "integrate"),
    # core and avs: per-session network build and host set-up
    Seam("core.build_network", "repro.core.executive", "NPSSExecutive.build_f100_network"),
    Seam("core.host_setup", "repro.core.schooner_host", "SchoonerHost.setup"),
    Seam("avs.connect", "repro.avs.editor", "NetworkEditor.connect"),
    Seam("avs.order", "repro.avs.scheduler", "DataflowScheduler._order"),
    # serve: the serve calls (as the benchmark and run_traffic look
    # them up), session steps, installation builds
    Seam("serve.admission", "repro.serve", "serve_sessions"),
    Seam("serve.admission", "repro.serve", "serve_sessions_sharded"),
    Seam("serve.admission", "repro.traffic.driver", "serve_arrivals"),
    Seam("serve.step", "repro.serve.session", "SessionContext.run_next_step"),
    Seam("serve.installation", "repro.serve", "SharedInstallation.standard"),
    # opcache
    Seam("opcache.lookup", "repro.serve.opcache", "OpPointCache.lookup"),
    Seam("opcache.store", "repro.serve.opcache", "OpPointCache.store"),
    # shards, parent side
    Seam("shards.send", "repro.serve.shards", "ShardPool.send"),
    Seam("shards.recv", "repro.serve.shards", "ShardPool.recv"),
    Seam("shards.frames", "repro.serve.shards", "send_frame", span=False),
    Seam("shards.frames", "repro.serve.shards", "recv_frame", span=False),
    Seam("shards.codec", "repro.serve.shm", "_encode_body", tap=_tap_frame_bytes),
    Seam("shards.codec", "repro.serve.shm", "decode_payload", tap=_tap_frame_bytes),
    # traffic
    Seam("traffic.build_stream", "repro.traffic", "build_stream"),
    Seam("traffic.run", "repro.traffic", "run_traffic"),
    Seam("traffic.settle", "repro.traffic.driver", "settle_ledgers"),
)

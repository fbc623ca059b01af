"""Process-sharded serving: scale ``repro.serve`` across cores.

The paper's deployment model is one Schooner Server per machine, with
the simulation spread over heterogeneous hosts.  The in-process serve
plane (:mod:`repro.serve.scheduler`) multiplexes every session on one
interpreter, so its ~5x speedup comes from virtual-time scheduling, not
cores — wall-clock ``points_per_s`` is GIL-bound.  This module is the
Server-per-machine analogue for the serving layer itself: a
:class:`ShardPool` spawns N OS worker processes, each holding its own
:class:`~repro.serve.installation.SharedInstallation` replica and
virtual-time scheduler, and sessions are dealt across them.

Four disciplines make sharding *exact* rather than approximate:

* **Deterministic placement by family.**  Sessions hash to a shard by
  their op-point-cache family (or workload key when they carry none),
  so every pair of sessions that could interact — workload-cache
  leader/follower chains, op-point-cache operating-line families —
  lands on the same shard.  A session's trace stream is a pure function
  of its spec plus those interactions, so per-session digests and
  virtual times are bitwise-identical to inline serving (the
  differential tests in tests/serve/test_shards.py hold the plane to
  that).  Placement is rounded out by a work-stealing rebalance: whole
  family groups migrate from the most-loaded shard to any shard the
  hash left idle, before anything runs.

* **The binary wire discipline crosses the process boundary** — over
  pipes or shared memory (:mod:`repro.serve.shm`).  Session specs and
  results travel as struct-packed frames: the 32-byte RPC header
  fronting a typed binary payload (float arrays as raw IEEE-754 bytes,
  never digit strings), assembled in a pooled
  :class:`~repro.uts.buffers.BufferPool` buffer.  With
  ``transport="shm"`` (or ``"auto"`` where available) payloads above a
  size threshold are written **once** into a per-worker SPSC ring in a
  ``multiprocessing.shared_memory`` segment and cross the pipe as an
  ``(offset, length)`` reference; the pipe stays the control/wakeup
  channel and the fallback.  Live runtime objects never cross: anything
  holding interpreter state (a ``Transport``, a ``SharedInstallation``,
  a ``LinePool``) raises the typed
  :class:`~repro.serve.shm.NotShardSafe` instead of an opaque pickle
  traceback.

* **Admission is simulated at the parent, exactly.**  Workers run with
  no admission bound of their own; the parent holds the single global
  parked queue and replays the inline scheduler's event chronology over
  it — completions in heap order (reconstructed from each session's
  per-step virtual-time trail), one admission per freed slot, queue
  wait charged forward, and *parked-deadline expiry* judged at the
  exact instant inline would judge it, with the identical shed reason.
  Admitted sessions are dispatched to their family's shard with the
  wait pre-charged, so their in-session deadlines (and hence traces)
  match inline bitwise.

* **Shared state spans shards.**  The
  :class:`~repro.resilience.budget.RetryBudget` becomes a
  parent-arbitrated token lease (each worker draws on a pre-granted
  slice, settled back at merge).  The installation-wide
  :class:`~repro.serve.opcache.OpPointCache` flows both ways: each
  worker's episode cache is pre-seeded from the pool's store at open,
  and the points it solves come back as a binary delta merged into the
  store at close — so a re-serve, or a family rebalanced onto a
  different shard, starts warm instead of rebuilding PR 6's cache wins
  from scratch N times.

Known (and deliberate) divergences from inline: cache *counters* can
differ by probe-vs-traffic accounting (a parked session's replay is a
counted hit in a worker, a non-counting probe inline), and the corner
where a *degraded* leader's followers rerun live is replayed at
follower granularity, not interleaved — digests, statuses, shed sets,
and waits are identical in every tested mix.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from ..faults.plan import FaultPlan
from ..resilience.budget import RetryBudget
from .failover import (
    KillSchedule,
    ShardCrashed,
    ShardTimeout,
    read_stderr_tail,
)
from .installation import SharedInstallation
from .opcache import OpPointCache
from .scheduler import AdmissionPolicy, ServeReport, serve_sessions
from .session import SessionContext, SessionResult, SessionSpec
from .shm import (
    DEFAULT_RING_BYTES,
    SHM_THRESHOLD,
    NotShardSafe,
    ShardProtocolError,
    ShmRing,
    recv_frame,
    resolve_transport,
    send_frame,
)

__all__ = [
    "NotShardSafe",
    "ShardProtocolError",
    "ShardCrashed",
    "ShardTimeout",
    "ShardPool",
    "serve_sessions_sharded",
    "spec_to_wire",
    "spec_from_wire",
    "result_to_wire",
    "result_from_wire",
    "assert_shard_safe",
    "shard_family",
    "assign_shards",
    "partition_live_slots",
]


#: types that must never cross the process boundary;
#: resolved lazily so importing shards stays cheap
def _live_types() -> tuple:
    from ..network.transport import Transport
    from ..schooner.lines import LinePool
    from ..schooner.runtime import SchoonerEnvironment
    from ..uts.buffers import BufferPool

    return (Transport, SharedInstallation, LinePool, SchoonerEnvironment, BufferPool)


def assert_shard_safe(obj, path: str = "payload") -> None:
    """Walk a payload tree and raise :class:`NotShardSafe` (naming the
    offending object and where it sat) if any live runtime object is
    present.  Containers recurse; wire scalars (including ``bytes`` —
    the op-cache blobs) pass."""
    if isinstance(obj, _live_types()):
        raise NotShardSafe(
            f"live {type(obj).__name__} at {path} cannot cross a process "
            f"boundary: shard workers hold their own installation replica — "
            f"ship SessionSpec/SessionResult wire frames instead "
            f"(see repro.serve.shards)"
        )
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_shard_safe(k, f"{path}[{k!r}] (key)")
            assert_shard_safe(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            assert_shard_safe(v, f"{path}[{i}]")
    elif obj is not None and not isinstance(
        obj, (str, int, float, bool, bytes, bytearray)
    ):
        raise NotShardSafe(
            f"{type(obj).__name__} at {path} is not shard-serializable; "
            f"shard frames carry wire scalars and containers only"
        )


# --------------------------------------------------------------------------
# spec / result codecs
# --------------------------------------------------------------------------

def spec_to_wire(spec: SessionSpec) -> dict:
    """A :class:`SessionSpec` as a shard-safe wire dict.

    Fault-plan sessions are refused: a live plan drives an injector that
    owns mutable park/network state on *its* installation — shipping it
    to a shard would silently change which park the faults hit."""
    if spec.fault_plan is not None:
        raise NotShardSafe(
            f"session {spec.name!r} carries a live fault plan; fault-injection "
            f"sessions mutate shared park/network state and cannot cross a "
            f"process boundary — serve them inline (workers=0)"
        )
    wire = {
        "name": spec.name,
        "points": list(spec.points),
        "placement": dict(spec.placement),
        "altitude_m": spec.altitude_m,
        "mach": spec.mach,
        "transient_s": spec.transient_s,
        "transient_dt": spec.transient_dt,
        "avs_machine": spec.avs_machine,
        "dispatch": spec.dispatch,
        "deadline_s": spec.deadline_s,
        "priority": spec.priority,
        "traffic_class": spec.traffic_class,
        "resilient": spec.resilient,
        "op_cache": spec.op_cache,
    }
    assert_shard_safe(wire, f"spec {spec.name!r}")
    return wire


def spec_from_wire(wire: dict) -> SessionSpec:
    return SessionSpec(
        name=wire["name"],
        points=tuple(wire["points"]),
        placement=dict(wire["placement"]),
        altitude_m=wire["altitude_m"],
        mach=wire["mach"],
        transient_s=wire["transient_s"],
        transient_dt=wire["transient_dt"],
        avs_machine=wire["avs_machine"],
        dispatch=wire["dispatch"],
        deadline_s=wire["deadline_s"],
        priority=wire["priority"],
        traffic_class=wire["traffic_class"],
        resilient=wire["resilient"],
        op_cache=wire["op_cache"],
    )


def result_to_wire(r: SessionResult) -> dict:
    return {
        "name": r.name,
        "workload_key": r.workload_key,
        "replayed": r.replayed,
        "results": r.results,
        "transient": r.transient,
        "virtual_s": r.virtual_s,
        "digest": r.digest,
        "traces": r.traces,
        "messages": r.messages,
        "payload_bytes": r.payload_bytes,
        "header_bytes": r.header_bytes,
        "net_virtual_s": r.net_virtual_s,
        "fault_log": [list(entry) for entry in r.fault_log],
        "status": r.status,
        "shed_reason": r.shed_reason,
        "wait_s": r.wait_s,
        "deadline_met": r.deadline_met,
        "error": r.error,
        "arrival_s": r.arrival_s,
        "traffic_class": r.traffic_class,
    }


def result_from_wire(wire: dict) -> SessionResult:
    kw = dict(wire)
    kw["fault_log"] = [tuple(entry) for entry in kw.get("fault_log", [])]
    return SessionResult(**kw)


# --------------------------------------------------------------------------
# placement: deterministic family hashing + work-stealing rebalance
# --------------------------------------------------------------------------

def shard_family(spec: SessionSpec) -> str:
    """The key sessions co-locate by: the op-point-cache operating-line
    family when the spec opts in (cross-workload sharing must stay
    intra-shard for op-cache locality), else the workload key (so
    leader/follower dedup chains stay intra-shard)."""
    return spec.op_family() or f"wk:{spec.workload_key()}"


def assign_shards(
    indexed: Sequence[Tuple[int, SessionSpec]], workers: int
) -> List[List[Tuple[int, SessionSpec]]]:
    """Deal ``(seq, spec)`` pairs into ``workers`` buckets.

    Whole family groups hash to a shard (crc32 of the family key — a
    stable hash, identical across interpreters and runs), then the
    work-stealing pass rebalances: while moving one family group from
    the most-loaded shard to the least-loaded strictly lowers the pair's
    peak, the group that lowers it most migrates — which both fills
    shards the hash left idle and splits hash-collision pileups.
    Deterministic: loads, donor/recipient choice, and the migrated
    group are all totally ordered."""
    groups: Dict[str, List[Tuple[int, SessionSpec]]] = {}
    for seq, spec in indexed:
        groups.setdefault(shard_family(spec), []).append((seq, spec))

    assign: List[List[str]] = [[] for _ in range(workers)]
    for fam in sorted(groups):
        assign[crc32(fam.encode()) % workers].append(fam)

    def shard_load(w: int) -> int:
        return sum(len(groups[f]) for f in assign[w])

    while True:
        loads = [shard_load(w) for w in range(workers)]
        donor = max(range(workers), key=lambda w: (loads[w], -w))
        recipient = min(range(workers), key=lambda w: (loads[w], w))
        moves = [
            (max(loads[donor] - len(groups[f]), loads[recipient] + len(groups[f])), f)
            for f in assign[donor]
        ]
        best = min(moves, default=None, key=lambda m: m)
        if best is None or best[0] >= loads[donor]:
            break  # no single-group move lowers the peak
        assign[donor].remove(best[1])
        assign[recipient].append(best[1])

    out: List[List[Tuple[int, SessionSpec]]] = []
    for w in range(workers):
        bucket = [pair for fam in assign[w] for pair in groups[fam]]
        bucket.sort(key=lambda p: p[0])  # preserve admission order in-shard
        out.append(bucket)
    return out


def partition_live_slots(total: int, counts: Sequence[int]) -> List[Optional[int]]:
    """Split a global ``max_live`` across shards proportionally to their
    session counts (largest-remainder rounding, every non-empty shard
    granted at least one slot so partitioned admission can never
    deadlock a shard).  ``None`` entries mean "no bound" (empty shard).

    The serve path no longer partitions admission — the parent holds
    the one global queue (see the module doc) — but the partitioner
    remains the building block for static capacity planning and is kept
    under test."""
    weight = sum(counts)
    if weight == 0:
        return [None] * len(counts)
    quotas = [total * c / weight for c in counts]
    slots = [max(1, int(q)) if c else 0 for q, c in zip(quotas, counts)]
    remainder = total - sum(slots)
    if remainder > 0:
        order = sorted(
            range(len(counts)),
            key=lambda i: (-(quotas[i] - int(quotas[i])), i),
        )
        for i in itertools.islice(itertools.cycle(order), remainder):
            if counts[i]:
                slots[i] += 1
                remainder -= 1
                if remainder == 0:
                    break
    return [s if c else None for s, c in zip(slots, counts)]


# --------------------------------------------------------------------------
# the worker process (spawn-safe: module-level entrypoint, no closures)
# --------------------------------------------------------------------------

def _open_episode(payload: dict) -> dict:
    """Begin one serve episode: a persistent installation replica that
    lives across this episode's waves (so the workload and op-point
    caches accumulate exactly as inline's single installation does),
    pre-seeded from the installation-wide op store."""
    installation = SharedInstallation.standard()
    seed = payload.get("op_seed")
    if seed:
        installation.op_cache.preload(seed)
    lease = payload.get("budget")
    if lease is not None:
        installation.retry_budget = RetryBudget(
            capacity=lease["capacity"],
            deposit=lease["deposit"],
            tokens=lease["tokens"],
        )
    return {
        "installation": installation,
        # what the seed already held: the close-time export ships only
        # the points this worker solved, not the seed it was handed back
        # (minus seed entries this worker cold-upgrades — see close)
        "preloaded": installation.op_cache.key_set(),
        "dedup": payload["dedup"],
        "wall_parallel": payload["wall_parallel"],
        "leased": lease is not None,
        "live": 0,
        "replayed": 0,
        "wall_s": 0.0,
    }


def _serve_wave(shard_id: int, episode: Optional[dict], payload: dict) -> dict:
    """Serve one wave of sessions on the episode installation, inline,
    with the parent's pre-charged queue waits, and return the wire
    report (plus per-step virtual-time trails when the parent's
    admission simulation asked for them)."""
    if episode is None:
        raise ShardProtocolError(
            f"shard {shard_id}: shard-serve before shard-open"
        )
    specs = [spec_from_wire(w) for w in payload["specs"]]
    trails: Optional[Dict[int, List[float]]] = (
        {} if payload.get("trails") else None
    )
    report = serve_sessions(
        specs,
        installation=episode["installation"],
        mode="inline",
        dedup=episode["dedup"],
        wall_parallel=episode["wall_parallel"],
        admission=None,
        waits=payload.get("waits"),
        step_trails=trails,
    )
    episode["live"] += report.live
    episode["replayed"] += report.replayed
    episode["wall_s"] += report.wall_s
    return {
        "shard": shard_id,
        "seqs": payload["seqs"],
        "results": [result_to_wire(r) for r in report.results],
        "wall_s": report.wall_s,
        "trails": (
            [trails.get(i) for i in range(len(specs))]
            if trails is not None
            else None
        ),
    }


def _close_episode(shard_id: int, episode: Optional[dict]) -> dict:
    """Settle one episode: counters, op-cache stats, the settled budget
    lease, and the binary delta of operating points this worker solved
    (for the parent to merge into the installation-wide store)."""
    if episode is None:
        raise ShardProtocolError(
            f"shard {shard_id}: shard-close before shard-open"
        )
    inst = episode["installation"]
    oc = inst.op_cache
    return {
        "shard": shard_id,
        "live": episode["live"],
        "replayed": episode["replayed"],
        "wall_s": episode["wall_s"],
        "cache_hits": inst.cache.hits,
        "cache_misses": inst.cache.misses,
        "op_exact": oc.exact_hits,
        "op_near": oc.near_hits,
        "op_miss": oc.misses,
        "op_stats": oc.stats(),
        "budget": (
            inst.retry_budget.snapshot() if episode["leased"] else None
        ),
        # the delta: points this worker solved, plus seeded warm-derived
        # entries it cold-upgraded (those were rewritten bitwise-canonical
        # and must flow back or the merged store's tier is not monotone)
        "op_export": oc.export(
            exclude=episode["preloaded"] - oc.cold_upgraded()
        ),
    }


def _redirect_stderr(path: str) -> None:
    """Point the worker's fd 2 at its stderr spool file, so last words
    (uncaught tracebacks, allocator complaints) survive the process —
    the parent reads the tail into :class:`ShardCrashed` after a death.
    Best-effort: a worker that cannot spool still serves."""
    import sys

    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
        try:
            sys.stderr.flush()
        except (OSError, ValueError):
            pass
        os.dup2(fd, 2)
        os.close(fd)
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    except OSError:  # pragma: no cover - spool dir unwritable
        pass


def _shard_worker_main(
    conn,
    shard_id: int,
    ring_in_name: Optional[str] = None,
    ring_out_name: Optional[str] = None,
    shm_threshold: int = SHM_THRESHOLD,
    stderr_path: Optional[str] = None,
) -> None:
    """One shard worker: episodes of waves until the parent says exit.
    Importable at module level so ``spawn`` start methods (fresh
    interpreter, re-import by name) work as well as ``fork``."""
    if stderr_path:
        _redirect_stderr(stderr_path)
    ring_in = ShmRing.attach(ring_in_name) if ring_in_name else None
    ring_out = ShmRing.attach(ring_out_name) if ring_out_name else None
    me = f"shard-{shard_id}"
    episode: Optional[dict] = None
    try:
        while True:
            try:
                kind, payload = recv_frame(conn, ring=ring_in)
            except EOFError:
                break
            if kind == "shard-exit":
                break
            try:
                if kind == "shard-open":
                    episode = _open_episode(payload)
                elif kind == "shard-serve":
                    reply = _serve_wave(shard_id, episode, payload)
                    send_frame(conn, "shard-result", reply,
                               src=me, dst="parent", ring=ring_out,
                               threshold=shm_threshold)
                elif kind == "shard-close":
                    reply = _close_episode(shard_id, episode)
                    episode = None
                    send_frame(conn, "shard-closed", reply,
                               src=me, dst="parent", ring=ring_out,
                               threshold=shm_threshold)
                elif kind == "shard-sync":
                    # recovery resync marker: drop any open episode (a
                    # failed serve contributes nothing) and echo the
                    # token so the parent can tell this reply from any
                    # stale traffic queued ahead of it
                    dropped = episode is not None
                    episode = None
                    send_frame(
                        conn, "shard-synced",
                        {"shard": shard_id,
                         "token": (payload or {}).get("token"),
                         "dropped_episode": dropped},
                        src=me, dst="parent",
                    )
                else:
                    send_frame(
                        conn, "shard-error",
                        {"shard": shard_id,
                         "error": f"unexpected frame {kind!r}"},
                        src=me, dst="parent",
                    )
            except Exception:
                send_frame(
                    conn, "shard-error",
                    {"shard": shard_id, "error": traceback.format_exc()},
                    src=me, dst="parent",
                )
    finally:
        conn.close()
        for ring in (ring_in, ring_out):
            if ring is not None:
                ring.close()


def _default_start_method() -> str:
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


#: monotone tokens for recover()'s sync markers — uniqueness within the
#: parent process is all that's needed to tell an echo from stale traffic
_sync_tokens = itertools.count(1)


class ShardPool:
    """N shard worker processes behind framed pipes (and, with
    ``transport="shm"``, per-worker shared-memory payload rings).

    Workers are spawned once and reused across serve calls (a
    long-running server's pool).  The pool also owns the
    **installation-wide op-point store** (``op_store``): every serve
    call seeds worker episodes from it and merges their solved points
    back, so repeated serves through one pool compound the PR 6 cache
    wins across processes.  Use as a context manager, or :meth:`close`
    explicitly — close sends every worker an exit frame, joins it, and
    unlinks the shared-memory rings even if a worker already died.

    The pool is *supervised*: :meth:`recv` polls the worker sentinel
    while it waits, so a dead worker raises a typed
    :class:`~repro.serve.failover.ShardCrashed` (exit code + stderr
    tail + last frame kind) instead of blocking forever, and
    ``recv_timeout_s`` bounds the wait on a live-but-wedged worker with
    :class:`~repro.serve.failover.ShardTimeout`.  :meth:`respawn`
    replaces a dead worker in place — reap, unlink and rebuild its shm
    rings, fresh pipe and process — which is what lets
    ``serve_sessions_sharded`` redo the lost episode instead of losing
    the serve.  ``kill_plan`` arms seeded
    :class:`~repro.faults.plan.KillShardWorker` chaos events (SIGKILL
    delivered immediately before the matching protocol frame is sent).
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        transport: str = "auto",
        ring_bytes: int = DEFAULT_RING_BYTES,
        shm_threshold: int = SHM_THRESHOLD,
        op_store: Optional[OpPointCache] = None,
        recv_timeout_s: Optional[float] = None,
        kill_plan: Optional[FaultPlan] = None,
    ):
        import multiprocessing

        if workers < 1:
            raise ValueError(f"ShardPool needs >= 1 worker, got {workers!r}")
        self.workers = workers
        self.start_method = start_method or _default_start_method()
        self.transport = resolve_transport(transport)
        self.shm_threshold = shm_threshold
        self.op_store = op_store if op_store is not None else OpPointCache()
        self.recv_timeout_s = recv_timeout_s
        self._ring_bytes = ring_bytes
        self._ctx = multiprocessing.get_context(self.start_method)
        self._kills: Optional[KillSchedule] = None
        #: the failure that left the worker protocol unresyncable
        #: (None while the pool is usable); chained into the error
        #: every later send/recv raises
        self._broken: Optional[Exception] = None
        self._procs = []
        self._conns = []
        #: parent->worker payload rings (parent writes), worker->parent
        #: rings (parent reads); None per worker under pipe transport
        self._rings_out: List[Optional[ShmRing]] = []
        self._rings_in: List[Optional[ShmRing]] = []
        #: per-worker stderr spool files (a corpse's last words) and the
        #: last frame kind seen on each worker's stream
        self._stderr_paths: List[str] = []
        self._last_kind: List[Optional[str]] = []
        if kill_plan is not None:
            self.arm_kills(kill_plan)
        try:
            for i in range(workers):
                self._spawn_worker(i)
        except Exception:
            self._closed = False
            self.close()
            raise
        self._closed = False

    def _spawn_worker(self, i: int, replace: bool = False) -> None:
        """Create worker ``i``'s rings, pipe, stderr spool, and process.
        With ``replace=True`` the slot's previous (dead, already-reaped)
        worker's entries are overwritten in place."""
        if self.transport == "shm":
            ring_out = ShmRing.create(self._ring_bytes)
            ring_in = ShmRing.create(self._ring_bytes)
        else:
            ring_out = ring_in = None
        if replace:
            stderr_path = self._stderr_paths[i]
        else:
            fd, stderr_path = tempfile.mkstemp(
                prefix=f"shard-{i}-stderr-", suffix=".log"
            )
            os.close(fd)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                i,
                ring_out.name if ring_out is not None else None,
                ring_in.name if ring_in is not None else None,
                self.shm_threshold,
                stderr_path,
            ),
            name=f"serve-shard-{i}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if replace:
            self._procs[i] = proc
            self._conns[i] = parent_conn
            self._rings_out[i] = ring_out
            self._rings_in[i] = ring_in
            self._last_kind[i] = None
        else:
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._rings_out.append(ring_out)
            self._rings_in.append(ring_in)
            self._stderr_paths.append(stderr_path)
            self._last_kind.append(None)

    def arm_kills(self, plan: Optional[FaultPlan]) -> None:
        """Arm (or with ``None``, disarm) a seeded worker-kill schedule;
        :meth:`send` consults it before every episode-protocol frame."""
        self._kills = KillSchedule(plan.events) if plan is not None else None

    def _crashed(self, shard: int) -> ShardCrashed:
        """The typed autopsy of a dead worker: reap it, then package its
        exit code, stderr tail, and the last frame kind seen."""
        proc = self._procs[shard]
        proc.join(timeout=5)
        return ShardCrashed(
            shard,
            exitcode=proc.exitcode,
            last_kind=self._last_kind[shard],
            stderr_tail=read_stderr_tail(self._stderr_paths[shard]),
        )

    def _execute_kill(self, shard: int) -> None:
        """Deliver a scheduled SIGKILL and wait for the corpse, so the
        frame about to be sent provably never reaches the worker."""
        proc = self._procs[shard]
        if proc.is_alive() and proc.pid:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
        proc.join(timeout=10)

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        if self._broken is not None:
            raise RuntimeError(
                "ShardPool is broken: a prior serve failed mid-protocol and "
                "its workers could not be resynced — create a new pool"
            ) from self._broken

    def send(self, shard: int, kind: str, payload) -> None:
        """Frame one control message to a worker (large payloads ride
        the shard's shared-memory ring under shm transport).

        Consults the armed kill schedule first — a matching chaos event
        SIGKILLs the worker *before* the frame goes out, so the frame
        deterministically never arrives.  A send to a dead worker (the
        pipe's read end is gone) raises the typed
        :class:`~repro.serve.failover.ShardCrashed` instead of a bare
        ``BrokenPipeError``."""
        self._check_usable()
        if self._kills is not None and self._kills.take(shard, kind) is not None:
            self._execute_kill(shard)
        try:
            send_frame(
                self._conns[shard], kind, payload,
                src="parent", dst=f"shard-{shard}",
                ring=self._rings_out[shard],
                threshold=self.shm_threshold,
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise self._crashed(shard) from None
        self._last_kind[shard] = kind

    #: sentinel poll cadence while waiting on a worker frame
    _POLL_S = 0.05

    def recv(
        self,
        shard: int,
        expect: str,
        timeout_s: Optional[float] = None,
    ) -> Optional[dict]:
        """Collect one reply from a worker, re-raising worker-side
        failures with their tracebacks.

        Supervised: while waiting, the worker's sentinel is polled so a
        death raises :class:`~repro.serve.failover.ShardCrashed` (exit
        code, stderr tail, last frame kind) promptly instead of
        blocking forever.  ``timeout_s`` (default: the pool's
        ``recv_timeout_s``; ``None`` = unbounded) caps the wait on a
        live worker, raising
        :class:`~repro.serve.failover.ShardTimeout`."""
        self._check_usable()
        timeout = self.recv_timeout_s if timeout_s is None else timeout_s
        conn, proc = self._conns[shard], self._procs[shard]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.poll(0):
            # no frame yet: check the sentinel, then nap-poll.  A dead
            # worker may still have flushed frames in the pipe — those
            # drain first; only a dead worker with an empty pipe is a
            # crash at this recv.
            if not proc.is_alive() and not conn.poll(0):
                raise self._crashed(shard)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardTimeout(
                        shard, timeout, last_kind=self._last_kind[shard]
                    )
                if conn.poll(min(self._POLL_S, remaining)):
                    break
            elif conn.poll(self._POLL_S):
                break
        try:
            kind, reply = recv_frame(conn, ring=self._rings_in[shard])
        except (EOFError, OSError):
            # a worker SIGKILLed with unread bytes in its pipe makes the
            # kernel reset the connection: ConnectionResetError, not EOF
            raise self._crashed(shard) from None
        self._last_kind[shard] = kind
        if kind == "shard-error":
            raise RuntimeError(
                f"shard {shard} failed:\n{reply['error'] if reply else '?'}"
            )
        if kind != expect:
            raise ShardProtocolError(
                f"shard {shard}: expected {expect}, got {kind}"
            )
        return reply

    def respawn(self, shard: int) -> None:
        """Replace worker ``shard`` in place after a death (or to
        recycle a wedged worker, which is terminated first).

        Reaps the corpse, closes its pipe, **unlinks and rebuilds its
        shared-memory rings** (a dead worker may have left unconsumed
        frames and a desynced cursor on them — the replacement starts
        from offset 0 on fresh segments), truncates its stderr spool,
        and starts a fresh process with the same shard id.  The caller
        owns re-opening the episode and redoing lost work
        (``serve_sessions_sharded`` replays the dead episode's frames
        verbatim)."""
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        proc = self._procs[shard]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join(timeout=5)
        else:
            proc.join(timeout=5)
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass
        for rings in (self._rings_out, self._rings_in):
            if rings[shard] is not None:
                rings[shard].close()  # owner: unlinks the dead segment
                rings[shard] = None
        try:
            open(self._stderr_paths[shard], "w").close()
        except OSError:  # pragma: no cover - spool vanished
            pass
        self._spawn_worker(shard, replace=True)

    def recover(self, shards: Sequence[int], settle_timeout_s: float = 10.0) -> None:
        """Resync the worker protocol after a serve failed mid-stream.

        A caller-supplied pool outlives the serve call that broke: its
        workers may hold an open episode and unconsumed frames (queued
        waves, an unread reply, ``+shm`` ring references) in pipes and
        rings, and reusing the pool as-is would misattribute replies.
        This sends each named worker a ``shard-sync`` marker carrying a
        fresh token; the worker drops any open episode (a failed serve
        contributes nothing to the pool store) and echoes the token, so
        the parent can drain *everything* queued ahead of the echo —
        stale results, a close reply already in flight, ring-borne
        payloads (consumed in publication order, resyncing the ring
        cursors) — and stop exactly at its own marker.  The token is
        what makes recovery race-free against an episode close already
        in the stream, and what makes ``recover()`` idempotent: a
        second call just performs a second clean sync.  If any worker
        cannot be settled (died, wedged past ``settle_timeout_s``), the
        pool is marked broken and every later
        :meth:`send`/:meth:`recv` raises clearly, rather than
        desyncing silently."""
        if self._closed or self._broken is not None:
            return
        try:
            tokens: Dict[int, int] = {}
            for w in shards:
                tokens[w] = next(_sync_tokens)
                send_frame(
                    self._conns[w], "shard-sync", {"token": tokens[w]},
                    src="parent", dst=f"shard-{w}",
                    ring=self._rings_out[w], threshold=self.shm_threshold,
                )
            for w in shards:
                while True:
                    if not self._conns[w].poll(settle_timeout_s):
                        raise ShardProtocolError(
                            f"shard {w} did not settle within "
                            f"{settle_timeout_s:g}s during recovery"
                        )
                    try:
                        kind, reply = recv_frame(
                            self._conns[w], ring=self._rings_in[w]
                        )
                    except (EOFError, OSError):
                        raise self._crashed(w) from None
                    if kind == "shard-synced" and (
                        (reply or {}).get("token") == tokens[w]
                    ):
                        break
                    # anything else is stale in-flight traffic: discard
        except Exception as exc:
            self._broken = exc

    def close(self) -> None:
        """Shut the pool down, releasing every OS resource it owns.

        Robust against abnormal worker exits: a terminated or SIGKILLed
        worker's pipe raises on the exit frame (swallowed), its corpse
        is reaped (escalating terminate -> kill for the truly wedged),
        and the shared-memory rings are unlinked *unconditionally* —
        per step, under its own guard, so one worker's failure cannot
        leak another's segments.  Stderr spools are removed last.
        Pooled ``WIRE_BUFFERS`` never outlive a frame call
        (``send_frame`` releases on every exit path), so no buffer
        bookkeeping is owed here."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        for conn in self._conns:
            try:
                send_frame(conn, "shard-exit", None, src="parent", dst="shard")
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            try:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hung-worker backstop
                    proc.terminate()
                    proc.join(timeout=5)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(timeout=5)
            except Exception:  # pragma: no cover - reap must not block teardown
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        # unlink the rings last — workers have exited (or been killed),
        # so the owner's unlink cannot strand a reader; each ring under
        # its own guard so one failure cannot leak the rest
        for ring in itertools.chain(self._rings_out, self._rings_in):
            if ring is not None:
                try:
                    ring.close()
                except Exception:  # pragma: no cover - defensive
                    pass
        for path in getattr(self, "_stderr_paths", []):
            try:
                os.unlink(path)
            except OSError:
                pass

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# the parent-side serve entrypoint
# --------------------------------------------------------------------------

def serve_sessions_sharded(
    specs: Sequence[SessionSpec],
    workers: int = 2,
    dedup: bool = True,
    wall_parallel: bool = False,
    admission: Optional[AdmissionPolicy] = None,
    installation: Optional[SharedInstallation] = None,
    start_method: Optional[str] = None,
    pool: Optional[ShardPool] = None,
    transport: str = "auto",
    op_store: Optional[OpPointCache] = None,
    recv_timeout_s: Optional[float] = None,
    kill_plan: Optional[FaultPlan] = None,
) -> ServeReport:
    """Serve ``specs`` across ``workers`` OS processes and merge the
    per-shard reports into one :class:`ServeReport`.

    ``workers=0`` is the inline baseline: the whole batch on this
    interpreter, byte-identical results — the contrast arm of the
    differential tests.  ``pool`` reuses an existing :class:`ShardPool`
    (a long-running server amortizing worker startup *and* compounding
    its op-point store across calls); otherwise a pool is spawned for
    the call — with ``transport`` (``"pipe"``, ``"shm"``, or ``"auto"``)
    and, optionally, a caller-held ``op_store`` — and torn down after.

    **Self-healing**: a worker that dies mid-serve (typed
    :class:`~repro.serve.failover.ShardCrashed` from the supervised
    pool) is replaced in place — respawned worker, rebuilt shm rings —
    and its episode is *redone deterministically*: re-opened from the
    identical open payload (same op-point seed, the forfeited
    retry-budget lease re-issued) and every wave it had served replayed
    verbatim.  Sessions are pure functions of their specs and op-cache
    exact hits are bitwise-equal to cold solves, so a serve surviving N
    kills returns per-session digests bitwise-identical to an
    uninterrupted run; the disruption is accounted in the per-shard
    rows (``crashes``, ``redone_sessions``, ``recovery_wall_s``,
    ``forfeited_leases``/``forfeited_tokens``), and the redo wall is
    charged to the report like any other work.  ``recv_timeout_s``
    bounds every worker wait (a live-but-wedged worker past it is
    recycled and redone the same way); ``kill_plan`` arms seeded
    :class:`~repro.faults.plan.KillShardWorker` chaos events on the
    pool for the run.

    A live ``installation`` cannot be shipped to workers — each shard
    builds its own replica — so passing one raises
    :class:`NotShardSafe`.
    """
    if installation is not None:
        raise NotShardSafe(
            "a live SharedInstallation (locks, machine park, thread state) "
            "cannot cross a process boundary; shard workers each build their "
            "own replica — pass installation=None for sharded serving"
        )
    if workers <= 0:
        return serve_sessions(
            specs, mode="inline", dedup=dedup,
            wall_parallel=wall_parallel, admission=admission,
        )
    t0 = time.perf_counter()
    admission = admission or AdmissionPolicy()

    # static admission tier, judged by the parent over the *global*
    # ranked list — exactly the inline scheduler's slicing, so the shed
    # set and the reasons match inline mode bitwise
    contexts = [SessionContext(spec, None, seq=i) for i, spec in enumerate(specs)]
    ranked = sorted(contexts, key=lambda c: (-c.spec.priority, c.seq))
    max_live = (
        max(1, admission.max_live) if admission.max_live is not None else len(ranked)
    )
    max_parked = (
        admission.effective_max_parked
        if admission.max_parked is not None
        else len(ranked)
    )
    parked: List[SessionContext] = list(ranked[max_live : max_live + max_parked])
    n_parked = len(parked)
    for ctx in ranked[max_live + max_parked :]:
        ctx.shed(
            f"queue full ({max_live} live + {max_parked} parked slots, "
            f"priority {ctx.spec.priority})"
        )
    admitted = sorted(ranked[:max_live], key=lambda c: c.seq)

    # wire-validate every session that may cross (fault plans are
    # refused before any worker spawns), and place by family over the
    # live *and* parked tiers together — a parked session must land on
    # the shard already holding its family's leaders and op lines
    union = sorted(admitted + parked, key=lambda c: c.seq)
    wires = {c.seq: spec_to_wire(c.spec) for c in union}
    buckets = assign_shards([(c.seq, c.spec) for c in union], workers)
    shard_of = {seq: w for w, bucket in enumerate(buckets) for seq, _ in bucket}
    active = [w for w in range(workers) if buckets[w]]

    # parent-arbitrated retry-budget lease, only when someone will draw
    # on it (a resilient session); settled back into `parent_budget`
    parent_budget: Optional[RetryBudget] = None
    leases: List[Optional[dict]] = [None] * workers
    if any(spec.resilient for spec in specs):
        parent_budget = RetryBudget()
        for w, lease in zip(active, parent_budget.lease(max(1, len(active)))):
            leases[w] = {
                "capacity": lease.capacity,
                "deposit": lease.deposit,
                "tokens": lease.tokens,
            }

    own_pool = pool is None
    if own_pool:
        pool = ShardPool(
            workers, start_method=start_method,
            transport=transport, op_store=op_store,
            recv_timeout_s=recv_timeout_s,
        )
    if kill_plan is not None:
        pool.arm_kills(kill_plan)
    try:
        # open one episode per busy shard, seeding each worker's
        # op-point cache from the installation-wide store.  The parent
        # cannot compute full cache families (the engine-deck digest is
        # resolved only at session setup), so every worker receives the
        # whole store — preload is idempotent and first-write-wins.
        seed_blob: Optional[bytes] = None
        if len(pool.op_store) and any(c.spec.op_cache for c in union):
            seed_blob = pool.op_store.export()

        wire_results: Dict[int, SessionResult] = {}
        trails: Dict[int, List[float]] = {}
        waits_charged: Dict[int, float] = {}
        need_trails = bool(parked)

        # ---- failover bookkeeping: everything needed to redo a dead
        # shard's episode verbatim, and the honest account of doing so
        open_payloads: Dict[int, dict] = {}
        history: Dict[int, List[dict]] = {w: [] for w in active}
        pending_wave: Dict[int, dict] = {}
        crash_rows: Dict[int, dict] = {
            w: {"crashes": 0, "redone_sessions": 0, "recovery_wall_s": 0.0,
                "forfeited_leases": 0, "forfeited_tokens": 0.0,
                "crash_exitcodes": []}
            for w in range(workers)
        }
        # a runaway backstop, not a budget: every armed kill is allowed
        # to fire, plus headroom for genuine deaths — past it, the
        # serve stops healing and raises the last crash
        armed = pool._kills
        recovery_cap = 4 + (len(armed.fired) + len(armed) if armed else 0)
        total_crashes = 0

        def absorb_wave(reply: dict) -> None:
            wave_trails = reply.get("trails")
            for i, seq in enumerate(reply["seqs"]):
                wire_results[seq] = result_from_wire(reply["results"][i])
                if wave_trails is not None and wave_trails[i] is not None:
                    trails[seq] = wave_trails[i]

        def note_crash(w: int, exc: BaseException) -> None:
            nonlocal total_crashes
            total_crashes += 1
            row = crash_rows[w]
            row["crashes"] += 1
            row["crash_exitcodes"].append(
                exc.exitcode if isinstance(exc, ShardCrashed) else None
            )
            if leases[w] is not None:
                # the dead episode's lease is settled as forfeited: its
                # tokens died with the worker.  The replacement episode
                # is re-issued the identical grant (no second withdrawal
                # from the parent bucket — the tokens were withdrawn
                # once, at lease time), so the settled budget matches an
                # uninterrupted run while the forfeit stays visible.
                row["forfeited_leases"] += 1
                row["forfeited_tokens"] += leases[w]["tokens"]

        def rebuild(w: int, exc: BaseException) -> None:
            """Deterministic failover for shard ``w``: respawn a
            replacement worker (fresh shm rings), re-open the episode
            from the identical open payload (same op-point seed,
            re-issued lease) so redone sessions warm-start, replay
            every wave the dead episode had served — sessions are pure
            functions of their specs, so the redone results are bitwise
            the lost ones — and re-send any wave still in flight."""
            note_crash(w, exc)
            while True:
                if total_crashes > recovery_cap:
                    raise exc
                t_rec = time.perf_counter()
                try:
                    pool.respawn(w)
                    pool.send(w, "shard-open", open_payloads[w])
                    redone = 0
                    for wave in history[w]:
                        pool.send(w, "shard-serve", wave)
                        absorb_wave(
                            pool.recv(w, "shard-result", timeout_s=recv_timeout_s)
                        )
                        redone += len(wave["seqs"])
                    if w in pending_wave:
                        pool.send(w, "shard-serve", pending_wave[w])
                    crash_rows[w]["redone_sessions"] += redone
                    crash_rows[w]["recovery_wall_s"] += (
                        time.perf_counter() - t_rec
                    )
                    return
                except (ShardCrashed, ShardTimeout) as exc2:
                    crash_rows[w]["recovery_wall_s"] += (
                        time.perf_counter() - t_rec
                    )
                    note_crash(w, exc2)
                    exc = exc2

        for w in active:
            open_payloads[w] = {
                "shard": w,
                "dedup": dedup,
                "wall_parallel": wall_parallel,
                "budget": leases[w],
                "op_seed": seed_blob,
            }
            try:
                pool.send(w, "shard-open", open_payloads[w])
            except (ShardCrashed, ShardTimeout) as exc:
                rebuild(w, exc)

        def dispatch(batch: List[SessionContext]) -> None:
            """One wave: the batch grouped per shard, sent, collected —
            crashed shards are rebuilt and their episodes redone before
            the wave is considered delivered."""
            per: Dict[int, List[SessionContext]] = {}
            for c in batch:
                per.setdefault(shard_of[c.seq], []).append(c)
            for w in sorted(per):
                group = sorted(per[w], key=lambda c: c.seq)
                payload = {
                    "seqs": [c.seq for c in group],
                    "specs": [wires[c.seq] for c in group],
                    "waits": [waits_charged.get(c.seq, 0.0) for c in group],
                    "trails": need_trails,
                }
                pending_wave[w] = payload
                try:
                    pool.send(w, "shard-serve", payload)
                except (ShardCrashed, ShardTimeout) as exc:
                    rebuild(w, exc)  # replays history + re-sends this wave
            for w in sorted(per):
                while True:
                    try:
                        reply = pool.recv(
                            w, "shard-result", timeout_s=recv_timeout_s
                        )
                        break
                    except (ShardCrashed, ShardTimeout) as exc:
                        rebuild(w, exc)
                history[w].append(pending_wave.pop(w))
                absorb_wave(reply)

        # ---- replicate the inline scheduler's admitted-tier split ----
        leaders: Dict[str, SessionContext] = {}
        followers: Dict[str, List[SessionContext]] = {}
        op_chains: Dict[str, List[SessionContext]] = {}
        runnable: List[SessionContext] = []
        for c in admitted:
            if dedup and c.spec.cacheable:
                if c.key in leaders:
                    followers.setdefault(c.key, []).append(c)
                    continue
                leaders[c.key] = c
            fam = c.op_chain_key
            if fam is not None:
                chain = op_chains.setdefault(fam, [])
                chain.append(c)
                if len(chain) > 1:
                    continue
            runnable.append(c)

        # wave 1: the whole live tier at wait 0 — each worker's inline
        # serve reproduces the in-wave leader/follower and op-chain
        # behaviour exactly (families never split across shards)
        dispatch(admitted)

        if parked:
            # ---- exact admission chronology (see the module doc) ----
            # The wave-1 results are already in hand; what the heap
            # below reconstructs (from each session's per-step virtual-
            # time trail) is inline's *event order* — when each live
            # slot frees — so parked sessions are admitted, charged, and
            # expiry-shed at exactly the instants inline would pick.
            done_seqs: set = set()
            record_keys: set = set()
            pending_replays: List[SessionContext] = []
            ticket = itertools.count()
            heap: List[Tuple[float, int, SessionContext]] = []
            pos: Dict[int, int] = {}

            def push(c: SessionContext) -> None:
                # entering sessions have never stepped: fairness key 0.0,
                # ties broken by push order — inline's exact tuple
                heapq.heappush(heap, (0.0, next(ticket), c))

            def sim_release_chain(c: SessionContext) -> Optional[SessionContext]:
                fam = c.op_chain_key
                if fam is None:
                    return None
                chain = op_chains.get(fam)
                if not chain:
                    return None
                if c in chain:
                    chain.remove(c)
                if not chain:
                    op_chains.pop(fam, None)
                    return None
                return chain[0]

            def sim_on_done(c: SessionContext) -> List[SessionContext]:
                """Mirror of inline's ``on_done``: what this completion
                unblocks.  Admitted-tier followers were already resolved
                by their shard's first wave (a replay consumed no slot;
                a live rerun did, and enters the heap here); parked-tier
                followers either replay with their charged wait (batched
                into the next dispatch — replay content is timing-
                independent) or must now run live."""
                done_seqs.add(c.seq)
                res = wire_results[c.seq]
                if dedup and c.spec.cacheable and res.status == "completed":
                    record_keys.add(c.key)
                out: List[SessionContext] = []
                for f in followers.pop(c.key, []):
                    if f.seq in wire_results:
                        if not wire_results[f.seq].replayed:
                            leaders[f.key] = f
                            out.append(f)
                    elif c.key in record_keys:
                        pending_replays.append(f)
                    else:
                        leaders[f.key] = f
                        out.append(f)
                nxt = sim_release_chain(c)
                if nxt is not None:
                    out.append(nxt)
                return out

            def sim_admit(fair_now: float) -> Optional[SessionContext]:
                """Mirror of inline's ``admit_next``, including the
                parked-deadline expiry sweep: shed at the exact instant,
                with the identical reason string, that inline would."""
                while parked:
                    c = parked.pop(0)
                    c.wait_s = max(c.wait_s, fair_now)
                    waits_charged[c.seq] = c.wait_s
                    if (
                        c.spec.deadline_s is not None
                        and c.wait_s >= c.spec.deadline_s
                    ):
                        c.shed(
                            f"deadline ({c.spec.deadline_s:g}s) expired while "
                            f"parked: first live slot freed at "
                            f"t={c.wait_s:.3f}s",
                            deadline_met=False,
                        )
                        continue
                    if dedup and c.spec.cacheable:
                        if c.key in record_keys:
                            pending_replays.append(c)
                            continue
                        leader = leaders.get(c.key)
                        if leader is not None and leader.seq not in done_seqs:
                            followers.setdefault(c.key, []).append(c)
                            continue
                        leaders[c.key] = c
                    fam = c.op_chain_key
                    if fam is not None:
                        chain = op_chains.get(fam)
                        if chain:
                            chain.append(c)
                            continue
                        op_chains[fam] = [c]
                    return c
                return None

            def run_batch(batch: List[SessionContext]) -> None:
                """Ship the not-yet-served members of a batch (plus any
                accumulated instant replays) to their shards before they
                enter the chronology heap."""
                fresh = [x for x in batch if x.seq not in wire_results]
                if fresh or pending_replays:
                    dispatch(fresh + pending_replays)
                    pending_replays.clear()

            for c in runnable:
                push(c)
            while heap:
                _, _, c = heapq.heappop(heap)
                i = pos.get(c.seq, 0)
                pos[c.seq] = i + 1
                trail = trails.get(c.seq) or []
                if i + 1 < len(trail):
                    heapq.heappush(heap, (trail[i], next(ticket), c))
                    continue
                # completion: one freed slot, inline's push order —
                # unblocked sessions first, then the admitted one
                to_run = sim_on_done(c)
                adm = sim_admit(
                    waits_charged.get(c.seq, 0.0) + wire_results[c.seq].virtual_s
                )
                if adm is not None:
                    to_run.append(adm)
                run_batch(to_run)
                for x in to_run:
                    push(x)

            # straggler parity loop: parked sessions left over because
            # every live session replayed — admit at the advancing batch
            # frontier, exactly as inline does
            frontier = 0.0
            while parked:
                nxt = sim_admit(frontier)
                if nxt is None:
                    break
                work = [nxt]
                while work:
                    c = work.pop(0)
                    run_batch([c])
                    frontier = max(
                        frontier,
                        waits_charged.get(c.seq, 0.0)
                        + wire_results[c.seq].virtual_s,
                    )
                    work.extend(sim_on_done(c))

            if pending_replays:
                dispatch(list(pending_replays))
                pending_replays.clear()

        # ---- settle the episodes ----
        # per shard: send close, collect the settle.  A worker that dies
        # at (or before) its close loses the episode's counters and
        # op-point delta with it, so the rebuild replays the whole
        # episode and closes the replacement — the settle is then
        # bitwise the one the dead worker would have sent.
        closes: Dict[int, dict] = {}
        for w in active:
            while True:
                try:
                    pool.send(w, "shard-close", None)
                    closes[w] = pool.recv(
                        w, "shard-closed", timeout_s=recv_timeout_s
                    )
                    break
                except (ShardCrashed, ShardTimeout) as exc:
                    rebuild(w, exc)
    except BaseException:
        # a caller-supplied pool outlives this failed serve: resync its
        # protocol stream (or mark it broken) before re-raising, so the
        # caller's next serve cannot misattribute stale replies
        if not own_pool:
            pool.recover(active)
        raise
    finally:
        if own_pool:
            pool.close()

    # merge: results back into global admission order, counters summed,
    # solved op points folded into the installation-wide store,
    # per-shard rows for the summary()'s imbalance breakdown
    results: List[Optional[SessionResult]] = [
        (c.result() if c.done else None) for c in contexts
    ]
    for seq, res in wire_results.items():
        results[seq] = res

    totals = {k: 0 for k in (
        "cache_hits", "cache_misses", "op_exact", "op_near", "op_miss",
    )}
    shard_rows: List[dict] = []

    def crash_fields(w: int) -> dict:
        extra = crash_rows[w]
        fields = {
            "crashes": extra["crashes"],
            "redone_sessions": extra["redone_sessions"],
            "recovery_wall_s": round(extra["recovery_wall_s"], 6),
            "forfeited_leases": extra["forfeited_leases"],
            "forfeited_tokens": round(extra["forfeited_tokens"], 6),
        }
        if extra["crash_exitcodes"]:
            fields["crash_exitcodes"] = list(extra["crash_exitcodes"])
        return fields

    for w in range(workers):
        reply = closes.get(w)
        if reply is None:
            shard_rows.append({
                "shard": w, "sessions": 0, "live": 0, "replayed": 0,
                "shed": 0, "points": 0, "op_exact": 0, "op_near": 0,
                "op_miss": 0, "wall_s": 0.0, **crash_fields(w),
            })
            continue
        for k in totals:
            totals[k] += reply[k]
        seqs_w = [seq for seq, ws in shard_of.items() if ws == w]
        row = {
            "shard": w,
            "sessions": sum(1 for seq in seqs_w if seq in wire_results),
            "live": reply["live"],
            "replayed": reply["replayed"],
            "shed": sum(
                1 for seq in seqs_w
                if results[seq] is not None and results[seq].status == "shed"
            ),
            "points": sum(
                len(wire_results[seq].results)
                for seq in seqs_w if seq in wire_results
            ),
            "op_exact": reply["op_exact"],
            "op_near": reply["op_near"],
            "op_miss": reply["op_miss"],
            "op_cache": reply["op_stats"],
            "wall_s": round(reply["wall_s"], 6),
            **crash_fields(w),
        }
        if reply.get("budget") is not None:
            row["retry_budget"] = reply["budget"]
            if parent_budget is not None:
                parent_budget.absorb(reply["budget"])
        shard_rows.append(row)
        if reply.get("op_export"):
            pool.op_store.preload(reply["op_export"])

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - protocol invariant
        raise ShardProtocolError(f"no shard returned sessions {missing}")

    n_replayed = sum(1 for r in results if r.replayed)
    n_shed = sum(1 for r in results if r.status == "shed")
    return ServeReport(
        results=list(results),
        wall_s=time.perf_counter() - t0,
        mode="shard",
        workers=workers,
        live=len(results) - n_replayed - n_shed,
        replayed=n_replayed,
        cache_hits=totals["cache_hits"],
        cache_misses=totals["cache_misses"],
        parked=n_parked,
        op_exact=totals["op_exact"],
        op_near=totals["op_near"],
        op_miss=totals["op_miss"],
        shard_rows=shard_rows,
        retry_budget=parent_budget.snapshot() if parent_budget is not None else None,
    )

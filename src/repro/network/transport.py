"""Message transport over the simulated network.

"The communication library is linked with every procedure to handle the
sending and receiving of messages implicit in RPC." (paper, section 3.1)

The transport is synchronous-simulation style: sending computes the
message's virtual delivery time from the topology, advances the sender's
timeline past the send, and synchronizes the receiver's timeline to the
delivery instant.  Counters record traffic for the benchmark reports.
"""

from __future__ import annotations

import itertools
import struct
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple
from zlib import crc32

from ..machines.host import Machine
from ..uts.buffers import count_payload_copy
from .clock import Timeline, VirtualClock
from .topology import NetworkError, Topology

__all__ = ["Message", "Transport", "TrafficStats", "MessageDropped", "FaultFilter"]

# The Schooner message header, packed exactly once per message: call id,
# kind tag, payload size, source/destination host tags, and the caller's
# virtual-time deadline (+inf when none) — the deadline-propagation
# field servers use to refuse already-late work.  The struct is
# precompiled at module load; per-message work is one pack() call.
# (The modelled header charge stays ``header_bytes`` — 1993 Schooner
# headers carried procedure names and type tags this compact header
# elides.)
HEADER_STRUCT = struct.Struct(">IIQIId")

#: wire encoding of "no deadline" in the header's deadline field
NO_DEADLINE = float("inf")


class MessageDropped(NetworkError):
    """A message was lost in transit: destination host down, or a fault
    plan's packet-loss rule fired.  The sender only learns of the loss
    by timing out."""


#: hook signature: (src, dst, kind, total_bytes, now) -> (drop, extra_latency_s)
FaultFilter = Callable[[Machine, Machine, str, int, float], Tuple[bool, float]]


class Message:
    """One delivered message.

    ``nbytes`` is the *payload* size (the UTS-encoded arguments);
    ``header_nbytes`` is the fixed Schooner message header charged on top
    of it.  The wire occupancy is :attr:`total_nbytes`.

    ``body`` carries the payload.  On the zero-copy path it is a
    ``memoryview`` over the sender's pooled encode buffer, delivered
    through every store-and-forward hop as the *same* view object —
    receivers must treat it as read-only and must not retain it past the
    call (the buffer returns to the pool).  ``header`` is the packed
    wire header, built once per message with :data:`HEADER_STRUCT`.
    ``deadline_s`` is the caller's propagated virtual-time deadline
    (``None`` = no deadline; packed as +inf in the header) — the
    receiving side checks it against its own clock before doing work.

    A plain ``__slots__`` record: one is built per simulated message.
    """

    __slots__ = (
        "msg_id", "src", "dst", "kind", "body", "nbytes", "header_nbytes",
        "sent_at", "delivered_at", "header", "deadline_s",
    )

    def __init__(
        self,
        msg_id: int,
        src: str,
        dst: str,
        kind: str,
        body: Any,
        nbytes: int,
        header_nbytes: int,
        sent_at: float,
        delivered_at: float,
        header: bytes = b"",
        deadline_s: Optional[float] = None,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.body = body
        self.nbytes = nbytes
        self.header_nbytes = header_nbytes
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.header = header
        self.deadline_s = deadline_s

    def __repr__(self) -> str:
        return (
            f"Message(msg_id={self.msg_id}, {self.src} -> {self.dst}, "
            f"kind={self.kind!r}, nbytes={self.nbytes}, "
            f"sent_at={self.sent_at}, delivered_at={self.delivered_at})"
        )

    @property
    def total_nbytes(self) -> int:
        """Bytes actually put on the wire: payload plus header."""
        return self.nbytes + self.header_nbytes

    @property
    def transfer_seconds(self) -> float:
        return self.delivered_at - self.sent_at


# crc32 header tags, computed once per distinct string: message kinds
# are per procedure, host names per machine
@lru_cache(maxsize=4096)
def _kind_tag(kind: str) -> int:
    return crc32(kind.encode("ascii", "replace"))


@lru_cache(maxsize=4096)
def _host_tag(hostname: str) -> int:
    return crc32(hostname.encode())


@dataclass
class TrafficStats:
    """Aggregate counters, reported by the benchmark harness.

    ``bytes`` counts payload only; ``header_bytes`` counts the framing
    overhead, so reports can show both and :attr:`total_bytes` matches
    what the topology charged transfer time for.
    """

    messages: int = 0
    bytes: int = 0
    header_bytes: int = 0
    virtual_seconds: float = 0.0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes + self.header_bytes

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.nbytes
        self.header_bytes += msg.header_nbytes
        self.virtual_seconds += msg.transfer_seconds
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1


@dataclass
class Transport:
    """The message-passing layer shared by all Schooner processes.

    With ``contention`` enabled, concurrent senders share each route's
    serialization capacity: a message finds its trunk busy until the
    previous message's bits have drained, so overlapping lines queue
    behind each other — the behaviour a shared 1993 WAN trunk actually
    had.  Off by default (the paper's experiments were run one at a
    time); the contention ablation turns it on.
    """

    topology: Topology
    clock: VirtualClock
    stats: TrafficStats = field(default_factory=TrafficStats)
    contention: bool = False
    # legacy store-and-forward behaviour kept for comparison: each hop
    # re-materializes the payload as ``bytes`` (and reports it to the
    # payload-copy counter).  Off = zero-copy: the sender's memoryview
    # is delivered through every hop unchanged.
    copy_per_hop: bool = False
    # fault-injection hook (see repro.faults): consulted per message for
    # seeded packet loss and latency spikes.  None = perfect network.
    fault_filter: Optional[FaultFilter] = None
    dropped: int = 0
    _ids: "itertools.count" = field(default_factory=itertools.count)
    # per-trunk busy-until times; a trunk is the (site, site) pair so all
    # machines at two sites share the same WAN capacity
    _trunk_free: Dict[Any, float] = field(default_factory=dict)
    # overlapped batches may send from LinePool worker threads; the
    # shared counters need a lock to stay exact (contention bookkeeping
    # is order-sensitive and instead disables the pool entirely)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __reduce__(self):
        # pickling a live transport (locks, per-trunk busy times, shared
        # counters) would ship interpreter state across a process
        # boundary; fail with the typed shard error, not a pickle trace
        from ..serve.shards import NotShardSafe

        raise NotShardSafe(
            "live Transport (locks, trunk-occupancy state, traffic "
            "counters) cannot cross a process boundary; shard workers "
            "build their own installation replica — ship SessionSpec "
            "wire frames instead (see repro.serve.shards)"
        )

    def _trunk_key(self, src: Machine, dst: Machine):
        if src.site == dst.site:
            # LAN/campus segments keyed per subnet pair
            return (src.site, frozenset((src.subnet, dst.subnet)))
        return frozenset((src.site, dst.site))

    def send(
        self,
        src: Machine,
        dst: Machine,
        kind: str,
        body: Any,
        nbytes: int,
        timeline: Optional[Timeline] = None,
        header_bytes: int = 64,
        deadline_s: Optional[float] = None,
    ) -> Message:
        """Deliver a message, charging virtual time to ``timeline``.

        ``nbytes`` is the payload size (UTS-encoded arguments); a fixed
        ``header_bytes`` models the Schooner message header (procedure
        name, call id, type tags).  ``deadline_s`` rides in the packed
        header so the receiver can refuse already-late work.
        """
        total = nbytes + header_bytes
        link = self.topology.classify(src, dst)
        dt = link.transfer_seconds(total)
        now = timeline.now if timeline is not None else self.clock.now
        if not dst.up:
            with self._lock:
                self.dropped += 1
            raise MessageDropped(
                f"{kind}: host {dst.hostname} is down; message lost"
            )
        if self.fault_filter is not None:
            drop, extra_s = self.fault_filter(src, dst, kind, total, now)
            if drop:
                with self._lock:
                    self.dropped += 1
                raise MessageDropped(
                    f"{kind}: message {src.hostname} -> {dst.hostname} lost in transit"
                )
            dt += extra_s
        queue_wait = 0.0
        if self.contention:
            serialization = total / link.bandwidth_Bps
            key = self._trunk_key(src, dst)
            free_at = self._trunk_free.get(key, 0.0)
            queue_wait = max(0.0, free_at - now)
            self._trunk_free[key] = now + queue_wait + serialization
        if timeline is None:
            sent_at = self.clock.now
            delivered_at = self.clock.advance(queue_wait + dt)
        else:
            sent_at = timeline.now
            delivered_at = timeline.advance(queue_wait + dt)
        if body is not None and self.copy_per_hop:
            # the pre-zero-copy store-and-forward: every hop (gateway)
            # re-materialized the payload before forwarding it
            for _ in range(max(1, link.hops)):
                body = bytes(body)
                count_payload_copy()
        msg_id = next(self._ids)
        header = HEADER_STRUCT.pack(
            msg_id & 0xFFFFFFFF,
            _kind_tag(kind),
            nbytes,
            _host_tag(src.hostname),
            _host_tag(dst.hostname),
            NO_DEADLINE if deadline_s is None else deadline_s,
        )
        msg = Message(
            msg_id, src.hostname, dst.hostname, kind, body, nbytes, header_bytes,
            sent_at, delivered_at, header, deadline_s,
        )
        with self._lock:
            self.stats.record(msg)
        return msg

    def round_trip(
        self,
        src: Machine,
        dst: Machine,
        kind: str,
        request_body: Any,
        request_bytes: int,
        reply_body: Any,
        reply_bytes: int,
        timeline: Optional[Timeline] = None,
    ) -> float:
        """A request/reply exchange; returns the total virtual seconds."""
        req = self.send(src, dst, kind, request_body, request_bytes, timeline)
        rep = self.send(dst, src, kind + "-reply", reply_body, reply_bytes, timeline)
        return req.transfer_seconds + rep.transfer_seconds

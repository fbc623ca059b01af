"""The installation-wide operating-point solution store (ROADMAP item 4).

At installation scale most requests land on or near operating points the
installation has already solved — many users, one popular engine deck,
a handful of operating lines.  The :class:`OpPointCache` makes that pay:
it is keyed on *(family, fuel flow)*, where a family is one operating
line (engine deck + flight condition + placement/dispatch context,
digested by :mod:`repro.tess.opkey`), and serves three tiers:

* **exact hit** — the requested fuel-flow *bit pattern* is stored with
  ``"cold"`` provenance: the Newton solve is skipped entirely and the
  stored solution is returned.  Exactness is bitwise: cold solves are
  deterministic, so a cache-served answer equals a fresh cold solve of
  the same point float-for-float (the differential oracle in
  tests/serve/test_opcache.py).
* **seed hit** — the exact point is stored but was itself produced by a
  warm-started solve: its ``x`` is handed back as the initial guess, and
  the solver confirms it in a single residual sweep (0 iterations).
* **near hit** — the point is new, but neighbours exist on the family's
  operating line: the nearest bracketing pair is linearly interpolated
  (solution *and* Jacobian) into an ``x0``/``jac0`` that converges in
  ~1 iteration; a single-sided neighbour within ``near_window`` relative
  distance seeds the same way.

Everything else is a **miss** and is solved cold — deliberately *not*
warm-started from the session's own prior point — so that what enters
the store under ``"cold"`` provenance is bitwise-canonical and exact
hits stay skip-safe.  Stored solutions never downgrade: a ``"cold"``
entry is not overwritten by a warm-started result for the same point.

Thread safety mirrors the installation's ``park_lock`` discipline: one
lock serializes lookups and stores (the arrays inside are private
copies, never views over a message body or a pooled buffer, so a stored
solution can never be invalidated by a buffer release).  Scheduling probes should use
:meth:`peek` — it does not touch the hit/miss counters, which are
reserved for real cache traffic.

The store also crosses process boundaries: :meth:`OpPointCache.export`
packs solutions into a compact versioned binary blob (raw little-endian
float64 for every solution vector and Jacobian — bit patterns preserved,
so an exact hit stays bitwise-exact after a round-trip) and
:meth:`OpPointCache.preload` imports one through the normal
:meth:`~OpPointCache.store` path, keeping provenance and the
first-write-wins/cold-upgrade discipline.  The sharded serve plane uses
the pair to pre-seed every worker's cache from the installation-wide
store at episode open and to merge each worker's freshly solved points
back at settle.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..tess.opkey import wf_key

__all__ = ["OpSolution", "WarmStart", "OpPointCache", "OPCACHE_WIRE_VERSION"]

#: version tag of the :meth:`OpPointCache.export` binary blob; bumped on
#: any layout change so an old blob is rejected, never misread
OPCACHE_WIRE_VERSION = 1

_WIRE_MAGIC = b"ROPC" + struct.pack("<H", OPCACHE_WIRE_VERSION)
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


@dataclass
class OpSolution:
    """One stored solved operating point: the full solution vector
    ``x = [beta_fan, beta_hpc, bpr, pr_hpt, pr_lpt, n1, n2]``, the final
    Jacobian estimate, the user-facing point summary, and the
    provenance of the solve that produced it."""

    wf: float
    x: np.ndarray
    jacobian: Optional[np.ndarray]
    point: Dict[str, float]
    provenance: str

    @property
    def canonical(self) -> bool:
        """True when the stored solve was cold — the bitwise-exactness
        tier.  Warm-derived entries are tolerance-exact only."""
        return self.provenance == "cold"


@dataclass
class WarmStart:
    """What a lookup hands back: the tier (``"exact"``, ``"seed"``,
    ``"interp"``, or ``"miss"``) plus whatever seed material exists.
    ``solution`` is populated only for exact hits."""

    kind: str
    x0: Optional[np.ndarray] = None
    jac0: Optional[np.ndarray] = None
    solution: Optional[OpSolution] = None

    @property
    def skip_solve(self) -> bool:
        return self.kind == "exact"


@dataclass
class _Family:
    """One operating line: entries keyed by fuel-flow bit pattern plus a
    sorted coordinate axis for neighbour search."""

    entries: Dict[str, OpSolution] = field(default_factory=dict)
    axis: List[float] = field(default_factory=list)


class OpPointCache:
    """Installation-wide (family, operating point) → solution store.

    ``near_window`` bounds single-sided warm starts: a lone neighbour
    further than this relative fuel-flow distance is ignored (a cold
    solve beats extrapolating far off the known line).  Bracketed
    points always interpolate — the operating line is smooth and
    monotone between solved neighbours.
    """

    def __init__(self, near_window: float = 0.15):
        self.near_window = near_window
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        self._cold_upgrades: Set[Tuple[str, str]] = set()
        self.exact_hits = 0
        self.near_hits = 0
        self.misses = 0

    # ------------------------------------------------------------- lookup
    def lookup(self, family: str, wf: float, count: bool = True) -> WarmStart:
        """Resolve one operating-point request (see the module doc for
        the tiers).  ``count=False`` (or :meth:`peek`) leaves the
        traffic counters untouched — for scheduling probes."""
        wf = float(wf)
        with self._lock:
            fam = self._families.get(family)
            if fam is not None:
                entry = fam.entries.get(wf_key(wf))
                if entry is not None:
                    if entry.canonical:
                        if count:
                            self.exact_hits += 1
                        return WarmStart(
                            kind="exact",
                            x0=entry.x.copy(),
                            jac0=self._copy(entry.jacobian),
                            solution=entry,
                        )
                    if count:
                        self.near_hits += 1
                    return WarmStart(
                        kind="seed",
                        x0=entry.x.copy(),
                        jac0=self._copy(entry.jacobian),
                    )
                ws = self._near(fam, wf)
                if ws is not None:
                    if count:
                        self.near_hits += 1
                    return ws
            if count:
                self.misses += 1
            return WarmStart(kind="miss")

    def peek(self, family: str, wf: float) -> WarmStart:
        """A non-counting :meth:`lookup` for scheduling probes."""
        return self.lookup(family, wf, count=False)

    def _near(self, fam: _Family, wf: float) -> Optional[WarmStart]:
        axis = fam.axis
        if not axis:
            return None
        i = bisect_left(axis, wf)
        lo = axis[i - 1] if i > 0 else None
        hi = axis[i] if i < len(axis) else None
        if lo is not None and hi is not None:
            e_lo = fam.entries[wf_key(lo)]
            e_hi = fam.entries[wf_key(hi)]
            t = (wf - lo) / (hi - lo)
            x0 = (1.0 - t) * e_lo.x + t * e_hi.x
            if e_lo.jacobian is not None and e_hi.jacobian is not None:
                jac0 = (1.0 - t) * e_lo.jacobian + t * e_hi.jacobian
            else:
                jac0 = self._copy((e_hi if t >= 0.5 else e_lo).jacobian)
            return WarmStart(kind="interp", x0=x0, jac0=jac0)
        nearest = lo if hi is None else hi
        scale = max(abs(wf), 1e-9)
        if abs(wf - nearest) / scale <= self.near_window:
            e = fam.entries[wf_key(nearest)]
            return WarmStart(
                kind="interp", x0=e.x.copy(), jac0=self._copy(e.jacobian)
            )
        return None

    # -------------------------------------------------------------- store
    def store(
        self,
        family: str,
        wf: float,
        x: np.ndarray,
        jacobian: Optional[np.ndarray],
        point: Dict[str, float],
        provenance: str,
    ) -> bool:
        """Record a solved point.  First write wins except for the cold
        upgrade (a cold solve may replace a warm-derived entry, never
        the reverse) — so the bitwise tier is monotone.  The arrays are
        copied in; callers may hand views freely.  Returns whether the
        entry was (re)written."""
        wf = float(wf)
        key = wf_key(wf)
        with self._lock:
            fam = self._families.setdefault(family, _Family())
            old = fam.entries.get(key)
            if old is not None and not (provenance == "cold" and not old.canonical):
                return False
            if old is None:
                insort(fam.axis, wf)
            else:
                # the cold upgrade rewrote an existing (warm-derived)
                # entry — remembered so delta exports that exclude a
                # preload seed still ship the upgraded solution
                self._cold_upgrades.add((family, key))
            fam.entries[key] = OpSolution(
                wf=wf,
                x=np.array(x, dtype=float, copy=True),
                jacobian=self._copy(jacobian),
                point=dict(point),
                provenance=provenance,
            )
            return True

    # ---------------------------------------------------------------- wire
    def key_set(self) -> Set[Tuple[str, str]]:
        """The ``(family, wf_key)`` pairs currently stored — what a
        shard worker remembers at episode open so its settle-time
        :meth:`export` ships only the points *it* solved, not the seed
        it was handed."""
        with self._lock:
            return {
                (name, key)
                for name, fam in self._families.items()
                for key in fam.entries
            }

    def cold_upgraded(self) -> Set[Tuple[str, str]]:
        """The ``(family, wf_key)`` pairs whose stored entry has been
        *rewritten* by the cold upgrade since this cache was built.  A
        delta export that excludes a preload seed must keep these — the
        seed's warm-derived entry was replaced by this process's
        bitwise-canonical solve, and dropping it from the export would
        leave the merged store's bitwise tier non-monotone."""
        with self._lock:
            return set(self._cold_upgrades)

    def export(
        self,
        families: Optional[Iterable[str]] = None,
        exclude: Optional[Set[Tuple[str, str]]] = None,
    ) -> bytes:
        """Pack stored solutions into a versioned binary blob.

        Arrays travel as raw little-endian float64 bytes — bit patterns
        preserved, so a ``"cold"`` entry re-imported elsewhere still
        serves bitwise-exact hits.  ``families`` restricts the export;
        ``exclude`` drops specific ``(family, wf_key)`` pairs (the
        delta-export path).  Output is deterministic: families sorted by
        name, entries in operating-line order.
        """
        keep = None if families is None else set(families)
        out = bytearray(_WIRE_MAGIC)
        out += _U32.pack(0)  # record count, patched below
        count = 0
        with self._lock:
            for name in sorted(self._families):
                if keep is not None and name not in keep:
                    continue
                fam = self._families[name]
                fam_raw = name.encode()
                for wf in fam.axis:
                    key = wf_key(wf)
                    if exclude is not None and (name, key) in exclude:
                        continue
                    e = fam.entries[key]
                    out += _U32.pack(len(fam_raw))
                    out += fam_raw
                    out += _F64.pack(e.wf)
                    x_raw = np.ascontiguousarray(e.x, dtype="<f8").tobytes()
                    out += _U32.pack(len(e.x))
                    out += x_raw
                    if e.jacobian is None:
                        out += _U32.pack(0) + _U32.pack(0)
                    else:
                        rows, cols = e.jacobian.shape
                        out += _U32.pack(rows) + _U32.pack(cols)
                        out += np.ascontiguousarray(
                            e.jacobian, dtype="<f8"
                        ).tobytes()
                    out += _U32.pack(len(e.point))
                    for pk in sorted(e.point):
                        pk_raw = pk.encode()
                        out += _U32.pack(len(pk_raw))
                        out += pk_raw
                        out += _F64.pack(float(e.point[pk]))
                    prov_raw = e.provenance.encode()
                    out += _U32.pack(len(prov_raw))
                    out += prov_raw
                    count += 1
        _U32.pack_into(out, len(_WIRE_MAGIC), count)
        return bytes(out)

    def preload(
        self, blob: bytes, families: Optional[Iterable[str]] = None
    ) -> int:
        """Import an :meth:`export` blob through the normal
        :meth:`store` path — provenance preserved, first-write-wins and
        the cold upgrade apply, counters untouched.

        A blob from a different codec version is *stale* and rejected
        outright (``ValueError``) — silently misreading bit-exact
        solution data is the one failure mode this store cannot afford.
        When ``families`` is given, a record outside it is a *foreign*
        import and is rejected the same way (a shard worker must never
        absorb another shard's operating lines by accident).  Returns
        the number of entries actually written."""
        view = memoryview(blob)
        if len(view) < len(_WIRE_MAGIC) + 4:
            raise ValueError("op-cache import truncated: no header")
        if bytes(view[: len(_WIRE_MAGIC)]) != _WIRE_MAGIC:
            got = bytes(view[: len(_WIRE_MAGIC)])
            raise ValueError(
                f"stale or foreign op-cache blob: header {got!r} does not "
                f"match version {OPCACHE_WIRE_VERSION} ({_WIRE_MAGIC!r})"
            )
        allowed = None if families is None else set(families)
        pos = len(_WIRE_MAGIC)
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        written = 0
        try:
            for _ in range(count):
                (n,) = _U32.unpack_from(view, pos)
                pos += 4
                family = str(view[pos : pos + n], "utf-8")
                pos += n
                (wf,) = _F64.unpack_from(view, pos)
                pos += 8
                (xn,) = _U32.unpack_from(view, pos)
                pos += 4
                x = np.frombuffer(view[pos : pos + 8 * xn], dtype="<f8").copy()
                pos += 8 * xn
                rows, cols = struct.unpack_from("<II", view, pos)
                pos += 8
                jac = None
                if rows and cols:
                    jac = (
                        np.frombuffer(
                            view[pos : pos + 8 * rows * cols], dtype="<f8"
                        )
                        .reshape(rows, cols)
                        .copy()
                    )
                    pos += 8 * rows * cols
                (pn,) = _U32.unpack_from(view, pos)
                pos += 4
                point: Dict[str, float] = {}
                for _ in range(pn):
                    (kn,) = _U32.unpack_from(view, pos)
                    pos += 4
                    pk = str(view[pos : pos + kn], "utf-8")
                    pos += kn
                    (point[pk],) = _F64.unpack_from(view, pos)
                    pos += 8
                (vn,) = _U32.unpack_from(view, pos)
                pos += 4
                provenance = str(view[pos : pos + vn], "utf-8")
                pos += vn
                if allowed is not None and family not in allowed:
                    raise ValueError(
                        f"foreign op-cache import: family {family!r} is not "
                        f"in this importer's allowed set"
                    )
                if self.store(family, wf, x, jac, point, provenance):
                    written += 1
        except struct.error as exc:
            raise ValueError(f"op-cache import truncated: {exc}") from None
        if pos > len(view):
            # a cut that lands inside a trailing var-length field decodes
            # "short" rather than raising struct.error — catch it here
            raise ValueError(
                f"op-cache import truncated: {pos - len(view)} bytes missing"
            )
        if pos != len(view):
            raise ValueError(
                f"op-cache import has {len(view) - pos} trailing bytes"
            )
        return written

    # ---------------------------------------------------------------- misc
    @staticmethod
    def _copy(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if arr is None else np.array(arr, dtype=float, copy=True)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.entries) for f in self._families.values())

    @property
    def families(self) -> int:
        with self._lock:
            return len(self._families)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": sum(len(f.entries) for f in self._families.values()),
                "families": len(self._families),
                "exact_hits": self.exact_hits,
                "near_hits": self.near_hits,
                "misses": self.misses,
            }

"""SchoonerHost: TESS component computations over heterogeneous RPC.

This is the glue of section 3.3.  Each adapted module instance (the
low-speed shaft, the bypass duct, ...) owns a :class:`ModuleContext` —
one Schooner *line* — whose remote process is started on the machine the
user picked with the module's widgets.  The ``set*`` procedure runs once
per instance before the first compute, exactly as in the paper, and the
compute procedure is then called repeatedly through the line's stubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..machines.host import Machine
from ..schooner.api import ModuleContext
from ..schooner.lines import Line, LineState
from ..schooner.manager import Manager
from ..schooner.runtime import CallBatch, CallerContext
from ..schooner.stubs import ClientStub
from ..solvers.steady import fd_jacobian
from ..tess.gas import GasState
from ..tess.hosts import ComponentHost, LocalHost
from ..uts.spec import SpecFile
from .specs import (
    COMBUSTOR_SPEC_SOURCE,
    DUCT_SPEC_SOURCE,
    NOZZLE_SPEC_SOURCE,
    REMOTE_PATHS,
    SHAFT_SPEC_SOURCE,
)

__all__ = ["SchoonerHost", "Placement"]

#: machine (nickname/hostname or Machine) where an instance computes
Placement = Union[Machine, str]

_IMPORTS = {
    "shaft": SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports(),
    "duct": SpecFile.parse(DUCT_SPEC_SOURCE).as_imports(),
    "combustor": SpecFile.parse(COMBUSTOR_SPEC_SOURCE).as_imports(),
    "nozzle": SpecFile.parse(NOZZLE_SPEC_SOURCE).as_imports(),
}


@dataclass
class _Bound:
    """One placed instance as the last ``sch_contact_schx`` left it: the
    module context, the placement it was contacted for, the line and
    placement entry it returned, the instance's stubs, and the
    parameters its ``set*`` procedure last ran with on this line."""

    ctx: ModuleContext
    kind: str
    placement: Placement
    line: Line
    entry: tuple  # ctx._placements[path]: (machine, path, records)
    stubs: Dict[str, ClientStub] = field(default_factory=dict)
    init: Optional[tuple] = None

    def current(self, placement: Optional[Placement]) -> bool:
        """Whether ``sch_contact_schx`` would return this binding
        unchanged: same placement, the line still active, the context's
        placement entry untouched and every record's process alive."""
        if placement is not self.placement or self.ctx._line is not self.line:
            return False
        if self.line.state is not LineState.ACTIVE:
            return False
        entry = self.entry
        if self.ctx._placements.get(entry[1]) is not entry:
            return False
        for record in entry[2]:
            if not record.process.alive:
                return False
        return True

    def stub(self, name: str) -> ClientStub:
        stub = self.stubs.get(name)
        if stub is None:
            stub = self.stubs[name] = self.ctx.import_proc(
                _IMPORTS[self.kind].import_named(name)
            )
        return stub


@dataclass
class SchoonerHost(ComponentHost):
    """Route adapted-module computations through Schooner.

    ``placements`` maps instance keys to machines:

    * ``"shaft:low"``, ``"shaft:high"``
    * ``"duct:bypass"``, ``"duct:core"``, ``"duct:mixer-entry"``
    * ``"combustor"``, ``"nozzle"``

    Instances without a placement compute locally, so any subset of the
    four adapted modules can be remote — the paper tested one, two,
    three, and all four.

    ``dispatch`` selects the call model.  Both serialize dependent
    calls on the calling program's own timeline (the AVS process can
    only issue one thing at a time):

    * ``"overlap"`` (default): independent computations — the
      bypass/core duct branch, the two shaft accelerations, FD-Jacobian
      column probes — go out as overlapped batches and cost the caller
      the max of the concurrent round trips;
    * ``"sync"``: every call blocks the caller for its full round trip
      (the honest sequential baseline, kept as the differential oracle).
    """

    manager: Manager
    avs_machine: Machine  # where AVS (and the unadapted code) runs
    placements: Dict[str, Placement] = field(default_factory=dict)
    dispatch: str = "overlap"  # "overlap" | "sync"
    _contexts: Dict[str, ModuleContext] = field(default_factory=dict)
    _bound: Dict[str, _Bound] = field(default_factory=dict)
    _local: LocalHost = field(default_factory=LocalHost)
    calls: Dict[str, int] = field(default_factory=dict)
    _caller: Optional[CallerContext] = field(default=None, repr=False)

    def _machine(self, placement: Placement) -> Machine:
        if isinstance(placement, Machine):
            return placement
        return self.manager.env.park[placement]

    def caller_context(self) -> CallerContext:
        """The AVS process's own thread of virtual time, shared by every
        module context so dependent calls serialize honestly."""
        if self._caller is None:
            tl = self.manager.env.clock.timeline(
                f"caller:{self.avs_machine.hostname}"
            )
            self._caller = CallerContext(timeline=tl)
        return self._caller

    def _open_batch(self, label: str) -> CallBatch:
        env = self.manager.env
        return CallBatch(env, self.caller_context(), label=label,
                         pool=env.overlap_pool())

    def _in_overlap_region(self) -> bool:
        ctx = self._caller
        return (ctx is not None and ctx.batch is not None
                and ctx.batch.active_branch is not None)

    def _context(self, key: str) -> Optional[_Bound]:
        """The live binding of an instance key, or None if local.

        Every call goes through ``sch_contact_schx`` semantically; the
        binding only skips re-running it while nothing it checks has
        changed (:meth:`_Bound.current`)."""
        placement = self.placements.get(key)
        bound = self._bound.get(key)
        if bound is not None and bound.current(placement):
            return bound
        if key not in self.placements:
            return None
        if key not in self._contexts:
            self._contexts[key] = ModuleContext(
                manager=self.manager, module_name=key, machine=self.avs_machine,
                caller=self.caller_context(),
            )
        ctx = self._contexts[key]
        kind = key.split(":")[0]
        path = REMOTE_PATHS[kind]
        ctx.sch_contact_schx(self._machine(placement), path)
        fresh = _Bound(ctx, kind, placement, ctx._line, ctx._placements[path])
        if bound is not None and bound.line is fresh.line and bound.placement == placement:
            # same line, same placement: the set* state and stubs carry over
            fresh.init = bound.init
            fresh.stubs = bound.stubs
        self._bound[key] = fresh
        return fresh

    def _count(self, key: str) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1

    # ------------------------------------------------------------- lifecycle
    def setup(self) -> None:
        """Start (or confirm) every placed instance's remote process."""
        for key in self.placements:
            self._context(key)

    def teardown(self) -> None:
        """The paper keeps remote processes alive across module
        executions; they die when the AVS module is destroyed (see
        :meth:`destroy_instance`), so teardown is a no-op."""

    def destroy_instance(self, key: str) -> None:
        """The AVS destroy path: sch_i_quit for one module instance."""
        ctx = self._contexts.pop(key, None)
        if ctx is not None:
            ctx.sch_i_quit()
        self._bound.pop(key, None)

    def destroy_all(self) -> None:
        for key in list(self._contexts):
            self.destroy_instance(key)

    # ------------------------------------------------------------ components
    def _ensure_init(self, bound: _Bound, params: tuple) -> None:
        """Run the instance's set* procedure once (or again after a
        parameter/placement/line change)."""
        if bound.init == params:
            return
        kind = bound.kind
        if kind == "shaft":
            bound.stub("setshaft")(inertia=params[0], omegad=params[1], mecheff=params[2])
        elif kind == "duct":
            bound.stub("setduct")(dpqp=params[0])
        elif kind == "combustor":
            bound.stub("setcomb")(eta=params[0], dpqp=params[1], tmax=params[2])
        elif kind == "nozzle":
            bound.stub("setnozl")(cd=params[0], area=params[1])
        bound.init = params

    def duct(self, name: str, duct, state: GasState) -> GasState:
        key = f"duct:{name}"
        bound = self._context(key)
        if bound is None:
            return self._local.duct(name, duct, state)
        self._count(key)
        self._ensure_init(bound, (duct.dpqp,))
        out = bound.stub("duct")(w=state.W, tt=state.Tt, pt=state.Pt, far=state.far)
        return GasState(W=out["wo"], Tt=out["tto"], Pt=out["pto"], far=out["faro"])

    def combustor(self, comb, state: GasState, wf: float) -> GasState:
        bound = self._context("combustor")
        if bound is None:
            return self._local.combustor(comb, state, wf)
        self._count("combustor")
        self._ensure_init(bound, (comb.efficiency, comb.dpqp, comb.t_max))
        out = bound.stub("comb")(w=state.W, tt=state.Tt, pt=state.Pt, far=state.far, wfuel=wf)
        return GasState(W=out["wo"], Tt=out["tto"], Pt=out["pto"], far=out["faro"])

    def nozzle(self, nozzle, state: GasState, ps_ambient: float, flight_speed: float):
        bound = self._context("nozzle")
        if bound is None:
            return self._local.nozzle(nozzle, state, ps_ambient, flight_speed)
        self._count("nozzle")
        self._ensure_init(bound, (nozzle.cd, nozzle.area_m2))
        out = bound.stub("nozl")(
            w=state.W, tt=state.Tt, pt=state.Pt, far=state.far,
            ps0=ps_ambient, v0=flight_speed,
        )
        return out["wcap"], out["fnet"]

    def shaft_accel(self, name, shaft, ecom, etur, ecorr, xspool):
        key = f"shaft:{name}"
        bound = self._context(key)
        if bound is None:
            return self._local.shaft_accel(name, shaft, ecom, etur, ecorr, xspool)
        self._count(key)
        self._ensure_init(bound, (shaft.inertia, shaft.omega_design, shaft.mech_eff))
        stub = bound.stub("shaft")

        def pad4(seq):
            vals = list(seq)[:4]
            return vals + [0.0] * (4 - len(vals))

        out = stub(
            ecom=pad4(ecom), incom=len(ecom),
            etur=pad4(etur), intur=len(etur),
            ecorr=ecorr, xspool=xspool, xmyi=shaft.inertia,
        )
        return out["dxspl"]

    # ------------------------------------------------------------- overlapped
    def _overlappable(self, keys: Sequence[str]) -> bool:
        return (
            self.dispatch == "overlap"
            and not self._in_overlap_region()
            and any(k in self.placements for k in keys)
        )

    def duct_pair(self, jobs):
        """Independent duct computations as one overlapped batch: the
        bypass/core branch costs the caller max(round trips), with only
        same-line/server work serialized."""
        keys = [f"duct:{name}" for name, _, _ in jobs]
        if not self._overlappable(keys):
            return ComponentHost.duct_pair(self, jobs)
        out: list = [None] * len(jobs)
        prepared = []
        for i, (name, duct, state) in enumerate(jobs):
            bound = self._context(keys[i])
            if bound is None:
                out[i] = self._local.duct(name, duct, state)
                continue
            self._count(keys[i])
            self._ensure_init(bound, (duct.dpqp,))
            stub = bound.stub("duct")
            prepared.append((i, stub, dict(
                w=state.W, tt=state.Tt, pt=state.Pt, far=state.far
            )))
        batch = self._open_batch("duct-pair")
        futures = [(i, stub.begin(batch, **args)) for i, stub, args in prepared]
        for i, fut in futures:
            r = fut.wait()
            out[i] = GasState(W=r["wo"], Tt=r["tto"], Pt=r["pto"], far=r["faro"])
        return tuple(out)

    def shaft_accel_pair(self, jobs):
        """The low/high spool accelerations as one overlapped batch."""
        keys = [f"shaft:{job[0]}" for job in jobs]
        if not self._overlappable(keys):
            return ComponentHost.shaft_accel_pair(self, jobs)
        out: list = [None] * len(jobs)
        prepared = []
        for i, job in enumerate(jobs):
            name, shaft, ecom, etur, ecorr, xspool = job
            bound = self._context(keys[i])
            if bound is None:
                out[i] = self._local.shaft_accel(*job)
                continue
            self._count(keys[i])
            self._ensure_init(bound, (shaft.inertia, shaft.omega_design, shaft.mech_eff))
            stub = bound.stub("shaft")

            def pad4(seq):
                vals = list(seq)[:4]
                return vals + [0.0] * (4 - len(vals))

            prepared.append((i, stub, dict(
                ecom=pad4(ecom), incom=len(ecom),
                etur=pad4(etur), intur=len(etur),
                ecorr=ecorr, xspool=xspool, xmyi=shaft.inertia,
            )))
        batch = self._open_batch("shaft-pair")
        futures = [(i, stub.begin(batch, **args)) for i, stub, args in prepared]
        for i, fut in futures:
            out[i] = fut.wait()["dxspl"]
        return tuple(out)

    def jacobian(
        self,
        f: Callable[[np.ndarray], np.ndarray],
        x: np.ndarray,
        fx: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward-difference Jacobian with overlapped column probes.

        Each column is one probe region: its gas-path RPCs keep their
        data-dependent order *within* the column, while the n columns
        (independent by construction) overlap with each other, queuing
        only for the shared per-line server occupancy.  The arithmetic
        is exactly :func:`~repro.solvers.steady.fd_jacobian`'s, so the
        result is bit-identical to the sequential sweep.
        """
        caller = self.caller_context()
        if (self.dispatch != "overlap" or not self.placements
                or caller.batch is not None):
            return fd_jacobian(f, x, fx)
        x = np.asarray(x, dtype=float)
        if fx is None:
            fx = np.asarray(f(x), dtype=float)
        n = x.size
        J = np.empty((fx.size, n))
        batch = self._open_batch("fd-jacobian")
        caller.batch = batch
        try:
            for j in range(n):
                with batch.region(f"probe:{j}"):
                    h = 1e-7 * max(1.0, abs(x[j]))
                    xp = x.copy()
                    xp[j] += h
                    J[:, j] = (np.asarray(f(xp), dtype=float) - fx) / h
        finally:
            caller.batch = None
            batch.wait()
        return J

    # -------------------------------------------------------------- reporting
    @property
    def remote_call_count(self) -> int:
        return sum(self.calls.values())

    def move_instance(self, key: str, target: Placement) -> None:
        """Migrate one instance's procedures to another machine and
        update the placement (the §4.2 move, driven from the host)."""
        ctx = self._contexts.get(key)
        kind = key.split(":")[0]
        if ctx is None:
            self.placements[key] = target
            return
        target_machine = self._machine(target)
        # moving one procedure relocates the hosting process, so the
        # set/compute pair travels together
        exports = _IMPORTS[kind]
        any_name = next(iter(exports.imports))
        self.manager.move(ctx.line, any_name, target_machine, REMOTE_PATHS[kind])
        self.placements[key] = target
        # placement bookkeeping: ModuleContext idempotence key must match
        ctx._placements[REMOTE_PATHS[kind]] = (
            target_machine,
            REMOTE_PATHS[kind],
            tuple(self.manager.lookup(ctx.line, n) for n in exports.imports),
        )

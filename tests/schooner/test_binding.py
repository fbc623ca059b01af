"""Call-plan binding: one plan per (stub, binding), rebuilt exactly when
the binding changes.

A :class:`~repro.schooner.stubs.ClientStub` binds a
:class:`~repro.schooner.runtime.CallPlan` the first time it calls a
newly installed :class:`~repro.schooner.lines.InstanceRecord` and reuses
it until the record (migration, supervisor failover, a refresh after
``StaleBinding``) or the environment's range policy changes.  These
tests pin the invalidation rules: a moved binding gets a fresh plan, a
rebind to an incompatible export raises ``TypeCheckError`` on that call,
the import-vs-export verdict is derived once per binding (not per
call), and a plan never crosses machines whose native formats differ.
"""

from __future__ import annotations

import pytest

from repro.faults.recovery import FailoverSupervisor
from repro.machines import Language
from repro.schooner import (
    Executable,
    ModuleContext,
    Procedure,
    TypeCheckError,
)
from repro.schooner.runtime import bind_call, execute_call
from repro.uts import OutOfRangePolicy, SpecFile
from repro.uts.types import Signature

from .conftest import SHAFT_ARGS, SHAFT_PATH, expected_dxspl, make_shaft_executable


@pytest.fixture
def ctx(manager, env):
    return ModuleContext(manager=manager, module_name="bind", machine=env.park["ua-sparc10"])


@pytest.fixture
def checks(monkeypatch):
    """Counts import-vs-export verdicts (``check_import_subset`` calls)."""
    real = Signature.check_import_subset
    count = [0]

    def counted(self, export):
        count[0] += 1
        return real(self, export)

    monkeypatch.setattr(Signature, "check_import_subset", counted)
    return count


def _fmt(machine):
    return machine.architecture.native_format


class TestPlanReuse:
    def test_one_plan_per_binding(self, ctx, shaft_import_spec, checks):
        ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
        stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
        assert stub.call1(**SHAFT_ARGS) == pytest.approx(expected_dxspl(), rel=1e-5)
        plan = stub._plan
        assert plan is not None and plan.record is stub._cache
        # one verdict at the Manager's lookup, one when the plan bound
        assert checks[0] == 2
        for _ in range(5):
            stub(**SHAFT_ARGS)
        assert stub._plan is plan
        assert checks[0] == 2

    def test_range_policy_change_rebinds(self, ctx, env, shaft_import_spec):
        ctx.sch_contact_schx("lerc-convex", SHAFT_PATH)
        stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
        stub(**SHAFT_ARGS)
        plan = stub._plan
        env.range_policy = OutOfRangePolicy.INFINITY
        stub(**SHAFT_ARGS)
        assert stub._plan is not plan
        assert stub._plan.policy is OutOfRangePolicy.INFINITY


class TestInvalidation:
    def test_migration_rebinds_across_native_formats(
        self, ctx, env, shaft_import_spec, checks
    ):
        """The first call after a move fails at the old location,
        refreshes from the Manager and must run a fresh plan bound to
        the new machine's native format."""
        ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
        stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
        on_cray = stub.call1(**SHAFT_ARGS)
        old = stub._plan
        n = checks[0]
        ctx.sch_move("shaft", "lerc-rs6000")
        on_ibm = stub.call1(**SHAFT_ARGS)
        new = stub._plan
        assert stub.failovers == 1
        assert new is not old
        assert new.record is ctx.manager.lookup(ctx.line, "shaft")
        assert new.callee is env.park["lerc-rs6000"]
        assert _fmt(new.callee) != _fmt(old.callee)
        # the verdict was re-derived for the new binding
        assert checks[0] > n
        # results follow the callee's format: a fresh stub bound straight
        # to the new machine computes the identical value
        fresh_ctx = ModuleContext(
            manager=ctx.manager, module_name="fresh", machine=env.park["ua-sparc10"]
        )
        fresh_ctx.sch_contact_schx("lerc-rs6000", SHAFT_PATH)
        fresh = fresh_ctx.import_proc(shaft_import_spec.import_named("shaft"))
        assert on_ibm == fresh.call1(**SHAFT_ARGS)
        assert on_cray == pytest.approx(on_ibm, rel=1e-6)

    def test_supervisor_failover_rebinds(self, ctx, env, manager, shaft_import_spec):
        """A host crash under a supervisor: the stub's refresh recovers
        the instance elsewhere, and the next call runs a plan bound to
        the recovered record."""
        with FailoverSupervisor(manager=manager):
            ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
            stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
            stub(**SHAFT_ARGS)
            old = stub._plan
            env.park["lerc-cray"].crash()
            assert stub.call1(**SHAFT_ARGS) == pytest.approx(expected_dxspl(), rel=1e-5)
            new = stub._plan
            assert new is not old
            assert new.callee is not env.park["lerc-cray"]
            assert new.record.alive
            assert env.traces[-1].failed_over

    def test_out_of_band_recovery_invalidates_the_plan(
        self, ctx, env, manager, shaft_import_spec
    ):
        """``sch_contact_schx`` recovering a dead instance before any
        call failed invalidates the stubs: their next call binds anew."""
        with FailoverSupervisor(manager=manager):
            ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
            stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
            stub(**SHAFT_ARGS)
            old = stub._plan
            env.park["lerc-cray"].crash()
            ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
            assert stub._plan is None
            stub(**SHAFT_ARGS)
            assert stub._plan is not old
            assert stub._plan.callee is not env.park["lerc-cray"]

    def test_rebind_to_incompatible_export_raises(self, ctx, env, shaft_import_spec):
        """Migrating onto an executable whose export changed the
        parameter types: the call that follows the move is refused."""
        spec = SpecFile.parse(
            'export shaft prog("ecom" val array[4] of float, "incom" val double,'
            ' "etur" val array[4] of float, "intur" val integer, "ecorr" val float,'
            ' "xspool" val float, "xmyi" val float, "dxspl" res float)'
        )
        setshaft = make_shaft_executable().procedure_named("setshaft")
        drifted = Executable("npss-shaft", (setshaft, Procedure(
            name="shaft", signature=spec.export_named("shaft"),
            impl=lambda **kw: 0.0, language=Language.FORTRAN,
        )))
        env.park["lerc-sgi480"].install("/npss/bin/drifted", drifted)
        ctx.sch_contact_schx("lerc-rs6000", SHAFT_PATH)
        stub = ctx.import_proc(shaft_import_spec.import_named("shaft"))
        stub(**SHAFT_ARGS)
        ctx.sch_move("shaft", "lerc-sgi480", "/npss/bin/drifted")
        with pytest.raises(TypeCheckError, match="incom"):
            stub(**SHAFT_ARGS)


class TestPlanVerdict:
    def test_incompatible_plan_raises_on_every_call(self, ctx, env, checks):
        (_, rec) = ctx.sch_contact_schx("lerc-rs6000", SHAFT_PATH)
        wrong = SpecFile.parse(
            'import shaft prog("ecom" val array[4] of double, "dxspl" res float)'
        ).import_named("shaft")
        n = checks[0]
        plan = bind_call(env, env.park["ua-sparc10"], rec, wrong)
        assert plan.type_error is not None
        for _ in range(3):
            with pytest.raises(TypeCheckError, match="ecom"):
                execute_call(env, env.park["ua-sparc10"], ctx.line.timeline,
                             rec, wrong, {"ecom": [0.0] * 4}, plan=plan)
        # derived once, at binding; every call raised from the verdict
        assert checks[0] == n + 1

    def test_direct_call_without_plan_binds_per_call(self, ctx, env, shaft_import_spec):
        (_, rec) = ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
        sig = shaft_import_spec.import_named("shaft")
        out = execute_call(env, env.park["ua-sparc10"], ctx.line.timeline,
                           rec, sig, dict(SHAFT_ARGS))
        assert out["dxspl"] == pytest.approx(expected_dxspl(), rel=1e-5)

    def test_plan_formats_follow_the_machines(self, ctx, env, shaft_import_spec):
        """Plans for the same signature on two callees with different
        native formats are distinct objects with distinct conversions."""
        (_, on_cray) = ctx.sch_contact_schx("lerc-cray", SHAFT_PATH)
        other = ModuleContext(manager=ctx.manager, module_name="o",
                              machine=env.park["ua-sparc10"])
        (_, on_convex) = other.sch_contact_schx("lerc-convex", SHAFT_PATH)
        sig = shaft_import_spec.import_named("shaft")
        caller = env.park["ua-sparc10"]
        a = bind_call(env, caller, on_cray, sig)
        b = bind_call(env, caller, on_convex, sig)
        assert a.callee_recv is not b.callee_recv
        assert a.caller_send is b.caller_send  # same caller, same format

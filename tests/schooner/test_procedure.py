"""Unit tests for Procedure and Executable."""

import gc
import weakref

import pytest

from repro.machines import CRAY_YMP_ARCH, SPARC, Language
from repro.schooner import Executable, Procedure, SchoonerError
from repro.uts import DOUBLE, SpecFile

SPEC = SpecFile.parse('export f prog("x" val double, "y" res double)')


def make_proc(name="f", impl=lambda x: x, **kw):
    spec = SpecFile.parse(f'export {name} prog("x" val double, "y" res double)')
    return Procedure(name=name, signature=spec.export_named(name), impl=impl, **kw)


class TestProcedure:
    def test_name_must_match_signature(self):
        with pytest.raises(SchoonerError, match="does not match"):
            Procedure(name="g", signature=SPEC.export_named("f"), impl=lambda x: x)

    def test_wants_state_detection(self):
        assert not make_proc().wants_state
        assert make_proc(impl=lambda x, _state: x).wants_state

    def test_wants_timeline_detection(self):
        assert not make_proc().wants_timeline
        assert make_proc(impl=lambda x, _timeline: x).wants_timeline

    def test_builtin_impl_no_introspection_crash(self):
        p = make_proc(impl=abs)
        assert not p.wants_state
        assert not p.wants_timeline

    def test_introspection_is_freed_with_the_procedure(self):
        """A caller that keeps building executables grows nothing: the
        parameter names live on the procedure, not in a process table
        that would keep every implementation alive."""
        from repro.core import build_shaft_executable

        refs = []
        for _ in range(3):
            exe = build_shaft_executable()
            assert all(p.wants_state and not p.wants_timeline for p in exe.procedures)
            refs.extend(weakref.ref(p.impl) for p in exe.procedures)
            del exe
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_constant_flops(self):
        assert make_proc(flops=5e6).cost_flops({}) == 5e6

    def test_callable_flops(self):
        p = make_proc(flops=lambda args: 10.0 * args["x"])
        assert p.cost_flops({"x": 3.0}) == 30.0

    def test_fortran_synonyms(self):
        p = make_proc(language=Language.FORTRAN)
        assert p.synonyms() == {"f", "F"}

    def test_c_names_exact(self):
        p = make_proc(language=Language.C)
        assert p.synonyms() == {"f"}


class TestExecutable:
    def test_procedure_named_accepts_synonyms(self):
        exe = Executable("e", (make_proc(language=Language.FORTRAN),))
        assert exe.procedure_named("f") is exe.procedure_named("F")

    def test_unknown_procedure(self):
        exe = Executable("e", (make_proc(),))
        with pytest.raises(SchoonerError, match="no procedure"):
            exe.procedure_named("g")

    def test_fortran_case_collision_rejected(self):
        a = make_proc(name="work", language=Language.FORTRAN)
        spec_b = SpecFile.parse('export WORK prog("x" val double, "y" res double)')
        b = Procedure(name="WORK", signature=spec_b.export_named("WORK"),
                      impl=lambda x: x, language=Language.FORTRAN)
        with pytest.raises(SchoonerError, match="collide"):
            Executable("e", (a, b))

    def test_export_spec_round_trips(self):
        exe = Executable("e", (make_proc(),))
        spec = exe.export_spec
        assert spec.export_named("f").param_named("y").type == DOUBLE
        reparsed = SpecFile.parse(spec.render())
        assert reparsed.exports == spec.exports

    def test_compiled_symbols_per_architecture(self):
        """The same source compiles to different symbol tables on the
        Cray vs a workstation — the §4.1 name problem's origin."""
        exe = Executable("e", (make_proc(name="setshaft", language=Language.FORTRAN),))
        assert "setshaft" in exe.compiled_symbols(SPARC)
        assert "SETSHAFT" in exe.compiled_symbols(CRAY_YMP_ARCH)
        assert "setshaft" not in exe.compiled_symbols(CRAY_YMP_ARCH)

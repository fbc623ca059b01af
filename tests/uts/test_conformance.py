"""Tests for the differential conformance harness itself.

The harness is a first-class subsystem: these tests pin down its check
functions on known-good and known-bad inputs, then run a short-budget
sweep (the CI smoke job runs a longer one via ``python -m
repro.uts.conformance``).
"""

import math
import sys

import numpy as np
import pytest

import repro.uts.conformance as conformance_mod
from repro.machines.arch import ALL_NATIVE_FORMATS
from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    CrayFormat,
    RecordType,
    VAXFormat,
    conform,
)
from repro.uts.conformance import (
    CRAY_OVERFLOW,
    VAX_FLUSH,
    VAX_MAX,
    VAX_OVERFLOW,
    ConformanceFailure,
    check_compiled_conform,
    check_compiled_equivalence,
    check_cray_raw,
    check_native_float,
    check_vax_raw,
    check_wire_value,
    main,
    run,
)

CRAY = next(f for f in ALL_NATIVE_FORMATS if isinstance(f, CrayFormat))
CONVEX = next(f for f in ALL_NATIVE_FORMATS if isinstance(f, VAXFormat))


class TestSweepSet:
    def test_park_contributes_all_three_format_families(self):
        kinds = {type(f).__name__ for f in ALL_NATIVE_FORMATS}
        assert kinds == {"IEEEFormat", "CrayFormat", "VAXFormat"}

    def test_formats_deduplicated(self):
        assert len(set(ALL_NATIVE_FORMATS)) == len(ALL_NATIVE_FORMATS)


class TestScalarChecks:
    @pytest.mark.parametrize(
        "v",
        [0.0, -0.0, 1.0, -math.pi, 5e-324, sys.float_info.max,
         -sys.float_info.max, VAX_OVERFLOW, VAX_FLUSH, CRAY_OVERFLOW,
         math.inf, -math.inf, float("nan"), 1e-40, 1.7e38],
    )
    def test_all_park_formats_conform_on_edge_values(self, v):
        for fmt in ALL_NATIVE_FORMATS:
            assert check_native_float(fmt, v) == []

    def test_wire_preserves_negative_zero_bits(self):
        assert check_wire_value(DOUBLE, -0.0) == []

    def test_thresholds_are_the_documented_constants(self):
        # the semantics table in docs/CODECS.md states these exactly
        assert VAX_OVERFLOW == 2.0**127
        assert VAX_FLUSH == 2.0**-128
        assert VAX_MAX == math.ldexp(1.0 - 2.0**-56, 127)
        assert CRAY_OVERFLOW == math.ldexp(1.0 - 2.0**-49, 1024)
        # just below each threshold converts; at it, the strict policy raises
        from repro.uts import OutOfRangePolicy, UTSRangeError

        below = math.nextafter(VAX_OVERFLOW, 0.0)
        CONVEX.pack_float64(below, OutOfRangePolicy.ERROR)
        with pytest.raises(UTSRangeError):
            CONVEX.pack_float64(VAX_OVERFLOW, OutOfRangePolicy.ERROR)


class TestRawPatternChecks:
    def test_cray_raw_agrees_with_fraction_oracle(self):
        for fields in [(0, 1, 1 << 47), (1, -100, 3 << 40), (0, 8000, 1 << 47),
                       (1, -16384, 1), (0, 0, 0), (1, 0, 0)]:
            assert check_cray_raw(*fields) == []

    def test_vax_raw_agrees_with_fraction_oracle(self):
        for fields in [(0, 129, 0, 55), (1, 200, 12345, 55), (1, 0, 0, 55),
                       (0, 0, 99, 55), (1, 0, 7, 23), (0, 255, (1 << 23) - 1, 23)]:
            assert check_vax_raw(*fields) == []

    def test_checks_catch_a_broken_codec(self):
        # sanity: the checker is not vacuously green — feed it a format
        # whose unpacker drops the sign of zero and it must object
        class SignDroppingCray(CrayFormat):
            def unpack_float64(self, data, policy):
                return abs(super().unpack_float64(data, policy))

        broken = SignDroppingCray(name="broken-cray", int_bits=64)
        assert check_native_float(broken, -0.0) != []


class TestStructuredChecks:
    def test_compiled_equivalence_on_mixed_record(self):
        t = RecordType.of(s=STRING, xs=ArrayType(3, DOUBLE))
        v = conform(t, {"s": "npss", "xs": [0.0, -0.0, 1e300]})
        assert check_compiled_equivalence(t, v) == []

    def test_wire_check_on_nested_value(self):
        t = ArrayType(2, RecordType.of(x=DOUBLE))
        v = conform(t, [{"x": -0.0}, {"x": math.inf}])
        assert check_wire_value(t, v) == []


#: conform inputs across the canonical/non-canonical boundary: exact
#: Python types, bool-vs-int, NumPy scalars and arrays, tuples, wrong
#: lengths, missing and extra record fields, range edges
_CONFORM_INPUTS = (
    True, False, 0, 1, -1, 255, 256, 2**63 - 1, 2**63, -(2**63) - 1,
    1.5, -0.0, float("nan"), math.inf, 3.5e38, 5e-324,
    np.float64(2.5), np.float32(1.5), np.int64(7), np.bool_(True),
    "s", "", b"x", b"xy", None,
    [1.0, 2.0], (1.0, 2.0), [1.0], [True, 2.0], np.array([1.0, 2.0]),
    np.zeros((1, 2)), {"a": 1, "b": 2.0}, {"a": 1}, {"a": 1, "b": 2.0, "c": 3},
    {"a": True, "b": 2.0}, {1: 1, "b": 2.0},
)
_CONFORM_TYPES = (
    INTEGER, FLOAT, DOUBLE, BYTE, STRING, BOOLEAN,
    ArrayType(2, DOUBLE), ArrayType(2, FLOAT),
    RecordType.of(a=INTEGER, b=FLOAT),
)


class TestCompiledConform:
    @pytest.mark.parametrize("t", _CONFORM_TYPES, ids=lambda t: t.describe())
    def test_matches_reference_on_edge_inputs(self, t):
        for value in _CONFORM_INPUTS:
            assert check_compiled_conform(t, value) == [], value

    def test_check_catches_a_lenient_conform(self, monkeypatch):
        # sanity: a compiled conform that accepts anything is flagged
        monkeypatch.setattr(conformance_mod, "conform_for", lambda t: lambda v: v)
        assert check_compiled_conform(INTEGER, True) != []
        assert check_compiled_conform(DOUBLE, np.float64(1.0)) != []
        assert check_compiled_conform(ArrayType(2, DOUBLE), (1.0, 2.0)) != []


class TestRunner:
    def test_short_sweep_is_green(self):
        summary = run(max_examples=25)
        assert summary["max_examples"] == 25
        assert set(summary["checks"]) == {
            "scalar_doubles", "structured_values", "cray_raw", "vax_raw"
        }
        assert len(summary["formats"]) == len(ALL_NATIVE_FORMATS)

    def test_cli_smoke(self, capsys):
        assert main(["--max-examples", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_failure_type_is_assertion(self):
        # ConformanceFailure subclasses AssertionError so pytest reports
        # sweeps the same way as plain asserts
        assert issubclass(ConformanceFailure, AssertionError)

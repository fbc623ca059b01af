"""Differential conformance harness for the UTS codecs.

The paper's heterogeneity story (§4.1) lives in the native-format
conversion routines — Cray 15-bit exponents, VAX/Convex reserved
operands, signed zeros — and those bit-level routines are exactly where
reimplementation bugs hide.  This harness round-trips
hypothesis-generated UTS values (scalars, nested records, arrays,
strings; including ``-0.0``, subnormals, max/min magnitudes, and raw bit
patterns via :meth:`CrayFormat.raw` / :meth:`VAXFormat.raw`) through

* every native format of the machine park × both out-of-range policies,
* the wire codec (the reference: lossless and signed-zero preserving),
* the compiled fast path (:mod:`repro.uts.compiled`) against the
  interpretive reference implementations — codecs, native plans, and
  compiled value conformance (:func:`~repro.uts.compiled.conform_for`
  and the per-signature :meth:`SignatureCodec.conform`) on conformable
  *and* non-conformable inputs,

and cross-checks the outcomes against the documented semantics table in
``docs/CODECS.md``.  Key invariants:

* the wire format is bit-lossless for every conformed value;
* a native format either preserves the sign of zero or raises — it never
  silently drops a sign the wire preserves;
* whenever the ``ERROR`` policy succeeds, the ``INFINITY`` policy
  produces the bit-identical result (the policies may only diverge where
  ``ERROR`` raises);
* format thresholds are exact: VAX overflows at ``2**127`` and flushes
  below ``2**-128``; Cray round-trips raise (or clamp to ±inf) from
  ``(1 - 2**-49) * 2**1024`` upward;
* compiled codecs agree with the interpretive codecs byte-for-byte,
  value-for-value, and exception-for-exception;
* compiled conform agrees with :func:`~repro.uts.values.conform` (and
  with :func:`~repro.uts.values.conform_args` per signature)
  value-for-value and exception-for-exception, message included.

Checks return a list of discrepancy strings (empty = conformant), so
pytest and the CLI smoke runner (``python -m repro.uts.conformance``)
share one implementation.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
from fractions import Fraction
from typing import Any, Callable, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ..machines.arch import ALL_NATIVE_FORMATS
import numpy as np

from .compiled import codec_for, conform_for, native_roundtrip_for, signature_codec
from .errors import UTSConversionError, UTSError, UTSRangeError
from .native import (
    CrayFormat,
    IEEEFormat,
    NativeFormat,
    OutOfRangePolicy,
    VAXFormat,
    roundtrip_native_interpreted,
)
from .types import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    ParamMode,
    Parameter,
    RecordField,
    RecordType,
    Signature,
    UTSType,
)
from .values import conform, conform_args, identical
from .wire import decode_value, encode_value, encoded_size

__all__ = [
    "ConformanceFailure",
    "FORMATS",
    "POLICIES",
    "check_native_float",
    "check_wire_value",
    "check_compiled_equivalence",
    "check_compiled_conform",
    "check_cray_raw",
    "check_vax_raw",
    "conformance_doubles",
    "uts_types",
    "value_for",
    "raw_values_for",
    "typed_values",
    "cray_raw_fields",
    "vax_raw_fields",
    "run",
]

ERROR = OutOfRangePolicy.ERROR
INFINITY = OutOfRangePolicy.INFINITY
POLICIES = (ERROR, INFINITY)
FORMATS: Tuple[NativeFormat, ...] = ALL_NATIVE_FORMATS

# Exact semantic thresholds (derivations in docs/CODECS.md):
# a double at/above this rounds up into the Cray's 48-bit mantissa to a
# value of 2**1024, outside IEEE binary64 — the §4.1 out-of-range case
CRAY_OVERFLOW = math.ldexp(1.0 - 2.0**-49, 1024)
# VAX biased exponent saturates at 255 (bias 128): magnitudes at/above
# 2**127 overflow, below 2**-128 flush to +0.0
VAX_OVERFLOW = 2.0**127
VAX_FLUSH = 2.0**-128
VAX_MAX = math.ldexp(1.0 - 2.0**-56, 127)  # largest D_floating magnitude
VAX_MAX_F = math.ldexp(1.0 - 2.0**-24, 127)  # largest F_floating magnitude

_D = struct.Struct(">d")


class ConformanceFailure(AssertionError):
    """One or more codec conformance invariants were violated."""


def _bits_equal(a: float, b: float) -> bool:
    return _D.pack(a) == _D.pack(b)


def _outcome(fn: Callable, *args: Any) -> Tuple[Any, ...]:
    """Run ``fn`` and normalize the result to a comparable outcome tuple."""
    try:
        return ("value", fn(*args))
    except UTSError as exc:
        return ("raise", type(exc))


def _roundtrip(fmt: NativeFormat, value: float, policy: OutOfRangePolicy,
               use32: bool) -> float:
    if use32:
        return fmt.unpack_float32(fmt.pack_float32(value, policy), policy)
    return fmt.unpack_float64(fmt.pack_float64(value, policy), policy)


# ---------------------------------------------------------------------------
# native scalar semantics
# ---------------------------------------------------------------------------


def check_native_float(fmt: NativeFormat, value: float, use32: bool = False) -> List[str]:
    """Check one conformed float against ``fmt``'s documented semantics
    under both policies.  ``use32`` selects the single-precision path, in
    which case ``value`` must already be conformed to 32 bits.
    """
    issues: List[str] = []
    width = "f32" if use32 else "f64"

    def bad(msg: str) -> None:
        issues.append(f"{fmt.name}/{width}: {msg} (value={value!r})")

    is_cray = isinstance(fmt, CrayFormat)
    is_vax = isinstance(fmt, VAXFormat)
    is_ieee = not (is_cray or is_vax)
    vax_max = VAX_MAX_F if use32 else VAX_MAX
    if is_cray:
        rel, overflow, flush = 2.0**-47, CRAY_OVERFLOW, 0.0
    elif is_vax:
        rel, overflow, flush = 0.0, VAX_OVERFLOW, VAX_FLUSH
    else:
        rel, overflow, flush = 0.0, math.inf, 0.0

    out_err = _outcome(_roundtrip, fmt, value, ERROR, use32)
    out_inf = _outcome(_roundtrip, fmt, value, INFINITY, use32)

    # NaN: IEEE stores it; Cray and VAX have no representation and raise
    # under both policies (not a range problem, so never UTSRangeError)
    if value != value:
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if is_ieee:
                if out[0] != "value" or out[1] == out[1]:
                    bad(f"NaN not preserved under {tag}")
            elif out != ("raise", UTSConversionError):
                bad(f"NaN should raise UTSConversionError under {tag}, got {out}")
        return issues

    # Infinity: IEEE stores it; Cray/VAX raise under ERROR; under
    # INFINITY the Cray's max word round-trips to ±inf while the VAX (no
    # exponent beyond IEEE range) clamps to its largest finite magnitude
    if math.isinf(value):
        if is_ieee:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out[0] != "value" or not _bits_equal(out[1], value):
                    bad(f"infinity not preserved under {tag}: {out}")
        else:
            if out_err != ("raise", UTSRangeError):
                bad(f"infinity should raise UTSRangeError under ERROR, got {out_err}")
            if out_inf[0] != "value":
                bad(f"infinity should convert under INFINITY, got {out_inf}")
            else:
                r = out_inf[1]
                if math.copysign(1.0, r) != math.copysign(1.0, value):
                    bad(f"infinity sign lost under INFINITY: {r!r}")
                elif is_cray and not math.isinf(r):
                    bad(f"Cray infinity should round-trip to inf, got {r!r}")
                elif is_vax and not (math.isfinite(r) and abs(r) == vax_max):
                    bad(f"VAX infinity should clamp to ±{vax_max!r}, got {r!r}")
        return issues

    # Signed zero: the wire preserves it, so a native format must either
    # preserve it too (IEEE, Cray) or raise (VAX, where the -0.0 bit
    # pattern is the reserved operand); it may never silently drop the sign
    if value == 0.0:
        negative = math.copysign(1.0, value) < 0
        if negative and is_vax:
            if out_err != ("raise", UTSConversionError):
                bad(f"-0.0 should raise UTSConversionError under ERROR, got {out_err}")
            if out_inf != ("value", 0.0) or (
                out_inf[0] == "value" and math.copysign(1.0, out_inf[1]) < 0
            ):
                bad(f"-0.0 should flush to +0.0 under INFINITY, got {out_inf}")
        else:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out[0] != "value" or not _bits_equal(out[1], value):
                    bad(f"signed zero not preserved under {tag}: {out}")
        return issues

    a = abs(value)

    # Overflow: at/above the exact threshold ERROR raises UTSRangeError;
    # INFINITY converts (Cray → ±inf, VAX → ±max clamp)
    if a >= overflow:
        if out_err != ("raise", UTSRangeError):
            bad(f"|v| >= {overflow!r} should raise UTSRangeError under ERROR, got {out_err}")
        if out_inf[0] != "value":
            bad(f"|v| >= {overflow!r} should convert under INFINITY, got {out_inf}")
        else:
            r = out_inf[1]
            if math.copysign(1.0, r) != math.copysign(1.0, value):
                bad(f"overflow sign lost under INFINITY: {r!r}")
            elif is_cray and not math.isinf(r):
                bad(f"Cray overflow should become inf under INFINITY, got {r!r}")
            elif is_vax and abs(r) != vax_max:
                bad(f"VAX overflow should clamp to ±{vax_max!r}, got {r!r}")
        return issues

    # Underflow: below the exact threshold the VAX flushes to +0.0 (the
    # sign cannot be kept: -0.0 is the reserved operand); same bits under
    # both policies
    if a < flush:
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if out[0] != "value" or not _bits_equal(out[1], 0.0):
                bad(f"|v| < {flush!r} should flush to +0.0 under {tag}, got {out}")
        return issues

    # Ordinary in-range value: both policies succeed with identical bits,
    # the sign survives, and the error is within the format's precision
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value":
            bad(f"in-range value should convert under {tag}, got {out}")
            return issues
    r_err, r_inf = out_err[1], out_inf[1]
    if not _bits_equal(r_err, r_inf):
        bad(f"policies disagree on in-range value: {r_err!r} vs {r_inf!r}")
    if math.copysign(1.0, r_err) != math.copysign(1.0, value):
        bad(f"sign lost: {r_err!r}")
    if rel == 0.0:
        if r_err != value:
            bad(f"should be exact, got {r_err!r}")
    elif abs(r_err - value) > rel * a:
        bad(f"precision worse than {rel!r}: {r_err!r}")
    return issues


# ---------------------------------------------------------------------------
# wire codec and compiled-path equivalence
# ---------------------------------------------------------------------------


def check_wire_value(t: UTSType, value: Any) -> List[str]:
    """The wire codec must be a bit-lossless round trip with a size that
    matches :func:`encoded_size`; ``value`` must be conformed."""
    issues: List[str] = []
    data = encode_value(t, value)
    if encoded_size(t, value) != len(data):
        issues.append(f"wire: encoded_size != len(encoding) for {t.describe()}")
    decoded, offset = decode_value(t, data)
    if offset != len(data):
        issues.append(f"wire: decode consumed {offset}/{len(data)} bytes")
    if not identical(t, decoded, value):
        issues.append(
            f"wire: round trip not bit-lossless for {t.describe()}: "
            f"{value!r} -> {decoded!r}"
        )
    return issues


def check_compiled_equivalence(t: UTSType, value: Any) -> List[str]:
    """Compiled codecs must agree with the interpretive reference:
    identical bytes, identical decoded values, identical native
    round-trip outcomes (including exception types) for every format and
    policy; ``value`` must be conformed."""
    issues: List[str] = []
    codec = codec_for(t)
    data_interp = encode_value(t, value)
    data_compiled = codec.encode(value)
    if data_interp != data_compiled:
        issues.append(
            f"compiled encoder bytes differ for {t.describe()} "
            f"(plan {codec.plan}): {data_interp.hex()} vs {data_compiled.hex()}"
        )
    decoded_i, off_i = decode_value(t, data_interp)
    decoded_c, off_c = codec.decode(data_interp)
    if off_i != off_c or not identical(t, decoded_i, decoded_c):
        issues.append(f"compiled decoder differs for {t.describe()}")

    for fmt in FORMATS:
        for policy in POLICIES:
            out_i = _outcome(roundtrip_native_interpreted, fmt, t, value, policy)
            out_c = _outcome(native_roundtrip_for(fmt, t, policy), value)
            if out_i[0] != out_c[0]:
                issues.append(
                    f"native plan vs interpreter disagree on {fmt.name}/"
                    f"{policy.value} for {t.describe()}: {out_i} vs {out_c}"
                )
            elif out_i[0] == "raise":
                if out_i[1] is not out_c[1]:
                    issues.append(
                        f"native plan raises {out_c[1].__name__}, interpreter "
                        f"{out_i[1].__name__} on {fmt.name}/{policy.value}"
                    )
            elif not identical(t, out_i[1], out_c[1]):
                issues.append(
                    f"native plan value differs from interpreter on "
                    f"{fmt.name}/{policy.value} for {t.describe()}"
                )
        # policy consistency on structures: if ERROR succeeds, INFINITY
        # must produce the identical value
        out_err = _outcome(native_roundtrip_for(fmt, t, ERROR), value)
        if out_err[0] == "value":
            out_inf = _outcome(native_roundtrip_for(fmt, t, INFINITY), value)
            if out_inf[0] != "value" or not identical(t, out_err[1], out_inf[1]):
                issues.append(
                    f"policies diverge where ERROR succeeds on {fmt.name} "
                    f"for {t.describe()}"
                )
    return issues


def _conform_outcome(fn: Callable, *args: Any) -> Tuple[Any, ...]:
    """Like :func:`_outcome`, but any exception counts and its message
    is part of the outcome: conform errors are user-facing."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raise", type(exc), str(exc))


def _same_shape(a: Any, b: Any) -> bool:
    """Same Python container and scalar types all the way down (a
    canonical array is a ``list``, never a tuple)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_shape(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_shape(a[k], b[k]) for k in a)
    return True


def _compare_conform(what: str, t: UTSType, ref: Tuple, got: Tuple) -> List[str]:
    if ref[0] != got[0] or (ref[0] == "raise" and ref[1:] != got[1:]):
        return [f"{what} disagrees with the reference for {t.describe()}: {ref} vs {got}"]
    if ref[0] == "value" and not (
        _same_shape(ref[1], got[1]) and identical(t, ref[1], got[1])
    ):
        return [f"{what} value differs for {t.describe()}: {ref[1]!r} vs {got[1]!r}"]
    return []


def check_compiled_conform(t: UTSType, value: Any) -> List[str]:
    """Compiled conform must agree with the reference ``conform(t,
    value)`` for *any* ``value`` — the same canonical value (bit-level,
    Python types included) or the same exception type and message.  A
    record type is also checked as a signature (one ``val`` parameter
    per field): :meth:`SignatureCodec.conform` against ``conform_args``."""
    issues = _compare_conform(
        "compiled conform", t,
        _conform_outcome(conform, t, value),
        _conform_outcome(conform_for(t), value),
    )
    if isinstance(t, RecordType):
        sig = Signature(
            "conformance",
            tuple(Parameter(f.name, ParamMode.VAL, f.type) for f in t.fields),
        )
        issues += _compare_conform(
            "compiled signature conform", t,
            _conform_outcome(conform_args, sig, value, "send"),
            _conform_outcome(signature_codec(sig, "send").conform, value),
        )
    return issues


# ---------------------------------------------------------------------------
# raw bit patterns (values a Python float cannot express)
# ---------------------------------------------------------------------------


def check_cray_raw(sign: int, exponent: int, mantissa: int) -> List[str]:
    """Unpack a raw Cray word and compare against exact rational
    arithmetic: the §4.1 case where a Cray magnitude exceeds IEEE."""
    issues: List[str] = []
    cray = next(f for f in FORMATS if isinstance(f, CrayFormat))
    data = CrayFormat.raw(sign, exponent, mantissa)
    out_err = _outcome(cray.unpack_float64, data, ERROR)
    out_inf = _outcome(cray.unpack_float64, data, INFINITY)

    def bad(msg: str) -> None:
        issues.append(
            f"cray raw(sign={sign}, exp={exponent}, mant={mantissa:#x}): {msg}"
        )

    if mantissa == 0:
        expected = -0.0 if sign else 0.0
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if out[0] != "value" or not _bits_equal(out[1], expected):
                bad(f"zero mantissa should unpack to {expected!r} under {tag}, got {out}")
        return issues

    exact = Fraction(mantissa, 1 << 48) * Fraction(2) ** exponent
    if sign:
        exact = -exact
    try:
        expected = float(exact)
    except OverflowError:
        if out_err != ("raise", UTSRangeError):
            bad(f"beyond IEEE range: ERROR should raise UTSRangeError, got {out_err}")
        want = -math.inf if sign else math.inf
        if out_inf != ("value", want):
            bad(f"beyond IEEE range: INFINITY should give {want!r}, got {out_inf}")
        return issues
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value" or not _bits_equal(out[1], expected):
            bad(f"should unpack to {expected!r} under {tag}, got {out}")
    return issues


def check_vax_raw(sign: int, biased_exponent: int, fraction: int,
                  frac_bits: int = 55) -> List[str]:
    """Unpack a raw VAX pattern: reserved operands must fault under the
    strict policy, dirty zeros read as zero, and everything else must
    match exact rational arithmetic."""
    issues: List[str] = []
    vax = next(f for f in FORMATS if isinstance(f, VAXFormat))
    data = VAXFormat.raw(sign, biased_exponent, fraction, frac_bits)
    unpack = vax.unpack_float64 if frac_bits == 55 else vax.unpack_float32
    out_err = _outcome(unpack, data, ERROR)
    out_inf = _outcome(unpack, data, INFINITY)

    def bad(msg: str) -> None:
        issues.append(
            f"vax raw(sign={sign}, exp={biased_exponent}, "
            f"frac={fraction:#x}, bits={frac_bits}): {msg}"
        )

    if biased_exponent == 0:
        if sign:
            # the reserved operand: faulted on real VAX/Convex hardware
            if out_err != ("raise", UTSConversionError):
                bad(f"reserved operand should raise under ERROR, got {out_err}")
            if out_inf != ("value", 0.0):
                bad(f"reserved operand should read 0.0 under INFINITY, got {out_inf}")
        else:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out != ("value", 0.0):
                    bad(f"dirty zero should read 0.0 under {tag}, got {out}")
        return issues

    mant = fraction | (1 << frac_bits)
    exact = Fraction(mant, 1 << (frac_bits + 1)) * Fraction(2) ** (biased_exponent - 128)
    if sign:
        exact = -exact
    expected = float(exact)  # always inside IEEE binary64 range
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value" or not _bits_equal(out[1], expected):
            bad(f"should unpack to {expected!r} under {tag}, got {out}")
    return issues


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_SPECIAL_DOUBLES = (
    0.0, -0.0, 1.0, -1.0, math.pi, -math.pi,
    5e-324, -5e-324,                      # smallest IEEE subnormals
    sys.float_info.min, -sys.float_info.min,
    sys.float_info.max, -sys.float_info.max,
    CRAY_OVERFLOW, -CRAY_OVERFLOW,
    VAX_OVERFLOW, -VAX_OVERFLOW, VAX_MAX, -VAX_MAX,
    VAX_FLUSH, -VAX_FLUSH, 2.0**-129, -2.0**-129,
    1.7e38, -1.7e38, 1e300, -1e300, 1e-40, -1e-40,
    math.inf, -math.inf, float("nan"),
)


def conformance_doubles() -> st.SearchStrategy[float]:
    """Doubles biased toward the semantic boundaries: signed zeros,
    subnormals, the VAX overflow/flush thresholds, the Cray cliff,
    infinities, and NaN."""
    return st.one_of(
        st.sampled_from(_SPECIAL_DOUBLES),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=1e37, max_value=3e38),     # VAX overflow band
        st.floats(min_value=-3e38, max_value=-1e37),
        st.floats(min_value=1e-42, max_value=1e-36),   # VAX flush band
        st.floats(min_value=1.7e308, max_value=sys.float_info.max),  # Cray cliff
    )


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_simple_types = st.sampled_from([INTEGER, FLOAT, DOUBLE, BYTE, STRING, BOOLEAN])


def _record_from_fields(fields):
    return RecordType(tuple(RecordField(n, t) for n, t in fields))


def uts_types() -> st.SearchStrategy[UTSType]:
    """Arbitrary UTS types: scalars, nested arrays and records."""
    return st.recursive(
        _simple_types,
        lambda children: st.one_of(
            st.builds(ArrayType, st.integers(min_value=0, max_value=5), children),
            st.lists(
                st.tuples(_ident, children),
                min_size=1,
                max_size=4,
                unique_by=lambda f: f[0],
            ).map(_record_from_fields),
        ),
        max_leaves=8,
    )


def value_for(t: UTSType) -> st.SearchStrategy[Any]:
    """Conformable values of type ``t``, biased toward codec edge cases."""
    if t == INTEGER:
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if t == FLOAT:
        return st.one_of(
            st.sampled_from((0.0, -0.0, 1.5, -1.5, 3.4e38, -3.4e38, 1e-44)),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    if t == DOUBLE:
        return st.one_of(
            st.sampled_from(tuple(v for v in _SPECIAL_DOUBLES if v == v)),
            st.floats(allow_nan=False, allow_infinity=True),
        )
    if t == BYTE:
        return st.integers(min_value=0, max_value=255)
    if t == STRING:
        return st.text(max_size=20)
    if t == BOOLEAN:
        return st.booleans()
    if isinstance(t, ArrayType):
        return st.lists(value_for(t.element), min_size=t.length, max_size=t.length)
    if isinstance(t, RecordType):
        return st.fixed_dictionaries({f.name: value_for(f.type) for f in t.fields})
    raise AssertionError(t)  # pragma: no cover


#: values of the wrong shape for any UTS type
_WRONG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=2),
    st.lists(st.integers(min_value=-3, max_value=300), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def raw_values_for(t: UTSType) -> st.SearchStrategy[Any]:
    """Inputs a caller might hand to conform for type ``t``: conformable
    values, NumPy and tuple spellings of them, near misses (wrong
    length, missing or extra record fields) and plainly wrong values."""
    options = [value_for(t), _WRONG_VALUES]
    if t in (FLOAT, DOUBLE):
        options += [
            st.floats(width=64).map(np.float64),
            st.floats(width=32).map(np.float32),
            st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
        ]
    elif t in (INTEGER, BYTE):
        options += [
            st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
            st.binary(min_size=1, max_size=1),
        ]
    elif t == BOOLEAN:
        options.append(st.booleans().map(np.bool_))
    elif isinstance(t, ArrayType):
        n = t.length
        elem = raw_values_for(t.element)
        options += [
            st.lists(elem, min_size=n, max_size=n),
            st.lists(elem, min_size=n, max_size=n).map(tuple),
            st.lists(value_for(t.element), min_size=max(0, n - 1), max_size=n + 1),
            st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
            st.just(np.zeros((1, max(1, n)))),
        ]
    elif isinstance(t, RecordType):
        fields = {f.name: raw_values_for(f.type) for f in t.fields}
        options += [
            st.fixed_dictionaries(fields),
            st.fixed_dictionaries(fields).map(lambda d: dict(list(d.items())[1:])),
            st.fixed_dictionaries(fields).map(lambda d: {**d, "zz_extra": 0}),
        ]
    return st.one_of(*options)


def typed_values() -> st.SearchStrategy[Tuple[UTSType, Any]]:
    return uts_types().flatmap(lambda t: st.tuples(st.just(t), value_for(t)))


def typed_inputs() -> st.SearchStrategy[Tuple[UTSType, Any, Any]]:
    """A type, a conformable value of it, and an arbitrary conform input."""
    return uts_types().flatmap(
        lambda t: st.tuples(st.just(t), value_for(t), raw_values_for(t))
    )


def cray_raw_fields() -> st.SearchStrategy[Tuple[int, int, int]]:
    return st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-16384, max_value=16383),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
    )


def vax_raw_fields() -> st.SearchStrategy[Tuple[int, int, int, int]]:
    return st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=(1 << 55) - 1),
        st.sampled_from((55, 23)),
    ).map(lambda f: (f[0], f[1], f[2] & ((1 << f[3]) - 1), f[3]))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _assert_clean(issues: List[str]) -> None:
    if issues:
        raise ConformanceFailure("\n".join(issues))


def run(max_examples: int = 200, verbose: bool = False) -> dict:
    """Run the full differential sweep; raises :class:`ConformanceFailure`
    on the first violated invariant.  Returns a summary dict.

    ``max_examples`` bounds each hypothesis check, so the CI smoke job
    can run a short-budget pass while local runs go deeper.
    """
    config = settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )

    @config
    @given(conformance_doubles())
    def scalar_doubles(v):
        issues = check_wire_value(DOUBLE, v)
        v32 = conform(FLOAT, v) if v == v else v
        for fmt in FORMATS:
            issues += check_native_float(fmt, v, use32=False)
            issues += check_native_float(fmt, v32, use32=True)
        _assert_clean(issues)

    @config
    @given(typed_inputs())
    def structured_values(tvr):
        t, v, raw = tvr
        issues = check_compiled_conform(t, v) + check_compiled_conform(t, raw)
        v = conform(t, v)
        _assert_clean(
            issues + check_wire_value(t, v) + check_compiled_equivalence(t, v)
        )

    @config
    @given(cray_raw_fields())
    def cray_raw(fields):
        _assert_clean(check_cray_raw(*fields))

    @config
    @given(vax_raw_fields())
    def vax_raw(fields):
        _assert_clean(check_vax_raw(*fields))

    checks = [scalar_doubles, structured_values, cray_raw, vax_raw]
    for chk in checks:
        chk()
        if verbose:
            print(f"  {chk.__name__}: OK ({max_examples} examples)")
    return {
        "checks": [c.__name__ for c in checks],
        "max_examples": max_examples,
        "formats": [f.name for f in FORMATS],
        "policies": [p.value for p in POLICIES],
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="UTS codec differential conformance sweep"
    )
    parser.add_argument(
        "--max-examples",
        type=int,
        default=200,
        help="hypothesis examples per check (default 200)",
    )
    args = parser.parse_args(argv)
    if args.max_examples < 1:
        parser.error(f"--max-examples must be at least 1, got {args.max_examples}")
    print(
        f"conformance sweep: {len(FORMATS)} native formats x "
        f"{len(POLICIES)} policies, {args.max_examples} examples/check"
    )
    try:
        summary = run(max_examples=args.max_examples, verbose=True)
    except ConformanceFailure as exc:
        print(f"FAIL:\n{exc}")
        return 1
    print(f"OK: {', '.join(summary['checks'])}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

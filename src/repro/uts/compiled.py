"""Compiled UTS codecs: the fast path for wire and native conversion.

The interpretive codecs in :mod:`repro.uts.wire` and
:mod:`repro.uts.native` dispatch on ``isinstance`` for every element of
every array on every call — fine as a readable reference, but UTS
encode/decode is the hot path of every simulated RPC the paper's Tables
1–2 measure.  This module walks a :class:`~repro.uts.types.UTSType` tree
*once* and emits a flat encoder/decoder plan:

* subtrees with a fixed wire layout (no strings) collapse into a single
  ``struct`` format string — a 1k-element double array encodes with one
  ``struct.pack(">1000d", *values)`` call;
* variable-length subtrees become a flat closure list, with the type
  dispatch resolved at compile time;
* value conformance (:func:`conform_for`) becomes a closure per type
  whose fast path accepts only the canonical Python representation;
  everything else goes to the reference :func:`~repro.uts.values.conform`,
  so results and errors are the reference's by construction.

Plans are cached per type (types are immutable value objects, so they
hash), per signature+direction, and per ``(format, type, policy)`` for
native round trips.  The conformance harness
(:mod:`repro.uts.conformance`) cross-checks every compiled path against
the interpretive reference byte-for-byte.
"""

from __future__ import annotations

import math
import struct
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import UTSConversionError, UTSRangeError
from .native import (
    CrayFormat,
    IEEEFormat,
    NativeFormat,
    OutOfRangePolicy,
    VAXFormat,
)
from .types import (
    DOUBLE,
    INTEGER,
    ArrayType,
    BooleanType,
    ByteType,
    DoubleType,
    FloatType,
    IntegerType,
    RecordField,
    RecordType,
    Signature,
    StringType,
    UTSType,
)
from .values import INT64_MAX, INT64_MIN, _clamp_f32, conform, conform_args

__all__ = [
    "CompiledCodec",
    "SignatureCodec",
    "codec_for",
    "conform_for",
    "signature_codec",
    "precompile_signature",
    "native_roundtrip_for",
]

_LEN = struct.Struct(">I")
_F32 = struct.Struct(">f")
_NP_FLOAT64 = np.float64

_SCALAR_CHARS = {
    IntegerType: "q",
    FloatType: "f",
    DoubleType: "d",
    ByteType: "B",
    BooleanType: "B",  # booleans are validated after unpack
}


# ---------------------------------------------------------------------------
# flat-layout analysis
# ---------------------------------------------------------------------------


def _flat_fragment(t: UTSType) -> Optional[Tuple[str, int]]:
    """The struct format fragment and slot count for ``t``, or ``None``
    when ``t`` contains a variable-length type (string)."""
    cls = type(t)
    if cls in _SCALAR_CHARS:
        return _SCALAR_CHARS[cls], 1
    if isinstance(t, ArrayType):
        sub = _flat_fragment(t.element)
        if sub is None:
            return None
        frag, n = sub
        if not frag:  # zero-length element (e.g. empty nested array)
            return "", 0
        if len(frag) == 1:  # homogeneous scalar array: one repeat-counted code
            return f"{t.length}{frag}", n * t.length
        head, code = frag[:-1], frag[-1]
        if head.isdigit():  # nested repeat of one code: merge the counts
            return f"{int(head) * t.length}{code}", n * t.length
        return frag * t.length, n * t.length
    if isinstance(t, RecordType):
        frags: List[str] = []
        total = 0
        for f in t.fields:
            sub = _flat_fragment(f.type)
            if sub is None:
                return None
            frag, n = sub
            frags.append(frag)
            total += n
        return "".join(frags), total
    return None


def _flattener(t: UTSType) -> Callable[[Any, List[Any]], None]:
    """A closure appending ``value``'s scalars to a list in wire order."""
    if type(t) in _SCALAR_CHARS:
        def flat_scalar(value: Any, out: List[Any]) -> None:
            out.append(value)

        return flat_scalar
    if isinstance(t, ArrayType):
        if type(t.element) in _SCALAR_CHARS:
            def flat_scalar_array(value: Any, out: List[Any]) -> None:
                out.extend(value)

            return flat_scalar_array
        sub = _flattener(t.element)

        def flat_array(value: Any, out: List[Any]) -> None:
            for item in value:
                sub(item, out)

        return flat_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _flattener(f.type)) for f in t.fields)

        def flat_record(value: Any, out: List[Any]) -> None:
            for name, fn in subs:
                fn(value[name], out)

        return flat_record
    raise UTSConversionError(f"cannot compile type {t!r}")  # pragma: no cover


def _unflattener(t: UTSType) -> Callable[[Tuple[Any, ...], int], Tuple[Any, int]]:
    """A closure rebuilding a value from a flat scalar tuple.

    Takes ``(scalars, index)`` and returns ``(value, next_index)``.
    Booleans are validated here: the interpretive decoder rejects bytes
    other than 0/1, so the compiled path must too.
    """
    if isinstance(t, BooleanType):
        def un_bool(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            b = vals[i]
            if b not in (0, 1):
                raise UTSConversionError(f"invalid boolean byte {b}")
            return bool(b), i + 1

        return un_bool
    if type(t) in _SCALAR_CHARS:
        def un_scalar(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            return vals[i], i + 1

        return un_scalar
    if isinstance(t, ArrayType):
        n = t.length
        if type(t.element) in _SCALAR_CHARS and not isinstance(t.element, BooleanType):
            def un_scalar_array(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
                return list(vals[i : i + n]), i + n

            return un_scalar_array
        sub = _unflattener(t.element)

        def un_array(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            items = []
            for _ in range(n):
                item, i = sub(vals, i)
                items.append(item)
            return items, i

        return un_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _unflattener(f.type)) for f in t.fields)

        def un_record(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            rec = {}
            for name, fn in subs:
                rec[name], i = fn(vals, i)
            return rec, i

        return un_record
    raise UTSConversionError(f"cannot compile type {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# encoder / decoder compilation
# ---------------------------------------------------------------------------


def _compile_encoder(t: UTSType) -> Tuple[Callable[[Any, bytearray], None], str]:
    """Compile ``t`` into an append-to-buffer encoder and a plan string."""
    flat = _flat_fragment(t)
    if flat is not None:
        frag, _ = flat
        packer = struct.Struct(">" + frag)
        flatten = _flattener(t)

        def enc_flat(value: Any, out: bytearray) -> None:
            args: List[Any] = []
            flatten(value, args)
            out += packer.pack(*args)

        return enc_flat, f"struct('>{frag}')"
    if isinstance(t, StringType):
        def enc_string(value: Any, out: bytearray) -> None:
            payload = value.encode("utf-8")
            out += _LEN.pack(len(payload))
            out += payload

        return enc_string, "string"
    if isinstance(t, ArrayType):
        sub, sub_plan = _compile_encoder(t.element)

        def enc_array(value: Any, out: bytearray) -> None:
            for item in value:
                sub(item, out)

        return enc_array, f"repeat({t.length}, {sub_plan})"
    if isinstance(t, RecordType):
        subs = tuple(
            (f.name,) + _compile_encoder(f.type) for f in t.fields
        )

        def enc_record(value: Any, out: bytearray) -> None:
            for name, fn, _ in subs:
                fn(value[name], out)

        return enc_record, "seq(" + ", ".join(f"{n}={p}" for n, _, p in subs) + ")"
    raise UTSConversionError(f"cannot compile type {t!r}")


def _compile_decoder(t: UTSType) -> Callable[[bytes, int], Tuple[Any, int]]:
    flat = _flat_fragment(t)
    if flat is not None:
        frag, _ = flat
        unpacker = struct.Struct(">" + frag)
        unflatten = _unflattener(t)
        size = unpacker.size

        def dec_flat(data: bytes, offset: int) -> Tuple[Any, int]:
            vals = unpacker.unpack_from(data, offset)
            value, _ = unflatten(vals, 0)
            return value, offset + size

        return dec_flat
    if isinstance(t, StringType):
        def dec_string(data: bytes, offset: int) -> Tuple[Any, int]:
            (length,) = _LEN.unpack_from(data, offset)
            offset += 4
            if offset + length > len(data):
                raise UTSConversionError("truncated string payload")
            # bytes(...) is free for bytes and the one unavoidable copy
            # when the wire data is a borrowed memoryview
            payload = bytes(data[offset : offset + length])
            try:
                return payload.decode("utf-8"), offset + length
            except UnicodeDecodeError as exc:
                raise UTSConversionError(f"invalid UTF-8 in string: {exc}") from exc

        return dec_string
    if isinstance(t, ArrayType):
        sub = _compile_decoder(t.element)
        n = t.length

        def dec_array(data: bytes, offset: int) -> Tuple[Any, int]:
            items = []
            for _ in range(n):
                item, offset = sub(data, offset)
                items.append(item)
            return items, offset

        return dec_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _compile_decoder(f.type)) for f in t.fields)

        def dec_record(data: bytes, offset: int) -> Tuple[Any, int]:
            rec = {}
            for name, fn in subs:
                rec[name], offset = fn(data, offset)
            return rec, offset

        return dec_record
    raise UTSConversionError(f"cannot compile type {t!r}")


class CompiledCodec:
    """A wire encoder/decoder for one UTS type, compiled once.

    ``plan`` is a human-readable rendering of the emitted plan — a single
    ``struct(...)`` node when the whole type has a fixed layout.
    """

    __slots__ = ("type", "plan", "_encode_into", "_decode_from")

    def __init__(self, t: UTSType):
        self.type = t
        self._encode_into, self.plan = _compile_encoder(t)
        self._decode_from = _compile_decoder(t)

    def encode(self, value: Any) -> bytes:
        """Encode a conformed value; byte-identical to
        :func:`repro.uts.wire.encode_value`."""
        out = bytearray()
        self._encode_into(value, out)
        return bytes(out)

    def encode_into(self, value: Any, out: bytearray) -> None:
        self._encode_into(value, out)

    def decode(self, data: bytes, offset: int = 0) -> Tuple[Any, int]:
        """Decode ``(value, next_offset)``; mirrors
        :func:`repro.uts.wire.decode_value` including error behaviour."""
        try:
            return self._decode_from(data, offset)
        except struct.error as exc:
            raise UTSConversionError(
                f"truncated wire data for {self.type.describe()}: {exc}"
            ) from exc


_CODECS: Dict[UTSType, CompiledCodec] = {}


def codec_for(t: UTSType) -> CompiledCodec:
    """The compiled codec for ``t``, compiling and caching on first use."""
    codec = _CODECS.get(t)
    if codec is None:
        codec = _CODECS[t] = CompiledCodec(t)
    return codec


# ---------------------------------------------------------------------------
# value conformance
# ---------------------------------------------------------------------------


def _compile_conform(t: UTSType) -> Callable[[Any], Any]:
    """A conform closure for ``t``.  The fast path accepts exactly the
    canonical representation (``float`` or NumPy ``float64`` for
    doubles, ``int`` for integers, ``list``/``tuple`` of the right
    length, ``dict`` with exactly the field names); anything else,
    including every value that will be rejected, is handed to the
    reference :func:`~repro.uts.values.conform`."""
    if isinstance(t, DoubleType):
        def conform_double(value: Any) -> Any:
            cls = value.__class__
            if cls is float:
                return value
            if cls is _NP_FLOAT64:
                return float(value)
            return conform(t, value)

        return conform_double
    if isinstance(t, FloatType):
        def conform_float(value: Any) -> Any:
            cls = value.__class__
            if cls is float or cls is _NP_FLOAT64:
                return _F32.unpack(_F32.pack(_clamp_f32(float(value))))[0]
            return conform(t, value)

        return conform_float
    if isinstance(t, (IntegerType, ByteType)):
        lo, hi = (INT64_MIN, INT64_MAX) if isinstance(t, IntegerType) else (0, 255)

        def conform_int(value: Any) -> Any:
            if value.__class__ is int and lo <= value <= hi:
                return value
            return conform(t, value)

        return conform_int
    if isinstance(t, (StringType, BooleanType)):
        canonical = str if isinstance(t, StringType) else bool

        def conform_exact(value: Any) -> Any:
            if value.__class__ is canonical:
                return value
            return conform(t, value)

        return conform_exact
    if isinstance(t, ArrayType):
        elem = conform_for(t.element)
        n = t.length

        def conform_array(value: Any) -> Any:
            cls = value.__class__
            if (cls is list or cls is tuple) and len(value) == n:
                return [elem(v) for v in value]
            return conform(t, value)

        return conform_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, conform_for(f.type)) for f in t.fields)
        names = frozenset(f.name for f in t.fields)

        def conform_record(value: Any) -> Any:
            if value.__class__ is dict and value.keys() == names:
                return {name: fn(value[name]) for name, fn in subs}
            return conform(t, value)

        return conform_record
    return lambda value: conform(t, value)  # raises: unsupported type


_CONFORMERS: Dict[UTSType, Callable[[Any], Any]] = {}


def conform_for(t: UTSType) -> Callable[[Any], Any]:
    """The compiled conform for ``t``: value-for-value and
    exception-for-exception equal to ``conform(t, value)`` (checked by
    :mod:`repro.uts.conformance`)."""
    fn = _CONFORMERS.get(t)
    if fn is None:
        fn = _CONFORMERS[t] = _compile_conform(t)
    return fn


# ---------------------------------------------------------------------------
# signature (argument list) codecs
# ---------------------------------------------------------------------------


class SignatureCodec:
    """Marshals one direction of a call's arguments with compiled codecs.

    Drop-in equivalent of :func:`repro.uts.wire.marshal_args` /
    :func:`~repro.uts.wire.unmarshal_args` for a fixed
    ``(signature, direction)``.

    ``params`` are the direction's parameters; ``record_type`` is the
    same list as a UTS record (one field per parameter, in order), the
    type a whole argument dict has — so one native round-trip plan
    (:func:`native_roundtrip_for`) converts every argument of a call.

    A codec may be *bound* to one machine's native format
    (:meth:`bind`): it is then one leg of an RPC.  Its
    :meth:`encode_conformed_into` without a buffer conforms the
    arguments, applies the native format and returns the packed request
    or reply; its :meth:`unmarshal` decodes and applies the native
    format.  When every parameter is a ``double``, an ``integer`` or a
    fixed array of them, each leg is one ``Struct`` call plus a type
    check, and the native conversion works on the packed lanes
    (:func:`_lane_kernels`); any other value or layout takes the
    composition of the reference pieces, so values and errors are the
    reference's either way.
    """

    __slots__ = ("signature", "direction", "params", "record_type", "native",
                 "_params", "_conform", "_encode_leg", "_decode_leg", "_legs")

    def __init__(
        self,
        sig: Signature,
        direction: str,
        native: Optional[Tuple[NativeFormat, OutOfRangePolicy, Callable[[Any], Any]]] = None,
    ):
        if direction not in ("send", "return"):  # pragma: no cover
            raise ValueError(f"bad direction {direction!r}")
        self.signature = sig
        self.direction = direction
        params = sig.sent_params if direction == "send" else sig.returned_params
        self.params = params
        self.record_type = RecordType(tuple(RecordField(p.name, p.type) for p in params))
        #: ``(format, policy, plan)`` of a bound leg, ``None`` for wire only
        self.native = native
        self._params = tuple((p.name, codec_for(p.type)) for p in params)
        self._legs: Dict[Tuple[NativeFormat, OutOfRangePolicy], SignatureCodec] = {}
        expected = frozenset(p.name for p in params)
        subs = tuple((p.name, conform_for(p.type)) for p in params)

        def conform_sig(args: Dict[str, Any]) -> Dict[str, Any]:
            if args.keys() != expected:
                return conform_args(sig, args, direction)  # raises
            return {name: fn(args[name]) for name, fn in subs}

        self._conform = conform_sig
        self._encode_leg, self._decode_leg = _compile_legs(self)

    def bind(self, fmt: NativeFormat, policy: OutOfRangePolicy,
             plan: Callable[[Any], Any]) -> "SignatureCodec":
        """This codec as an RPC leg on a machine of native format
        ``fmt``: ``plan`` is :func:`native_roundtrip_for` of ``fmt``,
        :attr:`record_type` and ``policy``.  One leg per format and
        policy is built and kept."""
        key = (fmt, policy)
        leg = self._legs.get(key)
        if leg is None:
            leg = self._legs[key] = SignatureCodec(
                self.signature, self.direction, (fmt, policy, plan)
            )
        return leg

    def conform(self, args: Dict[str, Any]) -> Dict[str, Any]:
        """Compiled :func:`~repro.uts.values.conform_args` for this
        signature and direction: same values, same errors."""
        return self._conform(args)

    def marshal(self, args: Dict[str, Any]) -> bytes:
        """Conform and encode; equivalent to ``marshal_args``."""
        return self.encode_conformed(self._conform(args))

    def encode_conformed(self, args: Dict[str, Any]) -> bytes:
        """Encode arguments already in canonical form (skips the second
        conformance pass the interpretive path performs)."""
        out = bytearray()
        self.encode_conformed_into(args, out)
        return bytes(out)

    def encode_conformed_into(self, args: Dict[str, Any], out: Optional[bytearray] = None):
        """With ``out``: append canonical ``args`` to a caller-owned
        buffer and return the bytes appended (no native conversion).

        Without ``out``: the outgoing RPC leg.  Conform ``args``, apply
        the bound native format (if any) and return the encoded bytes,
        equal to ``marshal_args`` of the natively round-tripped
        arguments, with the reference's errors."""
        if out is None:
            return self._encode_leg(args)
        n0 = len(out)
        for name, codec in self._params:
            codec.encode_into(args[name], out)
        return len(out) - n0

    def unmarshal(self, data: bytes) -> Dict[str, Any]:
        """Decode one direction's arguments (then, for a bound leg,
        apply its native format); equal to ``unmarshal_args`` and its
        errors, truncated or trailing data included."""
        return self._decode_leg(data)

    def _unmarshal_wire(self, data: bytes) -> Dict[str, Any]:
        args: Dict[str, Any] = {}
        offset = 0
        for name, codec in self._params:
            args[name], offset = codec.decode(data, offset)
        if offset != len(data):
            raise UTSConversionError(
                f"{self.signature.name}: {len(data) - offset} trailing bytes "
                f"after {self.direction} args"
            )
        return args


_SIG_CODECS: Dict[Tuple[Signature, str], SignatureCodec] = {}


def signature_codec(sig: Signature, direction: str) -> SignatureCodec:
    codec = _SIG_CODECS.get((sig, direction))
    if codec is None:
        codec = _SIG_CODECS[(sig, direction)] = SignatureCodec(sig, direction)
    return codec


def precompile_signature(sig: Signature) -> None:
    """Warm both directions' codecs ahead of the first call (binding a
    call plan, :func:`repro.schooner.runtime.bind_call`, builds them on
    demand otherwise)."""
    signature_codec(sig, "send")
    signature_codec(sig, "return")


# ---------------------------------------------------------------------------
# native round-trip plans
# ---------------------------------------------------------------------------

_F32_LIMIT = 3.4028235677973366e38  # mirrors IEEEFormat.pack_float32


def _identity(value: Any) -> Any:
    return value


_CRAY_ONE = 1 << 48  # the Cray mantissa scale (48 explicit bits)


def _cray_roundtrip(pack, unpack, policy: OutOfRangePolicy) -> Callable[[Any], Any]:
    """A Cray word round trip.  A finite nonzero double keeps its
    exponent and rounds its mantissa to 48 bits, which is what
    ``CrayFormat``'s pack/unpack compute through the 64-bit word; zeros,
    infinities, NaN and results beyond IEEE range take that reference
    path, which raises or clamps under ``policy``."""

    def native_cray(value: Any) -> Any:
        if value == 0.0 or value != value or math.isinf(value):
            return unpack(pack(value, policy), policy)
        m, e = math.frexp(abs(value))
        mant = round(m * _CRAY_ONE)
        if mant >= _CRAY_ONE:  # rounding carried out of the top
            mant >>= 1
            e += 1
        try:
            magnitude = math.ldexp(mant / _CRAY_ONE, e)
        except OverflowError:
            return unpack(pack(value, policy), policy)
        return -magnitude if value < 0 else magnitude

    return native_cray


def _compile_native(
    fmt: NativeFormat, t: UTSType, policy: OutOfRangePolicy
) -> Callable[[Any], Any]:
    if isinstance(t, IntegerType):
        if type(fmt) in (IEEEFormat, CrayFormat, VAXFormat):
            # two's-complement pack/unpack is the identity within range,
            # so the plan reduces to the range check
            lo = -(2 ** (fmt.int_bits - 1))
            hi = 2 ** (fmt.int_bits - 1) - 1

            def native_int(value: Any) -> Any:
                if not lo <= value <= hi:
                    raise UTSRangeError(
                        f"integer {value} does not fit in {fmt.name} native "
                        f"{fmt.int_bits}-bit integer"
                    )
                return value

            return native_int

        def native_int_generic(value: Any) -> Any:  # pragma: no cover
            return fmt.unpack_integer(fmt.pack_integer(value))

        return native_int_generic
    if isinstance(t, FloatType):
        if type(fmt) is IEEEFormat:
            if policy is OutOfRangePolicy.ERROR:
                def native_f32(value: Any) -> Any:
                    if (
                        value == value
                        and abs(value) > _F32_LIMIT
                        and not math.isinf(value)
                    ):
                        raise UTSRangeError(
                            f"{value!r} exceeds IEEE binary32 range on {fmt.name}"
                        )
                    return _F32.unpack(_F32.pack(value))[0]

            else:
                def native_f32(value: Any) -> Any:
                    if (
                        value == value
                        and abs(value) > _F32_LIMIT
                        and not math.isinf(value)
                    ):
                        value = math.copysign(math.inf, value)
                    return _F32.unpack(_F32.pack(value))[0]

            return native_f32
        pack32, unpack32 = fmt.pack_float32, fmt.unpack_float32
        if type(fmt) is CrayFormat:  # Cray single is the same 64-bit word
            return _cray_roundtrip(pack32, unpack32, policy)

        def native_f32_generic(value: Any) -> Any:
            return unpack32(pack32(value, policy), policy)

        return native_f32_generic
    if isinstance(t, DoubleType):
        if type(fmt) is IEEEFormat:
            # struct '>d' pack+unpack is exact for every Python float
            return _identity
        pack64, unpack64 = fmt.pack_float64, fmt.unpack_float64
        if type(fmt) is CrayFormat:
            return _cray_roundtrip(pack64, unpack64, policy)

        def native_f64_generic(value: Any) -> Any:
            return unpack64(pack64(value, policy), policy)

        return native_f64_generic
    if isinstance(t, (ByteType, StringType, BooleanType)):
        return _identity
    if isinstance(t, ArrayType):
        elem = _compile_native(fmt, t.element, policy)
        if elem is _identity:
            return list  # copy, matching the interpretive path

        def native_array(value: Any) -> Any:
            return [elem(v) for v in value]

        return native_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _compile_native(fmt, f.type, policy)) for f in t.fields)
        if all(fn is _identity for _, fn in subs):
            return dict  # copy, matching the interpretive path

        def native_record(value: Any) -> Any:
            return {name: fn(value[name]) for name, fn in subs}

        return native_record
    raise UTSConversionError(f"unsupported type {t!r}")


_NATIVE_PLANS: Dict[
    Tuple[NativeFormat, UTSType, OutOfRangePolicy], Callable[[Any], Any]
] = {}


def native_roundtrip_for(
    fmt: NativeFormat, t: UTSType, policy: OutOfRangePolicy
) -> Callable[[Any], Any]:
    """The compiled native round-trip plan for ``(fmt, t, policy)``.

    Backs :func:`repro.uts.native.roundtrip_native`; semantics are
    checked against the interpretive reference by the conformance
    harness.
    """
    key = (fmt, t, policy)
    plan = _NATIVE_PLANS.get(key)
    if plan is None:
        plan = _NATIVE_PLANS[key] = _compile_native(fmt, t, policy)
    return plan


# ---------------------------------------------------------------------------
# RPC legs: a bound signature codec's encode and decode
# ---------------------------------------------------------------------------

#: scalar types a leg packs as one 8-byte lane, by struct code
_LANE_CODES = {DoubleType: "d", IntegerType: "q"}
#: the classes the legs' type check accepts per lane; any other value
#: (``bool``, ``int`` for a double, NumPy integers, ...) is conformed by
#: the reference path
_LANE_CODE_OF = {float: "d", _NP_FLOAT64: "d", int: "q"}
_DOUBLE_CLASSES = frozenset((float, _NP_FLOAT64))


def _leg_layout(params) -> Optional[Tuple[str, Tuple[Tuple[str, Optional[int]], ...]]]:
    """The lane codes and ``(name, array length or None)`` shape of a
    parameter list whose every parameter is a ``double``, an
    ``integer`` or a fixed array of them; ``None`` for any other."""
    codes: List[str] = []
    shape: List[Tuple[str, Optional[int]]] = []
    for p in params:
        t = p.type
        code = _LANE_CODES.get(type(t))
        if code is not None:
            codes.append(code)
            shape.append((p.name, None))
            continue
        if isinstance(t, ArrayType):
            code = _LANE_CODES.get(type(t.element))
            if code is not None:
                codes.append(code * t.length)
                shape.append((p.name, t.length))
                continue
        return None
    return "".join(codes), tuple(shape)


def _tuple_getter(names: Tuple[str, ...]) -> Callable[[Dict[str, Any]], Tuple[Any, ...]]:
    if len(names) >= 2:
        return itemgetter(*names)
    if names:
        (name,) = names
        return lambda args: (args[name],)
    return lambda args: ()


def _cray_lanes(packer: struct.Struct, doubles: List[int], per_value: Callable[[Any], Any]):
    """The Cray round trip of the ``doubles`` lanes of a packed record,
    all lanes at once.

    A normal double keeps its exponent and rounds its 53-bit significand
    to the Cray's 48 bits: drop 5 bits, round half to even, and let a
    carry run into the exponent.  A zero keeps its sign and stays zero,
    which the same rounding does.  On the whole record as one integer
    that is a masked add per lane, and no lane can carry into the next.
    A record with a subnormal, infinite or NaN lane, or whose rounding
    carries into the top exponent, takes ``per_value`` (the compiled
    per-value plan, which uses the reference pack/unpack there) lane by
    lane in wire order, so raise/clamp and the first error are the
    reference's."""
    nlanes = packer.size // 8
    nbytes = packer.size

    def rep(word: int) -> int:
        return sum(word << (64 * (nlanes - 1 - i)) for i in doubles)

    mag = rep(0x7FFF_FFFF_FFFF_FFFF)
    keep = ((1 << (64 * nlanes)) - 1) ^ mag  # integer lanes, sign bits
    ones, fifteen = rep(1), rep(15)
    clear = rep(0x7FFF_FFFF_FFFF_FFE0)
    top = rep(1 << 63)
    # a lane's bit 63 after adding: nonzero / at least 2**52 (not zero
    # or subnormal) / exponent field all ones (inf, NaN)
    nonzero, normal, infinite = rep((1 << 63) - 1), rep((1 << 63) - (1 << 52)), rep(1 << 52)
    from_bytes = int.from_bytes

    def by_value(data: bytes) -> bytes:
        vals = list(packer.unpack(data))
        for i in doubles:
            vals[i] = per_value(vals[i])
        return packer.pack(*vals)

    def cray(data: bytes) -> bytes:
        x = from_bytes(data, "big")
        m = x & mag
        if ((m + nonzero) & ~(m + normal) | (m + infinite)) & top:
            return by_value(data)  # a subnormal, infinite or NaN lane
        r = (m + fifteen + ((x >> 5) & ones)) & clear
        if (r + infinite) & top:  # rounding carried out of range
            return by_value(data)
        return (r | (x & keep)).to_bytes(nbytes, "big")

    return cray


def _lane_kernels(fmt: NativeFormat, policy: OutOfRangePolicy, packer: struct.Struct,
                  codes: str):
    """The native conversion of a packed leg: ``(bytes kernel or None,
    ((lane, per-value fn), ...))``; both empty means the format keeps
    every lane as it is."""
    fixes = []
    for i, code in enumerate(codes):
        fn = native_roundtrip_for(fmt, DOUBLE if code == "d" else INTEGER, policy)
        if fn is _identity:
            continue
        if code == "q":
            if type(fmt) in (IEEEFormat, CrayFormat, VAXFormat) and fmt.int_bits >= 64:
                continue  # conformed integers are 64-bit: nothing to check
            fixes.append((i, fn))
        else:
            # the reference converts conformed (plain float) values; a
            # NumPy scalar would change the repr in an error message
            fixes.append((i, lambda v, fn=fn: fn(float(v))))
    if fixes and type(fmt) is CrayFormat and all(codes[i] == "d" for i, _ in fixes):
        per_value = native_roundtrip_for(fmt, DOUBLE, policy)
        return _cray_lanes(packer, [i for i, _ in fixes], per_value), ()
    return None, tuple(fixes)


def _compile_legs(codec: SignatureCodec):
    """``(encode, decode)`` of a (possibly bound) signature codec: see
    :class:`SignatureCodec`."""
    plan = _identity if codec.native is None else codec.native[2]
    conform_args_ = codec._conform
    encode_conformed = codec.encode_conformed
    unmarshal_wire = codec._unmarshal_wire

    def encode_ref(args: Dict[str, Any]) -> bytes:
        return encode_conformed(plan(conform_args_(args)))

    def decode_ref(data: bytes) -> Dict[str, Any]:
        return plan(unmarshal_wire(data))

    layout = _leg_layout(codec.params)
    if layout is None:
        return encode_ref, decode_ref
    codes, shape = layout
    packer = struct.Struct(">" + codes)
    pack, unpack, size = packer.pack, packer.unpack, packer.size
    if codec.native is None:
        lanes, fixes = None, ()
    else:
        lanes, fixes = _lane_kernels(codec.native[0], codec.native[1], packer, codes)
    names = tuple(name for name, _ in shape)
    nparams = len(names)
    get = _tuple_getter(names)
    scalars = all(n is None for _, n in shape)

    if scalars and "q" not in codes and not fixes:
        # the common leg (every F100 compute procedure): scalar doubles,
        # kept as they are or through one bytes kernel
        def encode_doubles(args: Dict[str, Any]) -> bytes:
            if args.__class__ is dict and len(args) == nparams:
                try:
                    vals = get(args)
                except KeyError:
                    return encode_ref(args)
                if _DOUBLE_CLASSES.issuperset(map(type, vals)):
                    data = pack(*vals)
                    return data if lanes is None else lanes(data)
            return encode_ref(args)

        def decode_doubles(data: bytes) -> Dict[str, Any]:
            if len(data) != size:
                return decode_ref(data)  # raises: truncated or trailing
            return dict(zip(names, unpack(data if lanes is None else lanes(data))))

        return encode_doubles, decode_doubles

    # the general leg: integers, arrays or per-value native fixes
    lane_codes = tuple(codes)
    ints = tuple(i for i, code in enumerate(codes) if code == "q")

    def flat_args(args: Dict[str, Any]):
        """The arguments' lanes in wire order, or ``None`` when anything
        is not a canonical double/integer of the right shape."""
        if args.__class__ is not dict or len(args) != nparams:
            return None
        try:
            vals = get(args)
        except KeyError:
            return None
        if scalars:
            flat = vals
        else:
            flat = []
            for (_, n), v in zip(shape, vals):
                if n is None:
                    flat.append(v)
                elif (v.__class__ is list or v.__class__ is tuple) and len(v) == n:
                    flat.extend(v)
                else:
                    return None
        if tuple(map(_LANE_CODE_OF.get, map(type, flat))) != lane_codes:
            return None
        for i in ints:
            if not INT64_MIN <= flat[i] <= INT64_MAX:
                return None
        return flat

    def encode_leg(args: Dict[str, Any]) -> bytes:
        flat = flat_args(args)
        if flat is None:
            return encode_ref(args)
        if fixes:
            flat = list(flat)
            for i, fn in fixes:
                flat[i] = fn(flat[i])
        data = pack(*flat)
        return data if lanes is None else lanes(data)

    def decode_leg(data: bytes) -> Dict[str, Any]:
        if len(data) != size:
            return decode_ref(data)  # raises: truncated or trailing
        vals = unpack(data if lanes is None else lanes(data))
        if fixes:
            vals = list(vals)
            for i, fn in fixes:
                vals[i] = fn(vals[i])
        rec: Dict[str, Any] = {}
        i = 0
        for name, n in shape:
            if n is None:
                rec[name] = vals[i]
                i += 1
            else:
                rec[name] = list(vals[i : i + n])
                i += n
        return rec

    return encode_leg, decode_leg

"""The UTS type model.

UTS provides "the common simple types such as float, integer, byte, and
string, as well as structured types such as arrays and records"
(paper, section 3.1).  Section 4.1 records the later split of the floating
type into single-precision ``float`` and double-precision ``double``.

Types are immutable value objects: two structurally identical types compare
equal, which is what both the stub compiler and the Manager's runtime
type-checker rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Tuple

from .errors import UTSCompatibilityError, UTSTypeError

__all__ = [
    "UTSType",
    "IntegerType",
    "FloatType",
    "DoubleType",
    "ByteType",
    "StringType",
    "BooleanType",
    "ArrayType",
    "RecordField",
    "RecordType",
    "ParamMode",
    "Parameter",
    "Signature",
    "INTEGER",
    "FLOAT",
    "DOUBLE",
    "BYTE",
    "STRING",
    "BOOLEAN",
]


@dataclass(frozen=True)
class UTSType:
    """Base class for all UTS types."""

    def describe(self) -> str:
        """Render the type in UTS specification-language syntax."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass(frozen=True)
class IntegerType(UTSType):
    """A signed integer.  The intermediate representation is 64-bit."""

    def describe(self) -> str:
        return "integer"


@dataclass(frozen=True)
class FloatType(UTSType):
    """Single-precision floating point (added in the 4.1 evolution)."""

    def describe(self) -> str:
        return "float"


@dataclass(frozen=True)
class DoubleType(UTSType):
    """Double-precision floating point (the original sole float type)."""

    def describe(self) -> str:
        return "double"


@dataclass(frozen=True)
class ByteType(UTSType):
    """A single octet, 0..255."""

    def describe(self) -> str:
        return "byte"


@dataclass(frozen=True)
class StringType(UTSType):
    """A variable-length character string."""

    def describe(self) -> str:
        return "string"


@dataclass(frozen=True)
class BooleanType(UTSType):
    """A truth value."""

    def describe(self) -> str:
        return "boolean"


# Canonical singletons; use these rather than constructing new instances.
INTEGER = IntegerType()
FLOAT = FloatType()
DOUBLE = DoubleType()
BYTE = ByteType()
STRING = StringType()
BOOLEAN = BooleanType()


@dataclass(frozen=True)
class ArrayType(UTSType):
    """A fixed-length homogeneous array, ``array[N] of T``."""

    length: int
    element: UTSType

    def __post_init__(self) -> None:
        if self.length < 0:
            raise UTSTypeError(f"array length must be non-negative, got {self.length}")

    def describe(self) -> str:
        return f"array[{self.length}] of {self.element.describe()}"


@dataclass(frozen=True)
class RecordField:
    """One named field of a record type."""

    name: str
    type: UTSType


@dataclass(frozen=True)
class RecordType(UTSType):
    """A record (struct) with named, ordered fields."""

    fields: Tuple[RecordField, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise UTSTypeError(f"duplicate record field names in {names}")

    @staticmethod
    def of(**fields: UTSType) -> "RecordType":
        """Convenience constructor: ``RecordType.of(x=INTEGER, y=DOUBLE)``."""
        return RecordType(tuple(RecordField(n, t) for n, t in fields.items()))

    def field_named(self, name: str) -> RecordField:
        for f in self.fields:
            if f.name == name:
                return f
        raise UTSTypeError(f"record has no field {name!r}")

    def describe(self) -> str:
        inner = "; ".join(f"{f.name}: {f.type.describe()}" for f in self.fields)
        return f"record {inner} end"


class ParamMode(Enum):
    """Parameter passing modes.

    The paper: "all parameters are specified as either value or result
    parameters; UTS supports var (value/result) parameters as well."
    """

    VAL = "val"  # caller -> callee only
    RES = "res"  # callee -> caller only
    VAR = "var"  # both directions

    @property
    def sends(self) -> bool:
        """True when the argument travels in the request message."""
        return self in (ParamMode.VAL, ParamMode.VAR)

    @property
    def returns(self) -> bool:
        """True when the argument travels in the reply message."""
        return self in (ParamMode.RES, ParamMode.VAR)


@dataclass(frozen=True)
class Parameter:
    """A named, moded, typed procedure parameter."""

    name: str
    mode: ParamMode
    type: UTSType

    def describe(self) -> str:
        return f'"{self.name}" {self.mode.value} {self.type.describe()}'


@dataclass(frozen=True)
class Signature:
    """A procedure signature: the payload of an export or import spec.

    ``kind`` is the spec-language keyword after the procedure name; the
    paper only shows ``prog`` but we keep it open for extension.
    """

    name: str
    params: Tuple[Parameter, ...] = field(default_factory=tuple)
    kind: str = "prog"

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise UTSTypeError(f"duplicate parameter names in {self.name}: {names}")

    # computed once per signature: the per-call paths (conform, result
    # shaping) read them on every RPC
    @cached_property
    def sent_params(self) -> Tuple[Parameter, ...]:
        """Parameters carried caller -> callee (val and var)."""
        return tuple(p for p in self.params if p.mode.sends)

    @cached_property
    def returned_params(self) -> Tuple[Parameter, ...]:
        """Parameters carried callee -> caller (res and var)."""
        return tuple(p for p in self.params if p.mode.returns)

    def param_named(self, name: str) -> Parameter:
        for p in self.params:
            if p.name == name:
                return p
        raise UTSTypeError(f"{self.name} has no parameter {name!r}")

    def describe(self) -> str:
        inner = ",\n    ".join(p.describe() for p in self.params)
        return f"{self.name} {self.kind}(\n    {inner})" if inner else f"{self.name} {self.kind}()"

    def check_import_subset(self, export: "Signature") -> None:
        """Verify this (import) signature is a legal subset of ``export``.

        The paper (footnote 1): "UTS actually allows the import to be, in
        essence, a subset of the export".  We interpret subset as: every
        import parameter must appear in the export with identical name,
        mode, and type, in the same relative order.  An exact match is the
        degenerate (and, in NPSS, the only exploited) case.
        """
        if self.name != export.name:
            raise UTSCompatibilityError(
                f"import names {self.name!r} but export names {export.name!r}"
            )
        if self.kind != export.kind:
            raise UTSCompatibilityError(
                f"{self.name}: import kind {self.kind!r} != export kind {export.kind!r}"
            )
        pos = 0
        export_params = export.params
        for p in self.params:
            # advance through the export parameter list looking for p,
            # preserving relative order
            while pos < len(export_params) and export_params[pos].name != p.name:
                pos += 1
            if pos >= len(export_params):
                raise UTSCompatibilityError(
                    f"{self.name}: import parameter {p.name!r} not found in export "
                    f"(or out of order)"
                )
            ep = export_params[pos]
            if ep.mode is not p.mode:
                raise UTSCompatibilityError(
                    f"{self.name}.{p.name}: import mode {p.mode.value} != export mode {ep.mode.value}"
                )
            if ep.type != p.type:
                raise UTSCompatibilityError(
                    f"{self.name}.{p.name}: import type {p.type.describe()} != "
                    f"export type {ep.type.describe()}"
                )
            pos += 1


def walk_type(t: UTSType) -> Iterable[UTSType]:
    """Yield ``t`` and every type nested within it, outermost first."""
    yield t
    if isinstance(t, ArrayType):
        yield from walk_type(t.element)
    elif isinstance(t, RecordType):
        for f in t.fields:
            yield from walk_type(f.type)

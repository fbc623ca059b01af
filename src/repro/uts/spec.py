"""Import/export specification files.

"An *export specification* is written for each procedure that is to be
publically available, while a nearly identical *import specification* is
written and associated with the invoking code." (paper, section 3.1)

A :class:`SpecFile` is the parsed form of one specification file; it can
hold many declarations (the shaft example exports both ``setshaft`` and
``shaft`` from one file).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import UTSCompatibilityError, UTSError
from .parser import Declaration, parse_spec
from .types import Signature

__all__ = ["SpecFile", "check_compatibility", "render_signature"]


@dataclass
class SpecFile:
    """A parsed UTS specification file."""

    declarations: Tuple[Declaration, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, source: str) -> "SpecFile":
        """Parse spec-language source.  The declarations are immutable
        and memoised per source text; every call returns a fresh
        ``SpecFile`` around them."""
        return cls(_parse_declarations(source))

    @classmethod
    def load(cls, path) -> "SpecFile":
        """Read and parse a specification file from disk — the spec is
        "co-located with the ... files on the remote machine"."""
        from pathlib import Path

        return cls.parse(Path(path).read_text())

    def save(self, path) -> None:
        """Render and write this specification to disk."""
        from pathlib import Path

        Path(path).write_text(self.render() + "\n")

    @property
    def exports(self) -> Dict[str, Signature]:
        return {d.signature.name: d.signature for d in self.declarations if d.is_export}

    @property
    def imports(self) -> Dict[str, Signature]:
        return {d.signature.name: d.signature for d in self.declarations if not d.is_export}

    def export_named(self, name: str) -> Signature:
        try:
            return self.exports[name]
        except KeyError:
            raise UTSError(f"spec file exports no procedure named {name!r}") from None

    def import_named(self, name: str) -> Signature:
        try:
            return self.imports[name]
        except KeyError:
            raise UTSError(f"spec file imports no procedure named {name!r}") from None

    def as_imports(self) -> "SpecFile":
        """The "nearly identical" import spec matching this export spec:
        same signatures, direction flipped."""
        return SpecFile(
            tuple(Declaration("import", d.signature) for d in self.declarations)
        )

    def render(self) -> str:
        """Render the spec file back to specification-language source."""
        return "\n\n".join(
            f"{d.direction} {render_signature(d.signature)}" for d in self.declarations
        )


@lru_cache(maxsize=256)
def _parse_declarations(source: str) -> Tuple[Declaration, ...]:
    return tuple(parse_spec(source))


def render_signature(sig: Signature) -> str:
    """Render a signature in spec-language syntax (parse/render round-trips)."""
    if not sig.params:
        return f"{sig.name} {sig.kind}()"
    lines: List[str] = []
    for i, p in enumerate(sig.params):
        sep = "," if i < len(sig.params) - 1 else ")"
        lines.append(f'    "{p.name}" {p.mode.value} {p.type.describe()}{sep}')
    return f"{sig.name} {sig.kind}(\n" + "\n".join(lines)


def check_compatibility(import_sig: Signature, export_sig: Signature) -> None:
    """Raise :class:`UTSCompatibilityError` unless the import is a legal
    subset of the export (paper footnote 1)."""
    import_sig.check_import_subset(export_sig)

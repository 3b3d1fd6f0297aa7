"""Parser and serializer for kinematic-chain description strings.

A chain string is a hyphen-separated sequence of tokens ordered from the
base of the chain to its end, e.g. ``I-T'0-T'0-A0-t0-i0-g0``.  Each token
is a single module-type letter, an optional prime marking inverted
installation, and, on every non-base token, the connection angle to the
parent: one of 0, 90, 180 or -90 (canonically written ``(-90)``).

The grammar knows no catalog: any ASCII letter is a type code.  Which
codes exist, and which are tools, is checked where a chain meets a database.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

ANGLES = (-90, 0, 90, 180)


def is_type_code(code: str) -> bool:
    """Whether `code` can name a module type in a chain string."""
    return isinstance(code, str) and len(code) == 1 and code.isascii() and code.isalpha()


class ChainSyntaxError(ValueError):
    """Parse failure with the offending position in the input string."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"position {position}: {message}")


@dataclass(frozen=True)
class ChainEntry:
    type_code: str
    inverted: bool = False
    connection_angle: float | None = None


@dataclass(frozen=True)
class ChainDescriptor:
    entries: tuple[ChainEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("a chain needs at least one entry")
        for i, e in enumerate(entries):
            if not is_type_code(e.type_code):
                raise ValueError(f"invalid module code {e.type_code!r}")
            if i == 0:
                if e.connection_angle is not None:
                    raise ValueError("the base entry carries no connection angle")
            elif e.connection_angle not in ANGLES:
                raise ValueError(f"entry {i}: connection angle must be one of {ANGLES}")


def parse(text: str) -> ChainDescriptor:
    """Parse a description string, raising ChainSyntaxError on any defect."""
    if not text:
        raise ChainSyntaxError(0, "empty description string")
    entries: list[ChainEntry] = []
    pos = 0
    n = len(text)
    while True:
        token_start = pos
        if pos >= n:
            raise ChainSyntaxError(pos, "expected a module token")
        code = text[pos]
        if not is_type_code(code):
            raise ChainSyntaxError(pos, f"invalid module code {code!r}")
        pos += 1
        inverted = False
        if pos < n and text[pos] == "'":
            inverted = True
            pos += 1
        angle, pos = _scan_angle(text, pos)
        if not entries:
            if angle is not None:
                raise ChainSyntaxError(token_start, "the base token carries no connection angle")
        elif angle is None:
            warnings.warn(
                f"token at position {token_start} has no connection angle; assuming 0",
                stacklevel=2,
            )
            angle = 0
        entries.append(ChainEntry(code, inverted, None if angle is None else float(angle)))
        if pos >= n:
            break
        if text[pos] != "-":
            raise ChainSyntaxError(pos, f"expected '-' before next token, got {text[pos]!r}")
        pos += 1
    return ChainDescriptor(tuple(entries))


def _scan_angle(text: str, pos: int) -> tuple[int | None, int]:
    n = len(text)
    if pos >= n:
        return None, pos
    if text[pos] == "(":
        close = text.find(")", pos)
        if close < 0:
            raise ChainSyntaxError(pos, "unterminated '(' in connection angle")
        inner = text[pos + 1 : close]
        return _angle_value(inner, pos + 1), close + 1
    if text[pos].isdigit():
        return _scan_digits(text, pos, pos)
    # A '-' directly followed by a digit is a bare negative angle, not a
    # token delimiter.
    if text[pos] == "-" and pos + 1 < n and text[pos + 1].isdigit():
        return _scan_digits(text, pos + 1, pos)
    return None, pos


def _scan_digits(text: str, digit_start: int, angle_start: int) -> tuple[int, int]:
    end = digit_start
    while end < len(text) and text[end].isdigit():
        end += 1
    return _angle_value(text[angle_start:end], angle_start), end


def _angle_value(token: str, position: int) -> int:
    digits = token[1:] if token.startswith("-") else token
    # ASCII digits only: int() would also take '+', '_', spaces and other scripts' digits.
    if not (digits.isascii() and digits.isdigit()):
        raise ChainSyntaxError(position, f"malformed connection angle {token!r}")
    value = int(token)
    if value not in ANGLES:
        raise ChainSyntaxError(position, f"connection angle {value} not in {ANGLES}")
    return value


def serialize(d: ChainDescriptor) -> str:
    """Canonical string form: angles on every non-base token, -90 as (-90)."""
    parts = []
    for i, e in enumerate(d.entries):
        token = e.type_code + ("'" if e.inverted else "")
        if i > 0:
            angle = int(e.connection_angle)
            token += f"({angle})" if angle < 0 else str(angle)
        parts.append(token)
    return "-".join(parts)

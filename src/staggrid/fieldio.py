"""Plain-text serialization for FieldND values.

Format, one item per line:

    staggrid-field 1
    ndim 2
    shape 4 3
    staggered-axis none
    count 12
    1.0
    -2.5
    ...

Values are written with ``repr(float(v))``, which round-trips float64
exactly, and stored in C (row-major) order.  ``staggered-axis`` is either
``none`` or the axis index.  Parsing is strict: any malformed header,
count mismatch, or unreadable value raises FieldFormatError.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .errors import FieldFormatError
from .ndfield import FieldND

_MAGIC = "staggrid-field 1"
#: What float() takes but a written value never holds: digit separators and
#: the blanks it strips.
_NOT_IN_VALUES = "_ \t\v\f"
#: Values formatted per block by write_field.
_BLOCK = 8192


def write_field(path: Union[str, os.PathLike], field: FieldND) -> None:
    """Write a field to ``path`` in the plain-text format."""
    values = field.values
    lines = [_MAGIC,
             f"ndim {values.ndim}",
             "shape " + " ".join(str(n) for n in values.shape),
             "staggered-axis " + ("none" if field.staggered_axis is None
                                  else str(field.staggered_axis)),
             f"count {values.size}"]
    # float.__repr__ of the Python floats that tolist() makes is repr(float(v));
    # a block at a time, so that at most _BLOCK of those floats are held at once
    flat = values.ravel(order="C")
    for start in range(0, flat.size, _BLOCK):
        lines.extend(map(float.__repr__, flat[start:start + _BLOCK].tolist()))
    lines.append("")   # the final newline, in the one joined string
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))


def read_field(path: Union[str, os.PathLike]) -> FieldND:
    """Read a field written by :func:`write_field`.

    Raises FieldFormatError on any deviation from the format, including
    values the field type itself rejects (non-finite entries, axis out of
    range).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FieldFormatError(f"cannot read field file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"field file {path} is not ASCII text") from exc

    # "\n" only: text mode has turned "\r\n" and "\r" into it, and splitlines
    # would also break at "\v", "\f" and "\x1c".."\x1e", inside a value or header
    lines = raw.split("\n")
    if lines[-1] == "":
        lines.pop()   # the final newline ends the last line: no empty entry
    if len(lines) < 5:
        raise FieldFormatError(f"field file {path} is truncated: header incomplete")
    if lines[0] != _MAGIC:
        raise FieldFormatError(
            f"field file {path} has bad magic line {lines[0]!r}; expected {_MAGIC!r}"
        )
    ndim = _header_int(path, lines[1], "ndim")
    if ndim < 1:
        raise FieldFormatError(f"field file {path}: ndim must be >= 1, got {ndim}")
    shape = _header_shape(path, lines[2], ndim)
    axis_token = _header_token(path, lines[3], "staggered-axis")
    staggered_axis = (None if axis_token == "none" else
                      _plain_int(path, axis_token, "staggered-axis other than 'none'"))
    count = _header_int(path, lines[4], "count")
    expected = 1
    for n in shape:
        expected *= n
    if count != expected:
        raise FieldFormatError(
            f"field file {path}: count {count} does not match shape "
            f"{'x'.join(str(n) for n in shape)} = {expected}"
        )

    body = lines[5:]
    if len(body) != count:
        raise FieldFormatError(
            f"field file {path}: expected {count} values, found {len(body)}"
        )
    # float() would also accept digit separators and surrounding blanks (\v
    # and \f among them), so scan the body text for them once; a value never
    # contains any.
    start = sum(len(line) + 1 for line in lines[:5])
    if any(raw.find(ch, start) >= 0 for ch in _NOT_IN_VALUES):
        k = next(k for k, token in enumerate(body) if any(ch in token for ch in _NOT_IN_VALUES))
        raise FieldFormatError(f"field file {path}: bad value on line {6 + k}: {body[k]!r}")
    try:
        values = np.array(body, dtype=np.float64)
    except ValueError:
        # numpy parses what float() parses; float() finds the line to name
        for k, token in enumerate(body):
            try:
                float(token)
            except ValueError:
                raise FieldFormatError(
                    f"field file {path}: bad value on line {6 + k}: {token!r}"
                ) from None
        raise
    try:
        return FieldND(values.reshape(shape), staggered_axis=staggered_axis)
    except ValueError as exc:
        raise FieldFormatError(f"field file {path}: {exc}") from exc


def _header_parts(path, line: str):
    """A header line split at single spaces, its only separator: FieldFormatError
    on any other whitespace, which str.split() would also split at."""
    if any(ch.isspace() for ch in line.replace(" ", "")):
        raise FieldFormatError(
            f"field file {path}: header line {line!r} holds whitespace other than spaces"
        )
    return line.split(" ")


def _header_token(path, line: str, key: str) -> str:
    parts = _header_parts(path, line)
    if len(parts) != 2 or parts[0] != key:
        raise FieldFormatError(
            f"field file {path}: expected '{key} <value>', got {line!r}"
        )
    return parts[1]


def _plain_int(path, token: str, key: str) -> int:
    """A header integer: plain ASCII digits only, unlike int()."""
    if not token.isdigit():
        raise FieldFormatError(f"field file {path}: {key} must be plain digits, got {token!r}")
    return int(token)


def _header_int(path, line: str, key: str) -> int:
    return _plain_int(path, _header_token(path, line, key), key)


def _header_shape(path, line: str, ndim: int):
    parts = _header_parts(path, line)
    if not parts or parts[0] != "shape":
        raise FieldFormatError(f"field file {path}: expected 'shape ...', got {line!r}")
    if len(parts) != 1 + ndim:
        raise FieldFormatError(
            f"field file {path}: shape lists {len(parts) - 1} extents but ndim is {ndim}"
        )
    shape = tuple(_plain_int(path, p, "shape") for p in parts[1:])
    if any(n < 1 for n in shape):
        raise FieldFormatError(f"field file {path}: shape extents must be >= 1")
    return shape

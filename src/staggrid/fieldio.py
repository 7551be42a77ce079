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
``none`` or the axis index.  A line ends at ``\n``, ``\r\n`` or a lone
``\r``.  Parsing is strict: any malformed header, count mismatch, or
unreadable value raises FieldFormatError, and a bad value is named by the
first line that holds one.

Both directions hold one block of strings at a time, never a string per
value: the write formats ``_BLOCK`` values per write call.  The read takes
the five header lines one ``readline`` each and the body in one read,
counts the body's lines before it allocates the values, then parses it a
window of about ``_WINDOW`` characters at a time.
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
#: Characters of the body split and parsed per window by read_field.
_WINDOW = 1 << 17


def write_field(path: Union[str, os.PathLike], field: FieldND) -> None:
    """Write a field to ``path`` in the plain-text format."""
    values = field.values
    axis = "none" if field.staggered_axis is None else str(field.staggered_axis)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC}\nndim {values.ndim}\nshape {' '.join(map(str, values.shape))}\n"
                 f"staggered-axis {axis}\ncount {values.size}\n")
        # "%r" of the Python floats that tolist() makes is repr(float(v)); one
        # block at a time, in C order whatever the layout, so that at most
        # _BLOCK floats and their strings are held at once
        for start in range(0, values.size, _BLOCK):
            block = values.flat[start:start + _BLOCK].tolist()
            fh.write(("%r\n" * len(block)) % tuple(block))


def read_field(path: Union[str, os.PathLike]) -> FieldND:
    """Read a field written by :func:`write_field`.

    Raises FieldFormatError on any deviation from the format, including
    values the field type itself rejects (non-finite entries, axis out of
    range).
    """
    # text mode ends a line at "\n", "\r\n" or a lone "\r" and hands each on as
    # "\n"; unlike str.splitlines, at no "\v", "\f" or "\x1c".."\x1e"
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = [fh.readline() for _ in range(5)]
            raw = fh.read()
    except OSError as exc:
        raise FieldFormatError(f"cannot read field file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"field file {path} is not ASCII text") from exc

    if not header[4]:
        raise FieldFormatError(f"field file {path} is truncated: header incomplete")
    header = [line.rstrip("\n") for line in header]
    if header[0] != _MAGIC:
        raise FieldFormatError(
            f"field file {path} has bad magic line {header[0]!r}; expected {_MAGIC!r}"
        )
    ndim = _header_int(path, header[1], "ndim")
    if ndim < 1:
        raise FieldFormatError(f"field file {path}: ndim must be >= 1, got {ndim}")
    shape = _header_shape(path, header[2], ndim)
    axis_token = _header_token(path, header[3], "staggered-axis")
    staggered_axis = (None if axis_token == "none" else
                      _plain_int(path, axis_token, "staggered-axis other than 'none'"))
    count = _header_int(path, header[4], "count")
    expected = 1
    for n in shape:
        expected *= n
    if count != expected:
        raise FieldFormatError(
            f"field file {path}: count {count} does not match shape "
            f"{'x'.join(str(n) for n in shape)} = {expected}"
        )

    # the body is raw[:stop], one value per line, the final newline opening
    # none; counted before anything is allocated for it
    stop = len(raw) - raw.endswith("\n")
    found = raw.count("\n", 0, stop) + 1 if raw else 0
    if found != count:
        raise FieldFormatError(
            f"field file {path}: expected {count} values, found {found}"
        )
    # a window of about _WINDOW characters at a time, so that only one
    # window's strings are held at once
    values = np.empty(count)
    done = start = 0
    while done < count:
        end = raw.find("\n", start + _WINDOW, stop)
        end = stop if end < 0 else end
        lines = raw[start:end].split("\n")
        try:
            if any(raw.find(ch, start, end) >= 0 for ch in _NOT_IN_VALUES):
                raise ValueError
            values[done:done + len(lines)] = np.array(lines, dtype=np.float64)
        except ValueError:
            # numpy parses what float() parses; _is_value finds the line to name
            for k, token in enumerate(lines):
                if not _is_value(token):
                    raise FieldFormatError(
                        f"field file {path}: bad value on line {6 + done + k}: {token!r}"
                    ) from None
            raise
        done += len(lines)
        start = end + 1
    try:
        return FieldND(values.reshape(shape), staggered_axis=staggered_axis)
    except ValueError as exc:
        raise FieldFormatError(f"field file {path}: {exc}") from exc


def _is_value(token: str) -> bool:
    """Whether float() parses ``token`` and it holds none of _NOT_IN_VALUES."""
    try:
        float(token)
    except ValueError:
        return False
    return not any(ch in token for ch in _NOT_IN_VALUES)


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
    return tuple(_plain_int(path, p, "shape") for p in parts[1:])

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
the five header lines one ``readline`` of at most ``_WINDOW`` characters
each and checks them before it reads the body, in one read; it counts the
body's lines before it allocates the values, then parses it a window of
about ``_WINDOW`` characters at a time.
"""

from __future__ import annotations

import math
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
#: Characters of the body split and parsed per window by read_field, and the
#: most it reads of one header line.
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
    # "\n"; unlike str.splitlines, at no "\v", "\f" or "\x1c".."\x1e".  A byte
    # beyond ASCII decodes to a lone surrogate, found where it is read (isascii is
    # O(1) on ASCII text): the header is checked before the body is read, so a bad
    # one is refused unread, wherever the body holds such a byte
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            shape, staggered_axis, count = _header(path, [fh.readline(_WINDOW) for _ in range(5)])
            raw = fh.read()
    except OSError as exc:
        raise FieldFormatError(f"cannot read field file {path}: {exc}") from exc
    if not raw.isascii():
        raise FieldFormatError(f"field file {path} is not ASCII text")

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


def _header(path, lines):
    """``(shape, staggered_axis, count)`` from the five header lines as readline
    returned them, else FieldFormatError on the first fault: text that is not
    ASCII, a line cut at the ``_WINDOW`` limit, then each line in the order
    read.  A header line splits at single spaces, its only separator
    (str.split() would also split at other whitespace), and a header integer
    is plain ASCII digits, unlike int(), and no more of them than int()
    converts."""
    if not "".join(lines).isascii():
        raise FieldFormatError(f"field file {path} is not ASCII text")
    for k, line in enumerate(lines, 1):
        if len(line) == _WINDOW and not line.endswith("\n"):
            raise FieldFormatError(
                f"field file {path}: header line {k} is longer than {_WINDOW} characters")
    if not lines[4]:
        raise FieldFormatError(f"field file {path} is truncated: header incomplete")
    lines = [line.rstrip("\n") for line in lines]
    if lines[0] != _MAGIC:
        raise FieldFormatError(
            f"field file {path} has bad magic line {lines[0]!r}; expected {_MAGIC!r}"
        )
    fields = {}
    for line, key in zip(lines[1:], ("ndim", "shape", "staggered-axis", "count")):
        if any(ch.isspace() for ch in line.replace(" ", "")):
            raise FieldFormatError(
                f"field file {path}: header line {line!r} holds whitespace other than spaces"
            )
        name, *tokens = line.split(" ")
        if key == "shape":
            if name != key:
                raise FieldFormatError(f"field file {path}: expected 'shape ...', got {line!r}")
            if len(tokens) != fields["ndim"]:
                raise FieldFormatError(f"field file {path}: shape lists {len(tokens)} "
                                       f"extents but ndim is {fields['ndim']}")
        elif len(tokens) != 1 or name != key:
            raise FieldFormatError(f"field file {path}: expected '{key} <value>', got {line!r}")
        if key == "staggered-axis" and tokens == ["none"]:
            fields[key] = None
            continue
        for token in tokens:
            if not token.isdigit():
                what = "staggered-axis other than 'none'" if key == "staggered-axis" else key
                raise FieldFormatError(
                    f"field file {path}: {what} must be plain digits, got {token!r}")
        try:
            fields[key] = tuple(map(int, tokens)) if key == "shape" else int(tokens[0])
        except ValueError:   # beyond the interpreter's sys.get_int_max_str_digits()
            raise FieldFormatError(
                f"field file {path}: {key} has more digits than int() converts") from None
        if key == "ndim" and fields[key] < 1:
            raise FieldFormatError(f"field file {path}: ndim must be >= 1, got {fields[key]}")
    shape, count = fields["shape"], fields["count"]
    expected = math.prod(shape)
    if count != expected:
        raise FieldFormatError(
            f"field file {path}: count {count} does not match shape "
            f"{'x'.join(str(n) for n in shape)} = {expected}"
        )
    return shape, fields["staggered-axis"], count

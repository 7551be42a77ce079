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

Values are written with the bytes of ``repr(float(v))``, which round-trips
float64 exactly, and stored in C (row-major) order.  Most lines come from a
formatter that finds each value's shortest round-trip digits in numpy, a
block at a time; ``repr`` itself writes the values that it cannot certify.
``staggered-axis`` is either ``none`` or the axis index.  A line ends at
``\n``, ``\r\n`` or a lone ``\r``.  Parsing is strict: any malformed header,
count mismatch, or unreadable value raises FieldFormatError, and a bad value
is named by the first line that holds one.

Both directions hold one block of text at a time, never a string per
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
from .grid import _shown
from .ndfield import FieldND

_MAGIC = "staggrid-field 1"
#: What float() takes but a written value never holds: digit separators and
#: the blanks it strips.
_NOT_IN_VALUES = "_ \t\v\f"
#: Values formatted per block by write_field.
_BLOCK = 4096
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
        # one block at a time, in C order whatever the layout, so that at most
        # _BLOCK values and their text are held at once
        for start in range(0, values.size, _BLOCK):
            fh.write(_format_block(values.flat[start:start + _BLOCK]))


def _tables():
    """``(rows, quads, lead)`` for :func:`_format_block`.

    A certified line is built in a row of 40 bytes: the sign, ``0.`` and three
    zeros, then the value's 17 digits, each followed by a separator: ``.`` after
    the last integer digit, the newline after the 17th, a space elsewhere.  A
    character the line does not use is a space, and the spaces are deleted.
    ``rows`` holds the row with every digit 0 for each sign, decimal-point
    position d = -3..16 and count t = 1..17 of digits shown; ``quads`` and
    ``lead`` hold the digit values that are added to it, four and one at a time.
    """
    minus, space, zero, dot, newline = np.frombuffer(b"- 0.\n", np.uint8)
    neg = np.arange(2)[:, None, None]
    d = np.arange(-3, 17)[:, None, None]
    t = np.arange(1, 18)[:, None]
    digit = np.arange(17)   # in column 6 + 2 digit, and its separator in the next
    rows = np.full((2, 20, 17, 40), space)
    rows[..., 0] = np.where(neg, minus, space)
    rows[..., 1:3] = np.where(d <= 0, (zero, dot), space)
    rows[..., 3:6] = np.where(np.arange(1, 4) <= -d, zero, space)
    rows[..., 6::2] = np.where(digit < t, zero, space)
    rows[..., 7::2] = np.where(digit == d - 1, dot, space)
    rows[..., 39] = newline
    quads = np.zeros((10**4, 8), np.uint8)
    for i in range(4):
        quads[:, 2 * i] = np.arange(10**4, dtype=np.uint16) // 10**(3 - i) % 10
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = np.arange(10)
    return (rows.reshape(-1, 40).view(np.uint64), quads.view(np.uint64).ravel(),
            lead.view(np.uint64).ravel())


_ROWS, _QUADS, _LEAD = _tables()
_REPR_ROW = np.frombuffer(b"%r\n".ljust(40), np.uint64)
#: 10**k as floats, all exact
_TEN = np.array([float(10**k) for k in range(23)])


def _format_block(block: np.ndarray) -> str:
    """``"".join(repr(float(v)) + "\\n" for v in block)``, byte for byte: the
    lines of certified values are built in numpy, and ``"%r"`` formats the
    others."""
    digits, zeros, point, ok = _shortest(np.abs(block))
    lead = digits // 10**16
    high, low = np.divmod(digits - lead * 10**16, 10**8)
    # a digit is shown up to the last nonzero one, and up to the first after the point
    code = (np.signbit(block) * 20 + point + 3) * 17 + np.maximum(point + 1, 17 - zeros) - 1
    text = bytearray(40 * block.size)
    # word 0 of a row ends with the first digit, and each other word holds four
    rows = np.frombuffer(text, np.uint64).reshape(-1, 5)
    _ROWS.take(code, axis=0, out=rows, mode="clip")   # uncertified values may lie outside
    rows[:, 0] += _LEAD.take(lead, mode="clip")
    for i, part in enumerate((high, low)):
        rows[:, 2 * i + 1] += _QUADS[part // 10**4]
        rows[:, 2 * i + 2] += _QUADS[part % 10**4]
    rows[~ok] = _REPR_ROW
    del rows   # so that the row buffer is freed once it is translated
    text = text.translate(None, b" ").decode("ascii")
    return text % tuple(block[~ok].tolist()) if not ok.all() else text


def _shortest(a: np.ndarray):
    """``(digits, zeros, point, ok)`` for the magnitudes ``a``: where ``ok``,
    ``repr`` writes the value as the 17-digit integer ``digits`` with its
    ``zeros`` trailing zeros dropped, times 10**(point - 17), in fixed notation.

    repr picks the fewest digits that read back as the value, and of those
    the nearest to it (Steele and White; Adams, "Ryu", PLDI 2018).  Scaled by
    10**k into [1e16, 1e17), the value is X = p + e exactly, and the integers
    that read back as it are L..U, those within half an ulp of X.  An end of
    that interval is an integer only where 2**52 <= |v| < 1e16 (k = 1), and
    there no end has more trailing zeros than X itself, so whether an end
    reads back never matters.  Not ``ok``: zero, |v| < 1e-4 and |v| >= 1e16
    (repr writes an exponent there), powers of two (their interval is not
    symmetric), a value with two nearest candidates, and one that log10 put
    in the wrong decade.
    """
    ok = (a >= 1e-4) & (a < 1e16) & (np.frexp(a)[0] != 0.5)
    a = np.where(ok, a, 1.5)   # a stand-in, so that no ufunc below warns
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, e = _two_product(a, _TEN[k])
    half = np.ldexp(_TEN[k], np.frexp(a)[1] - 54)   # half an ulp of a, times 10**k
    p = p.astype(np.int64)
    low = p + np.ceil(e - half).astype(np.int64)
    high = p + np.floor(e + half).astype(np.int64)
    ok &= (low >= 10**16) & (high < 10**17)
    # the most trailing zeros that a candidate in L..U has: each 10**j that
    # divides one is tried on the values that still have one
    zeros = np.zeros(a.size, np.intp)
    live = np.flatnonzero(ok)
    for j in range(1, 17):
        live = live[high[live] // 10**j * 10**j >= low[live]]
        if not live.size:
            break
        zeros[live] = j
    # the multiple of 10**zeros nearest X = floor(X) + frac, which lies in L..U
    step = 10 ** zeros
    floor_e = np.floor(e)
    whole, frac = p + floor_e.astype(np.int64), e - floor_e
    below = whole // step
    over = (2 * (whole - below * step) - step) + 2 * frac   # 2 (X - below * step) - step
    ok &= over != 0
    return (below + (over > 0)) * step, zeros, 17 - k, ok


def _two_product(a, b):
    """``(p, e)``: p = a*b rounded and p + e = a*b exactly (Dekker 1971, with
    Veltkamp's split, as numpy has no fused multiply-add)."""
    def split(x):
        c = x * 134217729.0   # 2**27 + 1
        high = c - (c - x)
        return high, x - high
    (ah, al), (bh, bl) = split(a), split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


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
            f"{'x'.join(str(n) for n in shape)} = {_shown(expected)}"
        )
    return shape, fields["staggered-axis"], count

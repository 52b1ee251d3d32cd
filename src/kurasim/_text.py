"""The one format of every text artifact: ASCII, a header line, then rows of
shortest round-trip decimals (repr of a Python float, so artifacts are
byte-comparable) joined by commas (an edge list: integers, by spaces);
JSON sidecars and manifests are written with sorted keys and a 2-space indent.

Float tables are formatted by a numpy kernel that gives repr's bytes
without a Python call per value. For finite 1e-4 <= |x| < 2**50 that are
not powers of two it finds the shortest decimal that reads back as x with
exact integer arithmetic (Steele & White 1990; Adams 2018): Dekker's split
(1971) makes x * 10**p exact in float64, and the digits are the multiple of
the largest power of ten inside x's rounding interval that is nearest to it.
A block takes one pass, with an in-range stand-in for every other value;
zeros are then written directly, and repr formats the rest in one batch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# values formatted at a time: bounds the temporaries of one block (a few
# dozen arrays of 8 bytes a value) and keeps them in cache
BLOCK_VALUES = 1 << 12

_I64, _U64 = np.dtype(np.int64), np.dtype("<u8")
_POW10 = 10 ** np.arange(19, dtype=_I64)
_POW10F = 10.0 ** np.arange(21)  # exact in float64 up to 10**22
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves

# Cell of one value, 24 bytes, before the dot: the sign ('-' or NUL) at byte
# 0, then the 21 bytes "0000" + 17 digits. For decimal exponent E
# (10**E <= |x| < 10**(E+1)) the dot goes at byte q = 6 + E, the bytes from q
# on move up one, and every byte outside [start, end) but the sign becomes
# NUL, which is deleted from the block's bytes: start keeps one integer digit
# '0' when E < 0, and end drops the t trailing zeros of the digits but keeps
# one decimal. The comma or newline is byte 23.
_digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_quads = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000".."9999"
for _i in range(4):
    _quads[..., _i] = _digit.reshape((10,) + (1,) * (3 - _i))
_LUT = _quads.view("<u4").ravel()
_first = np.zeros((2, 10, 8), np.uint8)  # bytes 0..5: sign, "0000", first digit
_first[1, :, 0] = ord("-")
_first[:, :, 1:5] = ord("0")
_first[:, :, 5] = _digit
_WORD0 = _first.view(_U64).ravel()
_byte = np.arange(24)
_E = np.arange(-4, 16)[:, None, None]
_q = 6 + _E
_keep = ((_byte >= 5 + np.minimum(_E, 0))
         & (_byte < np.maximum(22 - np.arange(17)[:, None], 7 + _E))) | (_byte == 0)
_lo_keep = ((_byte < _q) & _keep).astype(np.uint8) * np.uint8(0xFF)
_hi_keep = ((_byte > _q) & np.roll(_keep, 1, axis=-1)).astype(np.uint8) * np.uint8(0xFF)
# masks by (E, t) and dots by E, one array a word
_BY_ET = np.stack([_lo_keep.view(_U64), _hi_keep.view(_U64)]).transpose(3, 0, 1, 2).reshape(6, -1)
_DOTS = ((_byte == _q) * np.uint8(ord("."))).astype(np.uint8).view(_U64)[:, 0].T.copy()
_LEFT = np.frombuffer(b"%r".ljust(24, b"\0"), _U64)  # the cell of a value left to repr
_ZERO = np.frombuffer(b"\0" b"0.0".ljust(24, b"\0") + b"-" b"0.0".ljust(24, b"\0"),
                      _U64).reshape(2, 3)  # the cells of 0.0 and -0.0
del _digit, _quads, _i, _first, _byte, _E, _q, _keep, _lo_keep, _hi_keep


def fmt(x) -> str:
    return repr(float(x))


def ensure_parent(path: str | Path) -> Path:
    """path, its directory made if missing: a run's --out comes with its first artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_table(path: str | Path, header: str | None, table) -> Path:
    """Write the header line, then the rows of a 2-d array, a block at a time.

    With header None the rows are appended to the file. A float table is
    comma-separated, every value written as repr of a Python float, through
    the shortest-decimal kernel of this module, which writes the same bytes.
    An int table (an edge list) is space-separated, each value as %d.
    """
    path = ensure_parent(path)
    table = np.asarray(table)
    rows, width = table.shape
    step = max(1, BLOCK_VALUES // width)
    if table.dtype.kind == "f":
        format_rows = _float_rows
    else:
        template = " ".join(["%d"] * width) + "\n"
        def format_rows(block):
            return (template * len(block) % tuple(block.ravel().tolist())).encode("ascii")
    with path.open("ab" if header is None else "wb") as fh:
        if header is not None:
            fh.write(f"{header}\n".encode("ascii"))
        for lo in range(0, rows, step):
            fh.write(format_rows(table[lo:lo + step]))
    return path


# a comma or newline at byte 23 of a cell: the top byte of its last word
_COMMA, _NEWLINE = np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"\n", _U64)


def _float_rows(block: np.ndarray) -> bytes:
    """The comma-separated rows of a 2-d float block, each value as repr writes it.

    A value outside the kernel's range (zeros, inf, nan, powers of two, and
    |x| < 1e-4 or >= 2**50) is formatted as the stand-in 1.5, and its cell is
    then overwritten: a zero's with its own, any other's with repr's %r.
    """
    rows, width = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    negative = v.view(_I64) < 0
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 2.0 ** 50) & (a.view(_I64) & _MANTISSA != 0)
    digits, exp10, zeros, done = _shortest(np.where(fast, a, 1.5))
    done &= fast
    cells = _cells(digits, exp10, zeros, negative)
    cells[~done] = _LEFT
    at = np.flatnonzero(a == 0)
    cells[at] = _ZERO[negative[at].view(np.uint8)]
    done[at] = True
    cells[:, 2] |= _COMMA
    cells.reshape(rows, width, 3)[:, -1, 2] ^= _COMMA ^ _NEWLINE
    text = cells.tobytes().translate(None, b"\0")
    left = np.flatnonzero(~done)
    return _repr_batch(text, v[left]) if left.size else text


def _repr_batch(text: bytes, values: np.ndarray) -> bytes:
    """text with its %r placeholders replaced by the reprs of the values left to repr."""
    return (text.decode("ascii") % tuple(values.tolist())).encode("ascii")


def _shortest(a: np.ndarray):
    """Shortest round-trip decimals of finite 1e-4 <= a < 2**50, no power of two.

    Returns the 17 digits D of each (a ~ D * 10**(E - 16)), the decimal
    exponent E, the count t of D's trailing zeros, and whether the value
    was decided: a log10 that lands in the wrong decade and an exact tie
    between two shortest decimals are not, and go to repr (D is 0 there).
    """
    exp10 = np.floor(np.log10(a)).astype(_I64)
    s = _POW10F[16 - exp10]
    # a * s = hi + lo exactly (Dekker's product), with hi an integer >= 2**53
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * s
    sh = c - (c - s)
    sl = s - sh
    hi = a * s
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    floor_lo = np.floor(lo)
    whole = hi.astype(_I64) + floor_lo.astype(_I64)
    frac = lo - floor_lo
    # Half an ulp of a, scaled like it, is exact. The decimals that read back
    # as a are the integers within h of a * s; the ends of that interval are
    # odd multiples of a power of two below 1 in this range, never integers,
    # so the even-significand rule for them never applies.
    h = ((a.view(_I64) & _EXPONENT) - (53 << 52)).view(np.float64) * s
    below, above = np.ceil(frac - h), np.floor(frac + h)
    top = whole + above.astype(_I64)
    width = (above - below).astype(_I64)
    # a multiple of 10**t lies in [top - width, top] iff top % 10**t <= width
    zeros = (top - top // 10 * 10 <= width).astype(_I64)
    hundreds = top // 100
    at = np.flatnonzero(top - hundreds * 100 <= width)
    if at.size:  # width < 100: the zeros of top // 100 are the rest
        zeros[at] = 2 + (hundreds[at] % _POW10[1:15, None] == 0).sum(axis=0)
    # the multiple of 10**t nearest to a * s: round half away, ties to repr
    step = _POW10[zeros]
    rest = whole % step
    past_half = (2 * rest - step).astype(np.float64) + 2 * frac
    digits = whole - rest + step * (past_half > 0)
    ok = (past_half != 0) & (whole >= 10 ** 16) & (digits < 10 ** 17)
    return digits * ok, exp10, zeros, ok


def _cells(digits, exp10, zeros, negative) -> np.ndarray:
    """(n, 3) words: each value's 24-byte cell in fixed notation, NUL-padded."""
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    quads = np.empty((digits.size, 4), _I64)
    np.floor_divide(high, 10 ** 4, out=quads[:, 0])
    np.subtract(high, quads[:, 0] * 10 ** 4, out=quads[:, 1])
    np.floor_divide(low, 10 ** 4, out=quads[:, 2])
    np.subtract(low, quads[:, 2] * 10 ** 4, out=quads[:, 3])
    eights = _LUT[quads].view(_U64)  # digits 2..9 and 10..17, in byte order
    words = (_WORD0[first + 10 * negative] | (eights[:, 0] << 48),
             (eights[:, 0] >> 16) | (eights[:, 1] << 48),
             eights[:, 1] >> 16)
    e = exp10 + 4
    et = e * 17 + zeros
    cells = np.empty((digits.size, 3), _U64)
    carry = 0
    for j, word in enumerate(words):  # in place: a block's temporaries stay in cache
        moved = word << 8
        moved |= carry
        carry = word >> 56
        moved &= _BY_ET[2 * j + 1][et]
        word &= _BY_ET[2 * j][et]
        moved |= word
        np.bitwise_or(moved, _DOTS[j][e], out=cells[:, j])
    return cells


def read_table(path: str | Path) -> tuple[str, np.ndarray]:
    """Header ("" if none) and float rows of a CSV, converted a row at a time."""
    with Path(path).open(encoding="ascii") as fh:
        header = next(fh, "").rstrip("\n")
        width = len(header.split(","))
        rows = []
        for i, ln in enumerate(fh):
            row = ln.rstrip("\n").split(",")
            if len(row) != width:
                raise ValueError(f"row {i} of {path} has {len(row)} fields, expected {width}")
            rows.append(np.array(row, dtype=float))
    return header, np.array(rows).reshape(len(rows), width)


def write_json(path: str | Path, obj) -> Path:
    path = ensure_parent(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="ascii"))
